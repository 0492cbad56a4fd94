(** The result digest's byte stream, and its hash.

    A digest is 64-bit FNV-1a over the scheme's [Attr.Set.to_string],
    then, per tuple in [Tuple.compare] order, ["\n"] followed by the
    tuple's rendering [(A=v, B=w)] over the sorted attributes, values
    spelled as {!Value.to_string}.  This module is the one place that
    format is written down: {!Relation.digest} feeds it tuples and
    [Frame.digest] feeds it packed rows, and both must agree bit for bit
    with what the serve protocol has always put on the wire.

    Each piece is hashed where it lies, in a loop whose state stays
    unboxed: a digest builds no per-tuple string and allocates nothing
    per byte or per value. *)

type t

val create : Attr.Set.t -> t
(** A digest of a relation over this scheme, with no rows yet. *)

val value : t -> int -> Value.t -> unit
(** [value d j v] appends column [j] (0-based, in sorted attribute
    order) of the current row. *)

val rendered : t -> int -> string -> unit
(** {!value} with the value already rendered by {!Value.to_string}. *)

val end_row : t -> unit
(** Close the current row; columns must have been appended in order. *)

val finish : t -> int64
