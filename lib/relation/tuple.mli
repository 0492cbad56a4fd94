(** Tuples.

    A tuple over a relation scheme [R] maps each attribute of [R] to a value
    of its domain (Section 2).  The scheme of a tuple is implicit: it is the
    domain of the mapping. *)

type t
(** A finite mapping from attributes to values. *)

val empty : t
(** The tuple over the empty scheme. *)

val of_list : (Attr.t * Value.t) list -> t
(** [of_list bindings] builds a tuple.
    @raise Invalid_argument if an attribute is bound twice. *)

val of_string_list : (string * Value.t) list -> t
(** [of_string_list] is {!of_list} with attribute names as strings. *)

val of_distinct_bindings : (Attr.t * Value.t) list -> t
(** [of_list] minus the duplicate-attribute probe: the caller
    guarantees the attributes are distinct (a later binding for the
    same attribute would silently win).  The fast path for decoding
    columnar rows, where the scheme is an attribute {e set} by
    construction. *)

val of_columns : Attr.t array -> (int -> Value.t) -> t
(** [of_columns attrs get] is
    [of_distinct_bindings [(attrs.(0), get 0); ...]] without the
    intermediate list — the same distinct-attributes contract, driven
    by column index for row-major decode loops. *)

val bindings : t -> (Attr.t * Value.t) list
(** Bindings in increasing attribute order. *)

val iter : (Attr.t -> Value.t -> unit) -> t -> unit
(** The bindings in increasing attribute order, without building the
    {!bindings} list. *)

val scheme : t -> Attr.Set.t
(** The set of attributes the tuple is defined on. *)

val get : t -> Attr.t -> Value.t
(** [get t a] is the value [t] assigns to [a].
    @raise Not_found if [a] is not in the tuple's scheme. *)

val get_opt : t -> Attr.t -> Value.t option

val set : t -> Attr.t -> Value.t -> t
(** [set t a v] binds [a] to [v], replacing any previous binding. *)

val restrict : t -> Attr.Set.t -> t
(** [restrict t x] is the paper's [t[X]]: the restriction of the mapping to
    the attributes in [x].  Attributes of [x] absent from [t]'s scheme are
    ignored. *)

val joinable : t -> t -> bool
(** [joinable t1 t2] holds iff [t1] and [t2] agree on every attribute common
    to their schemes — the condition for them to contribute a tuple to a
    natural join. *)

val merge : t -> t -> t
(** [merge t1 t2] is the tuple over the union of the two schemes taking
    values from either argument.
    @raise Invalid_argument if the tuples disagree on a common attribute. *)

val compare : t -> t -> int
(** Total order, comparing schemes first and then values attribute-wise. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** Prints as [(A=1, B=x)]. *)

val to_string : t -> string
