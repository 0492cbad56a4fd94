(** Relation states and the relational algebra over them.

    A relation state over a scheme [R] is a finite set of tuples over [R]
    (Section 2).  All operations are purely functional; the underlying
    representation is a balanced set of tuples, so every state is
    automatically duplicate-free. *)

type t
(** A relation state: a scheme together with a finite set of tuples over
    that scheme. *)

(** {1 Construction} *)

val empty : Attr.Set.t -> t
(** [empty scheme] is the empty state over [scheme].
    @raise Invalid_argument if [scheme] is empty (relation schemes are
    non-empty subsets of [U]). *)

val make : Attr.Set.t -> Tuple.t list -> t
(** [make scheme tuples] builds a state.  Duplicate tuples are collapsed.
    @raise Invalid_argument if a tuple's scheme differs from [scheme]. *)

val of_uniform_tuples : Attr.Set.t -> Tuple.t list -> t
(** [make] for callers that construct every tuple over [scheme]
    themselves (columnar decode): only the head tuple's scheme is
    checked, and the set is built in one sorting pass rather than
    per-tuple checked inserts.  Duplicates are still collapsed.
    @raise Invalid_argument if the head tuple's scheme differs from
    [scheme], or [scheme] is empty. *)

val of_rows : string -> Value.t list list -> t
(** [of_rows "AB" [[p; 0]; [q; 0]]] builds a state over the scheme written
    in the paper's single-character shorthand; each row lists values in the
    order the attributes appear in the string.  This mirrors the tables
    printed in the paper's examples.
    @raise Invalid_argument if a row's length differs from the scheme's
    width or the shorthand repeats an attribute. *)

val add : Tuple.t -> t -> t
(** [add tu r] inserts a tuple.
    @raise Invalid_argument if [tu]'s scheme differs from [r]'s. *)

(** {1 Observation} *)

val scheme : t -> Attr.Set.t
val cardinality : t -> int
(** The paper's [τ(R)]: the number of tuples in the state. *)

val is_empty : t -> bool
val mem : Tuple.t -> t -> bool
val tuples : t -> Tuple.t list
(** Tuples in increasing {!Tuple.compare} order. *)

val fold : (Tuple.t -> 'a -> 'a) -> t -> 'a -> 'a
val iter : (Tuple.t -> unit) -> t -> unit
val for_all : (Tuple.t -> bool) -> t -> bool
val exists : (Tuple.t -> bool) -> t -> bool

val distinct_values : t -> Attr.t -> Value.t list
(** [distinct_values r a] is the sorted list of distinct values of [a] in
    [r].
    @raise Invalid_argument if [a] is not in [r]'s scheme. *)

(** {1 Algebra} *)

val natural_join : t -> t -> t
(** [natural_join r1 r2] is the paper's [R ⋈ R']: all tuples over the union
    of the two schemes whose restrictions belong to the operands.  When the
    schemes are disjoint this degenerates to the Cartesian product. *)

val product : t -> t -> t
(** Cartesian product.
    @raise Invalid_argument if the schemes are not disjoint (use
    {!natural_join} for overlapping schemes). *)

val project : t -> Attr.Set.t -> t
(** [project r x] is [R[X]].
    @raise Invalid_argument if [x] is not a non-empty subset of the
    scheme. *)

val select : t -> (Tuple.t -> bool) -> t
(** [select r p] keeps the tuples satisfying [p]. *)

val semijoin : t -> t -> t
(** [semijoin r1 r2] is [R1 ⋉ R2]: the tuples of [r1] that join with some
    tuple of [r2]. *)

val antijoin : t -> t -> t
(** [antijoin r1 r2] is the tuples of [r1] that join with no tuple of
    [r2]. *)

val union : t -> t -> t
val inter : t -> t -> t
val diff : t -> t -> t
(** Set operations.
    @raise Invalid_argument if the schemes differ. *)

val rename : t -> (Attr.t * Attr.t) list -> t
(** [rename r mapping] renames attributes; unmentioned attributes keep
    their names.
    @raise Invalid_argument if the renaming is not injective on the
    scheme. *)

(** {1 Comparison and printing} *)

val equal : t -> t -> bool
val compare : t -> t -> int

val pp : Format.formatter -> t -> unit
(** Prints an ASCII table in the style of the paper's examples. *)

val pp_brief : Format.formatter -> t -> unit
(** Prints [scheme(card)] only, e.g. [AB(4)]. *)

val to_string : t -> string

(** {1 Digest} *)

val digest : t -> int64
(** The result digest every served answer carries (byte stream and
    hash: {!Result_digest}).  Equal relations have equal digests.
    [Frame.digest] computes the same value straight from a frame's
    packed rows. *)
