(** Columnar relation frames: the dictionary-encoded data plane.

    The seed data plane stores tuples as balanced [Value.t Attr.Map.t]
    maps and relations as balanced tree sets, so every join probe pays
    for map surgery and structural hashing of heap-allocated keys.  A
    {e frame} is the flat, integer-coded twin of a {!Relation}: a
    per-database {!Dict} interns every [Value.t] to a dense int code,
    and a relation state becomes one row-major packed-code buffer plus
    a column-index header (the sorted scheme).  Equality, hashing and
    joins then work on packed int rows — no per-probe allocation.

    Row storage is pluggable ({!storage}): [Heap] keeps rows in a boxed
    [int array]; [Bigarray] moves them into an off-heap int32 bigarray
    the GC never scans, so multi-million-row frames stop inflating
    major-heap scan time.  The two backends are observationally
    identical — every operation yields the same canonical rows, and
    {!equal} compares content across backends.

    Frames are kept {e canonical}: rows are sorted lexicographically by
    code and duplicate-free.  Canonical form makes {!equal} a content
    comparison and makes the morsel-driven parallel join deterministic
    at any [MJ_DOMAINS] — however probe morsels were interleaved over
    workers, the merge in morsel-index order plus the final sort-unique
    pass yields bit-identical data.

    {e Ordered dictionaries.}  A database's dictionary is renumbered
    into value order when it is built ({!Db.of_database}), and the
    algebra never interns, so every frame of a database — base or
    derived — has codes that ascend in [Value.compare] order and
    canonical rows that are already in [Tuple.compare] order.  That is
    what lets {!digest} hash a join result straight from its packed
    rows, and {!to_relation}/{!topk} skip ranking the dictionary.  A
    dictionary that {!Dict.intern} grew out of order reports it
    ({!Dict.ordered}), and those consumers then rank by value.

    The public algebra mirrors {!Relation}; [to_relation (of_relation
    dict r) = r] for every state, and each operation agrees with its
    seed counterpart (certified by [test/test_frame.ml] and the
    [bench FRAME] head-to-head). *)

(** {1 Value dictionary} *)

module Dict : sig
  type t
  (** A mutable interning table mapping every distinct [Value.t] seen so
      far to a dense code [0 .. size-1], with the inverse decode array.
      One dictionary is shared by all frames of a database, so codes are
      comparable across relations and join keys never need to look at
      the underlying values. *)

  val create : ?hint:int -> unit -> t
  val size : t -> int

  val intern : t -> Value.t -> int
  (** [intern d v] returns the code of [v], assigning the next dense
      code on first sight. *)

  val code : t -> Value.t -> int option
  (** [code d v] is [v]'s code if it has been interned. *)

  val value : t -> int -> Value.t
  (** Decode.  @raise Invalid_argument if the code is out of range. *)

  val ordered : t -> bool
  (** [true] iff codes ascend in [Value.compare] order: [value d i <
      value d j] whenever [i < j].  A fresh dictionary is ordered,
      {!Db.of_database} returns one renumbered into value order, and
      {!intern} clears the flag for good when it appends a value below
      the largest one so far.  Over an ordered dictionary a canonical
      frame's rows are in [Tuple.compare] order, so {!to_relation},
      {!digest} and {!topk} read them as they are instead of ranking
      the dictionary by value on every call. *)
end

(** {1 Row storage} *)

type storage =
  | Heap  (** boxed [int array] rows on the OCaml heap (default) *)
  | Bigarray
      (** off-heap int32 [Bigarray] rows, invisible to the GC; codes are
          dense dictionary indices, so int32 narrowing is lossless *)

val storage_name : storage -> string
(** ["heap"] / ["bigarray"] — the [MJ_FRAME_STORAGE] spelling. *)

val storage_of_string : string -> storage option
(** Inverse of {!storage_name} (case-insensitive; ["big"] is accepted
    for ["bigarray"]). *)

val all_storages : storage list
(** Both backends, for differential matrices: [[Heap; Bigarray]]. *)

(** {1 Frames} *)

type t
(** A columnar relation state: sorted attribute header, row-major packed
    codes in canonical (sorted, duplicate-free) row order, and the
    dictionary the codes refer to. *)

type stats = {
  mutable probes : int;      (** hash-table probes during joins *)
  mutable probe_hits : int;  (** probes that produced ≥ 1 output row *)
  mutable partitions : int;  (** index build-partitions opened by parallel joins *)
  mutable morsels : int;     (** probe morsels claimed by parallel joins *)
}
(** Counters threaded through the join kernels ([mj_relation] cannot
    depend on the engines; engines fold these into observability
    counters). *)

val fresh_stats : unit -> stats

val of_relation : ?storage:storage -> Dict.t -> Relation.t -> t
(** [of_relation dict r] encodes [r], interning its values in [dict].
    [storage] (default [Heap]) picks the row-store backend. *)

val to_relation : t -> Relation.t
(** Decode back to the seed representation.  Round-trip identity:
    [Relation.equal (to_relation (of_relation d r)) r]. *)

val digest : t -> int64
(** [digest f = Relation.digest (to_relation f)], computed without
    decoding: the canonical rows are streamed into the hash in value
    order (directly over an ordered dictionary, through one value
    ranking otherwise), each code rendered to its string at most once
    per call.  This is the result hash every served answer carries. *)

val scheme : t -> Attr.Set.t
val cardinality : t -> int
(** The paper's τ: the number of rows. *)

val is_empty : t -> bool
val dict : t -> Dict.t

val storage : t -> storage
(** The backend holding this frame's rows. *)

val equal : t -> t -> bool
(** Content equality of canonical frames (scheme + packed rows),
    storage-agnostic: a [Heap] frame equals its [Bigarray] twin.  Only
    meaningful for frames sharing one dictionary. *)

(** {1 Algebra} *)

val default_morsel : int
(** Rows per probe morsel of the parallel join (16384). *)

val natural_join :
  ?obs:Mj_obs.Obs.sink ->
  ?domains:int -> ?par_threshold:int -> ?morsel:int -> ?stats:stats ->
  t -> t -> t
(** [natural_join f1 f2] is the columnar [R1 ⋈ R2].  The join key
    extractor is compiled once per join: common-column offsets are
    precomputed and multi-column keys are FNV-mixed into one int, so
    probing allocates nothing.  When both sides have at least
    [par_threshold] rows (default 4096) and more than one domain is
    available, the join runs morsel-driven over [Mj_pool.Pool]: one
    shared read-only hash index is built over the smaller side in two
    deterministic parallel phases (key hashing over disjoint row
    slices, then chain threading over disjoint bucket ranges), and the
    larger side is probed in fixed-size morsels (default {!
    default_morsel} rows, override with [morsel]) pulled from the
    pool's work queue, each filling a private output buffer; buffers
    merge in morsel-index order and the canonical sort-unique pass —
    itself parallelized by leading-code range for large outputs — makes
    the result bit-identical at any [domains].  The output inherits
    [f1]'s {!storage}.  With an active [obs] sink the parallel path
    records one [build-part] child span per index range and one
    [morsel] child span per probe morsel (via
    [Mj_pool.Pool.run_traced]), each tagged with the worker lane that
    ran it — the per-domain timelines of a parallel join.
    @raise Invalid_argument if the frames use different dictionaries. *)

val semijoin : ?stats:stats -> t -> t -> t
(** [semijoin f1 f2] is [R1 ⋉ R2]. *)

val project : t -> Attr.Set.t -> t
(** [project f x] is [R[X]] with sort-unique dedup on the packed rows.
    @raise Invalid_argument if [x] is not a non-empty subset of the
    scheme. *)

(** {1 Trie iterators and the generic join} *)

(** Linear trie iterators over a frame's packed rows.

    A canonical frame {e is} a trie: rows are sorted lexicographically
    by code, so the rows sharing a fixed prefix of column values form
    one contiguous run, and each deeper column refines the run.  The
    iterator is three small int stacks over the packed buffer — opening
    a level narrows to the current key's run, [next]/[seek] move by
    binary search inside the parent's run — with no node structures and
    no allocation after {!Trie.of_frame}.

    Iterators bind columns in the order induced by a global attribute
    [order] (the generic join's elimination order).  When the induced
    order differs from the frame's natural sorted-attribute order the
    rows are re-sorted once by {!Trie.of_frame} (one LSD counting
    sort); when it coincides, the frame's own buffer is iterated in
    place. *)
module Trie : sig
  type frame := t

  type t
  (** Mutable iterator state: current depth plus per-depth
      [(lo, hi, pos)] run bounds. *)

  val of_frame : order:Attr.t list -> frame -> t
  (** Build an iterator for [f] binding columns in the order its
      attributes appear in [order].  The iterator starts at the root
      (no column bound).
      @raise Invalid_argument if [order] does not cover the scheme. *)

  val arity : t -> int
  (** Number of columns (= the frame's width). *)

  val attrs : t -> Attr.t list
  (** The columns in binding (induced) order. *)

  val open_ : t -> unit
  (** Descend one level: bind the next column, positioning at the first
      key of the run selected by the levels above (the whole frame at
      the root). *)

  val up : t -> unit
  (** Return to the previous level. *)

  val at_end : t -> bool
  (** No keys left at the current level. *)

  val key : t -> int
  (** The current key (code) at the current level.  Only valid when
      [not (at_end t)]. *)

  val next : t -> unit
  (** Advance to the next distinct key at the current level. *)

  val seek : t -> int -> unit
  (** [seek t v] advances to the least key [≥ v] at the current level
      (or the end).  Never moves backwards: seeking below the current
      key is a no-op, so repeated seeks are monotone. *)
end

val generic_join : ?stats:stats -> order:Attr.t list -> t list -> t
(** [generic_join ~order frames] is the worst-case-optimal (leapfrog)
    join of [frames]: attributes are bound one at a time in [order],
    and at each level the participating relations' tries are
    intersected by leapfrogging — repeatedly seeking the iterators
    below the running maximum key up to it — so the work at a level is
    bounded by the {e smallest} participating run, not by any
    intermediate join.  Matching assignments stream codes directly into
    a packed output buffer; one final canonical sort-unique pass yields
    the same frame [natural_join] would produce, in time bounded by the
    AGM fractional-cover bound of the sub-database (up to log factors).
    [stats.probes] counts leapfrog seeks and [stats.probe_hits] counts
    aligned keys.  The output inherits the first frame's {!storage}.
    @raise Invalid_argument if [frames] is empty, the frames use
    different dictionaries, or [order] is not a permutation of the
    union of the schemes. *)

val topk : ?stats:stats -> order:Attr.t list -> k:int -> t list -> t
(** [topk ~order ~k frames] is the [k] lexicographically least tuples
    (by {!Tuple.compare} over the output scheme) of the natural join of
    [frames], computed without materializing the join: the leapfrog
    DFS of {!generic_join} runs with an emission budget in value order
    — directly over an {!Dict.ordered} dictionary, otherwise after the
    codes are ranked by value once and the frames remapped into rank
    space (one counting sort each) — so level keys ascend in {e value}
    order, and the first [k] emissions are the
    answer and the DFS stops dead.  [order] must be the sorted
    attributes of the union scheme for the ranking to equal
    [Tuple.compare]; with [k] at least the full output size the result
    equals [generic_join].  Work is bounded by the trie prefix the [k]
    results touch ([stats.probes] certifies output-sensitivity).
    [k ≤ 0] yields the empty frame.
    @raise Invalid_argument if [frames] is empty, the frames use
    different dictionaries, or [order] is not a permutation of the
    union of the schemes. *)

(** {1 Databases of frames} *)

module Db : sig
  type frame := t

  type t
  (** All relations of one {!Database} encoded against one shared
      dictionary and one row-store backend. *)

  val of_database : ?storage:storage -> Database.t -> t
  (** Encode every relation against one fresh dictionary.  Values are
      interned in source order, then the dictionary is renumbered once
      into value order, so it is {!Dict.ordered} and every frame's
      canonical rows are in [Tuple.compare] order. *)

  val dict : t -> Dict.t

  val storage : t -> storage
  (** The backend every frame of this database was encoded with. *)

  val find : t -> Scheme.t -> frame
  (** @raise Not_found if the scheme is absent. *)

  val join_schemes :
    ?obs:Mj_obs.Obs.sink ->
    ?domains:int -> ?par_threshold:int -> ?morsel:int -> ?stats:stats ->
    t -> Scheme.Set.t -> frame
  (** Join the named sub-database left-to-right over the sorted scheme
      list — the same order as {!Database.join_all}.
      @raise Invalid_argument on the empty set. *)

  val join_all :
    ?obs:Mj_obs.Obs.sink ->
    ?domains:int -> ?par_threshold:int -> ?morsel:int -> ?stats:stats ->
    t -> frame

  val cardinality_oracle :
    ?domains:int -> ?stats:stats -> t -> Scheme.Set.t -> int
  (** [cardinality_oracle fdb d] is τ of the join of the sub-database
      [d], counted through the columnar path — the drop-in backend for
      [Cost.Cache]. *)

  val generic_join :
    ?stats:stats -> t -> order:Attr.t list -> Scheme.Set.t -> frame
  (** {!Mj_relation.Frame.generic_join} over the named sub-database, in
      sorted scheme order.
      @raise Invalid_argument on the empty set or if [order] is not a
      permutation of the sub-database's attributes. *)
end
