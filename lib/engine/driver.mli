(** The backend-agnostic plan walker.

    Section 1's implementation argument — nested loops, existing
    indices, pipelining — used to live twice: once in {!Exec} over seed
    tuple lists and once in {!Frame_engine} over columnar frames, each
    with its own copy of the span bookkeeping and the τ accounting.
    This module keeps exactly one copy.  A data plane implements the
    {!PLANE} signature (how to scan a base relation, how to run one join
    step with a given algorithm, how to count rows); {!Make} supplies
    the recursion over {!Physical.t}, the observability contract, and
    the per-step τ log.

    The observability contract, shared by every plane so the
    [mjoin explain] tree renderer works against any backend: one
    ["scan"] span per leaf and one ["join"] span per step, each carrying
    [scheme] and [rows] attributes, joins additionally [algo]; the whole
    run is wrapped in a root span named by the plane. *)

open Mj_relation

(** What a data plane must provide.  [item] is the plane's intermediate
    representation (seed: tuple list; frame: [Frame.t]). *)
module type PLANE = sig
  val name : string
  (** ["seed"] or ["frame"] — the value of the [--engine] flag. *)

  val root_span : string
  (** Name of the span wrapping the whole execution (seed:
      ["execute"], frame: ["execute-frame"]). *)

  type item
  type ctx
  (** Per-execution state: counters, caches, the encoded database. *)

  val scan : ctx -> Scheme.t -> item
  (** Fetch a base relation.
      @raise Invalid_argument if the scheme is not in the database. *)

  val join :
    ctx -> Physical.algorithm -> common:Attr.Set.t -> item -> item -> item
  (** One join step.  A plane with a single physical operator may treat
      the algorithm annotation as advisory (the frame plane always runs
      its columnar hash join); τ is algorithm-independent for
      materializing execution, so results and step costs agree across
      planes regardless. *)

  val index_join :
    ctx -> common:Attr.Set.t -> outer:item -> inner:Scheme.t -> item option
  (** The [Index_nested_loop]-over-a-scan fast path: join [outer]
      against the {e index} of the base relation [inner] without
      executing the scan.  [None] means the plane keeps no
      base-relation indexes and the driver falls back to executing the
      scan and calling {!join}. *)

  val generic_join :
    ctx -> schemes:Scheme.t list -> order:Attr.t list -> item
  (** One {!Physical.Generic_join} step: the worst-case-optimal join of
      the named base relations, binding attributes in [order].  Both
      planes must produce the canonical result relation (the frame plane
      runs the leapfrog kernel; the seed plane a reference
      sorted-intersection backtracker), so plans containing the node
      stay bit-identical across planes.  The driver wraps the step in a
      single ["join"] span with [algo = "wcoj"] and an [order]
      attribute, and the step contributes one τ entry: its output
      cardinality. *)

  val semijoin : ctx -> common:Attr.Set.t -> item -> item -> item
  (** [semijoin ctx ~common outer inner] is [outer ⋉ inner]: the rows of
      [outer] with at least one join partner in [inner].  Powers the
      {!Physical.Semijoin_program} reduction sweeps; never contributes
      to τ (a semijoin generates no tuples under the paper's measure). *)

  val ranked :
    ctx -> order:Attr.t list -> k:int -> (Scheme.t * item) list -> item
  (** The [k] lexicographically least tuples (by
      {!Mj_relation.Tuple.compare}; [order] is the sorted attributes of
      the union scheme) of the natural join of the given — already
      semijoin-reduced — items, enumerated without materializing the
      full join.  Both planes must stream the identical rows (frame:
      rank-space leapfrog {!Mj_relation.Frame.topk}; seed: the
      reference backtracker with an emission budget). *)

  val cardinality : item -> int
  val note_step : ctx -> int -> unit
  (** Called with each join step's output cardinality (for plane
      counters such as the seed peak-materialization tracker). *)

  val algo_label : Physical.algorithm -> string
end

type step_log = {
  tuples_generated : int;  (** the paper's τ: sum of step output rows *)
  per_step : (Scheme.Set.t * int) list;  (** post-order, like [Cost.step_costs] *)
}

val scheme_key : Scheme.Set.t -> string
(** The canonical span attribute for a scheme set (shared with the
    explain renderer). *)

module Make (P : PLANE) : sig
  val execute :
    obs:Mj_obs.Obs.sink -> P.ctx -> Physical.t ->
    Attr.Set.t * P.item * step_log
  (** Walk the plan inside one [P.root_span] span and return the
      result's scheme and its {e undecoded} item: the backend decides
      whether it becomes a relation or only a digest. *)
end
