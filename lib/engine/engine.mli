(** The unified engine: one configuration, one lowering pipeline, two
    data planes.

    Everything an execution needs travels in one explicit
    {!Config.t} record built {e once} at a process entry point and
    threaded everywhere:

    {v
        flags / env                Strategy.t (logical join order)
            │                          │
            ▼                          ▼
       Config.make  ──────────►   Planner.lower   (per-step algorithm)
            │                          │
            │                          ▼
            │                     Physical.t
            │                          │
            ▼                          ▼
       backend plane  ───────►   Driver walker  ──►  Relation.t * stats
       (Seed | Frame)            (spans, τ log)      or int64 digest * stats
    v}

    The two planes implement the same {!Driver.PLANE} signature —
    {!Exec} over seed tuple lists, {!Frame_engine} over columnar
    frames — and this module picks between them behind the small
    {!BACKEND} interface, so callers ([mjoin explain], [mjoin
    optimize], [Theorems.verify] via {!Config.backend}, the bench
    harness) never branch on the plane themselves.

    Determinism: a [Config.t] pins every execution-relevant choice
    (plane, worker domains, lowering policy, warm indexes).  Lowering
    is a pure function of (database, strategy, warm indexes); both
    planes materialize every step, so result relations and τ are
    identical across planes, policies and domain counts — the planner
    equivalence suite certifies this. *)

open Mj_relation
open Multijoin

type plane = Seed | Frame

val plane_name : plane -> string
val plane_of_string : string -> plane option
(** ["seed"] / ["frame"], case-insensitive. *)

val backend_of_plane : plane -> Cost.Cache.backend
(** The τ-oracle backend matching a data plane — what
    [Theorems.verify ~backend] and [Cost.Cache.create ~backend]
    expect. *)

module Config : sig
  type t = {
    plane : plane;  (** which data plane executes plans *)
    domains : int;  (** worker domains for parallel sections *)
    obs : Mj_obs.Obs.sink;  (** tracing/metrics sink (noop by default) *)
    algo_policy : Planner.policy;  (** how strategies lower to plans *)
    index_cache : Exec.index_cache;
        (** base-relation indexes shared by every execution under this
            config — the "existing indices" the planner may assume *)
    telemetry : string option;
        (** JSONL sidecar path for per-query telemetry records
            ([MJ_TELEMETRY] / [--telemetry]); [None] disables *)
    frame_storage : Mj_relation.Frame.storage;
        (** row-store backend for frame-plane executions
            ([MJ_FRAME_STORAGE] / [--storage]): on-heap [int array]s or
            off-heap int32 bigarrays *)
    morsel : int option;
        (** probe-morsel rows for the frame plane's parallel join
            ([MJ_MORSEL] / [--morsel]); [None] means
            [Frame.default_morsel] *)
  }

  val of_env : ?obs:Mj_obs.Obs.sink -> unit -> t
  (** The {e only} place in the library tree that reads the
      environment: [MJ_DATA_PLANE] (["frame"] selects the columnar
      plane), [MJ_DOMAINS] (worker count, clamped ≥ 1),
      [MJ_ALGO_POLICY] (["hash"], ["cost"], ["wcoj"] or ["yann"]),
      [MJ_TELEMETRY] (a
      JSONL sidecar path for per-query telemetry), [MJ_FRAME_STORAGE]
      (["heap"] or ["bigarray"] row stores for the frame plane),
      [MJ_MORSEL] (probe-morsel rows for the parallel join), and
      [MJ_FAILPOINTS] (a comma-separated list of fault-injection
      points forwarded to [Mj_failpoint.Failpoint.set_spec]).  The
      variables are read once per process (memoized) and the resolved
      values are registered with [Mj_pool.Pool.set_env_domains] and
      [Cost.Cache.set_env_backend], so legacy default-using callers
      observe the same environment without re-reading it.  Each call
      returns a fresh [index_cache].
      @raise Failure on an unknown [MJ_FAILPOINTS] name — a typo'd
      fault injection must fail loudly, not silently test nothing. *)

  val make :
    ?plane:plane ->
    ?domains:int ->
    ?policy:Planner.policy ->
    ?obs:Mj_obs.Obs.sink ->
    ?telemetry:string ->
    ?storage:Mj_relation.Frame.storage ->
    ?morsel:int ->
    unit ->
    t
  (** {!of_env} with explicit overrides — the documented precedence
      CLI flag > environment variable > built-in default, used by every
      [mjoin] subcommand and the bench harness. *)

  val backend : t -> Cost.Cache.backend
  (** [backend_of_plane c.plane]. *)
end

(** Execution statistics common to both planes, with the plane-specific
    detail attached. *)
type stats = {
  plane : plane;
  tuples_generated : int;  (** the paper's τ: sum of step output rows *)
  result_rows : int;
  per_step : (Scheme.Set.t * int) list;  (** post-order, like [Cost.step_costs] *)
  seed : Exec.stats option;  (** [Some] iff [plane = Seed] *)
  frame : Frame_engine.stats option;  (** [Some] iff [plane = Frame] *)
}

(** What a data plane looks like from above: execute an annotated plan
    under a config, ending in the decoded result or only its digest.
    (The per-operator surface both planes implement is
    {!Driver.PLANE}; this is the coarser interface the dispatcher
    needs.)  [?fdb] is a warm frame encoding of the database; the seed
    plane ignores it. *)
module type BACKEND = sig
  val plane : plane

  val execute :
    ?fdb:Mj_relation.Frame.Db.t ->
    Config.t -> Database.t -> Physical.t -> Relation.t * stats

  val execute_digest :
    ?fdb:Mj_relation.Frame.Db.t ->
    Config.t -> Database.t -> Physical.t -> int64 * stats
end

module Seed_backend : BACKEND
module Frame_backend : BACKEND

val backend : plane -> (module BACKEND)

val lower : Config.t -> Database.t -> Strategy.t -> Physical.t
(** {!Planner.lower} under the config's policy, with the config's
    index cache as the warm-index set. *)

val execute_plan :
  ?fdb:Mj_relation.Frame.Db.t ->
  Config.t -> Database.t -> Physical.t -> Relation.t * stats
(** Run an already-lowered plan on the config's plane.  [?fdb] is a
    pre-encoded frame copy of the database ([Frame.Db.of_database]) —
    the serve daemon's warm dictionary; it is consulted only on the
    frame plane (seed executions keep their warm state in the config's
    index cache) and is never mutated, so one encoding can back
    concurrent executions. *)

val execute_digest :
  ?fdb:Mj_relation.Frame.Db.t ->
  Config.t -> Database.t -> Physical.t -> int64 * stats
(** {!execute_plan}, answering [Relation.digest] of the result instead
    of the result — the hash every served answer carries, bit for bit.
    The seed plane decodes and digests; the frame plane digests the
    result frame directly ([Frame.digest]) and never builds a
    relation.  The digest runs in a ["digest"] span. *)

val run :
  ?fdb:Mj_relation.Frame.Db.t ->
  Config.t -> Database.t -> Strategy.t -> Relation.t * stats
(** [lower] then [execute_plan] — the whole
    Config → Planner → Engine path in one call.
    @raise Invalid_argument if the strategy mentions schemes outside
    the database. *)
