(** The SERVE benchmark: an in-process load generator against one
    {!Mj_serve.Serve} daemon.

    Mixed rows drive N concurrent client tasks (one pool domain each)
    through [Serve.handle_line] with a round-robin
    chain/star/snowflake/triangle mix across policies and planes, all
    sharing the daemon's warm state — per-database registries, frame
    dictionaries and the LRU plan cache.  Each row
    reports throughput ([qps]), the p50/p95/p99 latency quantiles from
    the [Mj_obs] log-bucket histogram, the response tallies, the plan
    cache hit/miss counts, and [certified]: whether {e every} response
    matched a cold single-shot [Engine.run] oracle of the same request
    field by field (rows, τ, result hash, per-step τ log).

    The ["plan-cache"] row is the gate the acceptance criteria name: a
    repeated-shape workload timed cold (a fresh daemon per shot — every
    warm structure misses) against warm (one daemon, primed once), with
    min-of-reps on both sides and a 2.0× [speedup_floor].  A violated
    floor, or any non-certified row, is reported by {!failures} and
    turns into a non-zero exit in [bench SERVE].

    Rows with more clients than cores are marked [clamped] and skipped
    by the {!Bench_diff} regression gate, like PAR cells. *)

type row = {
  workload : string;  (** ["mixed"] or ["plan-cache"] *)
  mix : string;  (** request-mix summary (identity field) *)
  clients : int;
  requests : int;
  queue_cap : int;
  reps : int;
  p50_ms : float option;  (** mixed rows only *)
  p95_ms : float option;
  p99_ms : float option;
  qps : float option;
  ok : int;
  overloaded : int;
  errors : int;
  cache_hits : int;
  cache_misses : int;
  cold_ms : float option;  (** plan-cache row only *)
  warm_ms : float option;
  speedup : float option;  (** [cold_ms /. warm_ms] *)
  speedup_floor : float option;  (** 2.0 on the plan-cache row *)
  certified : bool;  (** every response ≡ cold [Engine.run] *)
  clamped : bool;  (** more clients than cores *)
}

type t = { cores : int; rows : row list }

val run : ?quick:bool -> unit -> t
(** [quick] (default [false]) trims request counts and database sizes
    to CI-smoke scale and drops the 2-client cell. *)

val floor_ok : row -> bool

val failures : t -> row list
(** Rows that are not certified or violate their speedup floor —
    non-empty means [bench SERVE] exits non-zero. *)

val bench_json : t -> Mj_obs.Json.t
val write_file : string -> t -> unit
(** Write {!bench_json} (one line) to a file, e.g. [BENCH_SERVE.json]. *)
