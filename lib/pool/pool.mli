(** A small Domain-based worker pool (OCaml 5 stdlib only).

    Built for the embarrassingly parallel trial loops of the bench
    harness and the theorem validators: each trial seeds its own
    [Random.State], touches no shared mutable state, and returns a
    value.  The pool distributes trials over domains with a shared
    atomic counter and merges results {e in task-index order}, so the
    output is deterministic — identical at 1 and at N domains — as long
    as the tasks themselves are (the determinism rule: a task must
    derive all randomness from its own index/seed and must not mutate
    state shared with other tasks).

    With [domains = 1] (or a single task) everything runs in the calling
    domain and no domain is spawned.  If any task raises, the pool joins
    all workers and re-raises one of the exceptions.

    Fault tolerance: a spawned worker killed by the
    [Mj_failpoint.Pool_worker_kill] failpoint (the injected stand-in
    for a crashed domain) is {e not} an error — the pool degrades
    gracefully by finishing every unclaimed or abandoned task in the
    calling domain, so results are identical to a healthy run.  Any
    other exception still propagates.  While the failpoint is armed the
    calling domain starts claiming tasks only after spawned worker 1
    has made its first claim, so on a multicore host the kill fires on
    every run, whatever the scheduling. *)

val set_env_domains : int -> unit
(** Register the process-wide default worker count (clamped to ≥ 1).
    Called exactly once by [Mj_engine.Engine.Config.of_env] with the
    value of [MJ_DOMAINS] — the pool itself never reads the
    environment.  The first registration wins; later calls are
    ignored, so the default cannot change mid-process. *)

val default_domains : unit -> int
(** The registered {!set_env_domains} value when one exists, else
    [Domain.recommended_domain_count] capped at 8. *)

val clamp_events : unit -> int
(** How many runs so far had their worker count silently cut down to
    [Domain.recommended_domain_count] — the tell that a "[N]-domain"
    bench on a small machine actually measured fewer workers.  The same
    event is surfaced per-trace as the [pool.domains_clamped] sink
    counter by {!run_traced}. *)

val run : ?domains:int -> ?chunk:int -> (unit -> 'a) array -> 'a array
(** [run tasks] evaluates every task and returns their results indexed
    like the input.  [domains] defaults to {!default_domains}; the
    worker count is additionally capped at
    [Domain.recommended_domain_count] — oversubscribing cores only adds
    GC-synchronization overhead and cannot change results (the clamp is
    recorded in {!clamp_events}).  [chunk] (default 1) is the number of
    consecutive tasks a worker claims per atomic fetch-and-add — raise
    it for floods of sub-millisecond tasks (morsel queues) so the
    shared counter stops being a contention point.  Chunking changes
    only which worker runs a task, never the merged result. *)

val run_traced :
  ?obs:Mj_obs.Obs.sink ->
  ?domains:int ->
  ?chunk:int ->
  (Mj_obs.Obs.sink -> 'a) array ->
  'a array
(** Like {!run}, but each task receives its own child sink
    ([Mj_obs.Obs.fork] of [obs]) to record spans and metrics into, and
    after the parallel section the children are merged back into [obs]
    {e in task-index order} — so the merged trace tree is identical at
    1 and at N domains.  Each child is tagged with the worker index
    that ran it ([Mj_obs.Obs.set_lane]); the Chrome exporter renders
    those tags as per-domain lanes.  With the default [obs = noop]
    every task just gets {!Mj_obs.Obs.noop} and this is exactly
    {!run}.  A task re-run by the crash-recovery pass records its
    spans once, on lane 0 — a killed worker dies before the task body
    starts.  When the requested worker count is clamped to the
    machine's core count, the sink counter [pool.domains_clamped] is
    bumped so the trace itself says the parallelism was reduced.

    If a task raises, the children of every task that did complete are
    still merged (in task-index order, lane attrs intact) before the
    exception propagates — a failing request must not erase the trace
    of its neighbours. *)

val map_array : ?domains:int -> ('a -> 'b) -> 'a array -> 'b array
val map_list : ?domains:int -> ('a -> 'b) -> 'a list -> 'b list

val init : ?domains:int -> int -> (int -> 'a) -> 'a array
(** [init n f] is [run [| fun () -> f 0; ...; fun () -> f (n-1) |]] —
    the seed-per-trial idiom. *)
