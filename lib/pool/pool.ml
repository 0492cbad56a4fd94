(* The pool no longer reads MJ_DOMAINS itself: the environment is
   resolved exactly once, by [Mj_engine.Engine.Config.of_env], which
   registers the result here.  First registration wins, so the default
   is stable for the whole process however many configs are built. *)
let env_domains = ref None

let set_env_domains d =
  match !env_domains with
  | None -> env_domains := Some (max 1 d)
  | Some _ -> ()

let default_domains () =
  match !env_domains with
  | Some d -> d
  | None -> max 1 (min 8 (Domain.recommended_domain_count ()))

(* Every run that had to cut its worker count down to the machine's
   recommended domain count bumps this — the process-wide record that
   "4 domains" silently became fewer.  [run_traced] also surfaces the
   event as the [pool.domains_clamped] sink counter so a single bench
   trace is diagnosable without process-global state. *)
let clamped = Atomic.make 0
let clamp_events () = Atomic.get clamped

let core_cap () = max 1 (Domain.recommended_domain_count ())

(* Internal driver: tasks receive the index of the worker running them
   (0 = the calling domain, 1..d-1 = spawned domains) so [run_traced]
   can tag trace lanes.  Results never depend on the worker index. *)
let run_w ?domains ?(chunk = 1) (tasks : (worker:int -> 'a) array) =
  let n = Array.length tasks in
  let d = match domains with Some d -> max 1 d | None -> default_domains () in
  (* Never oversubscribe cores: extra domains on a saturated machine buy
     no throughput for CPU-bound tasks and pay minor-GC synchronization
     for every domain on every collection.  Results are unaffected —
     the pool merges in task-index order at any worker count — but the
     clamp is counted, because a "4-domain" bench on a small machine is
     really measuring fewer workers. *)
  let cap = core_cap () in
  let d =
    if d > cap then begin
      if n > cap then Atomic.incr clamped;
      cap
    end
    else d
  in
  let d = min d n in
  let chunk = max 1 chunk in
  if d <= 1 then Array.map (fun task -> task ~worker:0) tasks
  else begin
    let results = Array.make n None in
    let next = Atomic.make 0 in
    (* Work-stealing by shared counter: each slot is written by exactly
       one worker, and [Domain.join] publishes those writes before the
       merge below reads them.  Workers claim [chunk] consecutive tasks
       per fetch-and-add — one atomic operation amortized over a batch,
       which matters when the tasks are sub-millisecond morsels.
       Results are merged in task-index order, so the output is
       deterministic whatever the interleaving. *)
    (* With the kill failpoint armed, the calling domain waits on a
       start latch until spawned worker 1 has made its first claim, so
       "a spawned worker dies holding claimed work" happens on every
       multicore run instead of only when worker 1 wins the race for
       the first chunk.  Unarmed runs never wait. *)
    let latch =
      if Mj_failpoint.Failpoint.active Pool_worker_kill then Some (Atomic.make false)
      else None
    in
    let worker ~id () =
      let spawned = id > 0 in
      (match latch with
      | Some l when id = 0 ->
          while not (Atomic.get l) do
            Domain.cpu_relax ()
          done
      | _ -> ());
      let rec loop ~first =
        let base = Atomic.fetch_and_add next chunk in
        (match latch with
        | Some l when id = 1 && first -> Atomic.set l true
        | _ -> ());
        if base < n then begin
          (* The kill failpoint takes a spawned worker down after it has
             claimed (but not completed) its first batch — the worst
             crash point: the indices are lost from the shared counter
             and only the recovery pass below can finish them.  The
             calling domain never trips, so a survivor always exists. *)
          if spawned && first then Mj_failpoint.Failpoint.trip Pool_worker_kill;
          for i = base to min n (base + chunk) - 1 do
            results.(i) <- Some (tasks.(i) ~worker:id)
          done;
          loop ~first:false
        end
      in
      loop ~first:true
    in
    let spawned = Array.init (d - 1) (fun k -> Domain.spawn (worker ~id:(k + 1))) in
    let self_exn = (try worker ~id:0 (); None with e -> Some e) in
    let joined_exn =
      Array.fold_left
        (fun acc dom ->
          match Domain.join dom with
          | () -> acc
          | exception Mj_failpoint.Failpoint.Injected _ ->
              (* An injected worker kill degrades gracefully: the dead
                 worker's claimed tasks are re-run serially below. *)
              acc
          | exception e -> ( match acc with None -> Some e | some -> some))
        None spawned
    in
    (match self_exn, joined_exn with
    | Some e, _ | None, Some e -> raise e
    | None, None -> ());
    (* Serial fallback: finish any task a killed worker claimed but
       never completed.  On a healthy run every slot is already filled
       and this pass is a no-op scan. *)
    Array.iteri
      (fun i slot ->
        if slot = None then results.(i) <- Some (tasks.(i) ~worker:0))
      results;
    Array.map (function Some v -> v | None -> assert false) results
  end

let run ?domains ?chunk tasks =
  run_w ?domains ?chunk (Array.map (fun task ~worker:_ -> task ()) tasks)

let run_traced ?(obs = Mj_obs.Obs.noop) ?domains ?chunk tasks =
  if not (Mj_obs.Obs.enabled obs) then
    run ?domains ?chunk (Array.map (fun task () -> task Mj_obs.Obs.noop) tasks)
  else begin
    (* Surface a clamp on this very run as a sink counter, mirroring the
       process-wide [clamp_events] total. *)
    let requested =
      match domains with Some d -> max 1 d | None -> default_domains ()
    in
    if requested > core_cap () && Array.length tasks > core_cap () then
      Mj_obs.Obs.add obs "pool.domains_clamped" 1;
    (* One child sink per TASK, not per worker: merging in task-index
       order then yields the same span tree at any domain count — only
       the lane attribute (which worker ran the task) varies. *)
    let children = Array.map (fun _ -> Mj_obs.Obs.fork obs) tasks in
    (* Merge even when a task raises: [run_w] joins every spawned
       domain before re-raising, so by the time the exception reaches
       us no worker is still writing into a child sink.  Without the
       protect, one failing task silently dropped the spans and lane
       attrs of every task that had already completed — exactly the
       trace a crash post-mortem needs.  Children of tasks that never
       started are empty forks and merge as no-ops, so the merged
       prefix stays deterministic at any domain count. *)
    let merge () =
      Array.iter (fun child -> Mj_obs.Obs.merge_child obs child) children
    in
    let results =
      try
        run_w ?domains ?chunk
          (Array.mapi
             (fun i task ~worker ->
               let child = children.(i) in
               Mj_obs.Obs.set_lane child worker;
               task child)
             tasks)
      with e ->
        merge ();
        raise e
    in
    merge ();
    results
  end

let map_array ?domains f xs = run ?domains (Array.map (fun x () -> f x) xs)

let map_list ?domains f xs =
  Array.to_list (map_array ?domains f (Array.of_list xs))

let init ?domains n f = run ?domains (Array.init n (fun i -> fun () -> f i))
