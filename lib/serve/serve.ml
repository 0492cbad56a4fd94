open Mj_relation
open Multijoin
module Obs = Mj_obs.Obs
module Json = Mj_obs.Json
module Telemetry = Mj_obs.Telemetry
module Engine = Mj_engine.Engine
module Planner = Mj_engine.Planner
module Exec = Mj_engine.Exec
module Pool = Mj_pool.Pool
module Failpoint = Mj_failpoint.Failpoint

(* Per-database warm state.  The frame dictionary is built once, on
   the first frame-plane query, and shared read-only afterwards.  Seed
   index caches are NOT domain-safe (plain hashtables mutated by
   execution), so the entry keeps a checkout pool: each in-flight
   request borrows one cache exclusively and returns it warm. *)
type db_entry = {
  db : Database.t;
  mutable fdb : Frame.Db.t option;
  idle_caches : Exec.index_cache Queue.t;
}

type t = {
  cfg : Engine.Config.t;
  queue_cap : int;
  timeout_ms : int;
  mutex : Mutex.t;
  registry : (string, db_entry) Hashtbl.t;
  plans : Mj_engine.Physical.t Plan_cache.t;
  mutable epoch : int;
  in_flight : int Atomic.t;
  stop : bool Atomic.t;
  (* Counters, all guarded by [mutex]; mirrored into the config sink
     so a trace of the daemon carries them too. *)
  mutable requests : int;
  mutable queries : int;
  mutable overloaded_count : int;
  mutable timeouts : int;
  mutable errors : int;
  mutable invalidations : int;
}

let create ?(queue_cap = 64) ?(timeout_ms = 10_000) ?(plan_cache_cap = 128)
    ~cfg () =
  {
    cfg;
    queue_cap = max 0 queue_cap;
    timeout_ms = max 1 timeout_ms;
    mutex = Mutex.create ();
    registry = Hashtbl.create 16;
    plans = Plan_cache.create ~cap:plan_cache_cap;
    epoch = 0;
    in_flight = Atomic.make 0;
    stop = Atomic.make false;
    requests = 0;
    queries = 0;
    overloaded_count = 0;
    timeouts = 0;
    errors = 0;
    invalidations = 0;
  }

let config t = t.cfg
let queue_cap t = t.queue_cap
let timeout_ms t = t.timeout_ms

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* Counter bumps happen under the lock, which also serializes the
   mirror into the (not domain-safe) config sink. *)
let bump t name f = locked t (fun () -> f (); Obs.add t.cfg.Engine.Config.obs name 1)

let epoch t = locked t (fun () -> t.epoch)

let epoch_prefix e = Printf.sprintf "e%d|" e

let invalidate t =
  locked t (fun () ->
      t.epoch <- t.epoch + 1;
      t.invalidations <- t.invalidations + 1;
      Hashtbl.reset t.registry;
      let keep = epoch_prefix t.epoch in
      Plan_cache.remove_where t.plans (fun k ->
          not (String.length k >= String.length keep
               && String.sub k 0 (String.length keep) = keep)))

let counters t =
  locked t (fun () ->
      [
        ("serve.requests", t.requests);
        ("serve.queries", t.queries);
        ("serve.plan_cache_hit", Plan_cache.hits t.plans);
        ("serve.plan_cache_miss", Plan_cache.misses t.plans);
        ("serve.plan_cache_evictions", Plan_cache.evictions t.plans);
        ("serve.plan_cache_size", Plan_cache.length t.plans);
        ("serve.db_registry", Hashtbl.length t.registry);
        ("serve.overloaded", t.overloaded_count);
        ("serve.timeouts", t.timeouts);
        ("serve.errors", t.errors);
        ("serve.invalidations", t.invalidations);
        ("serve.epoch", t.epoch);
      ])

let request_stop t = Atomic.set t.stop true
let stopped t = Atomic.get t.stop

(* ------------------------------------------------------------------ *)
(* Warm-state access                                                   *)

let db_entry t ~key ~db =
  match locked t (fun () -> Hashtbl.find_opt t.registry key) with
  | Some e -> e
  | None ->
      (* Materialize outside the lock — generation can be slow — and
         let the first writer win if two requests race on the key. *)
      let materialized = db () in
      locked t (fun () ->
          match Hashtbl.find_opt t.registry key with
          | Some e -> e
          | None ->
              let e =
                {
                  db = materialized;
                  fdb = None;
                  idle_caches = Queue.create ();
                }
              in
              Hashtbl.add t.registry key e;
              e)

let frame_db t entry =
  match locked t (fun () -> entry.fdb) with
  | Some fdb -> fdb
  | None ->
      let built =
        Frame.Db.of_database ~storage:t.cfg.Engine.Config.frame_storage
          entry.db
      in
      locked t (fun () ->
          match entry.fdb with
          | Some fdb -> fdb
          | None ->
              entry.fdb <- Some built;
              built)

let checkout_cache t entry =
  locked t (fun () ->
      match Queue.take_opt entry.idle_caches with
      | Some c -> c
      | None -> Exec.index_cache ())

let checkin_cache t entry cache =
  locked t (fun () -> Queue.push cache entry.idle_caches)

(* ------------------------------------------------------------------ *)
(* Query execution                                                     *)

let strategy_string s = Format.asprintf "%a" Strategy.pp s

let plan_key t ~plane ~policy ~key ~strat_s =
  let e = locked t (fun () -> t.epoch) in
  (* The planted serve bug: under [serve.cache_stale_plan] the
     strategy component collapses, so two different strategies over
     the same workload collide and the second is answered with the
     first one's plan — detectable only through the per-step τ log,
     which is exactly what the check harness compares. *)
  let strat_part =
    if Failpoint.fire Serve_stale_plan then "*" else strat_s
  in
  Printf.sprintf "%s%s|%s|%s|%s" (epoch_prefix e) (Engine.plane_name plane)
    (Planner.policy_name policy) key strat_part

let submit_query t ?id ?obs ?plane ?strategy ?policy ~key ~db () =
  let obs = match obs with Some o -> o | None -> t.cfg.Engine.Config.obs in
  let plane =
    match plane with Some p -> p | None -> t.cfg.Engine.Config.plane
  in
  let policy =
    match policy with Some p -> p | None -> t.cfg.Engine.Config.algo_policy
  in
  bump t "serve.queries" (fun () ->
      t.requests <- t.requests + 1;
      t.queries <- t.queries + 1);
  let start = Obs.monotonic_time () in
  let deadline = start +. (float_of_int t.timeout_ms /. 1000.) in
  let attrs = match id with Some i -> [ ("id", Json.int i) ] | None -> [] in
  Obs.span obs ~attrs "serve.request" @@ fun () ->
  (* The stall failpoint: sleep past the deadline before touching any
     state, the deterministic stand-in for a wedged worker. *)
  if Failpoint.fire Serve_worker_stall then
    Unix.sleepf ((float_of_int t.timeout_ms /. 1000.) +. 0.01);
  if Obs.monotonic_time () > deadline then begin
    bump t "serve.timeouts" (fun () -> t.timeouts <- t.timeouts + 1);
    Protocol.error ~id ~code:"timeout"
      (Printf.sprintf "request exceeded %d ms" t.timeout_ms)
  end
  else
    match
      let entry = db_entry t ~key ~db in
      let strategy =
        match strategy with
        | Some s -> s
        | None -> Protocol.default_strategy entry.db
      in
      let strat_s = strategy_string strategy in
      let pkey = plan_key t ~plane ~policy ~key ~strat_s in
      let cached = locked t (fun () -> Plan_cache.find t.plans pkey) in
      bump t
        (match cached with
        | Some _ -> "serve.plan_cache_hit"
        | None -> "serve.plan_cache_miss")
        (fun () -> ());
      let cache = checkout_cache t entry in
      Fun.protect ~finally:(fun () -> checkin_cache t entry cache)
      @@ fun () ->
      let cfg_req =
        {
          t.cfg with
          Engine.Config.plane;
          algo_policy = policy;
          index_cache = cache;
          obs;
        }
      in
      let plan =
        match cached with
        | Some plan -> plan
        | None ->
            let plan = Engine.lower cfg_req entry.db strategy in
            locked t (fun () -> Plan_cache.add t.plans pkey plan);
            plan
      in
      let fdb =
        match plane with
        | Engine.Frame -> Some (frame_db t entry)
        | Engine.Seed -> None
      in
      (* Only the digest goes on the wire, so the frame plane never
         decodes its result. *)
      let hash, stats = Engine.execute_digest ?fdb cfg_req entry.db plan in
      let ms = (Obs.monotonic_time () -. start) *. 1000. in
      (hash, stats, strat_s, cached <> None, ms)
    with
    | hash, stats, strat_s, hit, ms ->
        (match t.cfg.Engine.Config.telemetry with
        | None -> ()
        | Some path ->
            let record =
              Telemetry.record
                [
                  ("cmd", Json.str "serve");
                  ("query", Json.str (key ^ " | " ^ strat_s));
                  ("plane", Json.str (Engine.plane_name plane));
                  ("policy", Json.str (Planner.policy_name policy));
                  ("domains", Json.int t.cfg.Engine.Config.domains);
                  ("duration_ms", Json.float ms);
                  ("result_rows", Json.int stats.Engine.result_rows);
                  ("tau", Json.int stats.Engine.tuples_generated);
                  ("plan_cache", Json.str (if hit then "hit" else "miss"));
                ]
            in
            locked t (fun () -> Telemetry.append path record));
        Protocol.ok ~id
          [
            ("rows", Json.int stats.Engine.result_rows);
            ("tau", Json.int stats.Engine.tuples_generated);
            ("hash", Json.str (Protocol.hash_hex hash));
            ("steps", Protocol.steps_json stats.Engine.per_step);
            ("cached_plan", Json.bool hit);
            ("plane", Json.str (Engine.plane_name plane));
            ("policy", Json.str (Planner.policy_name policy));
            ("strategy", Json.str strat_s);
            ("ms", Json.float ms);
          ]
    | exception Invalid_argument msg ->
        bump t "serve.errors" (fun () -> t.errors <- t.errors + 1);
        Protocol.error ~id ~code:"bad_request" msg
    | exception Not_found ->
        bump t "serve.errors" (fun () -> t.errors <- t.errors + 1);
        Protocol.error ~id ~code:"bad_request"
          "strategy references a scheme outside the database"
    | exception e ->
        (* The daemon never dies on a request: anything unexpected
           becomes a structured error for that request alone. *)
        bump t "serve.errors" (fun () -> t.errors <- t.errors + 1);
        Protocol.error ~id ~code:"exec" (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* Admission control and batch dispatch                                *)

let admit t =
  let reserved = Atomic.fetch_and_add t.in_flight 1 in
  if reserved >= t.queue_cap then begin
    ignore (Atomic.fetch_and_add t.in_flight (-1));
    false
  end
  else true

let release t = ignore (Atomic.fetch_and_add t.in_flight (-1))

let shed t ~id =
  bump t "serve.overloaded" (fun () ->
      t.requests <- t.requests + 1;
      t.overloaded_count <- t.overloaded_count + 1);
  Protocol.overloaded ~id

let run_query t ?id ?obs (q : Protocol.query) =
  let strategy = Option.map Strategy.of_string q.Protocol.strategy in
  submit_query t ?id ?obs ?plane:q.Protocol.plane ?strategy
    ~policy:q.Protocol.policy
    ~key:(Protocol.workload_key q.Protocol.workload)
    ~db:(fun () -> Protocol.materialize q.Protocol.workload)
    ()

let run_control t ?id op =
  bump t "serve.control" (fun () -> t.requests <- t.requests + 1);
  match op with
  | Protocol.Stats ->
      Protocol.ok ~id
        (List.map (fun (k, v) -> (k, Json.int v)) (counters t))
  | Protocol.Invalidate ->
      let purged = invalidate t in
      Protocol.ok ~id
        [ ("purged_plans", Json.int purged); ("epoch", Json.int (epoch t)) ]
  | Protocol.Ping -> Protocol.ok ~id [ ("pong", Json.bool true) ]
  | Protocol.Shutdown ->
      request_stop t;
      Protocol.ok ~id [ ("draining", Json.bool true) ]
  | Protocol.Query _ -> assert false

let handle_line t ?obs line =
  match Protocol.parse line with
  | Error msg ->
      bump t "serve.errors" (fun () ->
          t.requests <- t.requests + 1;
          t.errors <- t.errors + 1);
      Protocol.error ~id:None ~code:"bad_request" msg
  | Ok { Protocol.id; op = Protocol.Query q } ->
      if admit t then
        Fun.protect ~finally:(fun () -> release t) @@ fun () ->
        run_query t ?id ?obs q
      else shed t ~id
  | Ok { Protocol.id; op } -> run_control t ?id op

(* One admission round over a batch of lines.  Queries are admitted in
   input order against the shared in-flight budget, dispatched onto the
   pool (one trace lane per request), and every admitted request
   completes before control ops run and the responses return — which
   is the drain guarantee handle-loops rely on. *)
let handle_batch t ?obs lines =
  let obs = match obs with Some o -> o | None -> t.cfg.Engine.Config.obs in
  let lines = Array.of_list lines in
  let n = Array.length lines in
  let responses = Array.make n None in
  let jobs = ref [] in
  Array.iteri
    (fun i line ->
      match Protocol.parse line with
      | Error msg ->
          bump t "serve.errors" (fun () ->
              t.requests <- t.requests + 1;
              t.errors <- t.errors + 1);
          responses.(i) <-
            Some (Protocol.error ~id:None ~code:"bad_request" msg)
      | Ok { Protocol.id; op = Protocol.Query q } ->
          if admit t then jobs := (i, id, q) :: !jobs
          else responses.(i) <- Some (shed t ~id)
      | Ok _ -> ())
    lines;
  let jobs = Array.of_list (List.rev !jobs) in
  let results =
    Pool.run_traced ~obs ~domains:t.cfg.Engine.Config.domains
      (Array.map
         (fun (_, id, q) child ->
           Fun.protect ~finally:(fun () -> release t) @@ fun () ->
           run_query t ?id ~obs:child q)
         jobs)
  in
  Array.iteri (fun j (i, _, _) -> responses.(i) <- Some results.(j)) jobs;
  (* Control ops after the queries: a [stats] in the same batch sees
     the batch it rode in with, and [shutdown] still lets every
     admitted neighbour finish. *)
  Array.iteri
    (fun i line ->
      match responses.(i) with
      | Some _ -> ()
      | None -> (
          match Protocol.parse line with
          | Ok { Protocol.id; op } ->
              responses.(i) <- Some (run_control t ?id op)
          | Error _ -> assert false))
    lines;
  Array.to_list
    (Array.map (function Some r -> r | None -> assert false) responses)

(* ------------------------------------------------------------------ *)
(* Serving loops                                                       *)

(* A line reader over a raw descriptor: [next_line ~block:false] only
   consumes input that is already readable, which is how consecutive
   piped requests coalesce into one admission batch without ever
   blocking an interactive client. *)
module Reader = struct
  type r = {
    fd : Unix.file_descr;
    buf : Buffer.t;
    mutable eof : bool;
  }

  let create fd = { fd; buf = Buffer.create 1024; eof = false }

  let take_line r =
    let s = Buffer.contents r.buf in
    match String.index_opt s '\n' with
    | Some i ->
        Buffer.clear r.buf;
        Buffer.add_string r.buf
          (String.sub s (i + 1) (String.length s - i - 1));
        Some (String.sub s 0 i)
    | None -> None

  let refill r ~block =
    if r.eof then false
    else
      let ready =
        if block then true
        else
          match Unix.select [ r.fd ] [] [] 0.0 with
          | [], _, _ -> false
          | _ -> true
      in
      if not ready then false
      else
        let chunk = Bytes.create 4096 in
        match Unix.read r.fd chunk 0 (Bytes.length chunk) with
        | 0 ->
            r.eof <- true;
            false
        | k ->
            Buffer.add_subbytes r.buf chunk 0 k;
            true
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> false

  let rec next_line r ~block =
    match take_line r with
    | Some line -> Some line
    | None ->
        if refill r ~block then next_line r ~block
        else if r.eof && Buffer.length r.buf > 0 then begin
          let line = Buffer.contents r.buf in
          Buffer.clear r.buf;
          Some line
        end
        else None
end

let write_all fd s =
  let b = Bytes.of_string s in
  let len = Bytes.length b in
  let rec go off =
    if off < len then
      match Unix.write fd b off (len - off) with
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
  in
  go 0

let serve_fd t fd_in fd_out =
  let reader = Reader.create fd_in in
  let rec loop () =
    if not (stopped t) then
      match Reader.next_line reader ~block:true with
      | None -> ()
      | Some first ->
          let batch = ref [ first ] in
          let continue = ref true in
          while !continue do
            match Reader.next_line reader ~block:false with
            | Some line -> batch := line :: !batch
            | None -> continue := false
          done;
          let responses = handle_batch t (List.rev !batch) in
          write_all fd_out (String.concat "\n" responses ^ "\n");
          loop ()
  in
  loop ()

let listen_and_serve t addr =
  let sock = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  let unlink_unix () =
    match addr with
    | Unix.ADDR_UNIX path -> ( try Unix.unlink path with _ -> ())
    | _ -> ()
  in
  Fun.protect ~finally:(fun () ->
      (try Unix.close sock with _ -> ());
      unlink_unix ())
  @@ fun () ->
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  unlink_unix ();
  Unix.bind sock addr;
  Unix.listen sock 16;
  let rec accept_loop () =
    if not (stopped t) then
      match Unix.accept sock with
      | conn, _ ->
          Fun.protect ~finally:(fun () ->
              try Unix.close conn with _ -> ())
            (fun () -> serve_fd t conn conn);
          accept_loop ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
  in
  accept_loop ()

let sockaddr_of_listen spec =
  let spec = String.trim spec in
  if spec = "" then Error "empty --listen spec"
  else if String.length spec > 5 && String.sub spec 0 5 = "unix:" then
    Ok (Unix.ADDR_UNIX (String.sub spec 5 (String.length spec - 5)))
  else
    match String.rindex_opt spec ':' with
    | None -> (
        match int_of_string_opt spec with
        | Some port when port > 0 && port < 65536 ->
            Ok (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
        | _ -> Error (Printf.sprintf "bad --listen port %s" spec))
    | Some i -> (
        let host = String.sub spec 0 i in
        let port_s = String.sub spec (i + 1) (String.length spec - i - 1) in
        match int_of_string_opt port_s with
        | Some port when port > 0 && port < 65536 -> (
            match Unix.inet_addr_of_string host with
            | addr -> Ok (Unix.ADDR_INET (addr, port))
            | exception _ ->
                Error (Printf.sprintf "bad --listen host %s" host))
        | _ -> Error (Printf.sprintf "bad --listen port %s" port_s))
