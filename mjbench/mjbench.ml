(* mjbench: the repository benchmark.

     mjbench --workload cold-large|serve-hot|serve-churn --seed N
             --seconds S --trace 0|1 --mjoin PATH [--commit SHA]
             [--failpoint NAME]

   With --trace 0 it measures the end-to-end metrics; with --trace 1 it
   runs the same workload with the benchmark's own timers around each
   layer's public calls (plus the spans and counters the program already
   emits through an [Obs] sink) and reports the per-layer split.  Every
   answer is certified against a 1-domain seed-plane [Engine.run]; the
   last stdout line is the JSON result, and any failure exits 1.
   See README.md in this directory. *)

open Mj_relation
open Multijoin
module Obs = Mj_obs.Obs
module Json = Mj_obs.Json
module Engine = Mj_engine.Engine
module Planner = Mj_engine.Planner
module Frame_engine = Mj_engine.Frame_engine
module Pool = Mj_pool.Pool
module Protocol = Mj_serve.Protocol
module Serve = Mj_serve.Serve
module Catalog = Mj_optimizer.Catalog
module Estimate = Mj_optimizer.Estimate
module Dpccp = Mj_optimizer.Dpccp

let now = Obs.monotonic_time
let ms_since t0 = (now () -. t0) *. 1000.

let timed f =
  let t0 = now () in
  let v = f () in
  (v, ms_since t0)

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)

(* Linearly interpolated quantile of the samples. *)
let quantile xs q =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else
    let pos = q *. float_of_int (n - 1) in
    let i = int_of_float pos in
    let frac = pos -. float_of_int i in
    if i + 1 < n then a.(i) +. (frac *. (a.(i + 1) -. a.(i))) else a.(i)

let median xs = quantile xs 0.5

let self_peak_rss_mb () = Daemon.peak_rss_mb (Unix.getpid ())

(* ------------------------------------------------------------------ *)
(* Run bookkeeping                                                     *)

type run = {
  mutable attempted : int;
  mutable failed : int;
  mutable metrics : (string * float * string) list;  (* reverse order *)
  mutable notes : (string * Json.t) list;
}

let fresh_run () = { attempted = 0; failed = 0; metrics = []; notes = [] }
let metric run name unit v = run.metrics <- (name, v, unit) :: run.metrics
let note run k v = run.notes <- (k, v) :: run.notes

let check run ok =
  run.attempted <- run.attempted + 1;
  if not ok then run.failed <- run.failed + 1

(* ------------------------------------------------------------------ *)
(* Spans and counters the program already emits                        *)

let rec fold_spans f acc (s : Obs.span_tree) =
  List.fold_left (fold_spans f) (f acc s) s.Obs.children

let span_ms names trees =
  List.fold_left
    (fold_spans (fun acc s ->
         if List.mem s.Obs.name names then acc +. s.Obs.duration else acc))
    0.0 trees
  *. 1000.

(* Self time of the join operators (binary joins, generic joins and
   Yannakakis semijoins): span duration minus the operator and scan
   spans nested directly inside it. *)
let operator_self_ms trees =
  let ops = [ "join"; "semijoin" ] in
  List.fold_left
    (fold_spans (fun acc s ->
         if List.mem s.Obs.name ops then
           acc +. s.Obs.duration
           -. List.fold_left
                (fun a (c : Obs.span_tree) ->
                  if List.mem c.Obs.name ("scan" :: ops) then
                    a +. c.Obs.duration
                  else a)
                0.0 s.Obs.children
         else acc))
    0.0 trees
  *. 1000.

let counter sink name =
  match List.assoc_opt name (Obs.counters sink) with Some v -> v | None -> 0

(* Engine-layer tallies from one traced execution's sink. *)
type engine_tally = {
  mutable exec_ms : float;
  mutable scan_ms : float;
  mutable join_ms : float;
  mutable tau : int;
  mutable result_rows : int;
  mutable probes : int;
  mutable probe_hits : int;
  mutable morsels : int;
  mutable dict_size : int;
  mutable domains : int;
}

let engine_tally () =
  {
    exec_ms = 0.;
    scan_ms = 0.;
    join_ms = 0.;
    tau = 0;
    result_rows = 0;
    probes = 0;
    probe_hits = 0;
    morsels = 0;
    dict_size = 0;
    domains = 0;
  }

(* The worker count the frame engine runs a database with: single-domain
   below the tiny-input cutover, else the configured count capped at the
   cores the pool may use. *)
let engine_domains (cfg : Engine.Config.t) base_rows =
  if base_rows < Frame_engine.tiny_rows then 1
  else min cfg.Engine.Config.domains (Domain.recommended_domain_count ())

let tally_sink e sink ~base_rows ~cfg =
  let trees = Obs.trace sink in
  e.scan_ms <- e.scan_ms +. span_ms [ "scan" ] trees;
  e.join_ms <- e.join_ms +. operator_self_ms trees;
  e.tau <- e.tau + counter sink "exec.tuples_generated";
  e.probes <- e.probes + counter sink "frame.probes";
  e.probe_hits <- e.probe_hits + counter sink "frame.probe_hits";
  e.morsels <- e.morsels + counter sink "frame.morsels";
  e.dict_size <- e.dict_size + counter sink "frame.dict_size";
  e.domains <- e.domains + engine_domains cfg base_rows

(* Every per-layer metric, in a fixed order, with its unit.  A layer a
   workload bypasses reports 0. *)
let per_layer =
  [
    ("workload.materialize_ms", "ms");
    ("workload.base_rows", "rows");
    ("optimizer.catalog_ms", "ms");
    ("optimizer.dpccp_ms", "ms");
    ("optimizer.csg_cmp_pairs", "count");
    ("planner.lower_ms", "ms");
    ("frame.encode_ms", "ms");
    ("frame.dict_size", "count");
    ("engine.execute_ms", "ms");
    ("engine.scan_ms", "ms");
    ("engine.join_ms", "ms");
    ("engine.rest_ms", "ms");
    ("engine.tau", "rows");
    ("engine.result_rows", "rows");
    ("engine.probes", "count");
    ("engine.probe_hit_ratio", "ratio");
    ("engine.morsels", "count");
    ("pool.domains", "count");
    ("pool.clamp_events", "count");
    ("protocol.hash_ms", "ms");
    ("protocol.parse_ms", "ms");
    ("serve.handle_ms", "ms");
    ("serve.request_ms", "ms");
    ("serve.plan_cache_hit_ratio", "ratio");
    ("serve.plan_cache_evictions", "count");
    ("serve.db_registry", "count");
    ("serve.overloaded", "count");
    ("serve.timeouts", "count");
    ("serve.errors", "count");
    ("wire.self_ms", "ms");
    ("gc.minor_words_per_query", "words");
    ("gc.major_collections", "count");
    ("trace.overhead_frac", "ratio");
    ("trace.unattributed_frac", "ratio");
  ]

(* Per-layer totals over the traced queries of one run. *)
type layers = {
  mutable queries : int;  (* traced queries *)
  mutable materialize_ms : float;
  mutable base_rows : int;
  mutable catalog_ms : float;
  mutable dpccp_ms : float;
  mutable csg_pairs : int;
  mutable lower_ms : float;
  mutable encode_ms : float;
  mutable hash_ms : float;
  mutable parse_ms : float;
  mutable request_ms : float;
  mutable query_ms : float;  (* whole traced query: the attribution base *)
  eng : engine_tally;
  mutable traced_ms : float list;
  mutable untraced_ms : float list;
  mutable untraced_minor_words : float;
  mutable untraced_major : int;
}

let layers () =
  {
    queries = 0;
    materialize_ms = 0.;
    base_rows = 0;
    catalog_ms = 0.;
    dpccp_ms = 0.;
    csg_pairs = 0;
    lower_ms = 0.;
    encode_ms = 0.;
    hash_ms = 0.;
    parse_ms = 0.;
    request_ms = 0.;
    query_ms = 0.;
    eng = engine_tally ();
    traced_ms = [];
    untraced_ms = [];
    untraced_minor_words = 0.;
    untraced_major = 0;
  }

(* Run [f] as an untraced query, charging its GC work to the run. *)
let untraced l f =
  let w0 = Gc.minor_words () and m0 = (Gc.quick_stat ()).Gc.major_collections in
  let v, ms = timed f in
  l.untraced_minor_words <- l.untraced_minor_words +. (Gc.minor_words () -. w0);
  l.untraced_major <-
    l.untraced_major + (Gc.quick_stat ()).Gc.major_collections - m0;
  l.untraced_ms <- ms :: l.untraced_ms;
  v

(* Emit every per-layer metric.  [serve] carries the serve-layer values
   ([None] on cold-large, which bypasses serve). *)
let emit_layers run l ~clamp_events ~serve =
  let q = float_of_int (max 1 l.queries) in
  let per x = x /. q and per_i x = float_of_int x /. q in
  let e = l.eng in
  let execute = per e.exec_ms and scan = per e.scan_ms and join = per e.join_ms in
  let uq = float_of_int (max 1 (List.length l.untraced_ms)) in
  let attributed =
    l.materialize_ms +. l.catalog_ms +. l.dpccp_ms +. l.lower_ms +. l.encode_ms
    +. e.exec_ms +. l.hash_ms +. l.parse_ms
  in
  let s name = match serve with Some f -> f name | None -> 0.0 in
  let values =
    [
      ("workload.materialize_ms", per l.materialize_ms);
      ("workload.base_rows", per_i l.base_rows);
      ("optimizer.catalog_ms", per l.catalog_ms);
      ("optimizer.dpccp_ms", per l.dpccp_ms);
      ("optimizer.csg_cmp_pairs", per_i l.csg_pairs);
      ("planner.lower_ms", per l.lower_ms);
      ("frame.encode_ms", per l.encode_ms);
      ("frame.dict_size", per_i e.dict_size);
      ("engine.execute_ms", execute);
      ("engine.scan_ms", scan);
      ("engine.join_ms", join);
      ("engine.rest_ms", execute -. scan -. join);
      ("engine.tau", per_i e.tau);
      ("engine.result_rows", per_i e.result_rows);
      ("engine.probes", per_i e.probes);
      ( "engine.probe_hit_ratio",
        if e.probes = 0 then 0.0
        else float_of_int e.probe_hits /. float_of_int e.probes );
      ("engine.morsels", per_i e.morsels);
      ("pool.domains", per_i e.domains);
      ("pool.clamp_events", float_of_int clamp_events);
      ("protocol.hash_ms", per l.hash_ms);
      ("protocol.parse_ms", per l.parse_ms);
      ("serve.handle_ms", s "serve.handle_ms");
      ("serve.request_ms", per l.request_ms);
      ("serve.plan_cache_hit_ratio", s "serve.plan_cache_hit_ratio");
      ("serve.plan_cache_evictions", s "serve.plan_cache_evictions");
      ("serve.db_registry", s "serve.db_registry");
      ("serve.overloaded", s "serve.overloaded");
      ("serve.timeouts", s "serve.timeouts");
      ("serve.errors", s "serve.errors");
      ("wire.self_ms", s "wire.self_ms");
      ("gc.minor_words_per_query", l.untraced_minor_words /. uq);
      ("gc.major_collections", float_of_int l.untraced_major /. uq);
      ( "trace.overhead_frac",
        if l.untraced_ms = [] then 0.0
        else (median l.traced_ms /. median l.untraced_ms) -. 1.0 );
      ( "trace.unattributed_frac",
        if l.query_ms = 0.0 then 0.0 else 1.0 -. (attributed /. l.query_ms) );
    ]
  in
  List.iter
    (fun (name, unit) -> metric run name unit (List.assoc name values))
    per_layer

(* ------------------------------------------------------------------ *)
(* cold-large: the one-shot pipeline, in process                       *)

(* The calls in the order [mjoin explain]/[optimize] make them. *)
let cold_query cfg w =
  let db = Protocol.materialize w in
  let est = Estimate.of_catalog (Catalog.of_database db) in
  let strategy =
    match Dpccp.plan ~oracle:est (Database.schemes db) with
    | Some r -> r.Optimal.strategy
    | None -> failwith "cold-large: unconnected query"
  in
  let plan = Engine.lower cfg db strategy in
  let fdb = Frame.Db.of_database ~storage:cfg.Engine.Config.frame_storage db in
  let result, stats = Engine.execute_plan ~fdb cfg db plan in
  (strategy, Oracle.answer_of result stats)

(* The same pipeline with a timer around every layer call and an [Obs]
   sink on the optimizer and the engine. *)
let cold_query_traced l cfg w =
  let sink = Obs.make () in
  let cfg = { cfg with Engine.Config.obs = sink } in
  let t0 = now () in
  let db, m = timed (fun () -> Protocol.materialize w) in
  let est, c =
    timed (fun () -> Estimate.of_catalog (Catalog.of_database db))
  in
  let r, d =
    timed (fun () -> Dpccp.plan ~obs:sink ~oracle:est (Database.schemes db))
  in
  let strategy =
    match r with
    | Some r -> r.Optimal.strategy
    | None -> failwith "cold-large: unconnected query"
  in
  let plan, lo = timed (fun () -> Engine.lower cfg db strategy) in
  let fdb, en =
    timed (fun () ->
        Frame.Db.of_database ~storage:cfg.Engine.Config.frame_storage db)
  in
  let (result, stats), ex =
    timed (fun () -> Engine.execute_plan ~fdb cfg db plan)
  in
  let hash, h = timed (fun () -> Protocol.result_hash result) in
  let answer = Oracle.answer ~hash stats in
  let total = ms_since t0 in
  let base_rows = Oracle.base_rows db in
  l.queries <- l.queries + 1;
  l.materialize_ms <- l.materialize_ms +. m;
  l.base_rows <- l.base_rows + base_rows;
  l.catalog_ms <- l.catalog_ms +. c;
  l.dpccp_ms <- l.dpccp_ms +. d;
  l.csg_pairs <- l.csg_pairs + counter sink "opt.pairs_inspected";
  l.lower_ms <- l.lower_ms +. lo;
  l.encode_ms <- l.encode_ms +. en;
  l.eng.exec_ms <- l.eng.exec_ms +. ex;
  l.eng.result_rows <- l.eng.result_rows + stats.Engine.result_rows;
  tally_sink l.eng sink ~base_rows ~cfg;
  l.hash_ms <- l.hash_ms +. h;
  l.query_ms <- l.query_ms +. total;
  l.traced_ms <- total :: l.traced_ms;
  (strategy, answer)

let cold_setups = 3

let cold_large ~seed ~seconds ~trace run =
  let specs = Spec.cold ~seed in
  let k = Array.length specs in
  (* Set-up: resolve the engine config and run one untimed warm-up
     query, so the first timed query does not pay first-touch costs.
     Done [cold_setups] times; the median is reported. *)
  let config () =
    Engine.Config.make ~plane:Engine.Frame ~policy:Planner.Hash_all ()
  in
  let observed = ref [] in
  let setups =
    List.init cold_setups (fun spec ->
        snd
          (timed (fun () ->
               let strat, answer = cold_query (config ()) specs.(spec) in
               observed := (spec, strat, answer) :: !observed)))
  in
  let cfg = config () in
  let l = layers () in
  let clamp0 = Pool.clamp_events () in
  let t0 = now () in
  let i = ref 0 in
  while now () -. t0 < seconds do
    let spec = !i mod k in
    let w = specs.(spec) in
    let strat, answer =
      if trace && !i / k mod 2 = 1 then cold_query_traced l cfg w
      else untraced l (fun () -> cold_query cfg w)
    in
    observed := (spec, strat, answer) :: !observed;
    incr i
  done;
  let wall = now () -. t0 in
  let peak = self_peak_rss_mb () in
  let clamp_events = Pool.clamp_events () - clamp0 in
  (* Certify every answer against a seed-plane reference of the same
     database and strategy, one reference per pool entry. *)
  let refs = Hashtbl.create k in
  List.iter
    (fun (spec, strat, (answer : Oracle.answer)) ->
      let rstrat, (reference : Oracle.reference) =
        match Hashtbl.find_opt refs spec with
        | Some r -> r
        | None ->
            let db = Protocol.materialize specs.(spec) in
            let r =
              (strat, Oracle.compute ~policy:Planner.Hash_all db strat)
            in
            Hashtbl.add refs spec r;
            r
      in
      check run (Strategy.equal strat rstrat && answer = reference.Oracle.answer))
    !observed;
  note run "queries" (Json.int !i);
  note run "pool" (Json.int k);
  note run "rows_per_relation"
    (Json.Arr (Array.to_list (Array.map (fun w -> Json.int w.Protocol.rows) specs)));
  note run "config"
    (Json.Obj
       [
         ("plane", Json.str (Engine.plane_name cfg.Engine.Config.plane));
         ("policy", Json.str (Planner.policy_name cfg.Engine.Config.algo_policy));
         ("domains", Json.int cfg.Engine.Config.domains);
         ("storage", Json.str (Frame.storage_name cfg.Engine.Config.frame_storage));
         ( "morsel",
           Json.int
             (Option.value cfg.Engine.Config.morsel ~default:Frame.default_morsel) );
       ]);
  if trace then emit_layers run l ~clamp_events ~serve:None
  else begin
    let lat = l.untraced_ms in
    note run "samples" (Json.int (List.length lat));
    metric run "setup_s" "s" (median setups /. 1000.);
    metric run "throughput_qps" "1/s" (float_of_int !i /. wall);
    metric run "latency_p50_ms" "ms" (median lat);
    metric run "latency_p90_ms" "ms" (quantile lat 0.9);
    metric run "peak_rss_mb" "MB" peak
  end

(* ------------------------------------------------------------------ *)
(* serve-hot and serve-churn                                           *)

type kind = Hot | Churn

(* The keys set-up primes, and the request stream of the timed phase:
   hot cycles through its primed keys, churn draws Zipf(1) keys from its
   universe.  A fresh stream restarts the same sequence. *)
let primed kind ~seed = match kind with Hot -> Spec.hot ~seed | Churn -> [||]

let request_stream kind ~seed =
  match kind with
  | Hot ->
      let reqs = Spec.hot ~seed in
      let i = ref (-1) in
      fun () ->
        incr i;
        reqs.(!i mod Array.length reqs)
  | Churn ->
      let reqs = Spec.churn ~seed in
      let draw =
        Spec.zipf_sampler ~seed ~kinds:(Array.length Spec.churn_kinds)
          (Array.length reqs)
      in
      fun () -> reqs.(draw ())

let ok_status resp = Protocol.status_of_response resp = "ok"

(* Set-ups per run; the median is reported.  A churn set-up is only a
   daemon start (a few ms), so it is repeated more often. *)
let serve_setups = function Hot -> 5 | Churn -> 15

type socket_phase = {
  setup_s : float list;
  latencies : float list;
  wall_s : float;
  peak_mb : float;
  daemon_stats : Json.t;
}

(* A request sender over one daemon connection, numbering requests. *)
let sender d =
  let id = ref 0 in
  fun line ->
    incr id;
    Daemon.call d (line ~id:!id)

let prime send kind ~seed answers =
  Array.iter
    (fun r ->
      let resp, _ = send (Spec.query_line r) in
      answers := (r, resp) :: !answers)
    (primed kind ~seed)

(* Spawn, wait for the socket and prime, [serve_setups kind] times (every
   daemon but the last is shut down again); then drive the last daemon
   closed-loop, one request in flight, for [seconds].  Answers are
   collected for certification after the daemon is gone. *)
let socket_phase ~mjoin ?failpoint kind ~seed ~seconds run answers =
  let rec setup k acc =
    let t0 = now () in
    let d = Daemon.start ~mjoin ?failpoint () in
    (match prime (sender d) kind ~seed answers with
    | () -> ()
    | exception e ->
        Daemon.shutdown d;
        raise e);
    let s = now () -. t0 in
    if k <= 1 then (d, s :: acc)
    else begin
      Daemon.shutdown d;
      setup (k - 1) (s :: acc)
    end
  in
  let d, setup_s = setup (serve_setups kind) [] in
  Fun.protect ~finally:(fun () -> Daemon.shutdown d) @@ fun () ->
  let send = sender d in
  let next = request_stream kind ~seed in
  let lat = ref [] and queries = ref 0 in
  let t0 = now () in
  while now () -. t0 < seconds do
    let r = next () in
    let resp, ms = send (Spec.query_line r) in
    lat := ms :: !lat;
    answers := (r, resp) :: !answers;
    incr queries;
    if kind = Churn && !queries mod Spec.churn_invalidate_every = 0 then
      check run (ok_status (fst (send (Spec.control_line "invalidate"))))
  done;
  let wall_s = now () -. t0 in
  let peak_mb = Daemon.peak_rss_mb d.Daemon.pid in
  let stats, _ = send (Spec.control_line "stats") in
  {
    setup_s;
    latencies = !lat;
    wall_s;
    peak_mb;
    daemon_stats = Option.value (Json.of_string_opt stats) ~default:Json.Null;
  }

let serve_counter srv name =
  match List.assoc_opt name (Serve.counters srv) with Some v -> v | None -> 0

(* The traced pass: a fresh in-process [Serve] driven through
   [Serve.handle_line], with every request also sent to the daemon over
   [wire] just before, so socket and in-process latencies are taken in the
   same time window.  Alternate blocks of requests run with an [Obs] sink
   (traced) and without (untraced).  The
   layers the daemon runs inside a request without spans of their own —
   parse, materialize and encode on a registry miss, lower on a plan-cache
   miss, the result hash — are timed by replaying the same public calls
   on the same inputs, outside the measured request. *)
let inprocess_phase kind ~seed ~seconds ~wire run l refs answers =
  let cfg = Engine.Config.make () in
  let srv = Serve.create ~cfg () in
  let frame_cfg policy =
    { cfg with Engine.Config.plane = Engine.Frame; algo_policy = policy }
  in
  (* Mirror of the daemon's registry: keys materialized since the last
     invalidate (the registry has no eviction). *)
  let registry = Hashtbl.create 64 in
  let handle r = Serve.handle_line srv (Spec.query_line ~id:0 r) in
  let keys = primed kind ~seed in
  Array.iter
    (fun r ->
      answers := (r, handle r) :: !answers;
      Hashtbl.replace registry (Protocol.workload_key r.Spec.w) ())
    keys;
  let period = max 1 (Array.length keys) in
  let c name = serve_counter srv name in
  let hit0 = c "serve.plan_cache_hit" and miss0 = c "serve.plan_cache_miss" in
  let evict0 = c "serve.plan_cache_evictions" in
  let over0 = c "serve.overloaded" and tmo0 = c "serve.timeouts" in
  let err0 = c "serve.errors" in
  let clamp0 = Pool.clamp_events () in
  let next = request_stream kind ~seed in
  let pairs = ref [] in
  let t0 = now () and i = ref 0 in
  while now () -. t0 < seconds do
    let r = next () in
    let wire_resp, wire_ms = wire (Spec.query_line r) in
    answers := (r, wire_resp) :: !answers;
    let reference = Oracle.of_request refs r in
    let wkey = Protocol.workload_key r.Spec.w in
    let registry_miss = not (Hashtbl.mem registry wkey) in
    let resp =
      if !i / period mod 2 = 0 then begin
        let resp = untraced l (fun () -> handle r) in
        pairs := (wire_ms, List.hd l.untraced_ms) :: !pairs;
        resp
      end
      else begin
        let sink = Obs.make () in
        let line = Spec.query_line ~id:0 r in
        let resp, ms = timed (fun () -> Serve.handle_line srv ~obs:sink line) in
        let trees = Obs.trace sink in
        let rcfg = frame_cfg r.Spec.policy in
        l.queries <- l.queries + 1;
        l.query_ms <- l.query_ms +. ms;
        l.traced_ms <- ms :: l.traced_ms;
        l.request_ms <- l.request_ms +. span_ms [ "serve.request" ] trees;
        l.eng.exec_ms <-
          l.eng.exec_ms +. span_ms [ "execute-frame"; "execute" ] trees;
        tally_sink l.eng sink ~base_rows:reference.Oracle.base_rows ~cfg:rcfg;
        l.eng.result_rows <- l.eng.result_rows + reference.Oracle.answer.Oracle.rows;
        l.base_rows <- l.base_rows + reference.Oracle.base_rows;
        l.parse_ms <- l.parse_ms +. snd (timed (fun () -> Protocol.parse line));
        let db =
          if registry_miss then begin
            let db, m = timed (fun () -> Protocol.materialize r.Spec.w) in
            let _, e =
              timed (fun () ->
                  Frame.Db.of_database ~storage:cfg.Engine.Config.frame_storage db)
            in
            l.materialize_ms <- l.materialize_ms +. m;
            l.encode_ms <- l.encode_ms +. e;
            Some db
          end
          else None
        in
        (match Option.bind (Json.of_string_opt resp) (Json.member "cached_plan") with
        | Some (Json.Bool false) ->
            let db =
              match db with Some db -> db | None -> Protocol.materialize r.Spec.w
            in
            let strategy = Protocol.default_strategy db in
            let _, ms = timed (fun () -> Engine.lower rcfg db strategy) in
            l.lower_ms <- l.lower_ms +. ms
        | _ -> ());
        let _, ms =
          timed (fun () -> Protocol.result_hash reference.Oracle.result)
        in
        l.hash_ms <- l.hash_ms +. ms;
        resp
      end
    in
    Hashtbl.replace registry wkey ();
    answers := (r, resp) :: !answers;
    incr i;
    if kind = Churn && !i mod Spec.churn_invalidate_every = 0 then begin
      check run (ok_status (fst (wire (Spec.control_line "invalidate"))));
      let line = Spec.control_line ~id:0 "invalidate" in
      check run (ok_status (Serve.handle_line srv line));
      Hashtbl.reset registry
    end
  done;
  let hits = c "serve.plan_cache_hit" - hit0 in
  let misses = c "serve.plan_cache_miss" - miss0 in
  let serve_values =
    [
      ("serve.handle_ms", median l.untraced_ms);
      ( "wire.self_ms",
        median (List.map fst !pairs) -. median (List.map snd !pairs) );
      ( "serve.plan_cache_hit_ratio",
        if hits + misses = 0 then 0.0
        else float_of_int hits /. float_of_int (hits + misses) );
      ( "serve.plan_cache_evictions",
        float_of_int (c "serve.plan_cache_evictions" - evict0) );
      ("serve.db_registry", float_of_int (c "serve.db_registry"));
      ("serve.overloaded", float_of_int (c "serve.overloaded" - over0));
      ("serve.timeouts", float_of_int (c "serve.timeouts" - tmo0));
      ("serve.errors", float_of_int (c "serve.errors" - err0));
    ]
  in
  (serve_values, Pool.clamp_events () - clamp0)

let certify_served run refs answers =
  List.iter
    (fun (r, resp) -> check run (Oracle.response_matches (Oracle.of_request refs r) resp))
    answers

let serve_workload ~mjoin ?failpoint kind ~seed ~seconds ~trace run =
  let refs = Oracle.cache () in
  let answers = ref [] in
  if not trace then begin
    let p =
      socket_phase ~mjoin ?failpoint kind ~seed ~seconds run answers
    in
    certify_served run refs !answers;
    note run "samples" (Json.int (List.length p.latencies));
    note run "daemon_stats" p.daemon_stats;
    metric run "setup_s" "s" (median p.setup_s);
    metric run "throughput_qps" "1/s"
      (float_of_int (List.length p.latencies) /. p.wall_s);
    metric run "latency_p50_ms" "ms" (median p.latencies);
    metric run "latency_p90_ms" "ms" (quantile p.latencies 0.9);
    metric run "peak_rss_mb" "MB" p.peak_mb
  end
  else begin
    let l = layers () in
    let serve_values, clamp_events =
      Daemon.with_daemon ~mjoin ?failpoint (fun d ->
          let wire = sender d in
          prime wire kind ~seed answers;
          inprocess_phase kind ~seed ~seconds ~wire run l refs answers)
    in
    certify_served run refs !answers;
    emit_layers run l ~clamp_events
      ~serve:(Some (fun k -> List.assoc k serve_values))
  end

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)

let workloads = [ "cold-large"; "serve-hot"; "serve-churn" ]

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and mjoin = ref "" and commit = ref "unknown" in
  let failpoint = ref None in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat "|" workloads);
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--mjoin", Arg.Set_string mjoin, "PATH the mjoin binary serve workloads spawn");
      ("--commit", Arg.Set_string commit, "SHA recorded with the results");
      ( "--failpoint",
        Arg.String (fun f -> failpoint := Some f),
        "NAME arm a failpoint in the spawned daemon (gate self-test)" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "mjbench --workload W --seed N --seconds S --trace 0|1 --mjoin PATH";
  let fail msg =
    prerr_endline ("mjbench: " ^ msg);
    exit 2
  in
  if not (List.mem !workload workloads) then fail ("unknown workload " ^ !workload);
  if !trace <> 0 && !trace <> 1 then fail "--trace takes 0 or 1";
  if Array.exists Daemon.is_mj_var (Unix.environment ()) then
    fail "MJ_* variables are set; run through run.py, which clears them";
  let run = fresh_run () in
  let trace = !trace = 1 and seed = !seed and seconds = !seconds in
  (match !workload with
  | "cold-large" -> cold_large ~seed ~seconds ~trace run
  | w ->
      if !mjoin = "" then fail "serve workloads need --mjoin";
      let kind = if w = "serve-hot" then Hot else Churn in
      serve_workload ~mjoin:!mjoin ?failpoint:!failpoint kind ~seed ~seconds ~trace run);
  let metrics = List.rev run.metrics in
  Printf.printf "mjbench %s seed=%d seconds=%g trace=%d\n" !workload seed seconds
    (if trace then 1 else 0);
  List.iter
    (fun (name, v, unit) -> Printf.printf "  %-28s %14.4f %s\n" name v unit)
    metrics;
  Printf.printf "  %-28s %14.4f (%d/%d)\n" "failed_frac"
    (float_of_int run.failed /. float_of_int (max 1 run.attempted))
    run.failed run.attempted;
  let cfg = Engine.Config.make () in
  let srv = Serve.create ~cfg () in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ( "env",
              Json.Obj
                ([
                   ("workload", Json.str !workload);
                   ("seed", Json.int seed);
                   ("nproc", Json.int (Domain.recommended_domain_count ()));
                   ("ocaml", Json.str Sys.ocaml_version);
                   ("commit", Json.str !commit);
                   ( "default_plane",
                     Json.str (Engine.plane_name cfg.Engine.Config.plane) );
                   ("default_domains", Json.int cfg.Engine.Config.domains);
                   ( "default_storage",
                     Json.str (Frame.storage_name cfg.Engine.Config.frame_storage) );
                   ( "default_morsel",
                     Json.int
                       (Option.value cfg.Engine.Config.morsel
                          ~default:Frame.default_morsel) );
                   ("serve_queue_cap", Json.int (Serve.queue_cap srv));
                   ("serve_timeout_ms", Json.int (Serve.timeout_ms srv));
                   ( "failed_frac",
                     Json.float
                       (float_of_int run.failed /. float_of_int (max 1 run.attempted)) );
                 ]
                @ List.rev run.notes) );
          ]));
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.bool (run.failed = 0));
            ("attempted", Json.int run.attempted);
            ("failed", Json.int run.failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (name, v, unit) ->
                     ( name,
                       Json.Obj
                         [ ("value", Json.float v); ("unit", Json.str unit) ] ))
                   metrics) );
          ]));
  exit (if run.failed = 0 then 0 else 1)
