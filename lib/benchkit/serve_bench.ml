(* The SERVE benchmark: an in-process load generator against one
   Mj_serve.Serve daemon.

   Two kinds of rows:

   - "mixed" rows: N client tasks (Pool.run, one domain each) fire a
     round-robin mix of chain/star/snowflake/triangle requests across
     policies and planes through [Serve.handle_line], sharing the
     daemon's warm state.  Latencies go through the Obs quantile
     histogram (p50/p95/p99); QPS is responses over the wall clock of
     the parallel section; every "ok" response is certified
     field-by-field against a cold single-shot [Engine.run] oracle of
     the same request (rows, tau, hash, per-step τ log).

   - the "plan-cache" row: the warm-over-cold gate.  Cold = a fresh
     daemon per shot (registry miss, plan-cache miss); warm = the
     same line repeated against one daemon (registry and plan cache
     hot).  Min-of-reps on
     both sides; the row carries the ≥ 2.0× speedup floor that [bench
     SERVE] turns into a non-zero exit. *)

module Obs = Mj_obs.Obs
module Json = Mj_obs.Json
module Engine = Mj_engine.Engine
module Planner = Mj_engine.Planner
module Pool = Mj_pool.Pool
module Serve = Mj_serve.Serve
module Protocol = Mj_serve.Protocol

type row = {
  workload : string;  (* "mixed" or "plan-cache" *)
  mix : string;  (* request mix summary, identity *)
  clients : int;
  requests : int;
  queue_cap : int;
  reps : int;
  p50_ms : float option;
  p95_ms : float option;
  p99_ms : float option;
  qps : float option;
  ok : int;
  overloaded : int;
  errors : int;
  cache_hits : int;
  cache_misses : int;
  cold_ms : float option;
  warm_ms : float option;
  speedup : float option;
  speedup_floor : float option;
  certified : bool;
  clamped : bool;
}

type t = { cores : int; rows : row list }

(* ------------------------------------------------------------------ *)
(* Request specs and the cold oracle                                   *)

type spec = {
  workload : Protocol.workload;
  policy : Planner.policy;
  plane : Engine.plane;
}

let request_line s =
  let w = s.workload in
  Json.to_string
    (Json.Obj
       [
         ("op", Json.str "query");
         ("shape", Json.str w.Protocol.shape);
         ("n", Json.int w.Protocol.n);
         ("rows", Json.int w.Protocol.rows);
         ("domain", Json.int w.Protocol.domain);
         ("regime", Json.str w.Protocol.regime);
         ("seed", Json.int w.Protocol.seed);
         ("policy", Json.str (Planner.policy_name s.policy));
         ("plane", Json.str (Engine.plane_name s.plane));
       ])

(* What a cold, single-shot Engine.run answers for a spec — the
   certification reference every served response must match bit for
   bit. *)
type oracle = { rows : int; tau : int; hash : string; steps : string }

let oracle_of_spec s =
  let db = Protocol.materialize s.workload in
  let strategy = Protocol.default_strategy db in
  let cfg =
    Engine.Config.make ~plane:s.plane ~policy:s.policy ~domains:1
      ~obs:Obs.noop ()
  in
  let hash, stats = Engine.execute_digest cfg db (Engine.lower cfg db strategy) in
  {
    rows = stats.Engine.result_rows;
    tau = stats.Engine.tuples_generated;
    hash = Protocol.hash_hex hash;
    steps = Json.to_string (Protocol.steps_json stats.Engine.per_step);
  }

let int_field name j =
  match Json.member name j with
  | Some (Json.Num v) when Float.is_integer v -> Some (int_of_float v)
  | _ -> None

let str_field name j =
  match Json.member name j with Some (Json.Str s) -> Some s | _ -> None

(* An "ok" response matches its oracle iff rows, τ, the result hash and
   the rendered per-step log all agree. *)
let response_matches oracle line =
  match Json.of_string_opt line with
  | None -> false
  | Some j ->
      int_field "rows" j = Some oracle.rows
      && int_field "tau" j = Some oracle.tau
      && str_field "hash" j = Some oracle.hash
      && (match Json.member "steps" j with
         | Some steps -> Json.to_string steps = oracle.steps
         | None -> false)

(* ------------------------------------------------------------------ *)
(* The mixed concurrent workload                                       *)

let mixed_specs ~rows ~domain =
  let w shape n regime =
    { Protocol.default_workload with shape; n; rows; domain; regime }
  in
  [
    { workload = w "chain" 4 "uniform"; policy = Planner.Yannakakis; plane = Seed };
    { workload = w "star" 4 "uniform"; policy = Planner.Hash_all; plane = Frame };
    { workload = w "snowflake" 4 "uniform"; policy = Planner.Yannakakis; plane = Seed };
    { workload = w "cycle" 3 "skewed"; policy = Planner.Wcoj; plane = Frame };
    { workload = w "chain" 4 "uniform"; policy = Planner.Hash_all; plane = Seed };
    { workload = w "star" 4 "uniform"; policy = Planner.Yannakakis; plane = Frame };
  ]

let mix_name = "chain/star/snowflake/triangle x hash/wcoj/yann x planes"

let count status responses =
  List.length
    (List.filter (fun r -> Protocol.status_of_response r = status) responses)

let assoc_counter name counters =
  match List.assoc_opt name counters with Some v -> v | None -> 0

let mixed_row ~quick ~cores ~clients =
  let rows = if quick then 24 else 48 in
  let domain = if quick then 12 else 16 in
  let per_client = if quick then 6 else 18 in
  let specs = Array.of_list (mixed_specs ~rows ~domain) in
  let nspecs = Array.length specs in
  let queue_cap = 1024 in
  let cfg = Engine.Config.make ~domains:1 ~obs:Obs.noop () in
  let srv = Serve.create ~queue_cap ~cfg () in
  let t0 = Obs.monotonic_time () in
  let per_task =
    Pool.run ~domains:clients
      (Array.init clients (fun c () ->
           List.init per_client (fun k ->
               let i = (c + k) mod nspecs in
               let line = request_line specs.(i) in
               let s = Obs.monotonic_time () in
               let resp = Serve.handle_line srv line in
               let ms = (Obs.monotonic_time () -. s) *. 1000. in
               (i, ms, resp))))
  in
  let wall_s = Obs.monotonic_time () -. t0 in
  let shots = List.concat (Array.to_list per_task) in
  let reg = Obs.registry () in
  let histo = Obs.reg_histogram reg "serve.latency_ms" in
  List.iter (fun (_, ms, _) -> Obs.observe histo ms) shots;
  let summary = Obs.summary histo in
  let oracles = Array.map oracle_of_spec specs in
  let responses = List.map (fun (_, _, r) -> r) shots in
  let certified =
    List.for_all
      (fun (i, _, resp) ->
        Protocol.status_of_response resp = "ok"
        && response_matches oracles.(i) resp)
      shots
  in
  let counters = Serve.counters srv in
  {
    workload = "mixed";
    mix = mix_name;
    clients;
    requests = clients * per_client;
    queue_cap;
    reps = 1;
    p50_ms = Some summary.Obs.p50;
    p95_ms = Some summary.Obs.p95;
    p99_ms = Some summary.Obs.p99;
    qps = Some (float_of_int (List.length shots) /. wall_s);
    ok = count "ok" responses;
    overloaded = count "overloaded" responses;
    errors = count "error" responses;
    cache_hits = assoc_counter "serve.plan_cache_hit" counters;
    cache_misses = assoc_counter "serve.plan_cache_miss" counters;
    cold_ms = None;
    warm_ms = None;
    speedup = None;
    speedup_floor = None;
    certified;
    clamped = clients > cores;
  }

(* ------------------------------------------------------------------ *)
(* The plan-cache warm-over-cold gate                                  *)

(* The gate workload is chosen so the cold-only costs dominate: on a
   superkey chain the joins are injective (every intermediate stays at
   [rows]), so a warm shot is a flat hash-join pass, while a cold shot
   also pays materialization and lowering. *)
let floor_spec ~quick =
  {
    workload =
      {
        Protocol.default_workload with
        shape = "chain";
        n = 6;
        rows = (if quick then 96 else 200);
        domain = 256;
        regime = "superkey";
      };
    policy = Planner.Hash_all;
    plane = Seed;
  }

let time_once f =
  let s = Obs.monotonic_time () in
  let r = f () in
  ((Obs.monotonic_time () -. s) *. 1000., r)

let plan_cache_row ~quick ~cores:_ =
  let spec = floor_spec ~quick in
  let line = request_line spec in
  let reps = if quick then 3 else 5 in
  let queue_cap = 64 in
  let mk () =
    Serve.create ~queue_cap
      ~cfg:(Engine.Config.make ~domains:1 ~obs:Obs.noop ())
      ()
  in
  (* Cold: a fresh daemon per shot pays materialization and lowering
     every time. *)
  let cold_ms = ref infinity in
  for _ = 1 to reps do
    let srv = mk () in
    let ms, _ = time_once (fun () -> Serve.handle_line srv line) in
    if ms < !cold_ms then cold_ms := ms
  done;
  (* Warm: one daemon, primed once — registry and plan cache hot on
     the timed shots. *)
  let srv = mk () in
  let _prime = Serve.handle_line srv line in
  let warm_ms = ref infinity in
  let warm_responses = ref [] in
  for _ = 1 to reps do
    let ms, resp = time_once (fun () -> Serve.handle_line srv line) in
    warm_responses := resp :: !warm_responses;
    if ms < !warm_ms then warm_ms := ms
  done;
  let oracle = oracle_of_spec spec in
  let cached_plan resp =
    match Json.of_string_opt resp with
    | Some j -> Json.member "cached_plan" j = Some (Json.Bool true)
    | None -> false
  in
  let certified =
    List.for_all
      (fun r -> response_matches oracle r && cached_plan r)
      !warm_responses
  in
  let counters = Serve.counters srv in
  {
    workload = "plan-cache";
    mix =
      Printf.sprintf "%s policy=%s plane=%s"
        (Protocol.workload_key spec.workload)
        (Planner.policy_name spec.policy)
        (Engine.plane_name spec.plane);
    clients = 1;
    requests = reps + 1;
    queue_cap;
    reps;
    p50_ms = None;
    p95_ms = None;
    p99_ms = None;
    qps = None;
    ok = reps + 1;
    overloaded = 0;
    errors = 0;
    cache_hits = assoc_counter "serve.plan_cache_hit" counters;
    cache_misses = assoc_counter "serve.plan_cache_miss" counters;
    cold_ms = Some !cold_ms;
    warm_ms = Some !warm_ms;
    speedup = Some (!cold_ms /. !warm_ms);
    speedup_floor = Some 2.0;
    certified;
    clamped = false;
  }

(* ------------------------------------------------------------------ *)

let run ?(quick = false) () =
  let cores = Domain.recommended_domain_count () in
  let client_grid = if quick then [ 1; 4 ] else [ 1; 2; 4 ] in
  let rows =
    List.map (fun clients -> mixed_row ~quick ~cores ~clients) client_grid
    @ [ plan_cache_row ~quick ~cores ]
  in
  { cores; rows }

let floor_ok (r : row) =
  match (r.speedup_floor, r.speedup) with
  | Some floor, Some s -> s >= floor
  | Some _, None -> false
  | None, _ -> true

let failures (t : t) =
  List.filter (fun r -> (not r.certified) || not (floor_ok r)) t.rows

let opt_float name v fields =
  match v with Some x -> (name, Json.float x) :: fields | None -> fields

let row_json (r : row) =
  Json.Obj
    ([
       ("experiment", Json.str "serve");
       ("workload", Json.str r.workload);
       ("mix", Json.str r.mix);
       ("clients", Json.int r.clients);
       ("requests", Json.int r.requests);
       ("queue_cap", Json.int r.queue_cap);
       ("reps", Json.int r.reps);
     ]
    |> opt_float "p50_ms" r.p50_ms
    |> opt_float "p95_ms" r.p95_ms
    |> opt_float "p99_ms" r.p99_ms
    |> opt_float "qps" r.qps
    |> fun fields ->
    fields
    @ [
        ("ok", Json.int r.ok);
        ("overloaded", Json.int r.overloaded);
        ("errors", Json.int r.errors);
        ("cache_hits", Json.int r.cache_hits);
        ("cache_misses", Json.int r.cache_misses);
      ]
    |> opt_float "cold_ms" r.cold_ms
    |> opt_float "warm_ms" r.warm_ms
    |> opt_float "speedup" r.speedup
    |> opt_float "speedup_floor" r.speedup_floor
    |> fun fields ->
    fields
    @ [
        ("speedup_ok", Json.bool (floor_ok r));
        ("certified", Json.bool r.certified);
        ("clamped", Json.bool r.clamped);
      ])

let bench_json (t : t) =
  Json.Obj
    [
      ("bench", Json.str "serve");
      ("cores", Json.int t.cores);
      ("rows", Json.Arr (List.map row_json t.rows));
    ]

let write_file path t =
  let oc = open_out path in
  output_string oc (Json.to_string (bench_json t));
  output_char oc '\n';
  close_out oc
