(* Tests for the [mjoin serve] daemon: every served response — including
   under concurrent batch dispatch — equals a cold single-shot
   [Engine.run] oracle; a plan-cache hit answers bit-identically to the
   miss that populated it; the LRU plan cache obeys its eviction and
   counter laws against a reference model; [invalidate] bumps the stats
   epoch and purges every older plan; admission control sheds exactly
   the over-cap tail with [overloaded] while completing every admitted
   request; and a [shutdown] riding in a batch still lets every admitted
   neighbour finish — the drain guarantee. *)

module Obs = Mj_obs.Obs
module Json = Mj_obs.Json
module Engine = Mj_engine.Engine
module Planner = Mj_engine.Planner
module Serve = Mj_serve.Serve
module Protocol = Mj_serve.Protocol
module Plan_cache = Mj_serve.Plan_cache

let qtest name ?(count = 100) gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen prop)

(* ------------------------------------------------------------------ *)
(* Request lines and the cold oracle                                    *)
(* ------------------------------------------------------------------ *)

type spec = {
  workload : Protocol.workload;
  policy : Planner.policy;
  plane : Engine.plane;
}

let request_line ?id s =
  let w = s.workload in
  let id_field = match id with None -> [] | Some i -> [ ("id", Json.int i) ] in
  Json.to_string
    (Json.Obj
       (id_field
       @ [
           ("op", Json.str "query");
           ("shape", Json.str w.Protocol.shape);
           ("n", Json.int w.Protocol.n);
           ("rows", Json.int w.Protocol.rows);
           ("domain", Json.int w.Protocol.domain);
           ("regime", Json.str w.Protocol.regime);
           ("seed", Json.int w.Protocol.seed);
           ("policy", Json.str (Planner.policy_name s.policy));
           ("plane", Json.str (Engine.plane_name s.plane));
         ]))

type oracle = { o_rows : int; o_tau : int; o_hash : string; o_steps : string }

let oracle_of_spec s =
  let db = Protocol.materialize s.workload in
  let strategy = Protocol.default_strategy db in
  let cfg =
    Engine.Config.make ~plane:s.plane ~policy:s.policy ~domains:1
      ~obs:Obs.noop ()
  in
  let result, stats = Engine.run cfg db strategy in
  {
    o_rows = stats.Engine.result_rows;
    o_tau = stats.Engine.tuples_generated;
    o_hash = Protocol.hash_hex (Protocol.result_hash result);
    o_steps = Json.to_string (Protocol.steps_json stats.Engine.per_step);
  }

let int_field name j =
  match Json.member name j with
  | Some (Json.Num v) when Float.is_integer v -> Some (int_of_float v)
  | _ -> None

let str_field name j =
  match Json.member name j with Some (Json.Str s) -> Some s | _ -> None

let response_matches oracle line =
  match Json.of_string_opt line with
  | None -> false
  | Some j ->
      int_field "rows" j = Some oracle.o_rows
      && int_field "tau" j = Some oracle.o_tau
      && str_field "hash" j = Some oracle.o_hash
      && (match Json.member "steps" j with
         | Some steps -> Json.to_string steps = oracle.o_steps
         | None -> false)

(* A response with its volatile fields dropped: [ms] is wall clock and
   [cached_plan] is exactly the hit/miss bit under test, so determinism
   claims compare everything else. *)
let stable_fields line =
  match Json.of_string_opt line with
  | Some (Json.Obj fields) ->
      Json.to_string
        (Json.Obj
           (List.filter
              (fun (k, _) -> k <> "ms" && k <> "cached_plan")
              fields))
  | _ -> line

let cached_plan line =
  match Json.of_string_opt line with
  | Some j -> Json.member "cached_plan" j = Some (Json.Bool true)
  | None -> false

let status = Protocol.status_of_response

let counter name srv =
  match List.assoc_opt name (Serve.counters srv) with
  | Some v -> v
  | None -> 0

let mk_serve ?(queue_cap = 64) ?(domains = 1) () =
  Serve.create ~queue_cap
    ~cfg:(Engine.Config.make ~domains ~obs:Obs.noop ())
    ()

(* ------------------------------------------------------------------ *)
(* Generators                                                           *)
(* ------------------------------------------------------------------ *)

(* A deterministic request mix drawn from one integer seed: shapes ×
   sizes × policies × planes, small enough that the cold oracle stays
   cheap at qcheck counts. *)
let spec_of_rng rng =
  let shapes = [| "chain"; "star"; "path"; "cycle" |] in
  let shape = shapes.(Random.State.int rng (Array.length shapes)) in
  let n = 3 + Random.State.int rng 2 in
  let rows = 4 + Random.State.int rng 8 in
  let domain = 3 + Random.State.int rng 4 in
  let seed = Random.State.int rng 1000 in
  let policies = [| Planner.Hash_all; Planner.Cost_based |] in
  let policy = policies.(Random.State.int rng (Array.length policies)) in
  let plane = if Random.State.bool rng then Engine.Seed else Engine.Frame in
  {
    workload =
      { Protocol.default_workload with shape; n; rows; domain; seed };
    policy;
    plane;
  }

let gen_specs ~min_n ~max_n =
  let open QCheck2.Gen in
  let* seed = int_range 0 100_000 in
  let* k = int_range min_n max_n in
  let rng = Random.State.make [| seed; k; 0x5e7 |] in
  return (List.init k (fun _ -> spec_of_rng rng))

(* ------------------------------------------------------------------ *)
(* Concurrent batch responses = cold oracle                             *)
(* ------------------------------------------------------------------ *)

(* The tentpole law: a warm, concurrently dispatched daemon answers
   exactly what a cold single-shot engine answers, for every request in
   a mixed batch.  Two batches back to back make the second ride the
   warm registry and plan cache. *)
let concurrent_oracle_law =
  qtest "batch responses = cold Engine.run oracle" ~count:30
    (gen_specs ~min_n:2 ~max_n:6)
    (fun specs ->
      let srv = mk_serve ~queue_cap:1024 ~domains:4 () in
      let lines = List.mapi (fun i s -> request_line ~id:i s) specs in
      let check_batch () =
        let responses = Serve.handle_batch srv lines in
        List.for_all2
          (fun s r -> status r = "ok" && response_matches (oracle_of_spec s) r)
          specs responses
      in
      check_batch () && check_batch ())

(* ------------------------------------------------------------------ *)
(* Plan-cache hit = miss determinism                                    *)
(* ------------------------------------------------------------------ *)

let hit_miss_law =
  qtest "plan-cache hit answers identically to the miss" ~count:30
    (gen_specs ~min_n:1 ~max_n:1)
    (fun specs ->
      let s = List.hd specs in
      let srv = mk_serve () in
      let line = request_line s in
      let miss = Serve.handle_line srv line in
      let hit = Serve.handle_line srv line in
      status miss = "ok" && status hit = "ok"
      && (not (cached_plan miss))
      && cached_plan hit
      && stable_fields miss = stable_fields hit
      && counter "serve.plan_cache_miss" srv = 1
      && counter "serve.plan_cache_hit" srv = 1)

(* ------------------------------------------------------------------ *)
(* LRU laws: Plan_cache against a reference model                       *)
(* ------------------------------------------------------------------ *)

(* Reference LRU: an association list in most-recent-first order. *)
module Model = struct
  type t = { cap : int; mutable entries : (string * int) list }

  let create ~cap = { cap = max 1 cap; entries = [] }

  let find m key =
    match List.assoc_opt key m.entries with
    | None -> None
    | Some v ->
        m.entries <- (key, v) :: List.remove_assoc key m.entries;
        Some v

  let add m key v =
    let without = List.remove_assoc key m.entries in
    let without =
      if
        List.mem_assoc key m.entries = false
        && List.length without >= m.cap
      then
        (* evict the least recently used — the last entry *)
        match List.rev without with
        | [] -> []
        | _ :: rev_rest -> List.rev rev_rest
      else without
    in
    m.entries <- (key, v) :: without

  let mem m key = List.mem_assoc key m.entries
  let length m = List.length m.entries
end

type cache_op = Add of int * int | Find of int

let gen_ops =
  let open QCheck2.Gen in
  let* seed = int_range 0 100_000 in
  let* len = int_range 1 60 in
  let rng = Random.State.make [| seed; len; 0xca4e |] in
  return
    (List.init len (fun _ ->
         let key = Random.State.int rng 6 in
         if Random.State.bool rng then Add (key, Random.State.int rng 100)
         else Find key))

let lru_model_law =
  qtest "LRU agrees with the reference model" ~count:200 gen_ops (fun ops ->
      let cap = 3 in
      let c = Plan_cache.create ~cap in
      let m = Model.create ~cap in
      let key k = Printf.sprintf "k%d" k in
      List.for_all
        (fun op ->
          match op with
          | Add (k, v) ->
              Plan_cache.add c (key k) v;
              Model.add m (key k) v;
              Plan_cache.length c = Model.length m
              && Plan_cache.length c <= cap
          | Find k ->
              let got = Plan_cache.find c (key k) in
              let want = Model.find m (key k) in
              got = want)
        ops
      && List.for_all
           (fun k ->
             (Plan_cache.find c (key k) <> None) = Model.mem m (key k))
           [ 0; 1; 2; 3; 4; 5 ])

let test_lru_eviction_order () =
  let c = Plan_cache.create ~cap:2 in
  Plan_cache.add c "a" 1;
  Plan_cache.add c "b" 2;
  Alcotest.(check (option int)) "a hits" (Some 1) (Plan_cache.find c "a");
  (* b is now least recently used; adding c must evict it *)
  Plan_cache.add c "c" 3;
  Alcotest.(check (option int)) "b evicted" None (Plan_cache.find c "b");
  Alcotest.(check (option int)) "a survives" (Some 1) (Plan_cache.find c "a");
  Alcotest.(check (option int)) "c present" (Some 3) (Plan_cache.find c "c");
  Alcotest.(check int) "length = cap" 2 (Plan_cache.length c);
  Alcotest.(check int) "one eviction" 1 (Plan_cache.evictions c);
  Alcotest.(check int) "hits counted" 3 (Plan_cache.hits c);
  Alcotest.(check int) "misses counted" 1 (Plan_cache.misses c)

let test_lru_replace_no_evict () =
  let c = Plan_cache.create ~cap:2 in
  Plan_cache.add c "a" 1;
  Plan_cache.add c "b" 2;
  Plan_cache.add c "a" 10;
  Alcotest.(check int) "replace keeps length" 2 (Plan_cache.length c);
  Alcotest.(check int) "replace is not an eviction" 0 (Plan_cache.evictions c);
  Alcotest.(check (option int)) "new value" (Some 10) (Plan_cache.find c "a")

let test_lru_cap_clamp () =
  let c = Plan_cache.create ~cap:0 in
  Alcotest.(check int) "cap clamped to 1" 1 (Plan_cache.cap c);
  Plan_cache.add c "a" 1;
  Plan_cache.add c "b" 2;
  Alcotest.(check int) "never above cap" 1 (Plan_cache.length c)

let test_remove_where () =
  let c = Plan_cache.create ~cap:8 in
  Plan_cache.add c "e0|x" 1;
  Plan_cache.add c "e0|y" 2;
  Plan_cache.add c "e1|z" 3;
  let dropped =
    Plan_cache.remove_where c (fun k -> String.length k >= 2 && k.[1] = '0')
  in
  Alcotest.(check int) "old-epoch keys dropped" 2 dropped;
  Alcotest.(check int) "survivors" 1 (Plan_cache.length c);
  Alcotest.(check int) "purge is not an eviction" 0 (Plan_cache.evictions c);
  Alcotest.(check (option int)) "new epoch survives" (Some 3)
    (Plan_cache.find c "e1|z")

(* ------------------------------------------------------------------ *)
(* Stats-epoch invalidation                                             *)
(* ------------------------------------------------------------------ *)

let epoch_invalidation_law =
  qtest "invalidate purges plans and preserves answers" ~count:20
    (gen_specs ~min_n:1 ~max_n:2)
    (fun specs ->
      let srv = mk_serve () in
      let lines = List.map request_line specs in
      let before = List.map (Serve.handle_line srv) lines in
      let planned = counter "serve.plan_cache_size" srv in
      let purged = Serve.invalidate srv in
      purged = planned
      && Serve.epoch srv = 1
      && counter "serve.plan_cache_size" srv = 0
      && counter "serve.db_registry" srv = 0
      && counter "serve.epoch" srv = 1
      (* Same queries after the epoch bump: every one is a plan-cache
         miss again (old-epoch keys are unreachable), and every answer
         is unchanged. *)
      &&
      let after = List.map (Serve.handle_line srv) lines in
      List.for_all2
        (fun b a -> (not (cached_plan a)) && stable_fields b = stable_fields a)
        before after)

let test_invalidate_via_protocol () =
  let srv = mk_serve () in
  let spec =
    {
      workload = { Protocol.default_workload with rows = 8; domain = 4 };
      policy = Planner.Hash_all;
      plane = Engine.Seed;
    }
  in
  let _warm = Serve.handle_line srv (request_line spec) in
  let resp = Serve.handle_line srv {|{"id":9,"op":"invalidate"}|} in
  Alcotest.(check string) "ok" "ok" (status resp);
  (match Json.of_string_opt resp with
  | Some j ->
      Alcotest.(check (option int)) "purged count" (Some 1)
        (int_field "purged_plans" j);
      Alcotest.(check (option int)) "epoch" (Some 1) (int_field "epoch" j)
  | None -> Alcotest.fail "unparseable response");
  Alcotest.(check int) "invalidations counter" 1
    (counter "serve.invalidations" srv)

(* ------------------------------------------------------------------ *)
(* Admission control: queue-cap refusal                                 *)
(* ------------------------------------------------------------------ *)

(* [handle_batch] admits in input order against the in-flight budget
   before dispatching, so a batch of q queries against cap c sheds
   exactly max(0, q-c), and precisely the tail. *)
let queue_cap_law =
  qtest "batch of cap+k queries sheds exactly the k-tail" ~count:25
    QCheck2.Gen.(pair (int_range 0 4) (int_range 1 4))
    (fun (cap, k) ->
      let srv = mk_serve ~queue_cap:cap () in
      let spec =
        {
          workload = { Protocol.default_workload with rows = 6; domain = 4 };
          policy = Planner.Hash_all;
          plane = Engine.Seed;
        }
      in
      let total = cap + k in
      let lines = List.init total (fun i -> request_line ~id:i spec) in
      let responses = Serve.handle_batch srv lines in
      let oracle = oracle_of_spec spec in
      let statuses = List.map status responses in
      let admitted, shed =
        List.partition (fun s -> s = "ok") statuses
      in
      List.length admitted = cap
      && List.length shed = k
      && List.for_all (fun s -> s = "overloaded") shed
      (* shed responses are exactly the tail of the batch *)
      && statuses
         = List.init total (fun i -> if i < cap then "ok" else "overloaded")
      && List.for_all
           (fun r -> status r <> "ok" || response_matches oracle r)
           responses
      && counter "serve.overloaded" srv = k
      (* the budget is released afterwards: a follow-up query gets in
         whenever the cap admits anything at all *)
      && (cap = 0 || status (Serve.handle_line srv (request_line spec)) = "ok"))

let test_queue_cap_zero_sheds_everything () =
  let srv = mk_serve ~queue_cap:0 () in
  let spec =
    {
      workload = Protocol.default_workload;
      policy = Planner.Hash_all;
      plane = Engine.Seed;
    }
  in
  let resp = Serve.handle_line srv (request_line spec) in
  Alcotest.(check string) "shed" "overloaded" (status resp);
  (* control ops are never shed *)
  let pong = Serve.handle_line srv {|{"op":"ping"}|} in
  Alcotest.(check string) "ping survives cap 0" "ok" (status pong)

(* ------------------------------------------------------------------ *)
(* Drain on shutdown                                                    *)
(* ------------------------------------------------------------------ *)

let drain_law =
  qtest "shutdown in a batch drains every admitted query" ~count:20
    (gen_specs ~min_n:1 ~max_n:4)
    (fun specs ->
      let srv = mk_serve ~queue_cap:64 ~domains:2 () in
      let lines =
        List.mapi (fun i s -> request_line ~id:i s) specs
        @ [ {|{"op":"shutdown"}|} ]
        @ List.mapi (fun i s -> request_line ~id:(100 + i) s) specs
      in
      let responses = Serve.handle_batch srv lines in
      let oracles = List.map oracle_of_spec specs in
      (* Every query in the batch — before and after the shutdown line —
         was admitted before control ops ran, so every one completes
         with a certified answer; nothing is stuck or dropped. *)
      List.length responses = (2 * List.length specs) + 1
      && Serve.stopped srv
      && List.for_all2
           (fun o r -> status r = "ok" && response_matches o r)
           (oracles @ oracles)
           (List.filteri
              (fun i _ -> i <> List.length specs)
              responses)
      &&
      let shutdown_resp = List.nth responses (List.length specs) in
      status shutdown_resp = "ok"
      &&
      match Json.of_string_opt shutdown_resp with
      | Some j -> Json.member "draining" j = Some (Json.Bool true)
      | None -> false)

(* ------------------------------------------------------------------ *)
(* Error paths                                                          *)
(* ------------------------------------------------------------------ *)

let test_malformed_request () =
  let srv = mk_serve () in
  let resp = Serve.handle_line srv "{nonsense" in
  Alcotest.(check string) "error status" "error" (status resp);
  (match Json.of_string_opt resp with
  | Some j ->
      Alcotest.(check (option string)) "code" (Some "bad_request")
        (str_field "code" j)
  | None -> Alcotest.fail "unparseable error response");
  Alcotest.(check int) "errors counter" 1 (counter "serve.errors" srv)

let test_unknown_policy () =
  let srv = mk_serve () in
  let resp =
    Serve.handle_line srv {|{"op":"query","policy":"greedy-banana"}|}
  in
  Alcotest.(check string) "error status" "error" (status resp)

let test_ping_and_stats () =
  let srv = mk_serve () in
  let pong = Serve.handle_line srv {|{"id":1,"op":"ping"}|} in
  Alcotest.(check string) "pong" "ok" (status pong);
  let stats = Serve.handle_line srv {|{"id":2,"op":"stats"}|} in
  Alcotest.(check string) "stats ok" "ok" (status stats);
  match Json.of_string_opt stats with
  | Some j ->
      Alcotest.(check bool) "counters present" true
        (Json.member "serve.requests" j <> None)
  | None -> Alcotest.fail "unparseable stats response"

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Result digests                                                       *)
(* ------------------------------------------------------------------ *)

(* The same request on both planes answers the same hash: the frame
   plane digests its result without decoding, the seed plane digests
   the decoded relation, and the wire cannot tell them apart. *)
let planes_same_hash_law =
  qtest "frame-plane and seed-plane responses carry the same hash" ~count:30
    (gen_specs ~min_n:1 ~max_n:1)
    (fun specs ->
      let s = List.hd specs in
      let srv = mk_serve () in
      let answer plane =
        let line = Serve.handle_line srv (request_line { s with plane }) in
        ( status line,
          Option.bind (Json.of_string_opt line) (str_field "hash"),
          Option.bind (Json.of_string_opt line) (int_field "rows") )
      in
      let seed = answer Engine.Seed and frame = answer Engine.Frame in
      let st, hash, _ = seed in
      st = "ok" && hash <> None && seed = frame)

(* Digests captured from the protocol's original implementation
   (per-tuple [Tuple.to_string] renderings, sorted, folded with a
   boxed FNV-1a).  They pin the wire format: a changed value here means
   every client and stored oracle would disagree with the daemon. *)
let golden_cases =
  let open Mj_relation in
  let i = Value.int and s = Value.str in
  [
    ( "paper example 1, joined",
      Database.join_all Mj_workload.Scenarios.example1,
      "c5ee4349da03dd7c" );
    ( "Str values",
      Relation.of_rows "AB"
        [
          [ s "p"; i 0 ]; [ s "q"; i 10 ]; [ s "p, q=(x)"; i (-3) ];
          [ s ""; i 7 ]; [ i 4; s "\195\169" ];
        ],
      "472011e553c906b8" );
    ("empty relation", Relation.empty (Attr.Set.of_string "AB"), "09086407b5a0edaa");
    ( "width 1",
      Relation.of_rows "A" [ [ i 3 ]; [ i 1 ]; [ i (-2) ] ],
      "124f0a8f8b92f414" );
    ( "multi-character attributes",
      Relation.make
        (Attr.Set.of_list [ Attr.make "dept"; Attr.make "name" ])
        [
          Tuple.of_string_list [ ("name", s "ann"); ("dept", i 2) ];
          Tuple.of_string_list [ ("name", s "bob"); ("dept", i 1) ];
        ],
      "f1faf89af056452c" );
  ]

let test_golden_digests () =
  let open Mj_relation in
  List.iter
    (fun (name, r, expected) ->
      Alcotest.(check string) name expected
        (Protocol.hash_hex (Protocol.result_hash r));
      let f = Frame.of_relation (Frame.Dict.create ()) r in
      Alcotest.(check string) (name ^ " (frame)") expected
        (Protocol.hash_hex (Frame.digest f)))
    golden_cases

let rec span_names (t : Obs.span_tree) =
  t.Obs.name :: List.concat_map span_names t.Obs.children

(* A served frame-plane answer is hashed in a [digest] span inside
   [serve.request] and never decoded; a one-shot frame execution
   decodes in a [decode] span after [execute-frame] closes. *)
let test_digest_and_decode_spans () =
  let spec =
    {
      workload = { Protocol.default_workload with rows = 12 };
      policy = Planner.Hash_all;
      plane = Engine.Frame;
    }
  in
  let sink = Obs.make () in
  let resp = Serve.handle_line (mk_serve ()) ~obs:sink (request_line spec) in
  Alcotest.(check string) "served ok" "ok" (status resp);
  (match Obs.trace sink with
  | [ ({ Obs.name = "serve.request"; _ } as request) ] ->
      let names = span_names request in
      Alcotest.(check bool) "digest inside serve.request" true
        (List.mem "digest" names);
      Alcotest.(check bool) "execute-frame inside serve.request" true
        (List.mem "execute-frame" names);
      Alcotest.(check bool) "no decode on the served path" false
        (List.mem "decode" names)
  | roots ->
      Alcotest.failf "expected one serve.request root, got [%s]"
        (String.concat "; " (List.map (fun (t : Obs.span_tree) -> t.Obs.name) roots)));
  let sink = Obs.make () in
  let db = Protocol.materialize spec.workload in
  let cfg = Engine.Config.make ~plane:Engine.Frame ~domains:1 ~obs:sink () in
  ignore (Engine.run cfg db (Protocol.default_strategy db));
  Alcotest.(check (list string)) "decode follows execute-frame"
    [ "execute-frame"; "decode" ]
    (List.map (fun (t : Obs.span_tree) -> t.Obs.name) (Obs.trace sink))

let () =
  Alcotest.run "serve"
    [
      ( "oracle",
        [ concurrent_oracle_law; hit_miss_law ] );
      ( "digest",
        [
          Alcotest.test_case "golden digests" `Quick test_golden_digests;
          Alcotest.test_case "digest and decode spans" `Quick
            test_digest_and_decode_spans;
          planes_same_hash_law;
        ] );
      ( "plan-cache",
        [
          lru_model_law;
          Alcotest.test_case "eviction order" `Quick test_lru_eviction_order;
          Alcotest.test_case "replace does not evict" `Quick
            test_lru_replace_no_evict;
          Alcotest.test_case "cap clamp" `Quick test_lru_cap_clamp;
          Alcotest.test_case "remove_where" `Quick test_remove_where;
        ] );
      ( "invalidation",
        [
          epoch_invalidation_law;
          Alcotest.test_case "protocol invalidate" `Quick
            test_invalidate_via_protocol;
        ] );
      ( "admission",
        [
          queue_cap_law;
          Alcotest.test_case "cap 0 sheds everything" `Quick
            test_queue_cap_zero_sheds_everything;
        ] );
      ("drain", [ drain_law ]);
      ( "errors",
        [
          Alcotest.test_case "malformed request" `Quick test_malformed_request;
          Alcotest.test_case "unknown policy" `Quick test_unknown_policy;
          Alcotest.test_case "ping and stats" `Quick test_ping_and_stats;
        ] );
    ]
