open Mj_relation
open Multijoin
module Hypergraph = Mj_hypergraph.Hypergraph
module Jointree = Mj_hypergraph.Jointree
module Obs = Mj_obs.Obs
module Json = Mj_obs.Json
module Engine = Mj_engine.Engine
module Planner = Mj_engine.Planner
module Physical = Mj_engine.Physical
module Pool = Mj_pool.Pool
module Failpoint = Mj_failpoint.Failpoint
module Serve = Mj_serve.Serve
module Protocol = Mj_serve.Protocol

type failure = { check : string; detail : string }
type outcome = Pass | Fail of failure

exception Failed of failure

let fail check fmt =
  Format.kasprintf (fun detail -> raise (Failed { check; detail })) fmt

let pp_failure fmt f = Format.fprintf fmt "%s: %s" f.check f.detail
let guard f = try f () ; Pass with Failed x -> Fail x

(* ------------------------------------------------------------------ *)
(* Differential: the engine matrix against the algebraic reference.   *)
(* ------------------------------------------------------------------ *)

let planes = [ Engine.Seed; Engine.Frame ]
let domain_counts = [ 1; 4 ]

let policies =
  [
    Planner.Hash_all;
    Planner.Cost_based;
    Planner.Forced Physical.Nested_loop;
    Planner.Forced (Physical.Block_nested_loop 3);
    Planner.Forced Physical.Hash_join;
    Planner.Forced Physical.Sort_merge;
    Planner.Forced Physical.Index_nested_loop;
  ]

(* The structural fingerprint of a trace: every named span ("scan" and
   "join" by default; the yann leg adds "semijoin" and "topk") in DFS
   order with its scheme attribute.  Algorithm names and timings are
   allowed to differ across the matrix; the shape is not. *)
let skeleton ?(names = [ "scan"; "join" ]) obs =
  let scheme_of attrs =
    match List.assoc_opt "scheme" attrs with
    | Some (Json.Str s) -> s
    | _ -> "?"
  in
  let rec walk acc (sp : Obs.span_tree) =
    let acc =
      if List.mem sp.Obs.name names then
        (sp.Obs.name, scheme_of sp.Obs.attrs) :: acc
      else acc
    in
    List.fold_left walk acc sp.Obs.children
  in
  List.rev (List.fold_left walk [] (Obs.trace obs))

let step_log_equal a b =
  List.equal
    (fun (d1, c1) (d2, c2) -> Scheme.Set.equal d1 d2 && c1 = c2)
    a b

let pp_step_log fmt log =
  Format.fprintf fmt "[%a]"
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.fprintf fmt "; ")
       (fun fmt (d, c) -> Format.fprintf fmt "%a=%d" Scheme.Set.pp d c))
    log

let differential db s =
  guard @@ fun () ->
  let expected = Cost.eval db s in
  let tau = Cost.tau db s in
  let steps = Cost.step_costs db s in
  (* Join spans must agree cell-for-cell across the whole matrix; the
     full scan/join shape only across domain counts within one
     plane × policy cell — the index-nested-loop fast path reaches
     indexed base relations without executing (or tracing) the inner
     scan, so scan counts legitimately differ between policies. *)
  let reference_joins = ref None in
  let cell_skeletons = Hashtbl.create 16 in
  List.iter
    (fun plane ->
      (* The storage axis only exists on the frame plane: the seed plane
         has no frames, so one cell covers it. *)
      let storages =
        match plane with
        | Engine.Seed -> [ None ]
        | Engine.Frame -> List.map Option.some Frame.all_storages
      in
      List.iter
        (fun policy ->
          List.iter
            (fun storage ->
            List.iter
            (fun domains ->
              let storage_label =
                match storage with
                | None -> ""
                | Some st -> "/" ^ Frame.storage_name st
              in
              let where =
                Printf.sprintf "%s%s/%s/%d-domain" (Engine.plane_name plane)
                  storage_label
                  (Planner.policy_name policy) domains
              in
              let obs = Obs.make () in
              let cfg =
                Engine.Config.make ~plane ~domains ~policy ~obs ?storage ()
              in
              let r, stats = Engine.run cfg db s in
              if not (Relation.equal r expected) then
                fail "differential:result"
                  "%s: %d rows, reference has %d (strategy %s)" where
                  (Relation.cardinality r)
                  (Relation.cardinality expected)
                  (Strategy.to_string s);
              if stats.Engine.tuples_generated <> tau then
                fail "differential:tau" "%s: reported τ=%d, Cost.tau=%d" where
                  stats.Engine.tuples_generated tau;
              if not (step_log_equal stats.Engine.per_step steps) then
                fail "differential:steps" "%s: per-step log %a ≠ %a" where
                  pp_step_log stats.Engine.per_step pp_step_log steps;
              let sk = skeleton obs in
              let joins = List.filter (fun (n, _) -> n = "join") sk in
              (match !reference_joins with
              | None -> reference_joins := Some (where, joins)
              | Some (ref_where, ref_joins) ->
                  if joins <> ref_joins then
                    fail "differential:spans"
                      "%s: %d join spans with a different shape than %s's %d"
                      where (List.length joins) ref_where
                      (List.length ref_joins));
              let cell =
                ( Engine.plane_name plane ^ storage_label,
                  Planner.policy_name policy )
              in
              match Hashtbl.find_opt cell_skeletons cell with
              | None -> Hashtbl.add cell_skeletons cell (where, sk)
              | Some (ref_where, ref_sk) ->
                  if sk <> ref_sk then
                    fail "differential:spans"
                      "%s: scan/join shape differs from %s within the same \
                       plane × policy × storage cell"
                      where ref_where)
            domain_counts)
            storages)
        policies)
    planes

(* The worst-case-optimal leg of the matrix.  The [Wcoj] policy is kept
   out of [policies] deliberately: on a cyclic strategy it rewrites the
   whole plan into one n-ary node, so its τ and span shapes legitimately
   differ from every binary cell — the main differential's
   "join spans agree cell-for-cell" invariant would be vacuously
   destroyed, not checked.  Instead the wcoj cells get their own
   expected τ/step log, derived from the lowered plan itself through the
   exact-cardinality cache, and the span-shape invariant is scoped to
   the wcoj cells (which must agree with each other across planes,
   storages and domain counts). *)
let wcoj_steps cache plan =
  let rec go acc = function
    | Physical.Scan _ -> acc
    | Physical.Join (_, l, r) ->
        let acc = go (go acc l) r in
        let d = Scheme.Set.union (Physical.schemes l) (Physical.schemes r) in
        (d, Cost.Cache.card cache d) :: acc
    | Physical.Generic_join (ss, _) ->
        let d = Scheme.Set.of_list ss in
        (d, Cost.Cache.card cache d) :: acc
    | Physical.Semijoin_program _ | Physical.Ranked_enumerate _ ->
        invalid_arg "wcoj_steps: yannakakis node in a wcoj plan"
  in
  List.rev (go [] plan)

let wcoj_differential db s =
  guard @@ fun () ->
  let expected = Cost.eval db s in
  let cache = Cost.Cache.create db in
  let plan = Planner.lower ~policy:Planner.Wcoj db s in
  let steps = wcoj_steps cache plan in
  let tau = List.fold_left (fun acc (_, c) -> acc + c) 0 steps in
  (* On a cyclic strategy the single n-ary step must price at the full
     result — the τ certificate that the generic join materializes no
     binary intermediate at all. *)
  (match plan with
  | Physical.Generic_join _ ->
      let result_card = Relation.cardinality expected in
      if tau <> result_card then
        fail "wcoj:tau_shape" "generic join τ=%d ≠ |R_D|=%d" tau result_card
  | _ -> ());
  (* Join spans must agree across the whole wcoj matrix; the full
     scan/join shape only within one plane × storage cell — the acyclic
     arm is the cost-based chooser, whose index-nested-loop fast path
     skips inner scans on the seed plane but not the frame plane. *)
  let reference_joins = ref None in
  let cell_skeletons = Hashtbl.create 8 in
  List.iter
    (fun plane ->
      let storages =
        match plane with
        | Engine.Seed -> [ None ]
        | Engine.Frame -> List.map Option.some Frame.all_storages
      in
      List.iter
        (fun storage ->
          List.iter
            (fun domains ->
              let cell =
                Engine.plane_name plane
                ^
                match storage with
                | None -> ""
                | Some st -> "/" ^ Frame.storage_name st
              in
              let where = Printf.sprintf "%s/wcoj/%d-domain" cell domains in
              let obs = Obs.make () in
              let cfg =
                Engine.Config.make ~plane ~domains ~policy:Planner.Wcoj ~obs
                  ?storage ()
              in
              let r, stats = Engine.run cfg db s in
              if not (Relation.equal r expected) then
                fail "wcoj:result" "%s: %d rows, reference has %d (strategy %s)"
                  where
                  (Relation.cardinality r)
                  (Relation.cardinality expected)
                  (Strategy.to_string s);
              if stats.Engine.tuples_generated <> tau then
                fail "wcoj:tau" "%s: reported τ=%d, plan prices %d" where
                  stats.Engine.tuples_generated tau;
              if not (step_log_equal stats.Engine.per_step steps) then
                fail "wcoj:steps" "%s: per-step log %a ≠ %a" where pp_step_log
                  stats.Engine.per_step pp_step_log steps;
              let sk = skeleton obs in
              let joins = List.filter (fun (n, _) -> n = "join") sk in
              (match !reference_joins with
              | None -> reference_joins := Some (where, joins)
              | Some (ref_where, ref_joins) ->
                  if joins <> ref_joins then
                    fail "wcoj:spans"
                      "%s: %d join spans with a different shape than %s's %d"
                      where (List.length joins) ref_where
                      (List.length ref_joins));
              match Hashtbl.find_opt cell_skeletons cell with
              | None -> Hashtbl.add cell_skeletons cell (where, sk)
              | Some (ref_where, ref_sk) ->
                  if sk <> ref_sk then
                    fail "wcoj:spans"
                      "%s: scan/join shape differs from %s within the same \
                       plane × storage cell"
                      where ref_where)
            domain_counts)
        storages)
    planes

(* The Yannakakis leg of the matrix.  Like the wcoj leg, the [yann]
   policy's τ and span shapes legitimately differ from every binary
   cell — semijoins generate no τ, and the join phase folds along the
   cost-chosen join tree — so its expected step log is derived from the
   lowered plan itself.  The derivation is the theorem the leg checks:
   after a full reduction (up then down sweep), every reduced relation
   is the projection of [R_D] onto its scheme, so the join phase's
   intermediate over any root-containing subtree prefix of
   [Jointree.join_order] is exactly [π_{prefix attrs}(R_D)] — the
   instance-optimality certificate (every intermediate ≤ |R_D|).
   Cyclic strategies fall through to the wcoj arm and are priced like
   that leg.  On acyclic plans the ranked enumerator is also checked:
   for several k, [Ranked_enumerate (rt, k)] must stream exactly the
   first k tuples of the sorted full output. *)
let yann_steps expected rt =
  match Jointree.join_order rt with
  | [] | [ _ ] -> []
  | first :: rest ->
      let _, _, steps =
        List.fold_left
          (fun (set, attrs, acc) s ->
            let set = Scheme.Set.add s set in
            let attrs = Attr.Set.union attrs s in
            let c = Relation.cardinality (Relation.project expected attrs) in
            (set, attrs, (set, c) :: acc))
          (Scheme.Set.singleton first, first, [])
          rest
      in
      List.rev steps

let yann_differential db s =
  guard @@ fun () ->
  let expected = Cost.eval db s in
  let plan = Planner.lower ~policy:Planner.Yannakakis db s in
  let steps =
    match plan with
    | Physical.Semijoin_program rt -> yann_steps expected rt
    | _ -> wcoj_steps (Cost.Cache.create db) plan
  in
  let tau = List.fold_left (fun acc (_, c) -> acc + c) 0 steps in
  let reference_joins = ref None in
  let cell_skeletons = Hashtbl.create 8 in
  let span_names = [ "scan"; "join"; "semijoin"; "topk" ] in
  List.iter
    (fun plane ->
      let storages =
        match plane with
        | Engine.Seed -> [ None ]
        | Engine.Frame -> List.map Option.some Frame.all_storages
      in
      List.iter
        (fun storage ->
          List.iter
            (fun domains ->
              let cell =
                Engine.plane_name plane
                ^
                match storage with
                | None -> ""
                | Some st -> "/" ^ Frame.storage_name st
              in
              let where = Printf.sprintf "%s/yann/%d-domain" cell domains in
              let obs = Obs.make () in
              let cfg =
                Engine.Config.make ~plane ~domains ~policy:Planner.Yannakakis
                  ~obs ?storage ()
              in
              let r, stats = Engine.run cfg db s in
              if not (Relation.equal r expected) then
                fail "yann:result" "%s: %d rows, reference has %d (strategy %s)"
                  where
                  (Relation.cardinality r)
                  (Relation.cardinality expected)
                  (Strategy.to_string s);
              if stats.Engine.tuples_generated <> tau then
                fail "yann:tau" "%s: reported τ=%d, plan prices %d" where
                  stats.Engine.tuples_generated tau;
              if not (step_log_equal stats.Engine.per_step steps) then
                fail "yann:steps" "%s: per-step log %a ≠ %a" where pp_step_log
                  stats.Engine.per_step pp_step_log steps;
              let sk = skeleton ~names:span_names obs in
              let joins = List.filter (fun (n, _) -> n = "join") sk in
              (match !reference_joins with
              | None -> reference_joins := Some (where, joins)
              | Some (ref_where, ref_joins) ->
                  if joins <> ref_joins then
                    fail "yann:spans"
                      "%s: %d join spans with a different shape than %s's %d"
                      where (List.length joins) ref_where
                      (List.length ref_joins));
              match Hashtbl.find_opt cell_skeletons cell with
              | None -> Hashtbl.add cell_skeletons cell (where, sk)
              | Some (ref_where, ref_sk) ->
                  if sk <> ref_sk then
                    fail "yann:spans"
                      "%s: scan/semijoin/join shape differs from %s within \
                       the same plane × storage cell"
                      where ref_where)
            domain_counts)
        storages)
    planes;
  (* Ranked enumeration: top-k must be the k-prefix of the sorted full
     output, on every plane and storage, with τ = the rows streamed. *)
  match plan with
  | Physical.Semijoin_program rt ->
      let full = Relation.tuples expected in
      let card = List.length full in
      let ks = List.sort_uniq compare [ 1; (card + 1) / 2; card; card + 3 ] in
      let prefix k =
        List.filteri (fun i _ -> i < k) full
      in
      List.iter
        (fun plane ->
          let storages =
            match plane with
            | Engine.Seed -> [ None ]
            | Engine.Frame -> List.map Option.some Frame.all_storages
          in
          List.iter
            (fun storage ->
              List.iter
                (fun k ->
                  let where =
                    Printf.sprintf "%s/topk k=%d" (Engine.plane_name plane) k
                  in
                  let cfg =
                    Engine.Config.make ~plane ~domains:1
                      ~policy:Planner.Yannakakis ?storage ()
                  in
                  let r, stats =
                    Engine.execute_plan cfg db
                      (Physical.Ranked_enumerate (rt, k))
                  in
                  let want = prefix k in
                  if
                    not
                      (List.equal Tuple.equal (Relation.tuples r) want)
                  then
                    fail "yann:topk" "%s: %d rows ≠ the sorted %d-prefix"
                      where (Relation.cardinality r) (List.length want);
                  if stats.Engine.tuples_generated <> List.length want then
                    fail "yann:topk_tau" "%s: τ=%d ≠ %d rows streamed" where
                      stats.Engine.tuples_generated (List.length want))
                ks)
            storages)
        planes
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Serve: the daemon's warm path against the cold engine.             *)
(* ------------------------------------------------------------------ *)

(* A second strategy over the same database whose per-step τ log
   differs from the case's — the probe that makes a cross-strategy
   plan-cache collision (the [serve.cache_stale_plan] bug) observable:
   a stale plan executes the wrong step sequence, and the response's
   τ log no longer matches the submitted strategy's cold run.  The two
   left-deep rebuilds below differ from each other in their first step
   whenever there are ≥ 3 leaves, so at most one of them can coincide
   with the case's log; with 2 leaves every strategy has the same
   one-step log and no probe exists. *)
let alt_strategy db s =
  match Strategy.leaves s with
  | first :: (_ :: _ :: _ as tl) as leaves ->
      let rotated = tl @ [ first ] in
      let steps0 = Cost.step_costs db s in
      List.find_opt
        (fun c -> not (step_log_equal (Cost.step_costs db c) steps0))
        [ Strategy.left_deep leaves; Strategy.left_deep rotated ]
  | _ -> None

let serve_steps_string steps = Json.to_string (Protocol.steps_json steps)

let serve_response_field name line =
  match Json.of_string_opt line with
  | None -> None
  | Some j -> Json.member name j

(* One serve instance per plane: submit the case's strategy twice
   (plan-cache miss then hit) plus the alternate-strategy probe, and
   require every response to match a cold [Engine.run] of the same
   request — rows, τ, result hash and the per-step τ log — with the τ
   logs of hit and miss identical.  A [timeout]/[overloaded]/[error]
   status is a failure here: the daemon under no injected fault must
   answer every query. *)
let serve_differential db s =
  guard @@ fun () ->
  let key = "check-case" in
  List.iter
    (fun plane ->
      let cfg =
        Engine.Config.make ~plane ~domains:1 ~policy:Planner.Hash_all
          ~obs:Obs.noop ()
      in
      let t = Serve.create ~timeout_ms:5_000 ~cfg () in
      let submit strat =
        Serve.submit_query t ~plane ~strategy:strat ~key
          ~db:(fun () -> db)
          ()
      in
      let check_response where strat line =
        let where = Printf.sprintf "%s/%s" (Engine.plane_name plane) where in
        (match Protocol.status_of_response line with
        | "ok" -> ()
        | status ->
            fail "serve:status" "%s: status %s (%s)" where status line);
        let cold_cfg =
          Engine.Config.make ~plane ~domains:1 ~policy:Planner.Hash_all
            ~obs:Obs.noop ()
        in
        let hash, stats =
          Engine.execute_digest cold_cfg db (Engine.lower cold_cfg db strat)
        in
        (* The frame plane digests without decoding; pin its digest to
           the seed reference relation's so the oracle stays
           independent of the path under test. *)
        let reference = Protocol.result_hash (Cost.eval db strat) in
        if hash <> reference then
          fail "serve:digest" "%s: cold digest %s ≠ seed reference %s" where
            (Protocol.hash_hex hash) (Protocol.hash_hex reference);
        let expect name v =
          match serve_response_field name line with
          | Some got when got = v -> ()
          | got ->
              fail "serve:response"
                "%s: field %s = %s, cold run has %s" where name
                (match got with Some g -> Json.to_string g | None -> "absent")
                (Json.to_string v)
        in
        expect "rows" (Json.int stats.Engine.result_rows);
        expect "tau" (Json.int stats.Engine.tuples_generated);
        expect "hash" (Json.str (Protocol.hash_hex hash));
        match serve_response_field "steps" line with
        | Some steps
          when Json.to_string steps
               = serve_steps_string stats.Engine.per_step ->
            ()
        | Some steps ->
            fail "serve:steps" "%s: served τ log %s ≠ cold %s" where
              (Json.to_string steps)
              (serve_steps_string stats.Engine.per_step)
        | None -> fail "serve:steps" "%s: response carries no τ log" where
      in
      let miss = submit s in
      check_response "miss" s miss;
      let hit = submit s in
      check_response "hit" s hit;
      if
        serve_response_field "steps" miss <> serve_response_field "steps" hit
        || serve_response_field "tau" miss <> serve_response_field "tau" hit
      then
        fail "serve:determinism"
          "%s: plan-cache hit and miss disagree on τ log"
          (Engine.plane_name plane);
      match alt_strategy db s with
      | Some alt -> check_response "alt" alt (submit alt)
      | None -> ())
    planes

(* ------------------------------------------------------------------ *)
(* Metamorphic: rewrites that provably preserve result or cost.       *)
(* ------------------------------------------------------------------ *)

let rec mirror = function
  | Strategy.Leaf s -> Strategy.leaf s
  | Strategy.Join n -> Strategy.join (mirror n.right) (mirror n.left)

(* A pair of disjoint non-root subtrees, if any — candidates for
   [Transform.exchange].  The two children of any join qualify, so
   every strategy with at least one step has a pair. *)
let exchange_pair s =
  let root = Strategy.schemes s in
  let subs =
    List.filter
      (fun d -> not (Scheme.Set.equal d root))
      (Strategy.subtree_schemes s)
  in
  let rec first_pair = function
    | [] -> None
    | a :: rest -> (
        match
          List.find_opt (fun b -> Hypergraph.disjoint a b) rest
        with
        | Some b -> Some (a, b)
        | None -> first_pair rest)
  in
  first_pair subs

let metamorphic db s =
  guard @@ fun () ->
  let expected = Cost.eval db s in
  let tau = Cost.tau db s in
  (* Commuting every step is τ-invariant: each step still materializes
     the same intermediate scheme set. *)
  let m = mirror s in
  let tau_m = Cost.tau db m in
  if tau_m <> tau then
    fail "metamorphic:mirror_tau" "τ(%s)=%d but τ(mirror)=%d"
      (Strategy.to_string s) tau tau_m;
  if not (Relation.equal (Cost.eval db m) expected) then
    fail "metamorphic:mirror_result" "mirror of %s changed the result"
      (Strategy.to_string s);
  (* Exchanging disjoint substrategies preserves validity and the
     result (the leaf multiset is unchanged). *)
  (match exchange_pair s with
  | None -> ()
  | Some (a, b) ->
      let x = Transform.exchange s a b in
      (match Strategy.check x with
      | Ok () -> ()
      | Error msg ->
          fail "metamorphic:exchange_valid"
            "exchange %a ↔ %a produced an invalid strategy: %s"
            Scheme.Set.pp a Scheme.Set.pp b msg);
      if not (Scheme.Set.equal (Strategy.schemes x) (Strategy.schemes s))
      then
        fail "metamorphic:exchange_schemes"
          "exchange %a ↔ %a changed the scheme set" Scheme.Set.pp a
          Scheme.Set.pp b;
      if not (Relation.equal (Cost.eval db x) expected) then
        fail "metamorphic:exchange_result"
          "exchange %a ↔ %a changed the result of %s" Scheme.Set.pp a
          Scheme.Set.pp b (Strategy.to_string s));
  (* Any strategy over the same leaves computes the same relation. *)
  let ld = Strategy.left_deep (Strategy.leaves s) in
  if not (Relation.equal (Cost.eval db ld) expected) then
    fail "metamorphic:left_deep" "left-deep rebuild of %s changed the result"
      (Strategy.to_string s);
  (* Output-size sanity: each step is bounded by the product of its
     inputs, and the τ log must agree with the cache oracle. *)
  let cache = Cost.Cache.create db in
  List.iter
    (fun (d1, d2) ->
      let c1 = Cost.Cache.card cache d1
      and c2 = Cost.Cache.card cache d2 in
      let c12 = Cost.Cache.card cache (Scheme.Set.union d1 d2) in
      if c12 > c1 * c2 then
        fail "metamorphic:step_bound" "|%a ⋈ %a| = %d > %d × %d"
          Scheme.Set.pp d1 Scheme.Set.pp d2 c12 c1 c2)
    (Strategy.steps s);
  let base_product =
    List.fold_left
      (fun acc r -> acc * Relation.cardinality r)
      1 (Database.relations db)
  in
  let result_card = Relation.cardinality expected in
  if result_card > base_product then
    fail "metamorphic:result_bound" "|R_D| = %d > Π|Rᵢ| = %d" result_card
      base_product;
  List.iter
    (fun (d, c) ->
      let oracle = Cost.Cache.card cache d in
      if c <> oracle then
        fail "metamorphic:step_oracle"
          "step_costs says |%a| = %d, cache oracle says %d" Scheme.Set.pp d
          c oracle)
    (Cost.step_costs db s)

(* ------------------------------------------------------------------ *)
(* Theorems: the paper's postconditions against the exhaustive DP.    *)
(* ------------------------------------------------------------------ *)

let theorems db =
  guard @@ fun () ->
  let rep = Theorems.verify db in
  let refuted name = function
    | Theorems.Refuted -> fail "theorems:refuted" "%s came back Refuted" name
    | Theorems.Holds | Theorems.Vacuous _ -> ()
  in
  refuted "theorem 1" rep.Theorems.theorem1;
  refuted "theorem 2" rep.Theorems.theorem2;
  refuted "theorem 3" rep.Theorems.theorem3;
  (* Subspace minima must nest: a smaller search space can only be
     more expensive. *)
  if rep.Theorems.min_all > rep.Theorems.min_linear then
    fail "theorems:nesting" "min_all=%d > min_linear=%d" rep.Theorems.min_all
      rep.Theorems.min_linear;
  if rep.Theorems.min_all > rep.Theorems.min_cp_free then
    fail "theorems:nesting" "min_all=%d > min_cp_free=%d"
      rep.Theorems.min_all rep.Theorems.min_cp_free;
  (match rep.Theorems.min_linear_cp_free with
  | Some v when v < rep.Theorems.min_linear || v < rep.Theorems.min_cp_free
    ->
      fail "theorems:nesting"
        "min_linear_cp_free=%d below min_linear=%d or min_cp_free=%d" v
        rep.Theorems.min_linear rep.Theorems.min_cp_free
  | _ -> ());
  (* DP ground truth, two independent ways: the DP's optimum strategy
     must materialize to exactly the reported cost, and brute-force
     enumeration of the whole space must find the same minimum. *)
  (match Optimal.optimum db with
  | None -> fail "theorems:dp" "Optimal.optimum returned None"
  | Some r ->
      if r.Optimal.cost <> rep.Theorems.min_all then
        fail "theorems:dp" "DP cost %d ≠ report min_all %d" r.Optimal.cost
          rep.Theorems.min_all;
      let materialized = Cost.tau db r.Optimal.strategy in
      if materialized <> r.Optimal.cost then
        fail "theorems:dp"
          "DP claims τ=%d for %s but materialization gives %d" r.Optimal.cost
          (Strategy.to_string r.Optimal.strategy)
          materialized);
  let cache = Cost.Cache.create db in
  let oracle = Cost.Cache.card cache in
  let brute =
    Enumerate.fold_strategies Enumerate.All (Database.schemes db)
      ~init:max_int ~f:(fun acc s -> min acc (Cost.tau_oracle oracle s))
  in
  if brute <> rep.Theorems.min_all then
    fail "theorems:brute_force"
      "exhaustive enumeration min τ=%d, DP min_all=%d" brute
      rep.Theorems.min_all;
  if not (Theorems.lemma5_consistent db) then
    fail "theorems:lemma5" "monotone refinement inconsistent with Lemma 5"

(* ------------------------------------------------------------------ *)
(* Faults: graceful degradation or loud failure, never corruption.    *)
(* ------------------------------------------------------------------ *)

let with_failpoints_saved f =
  let saved = Failpoint.spec () in
  Fun.protect
    ~finally:(fun () ->
      Failpoint.reset ();
      match Failpoint.set_spec saved with Ok () -> () | Error _ -> ())
    f

let faults db s =
  guard @@ fun () ->
  with_failpoints_saved @@ fun () ->
  let tau = Cost.tau db s in
  (* A killed worker domain must not change pool results: survivors
     plus the serial fallback still complete every task. *)
  Failpoint.reset ();
  let tasks = Array.init 8 (fun i () -> (i * 31) + Cost.tau db s) in
  let expected_tasks = Array.map (fun t -> t ()) tasks in
  Failpoint.enable Failpoint.Pool_worker_kill;
  let got = Pool.run ~domains:4 tasks in
  Failpoint.disable Failpoint.Pool_worker_kill;
  if got <> expected_tasks then
    fail "faults:pool_kill" "pool results changed under worker kill";
  if
    Domain.recommended_domain_count () > 1
    && Failpoint.hits Failpoint.Pool_worker_kill = 0
  then
    fail "faults:pool_kill"
      "worker-kill failpoint never fired on a multicore host";
  (* A poisoned τ-cache must detect its corrupt entries and bypass
     them: every read stays correct and the bypass counter moves. *)
  Failpoint.reset ();
  let reference = Cost.Cache.create db in
  let keys = Strategy.subtree_schemes s in
  let clean = List.map (Cost.Cache.card reference) keys in
  Failpoint.enable Failpoint.Cache_poison;
  let poisoned = Cost.Cache.create db in
  let first_read = List.map (Cost.Cache.card poisoned) keys in
  let second_read = List.map (Cost.Cache.card poisoned) keys in
  Failpoint.disable Failpoint.Cache_poison;
  if first_read <> clean || second_read <> clean then
    fail "faults:cache_poison" "a poisoned cache returned a corrupt value";
  if Cost.Cache.bypasses poisoned = 0 then
    fail "faults:cache_poison"
      "integrity guard never engaged: %d poisoned stores, 0 bypasses"
      (Failpoint.hits Failpoint.Cache_poison);
  (* Oversized estimates may change the plan, never the answer. *)
  Failpoint.reset ();
  let run_cost_based () =
    let cfg =
      Engine.Config.make ~plane:Engine.Seed ~domains:1
        ~policy:Planner.Cost_based ()
    in
    Engine.run cfg db s
  in
  let baseline, _ = run_cost_based () in
  Failpoint.enable Failpoint.Estimate_oversize;
  let skewed, skewed_stats = run_cost_based () in
  Failpoint.disable Failpoint.Estimate_oversize;
  if Failpoint.hits Failpoint.Estimate_oversize = 0 then
    fail "faults:estimate_oversize" "cost-based lowering never consulted \
                                     the estimate oracle";
  if not (Relation.equal skewed baseline) then
    fail "faults:estimate_oversize" "oversized estimates changed the result";
  if skewed_stats.Engine.tuples_generated <> tau then
    fail "faults:estimate_oversize"
      "oversized estimates changed τ: %d ≠ %d"
      skewed_stats.Engine.tuples_generated tau;
  (* The planted frame-plane mutation must be visible in the τ log —
     this is the detector the self-test relies on.  R_D ≠ ∅ under the
     generators, but raw caller databases may produce τ = 0, where a
     lossy join has nothing to drop. *)
  Failpoint.reset ();
  if tau > 0 then
    List.iter
      (fun storage ->
        Failpoint.enable Failpoint.Frame_lossy_join;
        let cfg =
          Engine.Config.make ~plane:Engine.Frame ~domains:1
            ~policy:Planner.Hash_all ~storage ()
        in
        let _, st = Engine.run cfg db s in
        Failpoint.disable Failpoint.Frame_lossy_join;
        if st.Engine.tuples_generated = tau then
          fail "faults:lossy_join"
            "planted frame-plane mutation went undetected on %s storage (τ \
             log unchanged at %d)"
            (Frame.storage_name storage) tau)
      Frame.all_storages;
  (* Its acyclic-path twin: a lossy semijoin reducer must be visible in
     the yann cells — as a changed result or a changed τ log — whenever
     the strategy actually takes the semijoin-program path and the full
     join is non-empty (every non-empty semijoin output then loses its
     last row, and that row extends to at least one output tuple). *)
  Failpoint.reset ();
  let expected = Cost.eval db s in
  (match Planner.lower ~policy:Planner.Yannakakis db s with
  | Physical.Semijoin_program _ when not (Relation.is_empty expected) ->
      List.iter
        (fun storage ->
          Failpoint.enable Failpoint.Yann_lossy_semijoin;
          let cfg =
            Engine.Config.make ~plane:Engine.Frame ~domains:1
              ~policy:Planner.Yannakakis ~storage ()
          in
          let r, st = Engine.run cfg db s in
          Failpoint.disable Failpoint.Yann_lossy_semijoin;
          if Failpoint.hits Failpoint.Yann_lossy_semijoin = 0 then
            fail "faults:lossy_semijoin"
              "yann.lossy_semijoin never fired on a semijoin-program plan";
          if Relation.equal r expected then
            fail "faults:lossy_semijoin"
              "planted lossy semijoin went undetected on %s storage (result \
               unchanged at %d rows, τ=%d)"
              (Frame.storage_name storage)
              (Relation.cardinality expected)
              st.Engine.tuples_generated)
        Frame.all_storages
  | _ -> ());
  (* Serve: a stalled worker must degrade to a structured timeout
     error, never a crash or a wrong answer. *)
  Failpoint.reset ();
  let serve_cfg () =
    Engine.Config.make ~plane:Engine.Seed ~domains:1 ~policy:Planner.Hash_all
      ~obs:Obs.noop ()
  in
  Failpoint.enable Failpoint.Serve_worker_stall;
  let stall_t = Serve.create ~timeout_ms:1 ~cfg:(serve_cfg ()) () in
  let stalled =
    Serve.submit_query stall_t ~strategy:s ~key:"fault-stall"
      ~db:(fun () -> db)
      ()
  in
  Failpoint.disable Failpoint.Serve_worker_stall;
  if Failpoint.hits Failpoint.Serve_worker_stall = 0 then
    fail "faults:worker_stall" "serve.worker_stall never fired";
  if
    Protocol.status_of_response stalled <> "error"
    || serve_response_field "code" stalled <> Some (Json.Str "timeout")
  then
    fail "faults:worker_stall"
      "stalled worker did not answer with a timeout error: %s" stalled;
  (* Serve: the planted stale-plan cache collision must be visible in
     the response τ log — the alternate strategy comes back with the
     first strategy's step sequence.  Needs a probe strategy whose τ
     log differs (≥ 3 relations); smaller cases have nothing to
     collide. *)
  Failpoint.reset ();
  (match alt_strategy db s with
  | None -> ()
  | Some alt ->
      Failpoint.enable Failpoint.Serve_stale_plan;
      let t = Serve.create ~cfg:(serve_cfg ()) () in
      let submit strat =
        Serve.submit_query t ~strategy:strat ~key:"fault-stale"
          ~db:(fun () -> db)
          ()
      in
      let _first = submit s in
      let collided = submit alt in
      Failpoint.disable Failpoint.Serve_stale_plan;
      if Failpoint.hits Failpoint.Serve_stale_plan = 0 then
        fail "faults:stale_plan" "serve.cache_stale_plan never fired";
      let alt_steps = serve_steps_string (Cost.step_costs db alt) in
      (match serve_response_field "steps" collided with
      | Some steps when Json.to_string steps <> alt_steps -> ()
      | Some _ ->
          fail "faults:stale_plan"
            "planted stale-plan collision went undetected (τ log matches \
             the submitted strategy)"
      | None ->
          fail "faults:stale_plan" "collided response carries no τ log: %s"
            collided))

(* ------------------------------------------------------------------ *)
(* One case through every applicable check.                           *)
(* ------------------------------------------------------------------ *)

let fault_pass = faults

let run_case ?(faults = true) d =
  let db, s = Gen.materialize d in
  let ( >>> ) o k = match o with Pass -> k () | Fail _ -> o in
  differential db s
  >>> fun () ->
  wcoj_differential db s
  >>> fun () ->
  yann_differential db s
  >>> fun () ->
  serve_differential db s
  >>> fun () ->
  metamorphic db s
  >>> fun () ->
  (if Database.size db <= 5 then theorems db else Pass)
  >>> fun () ->
  (* An externally injected fault (self-test, MJ_FAILPOINTS) must stay
     active for the whole case, so the fault pass — which saves,
     resets and restores failpoint state — only runs when none is. *)
  if faults && Failpoint.spec () = "" then fault_pass db s else Pass
