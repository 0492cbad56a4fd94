(* Equivalence suite for the columnar data plane.

   Every property pits a Frame operation against its seed counterpart
   (balanced-tree Relations) on random chain / star / cycle databases
   across the uniform / skewed / superkey regimes, and checks the radix
   join's determinism contract: bit-identical frames at any domain
   count and partition threshold. *)

open Mj_relation
open Mj_hypergraph
open Multijoin
module Dbgen = Mj_workload.Dbgen

let qtest name ?(count = 100) gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen prop)

(* ------------------------------------------------------------------ *)
(* Generators                                                           *)
(* ------------------------------------------------------------------ *)

let shape kind n =
  match kind with
  | 0 -> Querygraph.chain n
  | 1 -> Querygraph.star n
  | _ -> Querygraph.cycle (max 3 n)

(* A random database over a chain/star/cycle query graph in one of the
   three data regimes, plus an int used by properties to pick
   relations, schemes, or projections. *)
let gen_db_pick =
  let open QCheck2.Gen in
  let* kind = int_range 0 2 in
  let* n = int_range 2 5 in
  let* regime = int_range 0 2 in
  let* seed = int_range 0 100_000 in
  let* pick = int_range 0 1_000_000 in
  let rng = Random.State.make [| seed; n; kind; regime |] in
  let d = shape kind n in
  let db =
    match regime with
    | 0 -> Dbgen.uniform_db ~rng ~rows:6 ~domain:3 d
    | 1 -> Dbgen.skewed_db ~rng ~rows:6 ~domain:4 ~skew:1.5 d
    | _ -> Dbgen.superkey_db ~rng ~rows:6 ~domain:10 d
  in
  return (db, pick)

let gen_db = QCheck2.Gen.map fst gen_db_pick

let pick_two db pick =
  let rels = Array.of_list (Database.relations db) in
  let k = Array.length rels in
  (rels.(pick mod k), rels.(pick / 7 mod k))

(* A non-empty subset selected by the low bits of [pick]. *)
let pick_subset pick xs =
  let k = List.length xs in
  let bits = 1 + (pick mod ((1 lsl k) - 1)) in
  List.filteri (fun i _ -> bits land (1 lsl i) <> 0) xs

(* ------------------------------------------------------------------ *)
(* Dictionary                                                           *)
(* ------------------------------------------------------------------ *)

let test_dict_interning () =
  let d = Frame.Dict.create () in
  let c1 = Frame.Dict.intern d (Value.int 7) in
  let c2 = Frame.Dict.intern d (Value.str "x") in
  Alcotest.(check int) "same value, same code" c1
    (Frame.Dict.intern d (Value.int 7));
  Alcotest.(check int) "codes are dense" 1 c2;
  Alcotest.(check int) "size counts distinct values" 2 (Frame.Dict.size d);
  Alcotest.(check bool) "decode inverts intern" true
    (Value.equal (Frame.Dict.value d c2) (Value.str "x"));
  Alcotest.(check (option int)) "code finds interned values" (Some c1)
    (Frame.Dict.code d (Value.int 7));
  Alcotest.(check (option int)) "code misses unseen values" None
    (Frame.Dict.code d (Value.int 99));
  Alcotest.check_raises "decode rejects out-of-range codes"
    (Invalid_argument "Frame.Dict.value: code out of range") (fun () ->
      ignore (Frame.Dict.value d 99))

let test_dict_mismatch () =
  let attr = Attr.make in
  let r =
    Relation.make
      (Attr.Set.of_list [ attr "A" ])
      [ Tuple.of_list [ (attr "A", Value.int 1) ] ]
  in
  let f1 = Frame.of_relation (Frame.Dict.create ()) r in
  let f2 = Frame.of_relation (Frame.Dict.create ()) r in
  Alcotest.check_raises "joining across dictionaries is refused"
    (Invalid_argument "Frame.natural_join: frames use different dictionaries")
    (fun () -> ignore (Frame.natural_join f1 f2))

(* ------------------------------------------------------------------ *)
(* Properties                                                           *)
(* ------------------------------------------------------------------ *)

let round_trip =
  qtest "of_relation/to_relation round-trips every relation" gen_db (fun db ->
      let dict = Frame.Dict.create () in
      List.for_all
        (fun r ->
          let f = Frame.of_relation dict r in
          Frame.cardinality f = Relation.cardinality r
          && Attr.Set.equal (Frame.scheme f) (Relation.scheme r)
          && Relation.equal (Frame.to_relation f) r)
        (Database.relations db))

let join_agrees =
  qtest "natural_join agrees with the seed join" gen_db_pick (fun (db, pick) ->
      let r1, r2 = pick_two db pick in
      let dict = Frame.Dict.create () in
      let f1 = Frame.of_relation dict r1 and f2 = Frame.of_relation dict r2 in
      Relation.equal
        (Frame.to_relation (Frame.natural_join f1 f2))
        (Relation.natural_join r1 r2))

let semijoin_agrees =
  qtest "semijoin agrees with the seed semijoin" gen_db_pick (fun (db, pick) ->
      let r1, r2 = pick_two db pick in
      let dict = Frame.Dict.create () in
      let f1 = Frame.of_relation dict r1 and f2 = Frame.of_relation dict r2 in
      Relation.equal
        (Frame.to_relation (Frame.semijoin f1 f2))
        (Relation.semijoin r1 r2))

let project_agrees =
  qtest "project agrees with the seed projection" gen_db_pick
    (fun (db, pick) ->
      let r, _ = pick_two db pick in
      let x =
        Attr.Set.of_list
          (pick_subset pick (Attr.Set.elements (Relation.scheme r)))
      in
      let f = Frame.of_relation (Frame.Dict.create ()) r in
      Relation.equal (Frame.to_relation (Frame.project f x))
        (Relation.project r x))

let join_all_agrees =
  qtest "Db.join_all agrees with Database.join_all" gen_db (fun db ->
      let fdb = Frame.Db.of_database db in
      Relation.equal
        (Frame.to_relation (Frame.Db.join_all fdb))
        (Database.join_all db))

let oracle_agrees =
  qtest "cardinality_oracle matches the seed tau on every sub-database"
    gen_db_pick (fun (db, pick) ->
      let fdb = Frame.Db.of_database db in
      let sub =
        Scheme.Set.of_list (pick_subset pick (Database.scheme_list db))
      in
      Frame.Db.cardinality_oracle fdb sub
      = Relation.cardinality (Database.join_all (Database.restrict db sub)))

let cache_backends_agree =
  qtest "Cost.Cache backends agree on the complete tau table" ~count:40
    gen_db (fun db ->
      let seedc = Cost.Cache.create ~backend:Cost.Cache.Seed db in
      let framec = Cost.Cache.create ~backend:Cost.Cache.Frame db in
      let u = Cost.Cache.universe seedc in
      List.for_all
        (fun m ->
          Cost.Cache.card_mask seedc (m + 1)
          = Cost.Cache.card_mask framec (m + 1))
        (List.init (Bitdb.full u) Fun.id))

let morsel_deterministic =
  qtest "morsel join is bit-identical at any domain count" gen_db (fun db ->
      let fdb = Frame.Db.of_database db in
      let one = Frame.Db.join_all ~domains:1 fdb in
      List.for_all
        (fun (domains, morsel) ->
          Frame.equal one
            (Frame.Db.join_all ~domains ~par_threshold:1 ~morsel fdb))
        [ (2, 2); (4, 1); (4, 3); (8, 2); (3, 1000) ])

(* The parallel join records one [build-part] span per index range and
   one [morsel] span per probe morsel, every span tagged with the
   worker lane that ran it. *)
let count_morsel_spans obs =
  let parts = ref 0 and laned = ref 0 in
  let rec walk (s : Mj_obs.Obs.span_tree) =
    if s.Mj_obs.Obs.name = "morsel" || s.Mj_obs.Obs.name = "build-part" then begin
      incr parts;
      match List.assoc_opt "domain" s.Mj_obs.Obs.attrs with
      | Some (Mj_obs.Json.Num _) -> incr laned
      | _ -> ()
    end;
    List.iter walk s.Mj_obs.Obs.children
  in
  List.iter walk (Mj_obs.Obs.trace obs);
  (!parts, !laned)

let morsel_traced =
  qtest "tracing the morsel join records morsel lanes, same result"
    ~count:60 gen_db (fun db ->
      let fdb = Frame.Db.of_database db in
      let plain = Frame.Db.join_all ~domains:4 ~par_threshold:1 ~morsel:2 fdb in
      let obs = Mj_obs.Obs.make ~gc:false () in
      let traced =
        Frame.Db.join_all ~obs ~domains:4 ~par_threshold:1 ~morsel:2 fdb
      in
      let parts, laned = count_morsel_spans obs in
      Frame.equal plain traced && parts = laned)

let test_morsel_traced_chain () =
  (* A chain join always shares attributes step to step, so forcing the
     morsel path must record at least one lane-tagged morsel span. *)
  let rng = Random.State.make [| 42 |] in
  let db = Dbgen.uniform_db ~rng ~rows:8 ~domain:3 (Querygraph.chain 3) in
  let fdb = Frame.Db.of_database db in
  let obs = Mj_obs.Obs.make ~gc:false () in
  ignore (Frame.Db.join_all ~obs ~domains:4 ~par_threshold:1 ~morsel:2 fdb);
  let parts, laned = count_morsel_spans obs in
  Alcotest.(check bool) "morsel spans recorded" true (parts > 0);
  Alcotest.(check int) "every morsel span carries a lane" parts laned

(* ------------------------------------------------------------------ *)
(* Storage backends                                                     *)
(* ------------------------------------------------------------------ *)

let storage_round_trip =
  qtest "bigarray frames round-trip every relation" gen_db (fun db ->
      let dict = Frame.Dict.create () in
      List.for_all
        (fun r ->
          let f = Frame.of_relation ~storage:Frame.Bigarray dict r in
          Frame.storage f = Frame.Bigarray
          && Frame.cardinality f = Relation.cardinality r
          && Relation.equal (Frame.to_relation f) r)
        (Database.relations db))

let storage_algebra_agrees =
  qtest "heap and bigarray agree on join/semijoin/project" gen_db_pick
    (fun (db, pick) ->
      let r1, r2 = pick_two db pick in
      let dict = Frame.Dict.create () in
      let h1 = Frame.of_relation dict r1 and h2 = Frame.of_relation dict r2 in
      let b1 = Frame.of_relation ~storage:Frame.Bigarray dict r1
      and b2 = Frame.of_relation ~storage:Frame.Bigarray dict r2 in
      let x =
        Attr.Set.of_list
          (pick_subset pick (Attr.Set.elements (Relation.scheme r1)))
      in
      (* Frame.equal is storage-agnostic, so heap results compare
         directly against their bigarray twins. *)
      Frame.equal h1 b1
      && Frame.equal (Frame.natural_join h1 h2) (Frame.natural_join b1 b2)
      && Frame.equal (Frame.semijoin h1 h2) (Frame.semijoin b1 b2)
      && Frame.equal (Frame.project h1 x) (Frame.project b1 x)
      && Frame.storage (Frame.natural_join b1 b2) = Frame.Bigarray)

let storage_oracle_agrees =
  qtest "bigarray cardinality_oracle matches the seed tau" gen_db_pick
    (fun (db, pick) ->
      let fdb = Frame.Db.of_database ~storage:Frame.Bigarray db in
      let sub =
        Scheme.Set.of_list (pick_subset pick (Database.scheme_list db))
      in
      Frame.Db.storage fdb = Frame.Bigarray
      && Frame.Db.cardinality_oracle fdb sub
         = Relation.cardinality (Database.join_all (Database.restrict db sub)))

let storage_morsel_deterministic =
  qtest "bigarray morsel join is bit-identical at any domain count" ~count:60
    gen_db (fun db ->
      let heap = Frame.Db.join_all ~domains:1 (Frame.Db.of_database db) in
      let fdb = Frame.Db.of_database ~storage:Frame.Bigarray db in
      let one = Frame.Db.join_all ~domains:1 fdb in
      Frame.equal heap one
      && List.for_all
           (fun (domains, morsel) ->
             Frame.equal one
               (Frame.Db.join_all ~domains ~par_threshold:1 ~morsel fdb))
           [ (2, 2); (4, 3); (8, 2) ])

let test_storage_names () =
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Frame.storage_name s ^ " round-trips") true
        (Frame.storage_of_string (Frame.storage_name s) = Some s))
    Frame.all_storages;
  Alcotest.(check bool) "bogus storage rejected" true
    (Frame.storage_of_string "columnar" = None)

(* ------------------------------------------------------------------ *)
(* Morsel boundaries                                                    *)
(* ------------------------------------------------------------------ *)

(* Two single-attribute relations sharing attribute K with value
   overlap [lo, hi) — a join whose output size is exactly the overlap,
   convenient for pinning morsel-boundary row counts. *)
let range_db n1 n2 =
  let k = Attr.make "K" in
  let rel lo hi =
    Relation.make
      (Attr.Set.of_list [ k ])
      (List.init (hi - lo) (fun i -> Tuple.of_list [ (k, Value.int (lo + i)) ]))
  in
  (rel 0 n1, rel 0 n2)

let join_rows ~storage ~domains ~morsel n1 n2 =
  let r1, r2 = range_db n1 n2 in
  let dict = Frame.Dict.create () in
  let f1 = Frame.of_relation ~storage dict r1
  and f2 = Frame.of_relation ~storage dict r2 in
  let stats = Frame.fresh_stats () in
  let j =
    Frame.natural_join ~domains ~par_threshold:1 ~morsel ~stats f1 f2
  in
  (Frame.cardinality j, stats)

let test_morsel_boundaries () =
  List.iter
    (fun storage ->
      let name n = Printf.sprintf "%s n=%d" (Frame.storage_name storage) n in
      (* empty probe side: the parallel path degenerates to zero
         morsels and an empty (but well-formed) result *)
      let rows, _ = join_rows ~storage ~domains:4 ~morsel:4 0 7 in
      Alcotest.(check int) (name 0) 0 rows;
      (* n < morsel, n = k*morsel - 1, k*morsel, k*morsel + 1: claimed
         morsel counts differ, results must not *)
      List.iter
        (fun n ->
          let rows, stats = join_rows ~storage ~domains:4 ~morsel:4 n (n + 3) in
          Alcotest.(check int) (name n) n rows;
          (* the probe side is the larger one: n + 3 rows in morsels
             of 4 *)
          Alcotest.(check int)
            (name n ^ " morsel count")
            ((n + 3 + 3) / 4)
            stats.Frame.morsels)
        [ 1; 3; 7; 8; 9; 16; 17 ])
    Frame.all_storages

let engines_agree =
  qtest "Frame_engine agrees with Exec on left-deep plans" ~count:60 gen_db
    (fun db ->
      let strategy = Strategy.left_deep (Database.scheme_list db) in
      let plan = Mj_engine.Physical.of_strategy strategy in
      let seed_r, seed_st = Mj_engine.Exec.execute db plan in
      let frame_r, frame_st = Mj_engine.Frame_engine.execute db strategy in
      Relation.equal seed_r frame_r
      && seed_st.Mj_engine.Exec.tuples_generated
         = frame_st.Mj_engine.Frame_engine.tuples_generated
      && frame_st.Mj_engine.Frame_engine.result_rows
         = Relation.cardinality frame_r)

(* ------------------------------------------------------------------ *)
(* Ordered dictionaries and the frame-native digest                     *)
(* ------------------------------------------------------------------ *)

(* A chain database over mixed [Int]/[Str] values — negative ints,
   the empty string, and strings holding the rendering's own
   separators — so the digest's byte stream is exercised beyond
   non-negative ints. *)
let gen_mixed_db =
  let open QCheck2.Gen in
  let pool =
    [|
      Value.int (-3); Value.int 0; Value.int 7; Value.int 12; Value.int 100;
      Value.str ""; Value.str "a"; Value.str "b, c=(d)"; Value.str "zz";
    |]
  in
  let value = map (fun i -> pool.(i)) (int_range 0 (Array.length pool - 1)) in
  let rows = list_size (int_range 1 6) (list_repeat 2 value) in
  let* n = int_range 1 3 in
  let schemes = [ "AB"; "BC"; "CD" ] in
  let* tables = list_repeat n rows in
  return
    (Database.of_rows
       (List.mapi (fun i rows -> (List.nth schemes i, rows)) tables))

(* Integer-only and mixed databases, so both generators' regimes feed
   the digest laws. *)
let gen_any_db = QCheck2.Gen.oneof [ gen_db; gen_mixed_db ]

let codes_ascend d =
  let n = Frame.Dict.size d in
  let rec go c =
    c + 1 >= n
    || Value.compare (Frame.Dict.value d c) (Frame.Dict.value d (c + 1)) < 0
       && go (c + 1)
  in
  go 0

let digest_agrees f =
  Frame.digest f = Mj_serve.Protocol.result_hash (Frame.to_relation f)

let of_database_ordered =
  qtest "of_database frames are ordered, canonical and decode to the source"
    gen_any_db (fun db ->
      List.for_all
        (fun storage ->
          let fdb = Frame.Db.of_database ~storage db in
          let dict = Frame.Db.dict fdb in
          Frame.Dict.ordered dict && codes_ascend dict
          && List.for_all
               (fun r ->
                 let f = Frame.Db.find fdb (Relation.scheme r) in
                 (* [of_relation] re-sorts its rows into canonical form;
                    equal packed rows mean [f]'s already were. *)
                 Frame.equal f (Frame.of_relation ~storage dict r)
                 && Relation.equal (Frame.to_relation f) r)
               (Database.relations db))
        Frame.all_storages)

let digest_ordered =
  qtest "digest = result_hash . to_relation on ordered dictionaries"
    gen_any_db (fun db ->
      List.for_all
        (fun storage ->
          let fdb = Frame.Db.of_database ~storage db in
          List.for_all
            (fun r -> digest_agrees (Frame.Db.find fdb (Relation.scheme r)))
            (Database.relations db)
          && digest_agrees (Frame.Db.join_all fdb))
        Frame.all_storages)

(* [intern] appends in first-seen order; seeding the dictionary with
   the largest values first makes it unordered whenever a smaller value
   follows, which is the path that ranks the dictionary by value. *)
let digest_unordered =
  qtest "digest, to_relation and topk agree on unordered dictionaries"
    gen_any_db (fun db ->
      let values =
        List.concat_map
          (fun r ->
            Relation.fold
              (fun tu acc -> List.map snd (Tuple.bindings tu) @ acc)
              r [])
          (Database.relations db)
      in
      let descending = List.sort_uniq (fun a b -> Value.compare b a) values in
      List.for_all
        (fun storage ->
          let dict = Frame.Dict.create () in
          List.iter (fun v -> ignore (Frame.Dict.intern dict v)) descending;
          let frames =
            List.map (Frame.of_relation ~storage dict) (Database.relations db)
          in
          let joined =
            List.fold_left Frame.natural_join (List.hd frames) (List.tl frames)
          in
          let expected = Database.join_all db in
          let order = Attr.Set.elements (Relation.scheme expected) in
          let top3 =
            List.filteri (fun i _ -> i < 3) (Relation.tuples expected)
          in
          Frame.Dict.ordered dict = (List.length descending <= 1)
          && List.for_all digest_agrees (joined :: frames)
          && Relation.equal (Frame.to_relation joined) expected
          && List.equal Tuple.equal
               (Relation.tuples
                  (Frame.to_relation (Frame.topk ~order ~k:3 frames)))
               top3)
        Frame.all_storages)

let test_intern_clears_ordered () =
  let d = Frame.Dict.create () in
  Alcotest.(check bool) "a fresh dictionary is ordered" true
    (Frame.Dict.ordered d);
  ignore (Frame.Dict.intern d (Value.int 1));
  ignore (Frame.Dict.intern d (Value.int 5));
  ignore (Frame.Dict.intern d (Value.int 1));
  Alcotest.(check bool) "ascending appends keep it ordered" true
    (Frame.Dict.ordered d);
  ignore (Frame.Dict.intern d (Value.int 3));
  Alcotest.(check bool) "an out-of-order append clears the flag" false
    (Frame.Dict.ordered d);
  ignore (Frame.Dict.intern d (Value.int 9));
  Alcotest.(check bool) "and it stays cleared" false (Frame.Dict.ordered d)

let () =
  Alcotest.run "frame"
    [
      ( "dict",
        [
          Alcotest.test_case "interning" `Quick test_dict_interning;
          Alcotest.test_case "dictionary mismatch" `Quick test_dict_mismatch;
        ] );
      ( "equivalence",
        [
          round_trip;
          join_agrees;
          semijoin_agrees;
          project_agrees;
          join_all_agrees;
          oracle_agrees;
          cache_backends_agree;
        ] );
      ( "storage",
        [
          Alcotest.test_case "storage names" `Quick test_storage_names;
          storage_round_trip;
          storage_algebra_agrees;
          storage_oracle_agrees;
          storage_morsel_deterministic;
        ] );
      ( "parallel",
        [
          morsel_deterministic;
          morsel_traced;
          Alcotest.test_case "forced morsel chain records lanes" `Quick
            test_morsel_traced_chain;
          Alcotest.test_case "morsel boundaries" `Quick test_morsel_boundaries;
          engines_agree;
        ] );
      ( "digest",
        [
          Alcotest.test_case "intern clears the ordered flag" `Quick
            test_intern_clears_ordered;
          of_database_ordered;
          digest_ordered;
          digest_unordered;
        ] );
    ]
