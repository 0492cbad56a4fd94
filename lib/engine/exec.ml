open Mj_relation
open Multijoin
module Obs = Mj_obs.Obs
module Json = Mj_obs.Json

type stats = {
  tuples_scanned : int;
  tuples_generated : int;
  comparisons : int;
  hash_probes : int;
  max_materialized : int;
  per_step : (Scheme.Set.t * int) list;
}

(* Execution statistics live in an Mj_obs registry; the handles below
   are mutable records, so bumping one is a field assignment — the same
   cost as the ad-hoc mutable record this replaced.  Holding the
   registry lets [execute] fold the totals into a caller's sink. *)
type counters = {
  reg : Obs.registry;
  scanned : Obs.counter;
  generated : Obs.counter;
  compared : Obs.counter;
  probed : Obs.counter;
  peak : Obs.counter;
  jprobe : Obs.histogram; (* hash probes per join step *)
}

let fresh () =
  let reg = Obs.registry () in
  {
    reg;
    scanned = Obs.reg_counter reg "exec.tuples_scanned";
    generated = Obs.reg_counter reg "exec.tuples_generated";
    compared = Obs.reg_counter reg "exec.comparisons";
    probed = Obs.reg_counter reg "exec.hash_probes";
    peak = Obs.reg_counter reg "exec.max_materialized";
    jprobe = Obs.reg_histogram reg "join.probes";
  }

let note_materialized c n = Obs.record_max c.peak n

(* The join-key extractor is compiled once per join: the common
   attributes are listed once, so each probe reads the values directly
   instead of re-deriving a restricted map and its binding list. *)
let key_extractor common =
  let attrs = Attr.Set.elements common in
  fun tu -> List.map (fun a -> Tuple.get tu a) attrs

let hash_join c common left right =
  (* Build on the right, probe with the left. *)
  let key = key_extractor common in
  let table = Hashtbl.create (max 16 (List.length right)) in
  List.iter (fun t2 -> Hashtbl.add table (key t2) t2) right;
  note_materialized c (List.length right);
  let acc = ref [] in
  List.iter
    (fun t1 ->
      Obs.incr c.probed 1;
      List.iter
        (fun t2 -> acc := Tuple.merge t1 t2 :: !acc)
        (Hashtbl.find_all table (key t1)))
    left;
  List.rev !acc

let base_relation db s =
  match Database.find db s with
  | r -> r
  | exception Not_found ->
      invalid_arg
        (Printf.sprintf "Exec: scheme %s not in the database"
           (Scheme.to_string s))

(* The seed row plane, plugged into the generic Driver walker:
   intermediates are materialized tuple lists joined by [hash_join]. *)
module Seed_plane = struct
  let name = "seed"
  let root_span = "execute"

  type item = Tuple.t list
  type ctx = { c : counters; db : Database.t }

  let scan ctx s =
    let tuples = Relation.tuples (base_relation ctx.db s) in
    Obs.incr ctx.c.scanned (List.length tuples);
    tuples

  let join ctx ~common left right =
    let probes_before = Obs.value ctx.c.probed in
    let out = hash_join ctx.c common left right in
    Obs.observe ctx.c.jprobe
      (float_of_int (Obs.value ctx.c.probed - probes_before));
    out

  (* The reference backtracker shared by the generic join and the
     ranked (top-k) enumerator: bind the attributes of [order] one at a
     time, intersecting the sorted distinct values each participating
     relation still allows under the partial assignment, and recurse
     under every common value.  Deliberately simple — tuple lists are
     re-filtered per binding — because this plane exists to certify the
     frame plane's kernels: both must produce the identical canonical
     relation.  Values are visited in ascending [Value.compare] order at
     every level, so emissions stream out in lexicographic order of
     [order] — with [order] the sorted attributes of the union scheme,
     that is exactly [Tuple.compare] order, and stopping after [limit]
     emissions yields the top-k. *)
  exception Budget_spent

  let backtrack ctx ?limit rels order =
    let out = ref [] in
    let emitted = ref 0 in
    let emit t =
      out := t :: !out;
      incr emitted;
      match limit with
      | Some k when !emitted >= k -> raise Budget_spent
      | _ -> ()
    in
    let rec go bound rels = function
      | [] -> emit (Tuple.of_list (List.rev bound))
      | a :: attrs ->
          let holders, others =
            List.partition (fun (s, _) -> Attr.Set.mem a s) rels
          in
          let values_of (_, tuples) =
            List.sort_uniq Value.compare
              (List.map (fun t -> Tuple.get t a) tuples)
          in
          let inter xs ys =
            let rec go xs ys =
              match (xs, ys) with
              | [], _ | _, [] -> []
              | x :: xtl, y :: ytl ->
                  Obs.incr ctx.c.compared 1;
                  let cmp = Value.compare x y in
                  if cmp < 0 then go xtl ys
                  else if cmp > 0 then go xs ytl
                  else x :: go xtl ytl
            in
            go xs ys
          in
          let common =
            match List.map values_of holders with
            | [] -> assert false (* every order attribute has a holder *)
            | vs :: rest -> List.fold_left inter vs rest
          in
          List.iter
            (fun v ->
              let holders' =
                List.map
                  (fun (s, tuples) ->
                    ( s,
                      List.filter
                        (fun t -> Value.equal (Tuple.get t a) v)
                        tuples ))
                  holders
              in
              go ((a, v) :: bound) (holders' @ others) attrs)
            common
    in
    (try go [] rels order with Budget_spent -> ());
    List.rev !out

  let generic_join ctx ~schemes ~order =
    let rels =
      List.map
        (fun s ->
          let tuples = Relation.tuples (base_relation ctx.db s) in
          Obs.incr ctx.c.scanned (List.length tuples);
          (s, tuples))
        schemes
    in
    backtrack ctx rels order

  let semijoin ctx ~common left right =
    let key = key_extractor common in
    let table = Hashtbl.create (max 16 (List.length right)) in
    List.iter (fun t -> Hashtbl.replace table (key t) ()) right;
    note_materialized ctx.c (List.length right);
    List.filter
      (fun t ->
        Obs.incr ctx.c.probed 1;
        Hashtbl.mem table (key t))
      left

  let ranked ctx ~order ~k rels =
    if k <= 0 then [] else backtrack ctx ~limit:k rels order

  let cardinality = List.length

  let note_step ctx n =
    Obs.incr ctx.c.generated n;
    note_materialized ctx.c n

  let join_label = "hash"
end

module Drive = Driver.Make (Seed_plane)

let execute ?(obs = Obs.noop) db plan =
  let c = fresh () in
  let scheme, tuples, (log : Driver.step_log) =
    Drive.execute ~obs { Seed_plane.c; db } plan
  in
  let result = Relation.make scheme tuples in
  Obs.merge_registry obs c.reg;
  ( result,
    {
      tuples_scanned = Obs.value c.scanned;
      tuples_generated = Obs.value c.generated;
      comparisons = Obs.value c.compared;
      hash_probes = Obs.value c.probed;
      max_materialized = Obs.value c.peak;
      per_step = log.per_step;
    } )

type pipeline_stats = {
  emitted_per_stage : int list;
  peak_buffer : int;
  result_size : int;
}

let execute_pipelined ?(obs = Obs.noop) db strategy =
  if not (Strategy.is_linear strategy) then
    invalid_arg "Exec.execute_pipelined: strategy is not linear";
  (* Normalize the spine into a join order: the leaf order of a linear
     strategy read so that each element joins the accumulated prefix. *)
  let rec order = function
    | Strategy.Leaf s -> [ s ]
    | Strategy.Join { left; right = Strategy.Leaf s; _ } -> order left @ [ s ]
    | Strategy.Join { left = Strategy.Leaf s; right; _ } -> order right @ [ s ]
    | Strategy.Join _ -> assert false
  in
  match order strategy with
  | [] -> assert false
  | first :: rest ->
      Obs.span obs "execute-pipelined" (fun () ->
          let base = base_relation db in
          let peak = ref 0 in
          let counts = ref [] in
          (* Stream the accumulated prefix as a Seq; each stage wraps the
             previous one with a hash-table lookup on a base relation. *)
          let stage (seq, acc_scheme) s =
            Obs.span obs "pipeline-stage" (fun () ->
                let r = base s in
                let common = Attr.Set.inter acc_scheme s in
                let key = key_extractor common in
                let table = Hashtbl.create (max 16 (Relation.cardinality r)) in
                Relation.iter (fun t -> Hashtbl.add table (key t) t) r;
                peak := max !peak (Relation.cardinality r);
                if Obs.enabled obs then begin
                  Obs.set_attr obs "scheme" (Json.str (Scheme.to_string s));
                  Obs.set_attr obs "build_rows"
                    (Json.int (Relation.cardinality r))
                end;
                let emitted = ref 0 in
                let count = Seq.map (fun t -> incr emitted; t) in
                let joined =
                  Seq.concat_map
                    (fun t1 ->
                      List.to_seq
                        (List.map (Tuple.merge t1)
                           (Hashtbl.find_all table (key t1))))
                    seq
                in
                counts := emitted :: !counts;
                (count joined, Attr.Set.union acc_scheme s))
          in
          let first_rel = base first in
          peak := Relation.cardinality first_rel;
          let seq0 = List.to_seq (Relation.tuples first_rel) in
          let final_seq, final_scheme =
            List.fold_left stage (seq0, first) rest
          in
          (* Drain the pipeline once; the per-stage counters fill in as
             the stream flows. *)
          let out =
            Obs.span obs "pipeline-drain" (fun () -> List.of_seq final_seq)
          in
          let result = Relation.make final_scheme out in
          let emitted_per_stage = List.rev_map (fun r -> !r) !counts in
          if Obs.enabled obs then begin
            Obs.add obs "exec.tuples_generated"
              (List.fold_left ( + ) 0 emitted_per_stage);
            Obs.record_max (Obs.counter obs "exec.peak_buffer") !peak;
            Obs.add obs "exec.result_rows" (Relation.cardinality result)
          end;
          ( result,
            {
              emitted_per_stage;
              peak_buffer = !peak;
              result_size = Relation.cardinality result;
            } ))
