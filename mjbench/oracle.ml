(* Certification.  Every answer is compared with a 1-domain seed-plane
   [Engine.run] of the same database, strategy and policy: result rows,
   τ, the result hash and the per-step τ log must all agree.  References
   are computed outside the timed region and cached per distinct
   request. *)

open Mj_relation
module Obs = Mj_obs.Obs
module Json = Mj_obs.Json
module Engine = Mj_engine.Engine
module Protocol = Mj_serve.Protocol

type answer = { rows : int; tau : int; hash : string; steps : string }

type reference = { answer : answer; result : Relation.t; base_rows : int }

let answer ~hash (stats : Engine.stats) =
  {
    rows = stats.Engine.result_rows;
    tau = stats.Engine.tuples_generated;
    hash = Protocol.hash_hex hash;
    steps = Json.to_string (Protocol.steps_json stats.Engine.per_step);
  }

let answer_of result stats = answer ~hash:(Protocol.result_hash result) stats

let base_rows db =
  List.fold_left
    (fun acc r -> acc + Relation.cardinality r)
    0 (Database.relations db)

let compute ~policy db strategy =
  let cfg =
    Engine.Config.make ~plane:Engine.Seed ~domains:1 ~policy ~obs:Obs.noop ()
  in
  let result, stats = Engine.run cfg db strategy in
  { answer = answer_of result stats; result; base_rows = base_rows db }

type cache = (string, reference) Hashtbl.t

let cache () : cache = Hashtbl.create 64

(* The reference for a served request: the daemon runs the default
   left-deep strategy over the materialized workload. *)
let of_request (c : cache) (r : Spec.request) =
  let key = Spec.key r in
  match Hashtbl.find_opt c key with
  | Some reference -> reference
  | None ->
      let db = Protocol.materialize r.Spec.w in
      let reference =
        compute ~policy:r.Spec.policy db (Protocol.default_strategy db)
      in
      Hashtbl.add c key reference;
      reference

let int_field name j =
  match Json.member name j with
  | Some (Json.Num v) when Float.is_integer v -> Some (int_of_float v)
  | _ -> None

let str_field name j =
  match Json.member name j with Some (Json.Str s) -> Some s | _ -> None

(* A served response certifies iff its status is ok and every answer
   field matches the reference. *)
let response_matches (ref_ : reference) line =
  match Json.of_string_opt line with
  | None -> false
  | Some j ->
      let a = ref_.answer in
      str_field "status" j = Some "ok"
      && int_field "rows" j = Some a.rows
      && int_field "tau" j = Some a.tau
      && str_field "hash" j = Some a.hash
      && Option.map Json.to_string (Json.member "steps" j) = Some a.steps
