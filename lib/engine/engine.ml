open Mj_relation
open Multijoin
module Obs = Mj_obs.Obs
module Pool = Mj_pool.Pool

type plane = Seed | Frame

let plane_name = function Seed -> "seed" | Frame -> "frame"

let plane_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "seed" -> Some Seed
  | "frame" -> Some Frame
  | _ -> None

let backend_of_plane = function
  | Seed -> Cost.Cache.Seed
  | Frame -> Cost.Cache.Frame

module Config = struct
  type t = {
    plane : plane;
    domains : int;
    obs : Obs.sink;
    algo_policy : Planner.policy;
    index_cache : Exec.index_cache;
    telemetry : string option;
    frame_storage : Frame.storage;
    morsel : int option;
  }

  (* The single point of environment reads in the whole library tree:
     MJ_DATA_PLANE, MJ_DOMAINS, MJ_ALGO_POLICY, MJ_TELEMETRY,
     MJ_FRAME_STORAGE and MJ_MORSEL are read once per process, here,
     and the resolved values are pushed down to the two modules that
     used to read the environment themselves (the pool's default
     worker count and [Cost.Cache]'s default backend), so every legacy
     caller keeps its env-driven behavior without a second read. *)
  let env =
    lazy
      (let plane =
         match Sys.getenv_opt "MJ_DATA_PLANE" with
         | Some s when String.lowercase_ascii (String.trim s) = "frame" ->
             Frame
         | _ -> Seed
       in
       let domains =
         match Sys.getenv_opt "MJ_DOMAINS" with
         | Some s -> (
             try Some (max 1 (int_of_string (String.trim s)))
             with _ -> Some 1)
         | None -> None
       in
       let policy =
         match Sys.getenv_opt "MJ_ALGO_POLICY" with
         | Some s ->
             Option.value (Planner.policy_of_string s)
               ~default:Planner.Hash_all
         | None -> Planner.Hash_all
       in
       let telemetry =
         match Sys.getenv_opt "MJ_TELEMETRY" with
         | Some s when String.trim s <> "" -> Some (String.trim s)
         | _ -> None
       in
       let frame_storage =
         match Sys.getenv_opt "MJ_FRAME_STORAGE" with
         | Some s ->
             Option.value (Frame.storage_of_string s) ~default:Frame.Heap
         | None -> Frame.Heap
       in
       let morsel =
         match Sys.getenv_opt "MJ_MORSEL" with
         | Some s -> (
             try Some (max 1 (int_of_string (String.trim s))) with _ -> None)
         | None -> None
       in
       (match Sys.getenv_opt "MJ_FAILPOINTS" with
       | Some s -> (
           match Mj_failpoint.Failpoint.set_spec s with
           | Ok () -> ()
           | Error msg -> failwith ("MJ_FAILPOINTS: " ^ msg))
       | None -> ());
       Cost.Cache.set_env_backend (backend_of_plane plane);
       (match domains with Some d -> Pool.set_env_domains d | None -> ());
       (plane, domains, policy, telemetry, frame_storage, morsel))

  let of_env ?(obs = Obs.noop) () =
    let plane, domains, policy, telemetry, frame_storage, morsel =
      Lazy.force env
    in
    {
      plane;
      domains =
        (match domains with Some d -> d | None -> Pool.default_domains ());
      obs;
      algo_policy = policy;
      index_cache = Exec.index_cache ();
      telemetry;
      frame_storage;
      morsel;
    }

  let make ?plane ?domains ?policy ?obs ?telemetry ?storage ?morsel () =
    let base = of_env ?obs () in
    {
      base with
      plane = Option.value plane ~default:base.plane;
      domains = (match domains with Some d -> max 1 d | None -> base.domains);
      algo_policy = Option.value policy ~default:base.algo_policy;
      telemetry =
        (match telemetry with Some _ -> telemetry | None -> base.telemetry);
      frame_storage = Option.value storage ~default:base.frame_storage;
      morsel =
        (match morsel with Some m -> Some (max 1 m) | None -> base.morsel);
    }

  let backend c = backend_of_plane c.plane
end

type stats = {
  plane : plane;
  tuples_generated : int;
  result_rows : int;
  per_step : (Scheme.Set.t * int) list;
  seed : Exec.stats option;
  frame : Frame_engine.stats option;
}

module type BACKEND = sig
  val plane : plane

  val execute :
    ?fdb:Frame.Db.t -> Config.t -> Database.t -> Physical.t -> Relation.t * stats

  val execute_digest :
    ?fdb:Frame.Db.t -> Config.t -> Database.t -> Physical.t -> int64 * stats
end

module Seed_backend = struct
  let plane = Seed

  (* The seed plane's warm state is the config's index cache; a frame
     encoding means nothing here. *)
  let execute ?fdb:_ (cfg : Config.t) db plan =
    let r, (s : Exec.stats) =
      Exec.execute ~obs:cfg.obs ~cache:cfg.index_cache db plan
    in
    ( r,
      {
        plane;
        tuples_generated = s.tuples_generated;
        result_rows = Relation.cardinality r;
        per_step = s.per_step;
        seed = Some s;
        frame = None;
      } )

  let execute_digest ?fdb (cfg : Config.t) db plan =
    let r, stats = execute ?fdb cfg db plan in
    (Obs.span cfg.obs "digest" (fun () -> Relation.digest r), stats)
end

module Frame_backend = struct
  let plane = Frame

  let stats_of (s : Frame_engine.stats) =
    {
      plane;
      tuples_generated = s.tuples_generated;
      result_rows = s.result_rows;
      per_step = s.per_step;
      seed = None;
      frame = Some s;
    }

  let execute ?fdb (cfg : Config.t) db plan =
    let r, s =
      Frame_engine.execute_plan ~obs:cfg.obs ~domains:cfg.domains
        ?morsel:cfg.morsel ~storage:cfg.frame_storage ?fdb db plan
    in
    (r, stats_of s)

  let execute_digest ?fdb (cfg : Config.t) db plan =
    let h, s =
      Frame_engine.digest_plan ~obs:cfg.obs ~domains:cfg.domains
        ?morsel:cfg.morsel ~storage:cfg.frame_storage ?fdb db plan
    in
    (h, stats_of s)
end

let backend = function
  | Seed -> (module Seed_backend : BACKEND)
  | Frame -> (module Frame_backend : BACKEND)

let lower (cfg : Config.t) db strategy =
  Planner.lower ~policy:cfg.algo_policy ~indexes:cfg.index_cache db strategy

let execute_plan ?fdb (cfg : Config.t) db plan =
  let (module B) = backend cfg.plane in
  B.execute ?fdb cfg db plan

let execute_digest ?fdb (cfg : Config.t) db plan =
  let (module B) = backend cfg.plane in
  B.execute_digest ?fdb cfg db plan

let run ?fdb cfg db strategy = execute_plan ?fdb cfg db (lower cfg db strategy)
