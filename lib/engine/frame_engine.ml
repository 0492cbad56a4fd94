open Mj_relation
module Obs = Mj_obs.Obs

type stats = {
  tuples_generated : int;
  result_rows : int;
  dict_size : int;
  probes : int;
  probe_hits : int;
  partitions : int;
  morsels : int;
  per_step : (Scheme.Set.t * int) list;
}

(* Databases whose base relations hold fewer total rows than this run
   single-domain: at that scale the parallel join's fan-out costs more
   than the probes it spreads, and the pool would only add spawn/join
   latency to a sub-millisecond plan. *)
let tiny_rows = 1024

(* The columnar plane, plugged into the generic Driver walker:
   intermediates are dictionary-encoded frames and every step runs the
   one columnar hash kernel — the algorithm annotation is advisory
   (τ and results are algorithm-independent for materializing
   execution), and there are no base-relation indexes, so the INL fast
   path falls back to the ordinary join. *)
module Frame_plane = struct
  let name = "frame"
  let root_span = "execute-frame"

  type item = Frame.t

  type ctx = {
    fdb : Frame.Db.t;
    fstats : Frame.stats;
    domains : int option;
    par_threshold : int option;
    morsel : int option;
    obs : Obs.sink;
    jprobe : Obs.histogram; (* hash probes per join step *)
  }

  let scan ctx s =
    match Frame.Db.find ctx.fdb s with
    | f -> f
    | exception Not_found ->
        invalid_arg
          (Printf.sprintf "Frame_engine: scheme %s not in the database"
             (Scheme.to_string s))

  let join ctx _algo ~common:_ f1 f2 =
    let probes_before = ctx.fstats.Frame.probes in
    let j =
      Frame.natural_join ~obs:ctx.obs ?domains:ctx.domains
        ?par_threshold:ctx.par_threshold ?morsel:ctx.morsel
        ~stats:ctx.fstats f1 f2
    in
    if Obs.enabled ctx.obs then
      Obs.observe ctx.jprobe
        (float_of_int (ctx.fstats.Frame.probes - probes_before));
    if
      Frame.cardinality j > 0
      && Mj_failpoint.Failpoint.fire Frame_lossy_join
    then begin
      (* The planted mutation for [mjoin fuzz --self-test]: silently
         drop the last row of the join output, exactly the class of
         plane-local bug the differential harness exists to catch.
         Never active outside an explicit failpoint activation. *)
      let r = Frame.to_relation j in
      let n = Relation.cardinality r in
      let keep = List.filteri (fun i _ -> i < n - 1) (Relation.tuples r) in
      Frame.of_relation (Frame.dict j) (Relation.make (Relation.scheme r) keep)
    end
    else j

  let index_join _ctx ~common:_ ~outer:_ ~inner:_ = None

  let semijoin ctx ~common:_ f1 f2 =
    let sj = Frame.semijoin ~stats:ctx.fstats f1 f2 in
    if
      Frame.cardinality sj > 0
      && Mj_failpoint.Failpoint.fire Yann_lossy_semijoin
    then begin
      (* The acyclic-path twin of [frame.lossy_join]: silently drop the
         last row of the semijoin output — a lossy reducer loses result
         tuples downstream, exactly what the yann differential leg must
         surface.  Never active outside an explicit failpoint
         activation. *)
      let r = Frame.to_relation sj in
      let n = Relation.cardinality r in
      let keep = List.filteri (fun i _ -> i < n - 1) (Relation.tuples r) in
      Frame.of_relation (Frame.dict sj)
        (Relation.make (Relation.scheme r) keep)
    end
    else sj

  let ranked ctx ~order ~k items =
    Frame.topk ~stats:ctx.fstats ~order ~k (List.map snd items)

  let generic_join ctx ~schemes ~order =
    Frame.Db.generic_join ~stats:ctx.fstats ctx.fdb ~order
      (Scheme.Set.of_list schemes)

  let cardinality = Frame.cardinality
  let note_step _ctx _n = ()
  let algo_label _ = "frame-hash"
end

module Drive = Driver.Make (Frame_plane)

let execute_frame ?(obs = Obs.noop) ?domains ?par_threshold ?morsel ?storage
    ?fdb db plan =
  (* Adaptive cutover: a tiny database is executed single-domain
     whatever the configured worker count — the non-partitioned join
     path, no pool, no fan-out. *)
  let base_rows =
    List.fold_left
      (fun acc r -> acc + Relation.cardinality r)
      0 (Database.relations db)
  in
  let domains = if base_rows < tiny_rows then Some 1 else domains in
  let ctx =
    {
      (* A caller-supplied [fdb] (the serve daemon's per-database warm
         dictionary) skips the per-call re-encode; execution only reads
         it, so one encoding can serve concurrent queries. *)
      Frame_plane.fdb =
        (match fdb with
        | Some fdb -> fdb
        | None -> Frame.Db.of_database ?storage db);
      fstats = Frame.fresh_stats ();
      domains;
      par_threshold;
      morsel;
      obs;
      jprobe = Obs.histogram obs "join.probes";
    }
  in
  let _, result, (log : Driver.step_log) = Drive.execute ~obs ctx plan in
  let dict_size = Frame.Dict.size (Frame.Db.dict ctx.fdb) in
  if Obs.enabled obs then begin
    Obs.add obs "exec.tuples_generated" log.tuples_generated;
    Obs.add obs "frame.dict_size" dict_size;
    Obs.add obs "frame.partitions" ctx.fstats.partitions;
    Obs.add obs "frame.morsels" ctx.fstats.morsels;
    Obs.add obs "frame.probes" ctx.fstats.probes;
    Obs.add obs "frame.probe_hits" ctx.fstats.probe_hits
  end;
  ( result,
    {
      tuples_generated = log.tuples_generated;
      result_rows = Frame.cardinality result;
      dict_size;
      probes = ctx.fstats.probes;
      probe_hits = ctx.fstats.probe_hits;
      partitions = ctx.fstats.partitions;
      morsels = ctx.fstats.morsels;
      per_step = log.per_step;
    } )

(* The frame result leaves the plane in one of two ways, each in its
   own span so a trace attributes the time: decoded to a relation, or
   only hashed to the wire digest. *)
let execute_plan ?(obs = Obs.noop) ?domains ?par_threshold ?morsel ?storage
    ?fdb db plan =
  let f, stats =
    execute_frame ~obs ?domains ?par_threshold ?morsel ?storage ?fdb db plan
  in
  (Obs.span obs "decode" (fun () -> Frame.to_relation f), stats)

let digest_plan ?(obs = Obs.noop) ?domains ?par_threshold ?morsel ?storage
    ?fdb db plan =
  let f, stats =
    execute_frame ~obs ?domains ?par_threshold ?morsel ?storage ?fdb db plan
  in
  (Obs.span obs "digest" (fun () -> Frame.digest f), stats)

let execute ?obs ?domains ?par_threshold ?morsel ?storage db strategy =
  execute_plan ?obs ?domains ?par_threshold ?morsel ?storage db
    (Physical.of_strategy strategy)
