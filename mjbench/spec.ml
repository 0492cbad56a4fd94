(* The benchmark's inputs.  Every database a run touches is a
   [Protocol.workload] (shape, size, regime, seed) whose seed is drawn
   from the benchmark seed, so the program only ever sees generated
   inputs and the same benchmark seed reproduces the same run. *)

module Protocol = Mj_serve.Protocol
module Planner = Mj_engine.Planner
module Json = Mj_obs.Json

type request = { w : Protocol.workload; policy : Planner.policy }

(* One independent random stream per purpose, so adding a draw to one
   stream never shifts another. *)
let stream seed tag = Random.State.make [| 0x6d6a62; seed; tag |]

let workload rng ~shape ~n ~rows ~domain ~regime =
  { Protocol.shape; n; rows; domain; regime; seed = Random.State.bits rng }

let key r = Planner.policy_name r.policy ^ "|" ^ Protocol.workload_key r.w

(* Every request runs on the frame plane: the seed plane is the
   certification oracle, not a served path. *)
let query_line ~id r =
  let w = r.w in
  Json.to_string
    (Json.Obj
       [
         ("id", Json.int id);
         ("op", Json.str "query");
         ("shape", Json.str w.Protocol.shape);
         ("n", Json.int w.Protocol.n);
         ("rows", Json.int w.Protocol.rows);
         ("domain", Json.int w.Protocol.domain);
         ("regime", Json.str w.Protocol.regime);
         ("seed", Json.int w.Protocol.seed);
         ("policy", Json.str (Planner.policy_name r.policy));
         ("plane", Json.str "frame");
       ])

let control_line ~id op =
  Json.to_string (Json.Obj [ ("id", Json.int id); ("op", Json.str op) ])

(* cold-large: a pool of [cold_count] distinct databases, alternating
   chain-6 and star-5 over uniform data, with the domain just below the
   row count.  Rows per relation step from 4,300 to 9,200, all above the
   frame join's 4,096-row parallel threshold.  The spread of query costs
   keeps the latency distribution continuous: with equal sizes it splits
   into a fast and a slow mode whenever the host's speed changes during a
   run, and the median jumps between them.  Each query re-materializes
   its database anew, so the pool only bounds how many
   certification references a run needs. *)
let cold_count = 8
let cold_rows i = 4_300 + (700 * i)

let cold ~seed =
  let rng = stream seed 1 in
  Array.init cold_count (fun i ->
      let shape, n = if i mod 2 = 0 then ("chain", 6) else ("star", 5) in
      let rows = cold_rows i in
      workload rng ~shape ~n ~rows ~domain:(rows - (rows / 16))
        ~regime:"uniform")

(* The six request kinds of the serve mix, sized by [rows] per relation:
   hash over chain-4, chain-5 and star-4; yann over snowflake-4 and
   path-5; wcoj over a skewed triangle. *)
let kinds ~rows =
  [|
    ("chain", 4, rows, rows, "uniform", Planner.Hash_all);
    ("chain", 5, rows, rows, "uniform", Planner.Hash_all);
    ("star", 4, rows, rows, "uniform", Planner.Hash_all);
    ("snowflake", 4, rows, rows, "uniform", Planner.Yannakakis);
    ("path", 5, rows, rows, "uniform", Planner.Yannakakis);
    ("cycle", 3, rows, 4 * rows, "skewed", Planner.Wcoj);
  |]

let request rng (shape, n, rows, domain, regime, policy) =
  { w = workload rng ~shape ~n ~rows ~domain ~regime; policy }

(* serve-hot: [hot_copies] seeded instances of each kind at about 1,000
   rows per relation.  Setup primes every key once; the timed phase
   cycles through them, so every request hits the registry, the plan
   cache and the warm frame encoding. *)
let hot_rows = 1000
let hot_copies = 4

let hot ~seed =
  let rng = stream seed 2 in
  let ks = kinds ~rows:hot_rows in
  Array.init
    (hot_copies * Array.length ks)
    (fun i -> request rng ks.(i mod Array.length ks))

(* serve-churn: [churn_universe] distinct small workloads — far more than
   the daemon's 128-entry plan cache — each under
   [Frame_engine.tiny_rows] base rows in total, so execution stays
   single-domain and the cold-path layers (materialize, encode, lower)
   carry the work. *)
let churn_universe = 2000
let churn_invalidate_every = 1000

let churn_kinds =
  [|
    ("chain", 4, 200, 200, "uniform", Planner.Hash_all);
    ("chain", 5, 160, 160, "uniform", Planner.Hash_all);
    ("star", 4, 200, 200, "uniform", Planner.Hash_all);
    ("snowflake", 4, 200, 200, "uniform", Planner.Yannakakis);
    ("path", 5, 160, 160, "uniform", Planner.Yannakakis);
    ("cycle", 3, 300, 1200, "skewed", Planner.Wcoj);
  |]

let churn ~seed =
  let rng = stream seed 3 in
  Array.init churn_universe (fun i ->
      request rng churn_kinds.(i mod Array.length churn_kinds))

(* Zipf(1) over the universe: rank r is drawn with weight 1/r.  Ranks map
   to workloads through a seed-derived permutation that keeps the kind
   (index mod [kinds]), so which instances are popular changes with the
   seed but the mix of kinds by popularity does not. *)
let zipf_sampler ~seed ~kinds n =
  let rng = stream seed 4 in
  let perm = Array.init n Fun.id in
  for c = 0 to kinds - 1 do
    let cls =
      Array.of_list (List.filter (fun i -> i mod kinds = c) (List.init n Fun.id))
    in
    let shuffled = Array.copy cls in
    for i = Array.length shuffled - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = shuffled.(i) in
      shuffled.(i) <- shuffled.(j);
      shuffled.(j) <- t
    done;
    Array.iteri (fun k i -> perm.(i) <- shuffled.(k)) cls
  done;
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for r = 0 to n - 1 do
    acc := !acc +. (1.0 /. float_of_int (r + 1));
    cdf.(r) <- !acc
  done;
  let total = !acc in
  fun () ->
    let u = Random.State.float rng total in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    perm.(!lo)
