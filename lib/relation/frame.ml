(* Columnar relation frames.  See frame.mli for the representation
   contract: one shared dictionary per database, row-major packed int
   codes, rows kept canonical (sorted lexicographically by code,
   duplicate-free).  Row storage is pluggable: boxed [int array] on the
   OCaml heap, or an off-heap int32 [Bigarray] that the GC never
   scans. *)

module Pool = Mj_pool.Pool
module Obs = Mj_obs.Obs

module Dict = struct
  type t = {
    codes : (Value.t, int) Hashtbl.t;
    mutable values : Value.t array; (* decode table, dense prefix *)
    mutable size : int;
    mutable ordered : bool; (* codes ascend in [Value.compare] order *)
  }

  let create ?(hint = 256) () =
    {
      codes = Hashtbl.create hint;
      values = Array.make 64 (Value.int 0);
      size = 0;
      ordered = true;
    }

  let size d = d.size
  let ordered d = d.ordered

  let intern d v =
    match Hashtbl.find_opt d.codes v with
    | Some c -> c
    | None ->
        let c = d.size in
        if c = Array.length d.values then begin
          let bigger = Array.make (2 * c) (Value.int 0) in
          Array.blit d.values 0 bigger 0 c;
          d.values <- bigger
        end;
        if c > 0 && Value.compare d.values.(c - 1) v > 0 then d.ordered <- false;
        d.values.(c) <- v;
        Hashtbl.add d.codes v c;
        d.size <- c + 1;
        c

  let code d v = Hashtbl.find_opt d.codes v

  let value d c =
    if c < 0 || c >= d.size then
      invalid_arg "Frame.Dict.value: code out of range";
    d.values.(c)

  (* The one ranking every value-ordered consumer shares: all codes,
     sorted by value.  Callers skip it when the dictionary is ordered
     (it is then the identity).  Nothing is cached: serve shares one
     dictionary read-only across domains. *)
  let by_value d =
    let codes = Array.init d.size Fun.id in
    Array.sort (fun a b -> Value.compare d.values.(a) d.values.(b)) codes;
    codes

  let rank_of by_value =
    let rank = Array.make (Array.length by_value) 0 in
    Array.iteri (fun r c -> rank.(c) <- r) by_value;
    rank

  (* Renumber the codes into value order; returns the old-code -> new-
     code map, or [None] when the codes already ascend. *)
  let renumber d =
    if d.ordered then None
    else begin
      let by_value = by_value d in
      let values = Array.make (Array.length d.values) (Value.int 0) in
      Array.iteri (fun r c -> values.(r) <- d.values.(c)) by_value;
      let rank = rank_of by_value in
      Hashtbl.filter_map_inplace (fun _ c -> Some rank.(c)) d.codes;
      d.values <- values;
      d.ordered <- true;
      Some rank
    end
end

(* ------------------------------------------------------------------ *)
(* Row storage                                                         *)

type storage = Heap | Bigarray

let storage_name = function Heap -> "heap" | Bigarray -> "bigarray"

let storage_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "heap" -> Some Heap
  | "bigarray" | "big" -> Some Bigarray
  | _ -> None

let all_storages = [ Heap; Bigarray ]

type i32 = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

(* The resident row store of a frame.  All transient computation (join
   output buffers, sort scratch, partition tables) stays on heap [int
   array]s whatever the storage — only the long-lived packed rows move
   off-heap, which is where multi-million-row frames hurt the GC.  The
   accessors are small enough for the classic (non-flambda) inliner, so
   a read costs one tag check over the raw array load; the bigarray
   read compiles to a direct sign-extended int32 load, no boxing. *)
module Store = struct
  type t = H of int array | B of i32

  let storage = function H _ -> Heap | B _ -> Bigarray

  let[@inline] get s i =
    match s with
    | H a -> Array.unsafe_get a i
    | B b -> Int32.to_int (Bigarray.Array1.unsafe_get b i)

  (* Pack the first [len] ints of a heap buffer into a store.  Codes
     are dense dictionary indices, far below 2^31, so the int32
     narrowing is lossless; guarded anyway to fail loudly rather than
     corrupt. *)
  let of_heap storage len (a : int array) =
    match storage with
    | Heap -> if Array.length a = len then H a else H (Array.sub a 0 len)
    | Bigarray ->
        let b =
          Stdlib.Bigarray.Array1.create Stdlib.Bigarray.int32
            Stdlib.Bigarray.c_layout len
        in
        for i = 0 to len - 1 do
          let v = Array.unsafe_get a i in
          if v > 0x3fffffff then
            invalid_arg "Frame: dictionary code exceeds int32 storage";
          Bigarray.Array1.unsafe_set b i (Int32.of_int v)
        done;
        B b

  let empty storage = of_heap storage 0 [||]

  (* Logical content equality over [len] ints — storage-agnostic, so a
     heap frame and its bigarray twin compare equal. *)
  let equal len s1 s2 =
    match (s1, s2) with
    | H a1, H a2 when Array.length a1 = len && Array.length a2 = len -> a1 = a2
    | _ ->
        let rec go i = i = len || (get s1 i = get s2 i && go (i + 1)) in
        go 0
end

type t = {
  scheme : Attr.Set.t;
  attrs : Attr.t array; (* sorted; attrs.(j) labels column j *)
  width : int;
  rows : int;
  data : Store.t; (* row-major, rows * width ints, canonical *)
  dict : Dict.t;
}

type stats = {
  mutable probes : int;
  mutable probe_hits : int;
  mutable partitions : int;
  mutable morsels : int;
}

let fresh_stats () = { probes = 0; probe_hits = 0; partitions = 0; morsels = 0 }

let scheme f = f.scheme
let cardinality f = f.rows
let is_empty f = f.rows = 0
let dict f = f.dict
let storage f = Store.storage f.data

(* ------------------------------------------------------------------ *)
(* Canonical form                                                      *)

let row_compare data w i j =
  let bi = i * w and bj = j * w in
  let rec go k =
    if k = w then 0
    else
      let c = Stdlib.compare (data.(bi + k) : int) data.(bj + k) in
      if c <> 0 then c else go (k + 1)
  in
  go 0

(* True iff the first [nrows] rows are already strictly increasing —
   the common case for base relations, whose interning order tends to
   follow the source set's sorted order.  One O(rows * w) scan that
   lets [canonicalize] skip the whole counting sort. *)
let rows_sorted_distinct w nrows data =
  let rec go i = i >= nrows || (row_compare data w (i - 1) i < 0 && go (i + 1)) in
  go 1

(* Sort-unique [nrows] rows of width [w] held in a possibly larger
   buffer; returns a freshly packed canonical (rows, data).  Codes are
   dense dictionary indices, so the lexicographic sort is a stable LSD
   counting sort per column — O(w * (rows + codes)), no comparator
   calls.  Already-canonical input short-circuits to a trim. *)
let canonicalize w nrows data =
  if nrows = 0 then (0, [||])
  else if rows_sorted_distinct w nrows data then
    ( nrows,
      if Array.length data = nrows * w then data else Array.sub data 0 (nrows * w) )
  else begin
    let maxc = Array.make (max 1 w) 0 in
    for i = 0 to nrows - 1 do
      let base = i * w in
      for c = 0 to w - 1 do
        if data.(base + c) > maxc.(c) then maxc.(c) <- data.(base + c)
      done
    done;
    let count = Array.make (Array.fold_left max 0 maxc + 2) 0 in
    let perm = Array.init nrows (fun i -> i) in
    let tmp = Array.make nrows 0 in
    for col = w - 1 downto 0 do
      let m = maxc.(col) + 1 in
      Array.fill count 0 (m + 1) 0;
      for i = 0 to nrows - 1 do
        let v = Array.unsafe_get data ((Array.unsafe_get perm i * w) + col) in
        Array.unsafe_set count (v + 1) (Array.unsafe_get count (v + 1) + 1)
      done;
      for v = 1 to m do
        Array.unsafe_set count v
          (Array.unsafe_get count v + Array.unsafe_get count (v - 1))
      done;
      for i = 0 to nrows - 1 do
        let p = Array.unsafe_get perm i in
        let v = Array.unsafe_get data ((p * w) + col) in
        Array.unsafe_set tmp (Array.unsafe_get count v) p;
        Array.unsafe_set count v (Array.unsafe_get count v + 1)
      done;
      Array.blit tmp 0 perm 0 nrows
    done;
    let kept = ref 1 in
    for k = 1 to nrows - 1 do
      if row_compare data w perm.(k - 1) perm.(k) <> 0 then incr kept
    done;
    let out = Array.make (!kept * w) 0 in
    let oi = ref 0 in
    for k = 0 to nrows - 1 do
      if k = 0 || row_compare data w perm.(k - 1) perm.(k) <> 0 then begin
        Array.blit data (perm.(k) * w) out (!oi * w) w;
        incr oi
      end
    done;
    (!kept, out)
  end

(* Parallel canonicalization for large join outputs: partition rows by
   leading-column value range (equal rows share a leading code, so they
   land in one partition and local dedup is global dedup; the ranges
   are value-ordered, so locally sorted partitions concatenate into a
   globally sorted whole), sort-unique each partition on its own
   domain, and concatenate in partition order.  The partition of a row
   depends only on its leading code, so the result is bit-identical to
   the serial sort at any domain count. *)
let par_sort_rows = 1 lsl 15

let pow2_at_least n =
  let p = ref 1 in
  while !p < n do
    p := 2 * !p
  done;
  !p

let canonicalize_par ~domains w nrows data =
  if domains <= 1 || nrows < par_sort_rows || w = 0 then canonicalize w nrows data
  else begin
    let parts = min 256 (pow2_at_least (4 * domains)) in
    let maxc0 = ref 0 in
    for i = 0 to nrows - 1 do
      let v = Array.unsafe_get data (i * w) in
      if v > !maxc0 then maxc0 := v
    done;
    let div = !maxc0 + 1 in
    let counts = Array.make parts 0 in
    for i = 0 to nrows - 1 do
      let p = Array.unsafe_get data (i * w) * parts / div in
      Array.unsafe_set counts p (Array.unsafe_get counts p + 1)
    done;
    let results =
      Pool.run ~domains
        (Array.init parts (fun p () ->
             let cnt = counts.(p) in
             if cnt = 0 then (0, [||])
             else begin
               (* Gather-by-scan: every task reads the shared buffer but
                  writes only its own local copy — no synchronization,
                  and the gather order (row order) is deterministic. *)
               let local = Array.make (cnt * w) 0 in
               let li = ref 0 in
               for i = 0 to nrows - 1 do
                 if Array.unsafe_get data (i * w) * parts / div = p then begin
                   Array.blit data (i * w) local (!li * w) w;
                   incr li
                 end
               done;
               canonicalize w cnt local
             end))
    in
    let kept = Array.fold_left (fun acc (k, _) -> acc + k) 0 results in
    let out = Array.make (kept * w) 0 in
    let off = ref 0 in
    Array.iter
      (fun (k, part) ->
        Array.blit part 0 out !off (k * w);
        off := !off + (k * w))
      results;
    (kept, out)
  end

(* ------------------------------------------------------------------ *)
(* Conversion                                                          *)

(* Intern [r]'s values in source order and pack its rows (not yet
   canonical: code order need not follow value order). *)
let encode dict r =
  let scheme = Relation.scheme r in
  let attrs = Array.of_list (Attr.Set.elements scheme) in
  let w = Array.length attrs in
  let n = Relation.cardinality r in
  let data = Array.make (max 1 (n * w)) 0 in
  let i = ref 0 in
  Relation.iter
    (fun tu ->
      let base = !i * w in
      (* Tuple.bindings is in increasing attribute order = attrs order. *)
      List.iteri (fun j (_, v) -> data.(base + j) <- Dict.intern dict v)
        (Tuple.bindings tu);
      incr i)
    r;
  (scheme, attrs, n, data)

(* The source set is duplicate-free, so [canonicalize] only re-sorts —
   and skips even that when the codes follow value order. *)
let of_encoded ~storage dict (scheme, attrs, n, data) =
  let w = Array.length attrs in
  let rows, data = canonicalize w n data in
  { scheme; attrs; width = w; rows; data = Store.of_heap storage (rows * w) data;
    dict }

let of_relation ?(storage = Heap) dict r =
  of_encoded ~storage dict (encode dict r)

(* A frame's rows in value order, as a cell reader: row [i], column [j]
   is cell [i * width + j] and reads back as a code.  With an ordered
   dictionary the canonical rows already are in value order — for
   same-scheme tuples [Tuple.compare] is exactly lexicographic value
   order over the sorted attribute columns.  Otherwise every cell is
   remapped to its value rank and the rows are re-sorted with the
   comparison-free counting sort; the rank is injective, so rows stay
   distinct and the row count is unchanged. *)
let value_ordered f =
  if Dict.ordered f.dict then Store.get f.data
  else begin
    let by_value = Dict.by_value f.dict in
    let rank = Dict.rank_of by_value in
    let ncells = f.rows * f.width in
    let ranked = Array.init ncells (fun c -> rank.(Store.get f.data c)) in
    let _, sorted = canonicalize f.width f.rows ranked in
    fun cell -> by_value.(sorted.(cell))
  end

let to_relation f =
  (* Rows are distinct and uniformly over [f.scheme] by construction,
     so decode rides the trusted constructors: no per-binding duplicate
     probe, no per-tuple scheme check, one sorting pass for the set —
     fed in [Tuple.compare] order, where it costs least. *)
  let w = f.width in
  if f.rows = 0 then Relation.of_uniform_tuples f.scheme []
  else begin
    let code = value_ordered f in
    let value cell = Dict.value f.dict (code cell) in
    (* Consecutive sorted rows share leading column values, so each
       tuple is the previous one with only the changed columns rebound
       — unchanged map nodes are shared, not rebuilt. *)
    let prev = Array.make w (Value.int 0) in
    let cur = ref Tuple.empty in
    let tuples = ref [] in
    for r = 0 to f.rows - 1 do
      let base = r * w in
      if r = 0 then
        cur :=
          Tuple.of_columns f.attrs (fun j ->
              let v = value (base + j) in
              prev.(j) <- v;
              v)
      else
        for j = 0 to w - 1 do
          let v = value (base + j) in
          if not (Value.equal v prev.(j)) then begin
            cur := Tuple.set !cur f.attrs.(j) v;
            prev.(j) <- v
          end
        done;
      tuples := !cur :: !tuples
    done;
    Relation.of_uniform_tuples f.scheme (List.rev !tuples)
  end

(* [Relation.digest (to_relation f)] without the relation: the same
   byte stream, streamed from the value-ordered rows.  Each code is
   rendered at most once per call, on first use; the table is local to
   the call, so a dictionary shared across domains is never written. *)
let digest f =
  let d = Result_digest.create f.scheme in
  if f.rows > 0 then begin
    let code = value_ordered f in
    let values = f.dict.Dict.values in
    let n = Dict.size f.dict in
    let rendered = Array.make n "" and seen = Bytes.make n '\000' in
    let render c =
      if Bytes.get seen c = '\000' then begin
        rendered.(c) <- Value.to_string values.(c);
        Bytes.set seen c '\001'
      end;
      rendered.(c)
    in
    for r = 0 to f.rows - 1 do
      let base = r * f.width in
      for j = 0 to f.width - 1 do
        Result_digest.rendered d j (render (code (base + j)))
      done;
      Result_digest.end_row d
    done
  end;
  Result_digest.finish d

let equal f1 f2 =
  Attr.Set.equal f1.scheme f2.scheme
  && f1.rows = f2.rows
  && Store.equal (f1.rows * f1.width) f1.data f2.data

(* ------------------------------------------------------------------ *)
(* Compiled join specs                                                 *)

let col_of f a =
  let rec go j = if Attr.equal f.attrs.(j) a then j else go (j + 1) in
  go 0

(* Everything a join needs, computed once per join: key-column offsets
   on both sides and the source column of every output column. *)
type join_spec = {
  out_scheme : Attr.Set.t;
  out_attrs : Attr.t array;
  out_width : int;
  k1pos : int array; (* common-column offsets in f1 rows *)
  k2pos : int array; (* common-column offsets in f2 rows *)
  from1 : int array; (* out column j reads f1 col from1.(j), or -1 *)
  from2 : int array; (* ... else f2 col from2.(j) *)
}

let make_spec f1 f2 =
  let out_scheme = Attr.Set.union f1.scheme f2.scheme in
  let out_attrs = Array.of_list (Attr.Set.elements out_scheme) in
  let out_width = Array.length out_attrs in
  let common = Attr.Set.elements (Attr.Set.inter f1.scheme f2.scheme) in
  let k1pos = Array.of_list (List.map (col_of f1) common) in
  let k2pos = Array.of_list (List.map (col_of f2) common) in
  let from1 = Array.make out_width (-1) in
  let from2 = Array.make out_width (-1) in
  Array.iteri
    (fun j a ->
      if Attr.Set.mem a f1.scheme then from1.(j) <- col_of f1 a
      else from2.(j) <- col_of f2 a)
    out_attrs;
  { out_scheme; out_attrs; out_width; k1pos; k2pos; from1; from2 }

(* FNV-1a over the key codes, folded to a non-negative int.  Collisions
   are resolved by [keys_match] below, so the mix only has to spread.
   Unsafe accesses are bounded by the frame invariant: [base] is a row
   base in [data] and [pos] holds in-row column offsets. *)
let key_hash data base pos =
  (* FNV-1a 64-bit offset basis folded into OCaml's 63-bit int range. *)
  let h = ref 0x4bf29ce484222325 in
  for k = 0 to Array.length pos - 1 do
    h :=
      (!h lxor Store.get data (base + Array.unsafe_get pos k))
      * 0x100000001b3
  done;
  !h land max_int

let keys_match d1 b1 p1 d2 b2 p2 =
  let k = Array.length p1 in
  let rec go i =
    i = k
    || Store.get d1 (b1 + Array.unsafe_get p1 i)
       = Store.get d2 (b2 + Array.unsafe_get p2 i)
       && go (i + 1)
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Output row buffer                                                   *)

type buf = { mutable bdata : int array; mutable blen : int (* in ints *) }

let buf_make hint = { bdata = Array.make (max 64 hint) 0; blen = 0 }

let buf_reserve b extra =
  if b.blen + extra > Array.length b.bdata then begin
    let cap = ref (2 * Array.length b.bdata) in
    while b.blen + extra > !cap do
      cap := 2 * !cap
    done;
    let bigger = Array.make !cap 0 in
    Array.blit b.bdata 0 bigger 0 b.blen;
    b.bdata <- bigger
  end

let emit_merged b spec data1 base1 data2 base2 =
  buf_reserve b spec.out_width;
  let d = b.bdata and o = b.blen in
  for j = 0 to spec.out_width - 1 do
    let c1 = Array.unsafe_get spec.from1 j in
    Array.unsafe_set d (o + j)
      (if c1 >= 0 then Store.get data1 (base1 + c1)
       else Store.get data2 (base2 + Array.unsafe_get spec.from2 j))
  done;
  b.blen <- o + spec.out_width

(* ------------------------------------------------------------------ *)
(* Join kernels over row-index selections                              *)

let all_rows f = Array.init f.rows (fun i -> i)

(* Hash join of two whole frames.  The index is a chained-array hash
   table — [head] maps a bucket to its first entry, [next] threads the
   chain through entry slots — so building and probing allocate nothing
   beyond two int arrays.  Builds on the smaller frame, probes the
   larger; emitted rows keep the (f1, f2) orientation regardless of
   build side. *)
let hash_join_full ~stats spec f1 f2 b =
  let swap = f1.rows > f2.rows in
  let bf, bpos, pf, ppos =
    if swap then (f2, spec.k2pos, f1, spec.k1pos)
    else (f1, spec.k1pos, f2, spec.k2pos)
  in
  let nb = bf.rows in
  let bmask = pow2_at_least (2 * max 1 nb) - 1 in
  let head = Array.make (bmask + 1) (-1) in
  let next = Array.make (max 1 nb) (-1) in
  let bw = bf.width in
  for k = 0 to nb - 1 do
    let h = key_hash bf.data (k * bw) bpos land bmask in
    Array.unsafe_set next k (Array.unsafe_get head h);
    Array.unsafe_set head h k
  done;
  let np = pf.rows in
  let pw = pf.width in
  stats.probes <- stats.probes + np;
  for q = 0 to np - 1 do
    let pb = q * pw in
    let hit = ref false in
    let k = ref (Array.unsafe_get head (key_hash pf.data pb ppos land bmask)) in
    while !k >= 0 do
      let bb = !k * bw in
      if keys_match pf.data pb ppos bf.data bb bpos then begin
        hit := true;
        if swap then emit_merged b spec pf.data pb bf.data bb
        else emit_merged b spec bf.data bb pf.data pb
      end;
      k := Array.unsafe_get next !k
    done;
    if !hit then stats.probe_hits <- stats.probe_hits + 1
  done

let product_idx spec f1 idx1 f2 idx2 b =
  Array.iter
    (fun i ->
      let b1 = i * f1.width in
      Array.iter
        (fun j -> emit_merged b spec f1.data b1 f2.data (j * f2.width))
        idx2)
    idx1

(* ------------------------------------------------------------------ *)
(* Morsel-driven parallel join                                         *)

let default_par_threshold = 4096
let default_morsel = 16_384

(* Claim granularity for the pool's shared queue: one atomic op per
   chunk of tasks.  Morsels are sized so a handful exist per worker —
   claim singly then; only degenerate floods of tiny tasks batch up. *)
let claim_chunk ntasks domains = max 1 (ntasks / (domains * 64))

(* The morsel-driven replacement for the old radix fan-out.  One shared
   read-only hash index over the build side, built in two deterministic
   parallel phases; then probe-side morsels are pulled from the pool's
   work queue by whichever worker is free, each filling a private
   output buffer; buffers merge in morsel-index order.

   Build phase A hashes build rows into a shared scratch array (morsel
   tasks write disjoint slices).  Phase B threads the chained index:
   the bucket space is split into contiguous ranges, one task per
   range, and since a row lands in exactly one bucket, [head] and
   [next] entries are each written by exactly one task — no locks, and
   every task scans rows in ascending order, so the chains (and hence
   the emitted row order) are identical at any domain count.  The
   final canonical sort makes the frame bit-identical regardless. *)
let morsel_join ~obs ~domains ~morsel ~stats spec f1 f2 =
  let swap = f1.rows > f2.rows in
  let bf, bpos, pf, ppos =
    if swap then (f2, spec.k2pos, f1, spec.k1pos)
    else (f1, spec.k1pos, f2, spec.k2pos)
  in
  let nb = bf.rows and np = pf.rows in
  let bw = bf.width and pw = pf.width in
  let w = spec.out_width in
  (* Phase A: build-side key hashes, one slice per morsel task. *)
  let hashes = Array.make (max 1 nb) 0 in
  let nh = (nb + morsel - 1) / morsel in
  ignore
    (Pool.run ~domains ~chunk:(claim_chunk nh domains)
       (Array.init nh (fun t () ->
            let lo = t * morsel in
            let hi = min nb (lo + morsel) in
            for k = lo to hi - 1 do
              Array.unsafe_set hashes k (key_hash bf.data (k * bw) bpos)
            done)));
  (* Phase B: thread the shared chained index by disjoint bucket
     ranges. *)
  let bmask = pow2_at_least (2 * max 1 nb) - 1 in
  let head = Array.make (bmask + 1) (-1) in
  let next = Array.make (max 1 nb) (-1) in
  let bparts = min (bmask + 1) (pow2_at_least (2 * domains)) in
  let bspan = (bmask + 1) / bparts in
  stats.partitions <- stats.partitions + bparts;
  ignore
    (Pool.run_traced ~obs ~domains
       (Array.init bparts (fun p child ->
            let lo = p * bspan and hi = ((p + 1) * bspan) - 1 in
            let build () =
              for k = 0 to nb - 1 do
                let h = Array.unsafe_get hashes k land bmask in
                if h >= lo && h <= hi then begin
                  Array.unsafe_set next k (Array.unsafe_get head h);
                  Array.unsafe_set head h k
                end
              done
            in
            if Obs.enabled child then
              Obs.span child
                ~attrs:
                  [
                    ("part", Mj_obs.Json.int p);
                    ("buckets", Mj_obs.Json.int bspan);
                  ]
                "build-part" build
            else build ())));
  (* Phase C: probe morsels off the shared queue, private buffers. *)
  let nmor = (np + morsel - 1) / morsel in
  stats.morsels <- stats.morsels + nmor;
  let parts =
    Pool.run_traced ~obs ~domains ~chunk:(claim_chunk nmor domains)
      (Array.init nmor (fun m child ->
           let lo = m * morsel in
           let hi = min np (lo + morsel) in
           let st = fresh_stats () in
           let pb = buf_make (w * (hi - lo + 16)) in
           let probe () =
             for q = lo to hi - 1 do
               let pbase = q * pw in
               let hit = ref false in
               let k =
                 ref
                   (Array.unsafe_get head
                      (key_hash pf.data pbase ppos land bmask))
               in
               while !k >= 0 do
                 let bb = !k * bw in
                 if keys_match pf.data pbase ppos bf.data bb bpos then begin
                   hit := true;
                   if swap then emit_merged pb spec pf.data pbase bf.data bb
                   else emit_merged pb spec bf.data bb pf.data pbase
                 end;
                 k := Array.unsafe_get next !k
               done;
               if !hit then st.probe_hits <- st.probe_hits + 1
             done;
             st.probes <- st.probes + (hi - lo)
           in
           if Obs.enabled child then
             Obs.span child
               ~attrs:
                 [
                   ("morsel", Mj_obs.Json.int m);
                   ("probe_rows", Mj_obs.Json.int (hi - lo));
                 ]
               "morsel"
               (fun () ->
                 probe ();
                 Obs.set_attr child "rows" (Mj_obs.Json.int (pb.blen / w)))
           else probe ();
           (pb, st)))
  in
  (* Merge per-morsel buffers in morsel-index order. *)
  let total =
    Array.fold_left (fun acc ((pb : buf), _) -> acc + pb.blen) 0 parts
  in
  let out = Array.make (max 1 total) 0 in
  let off = ref 0 in
  Array.iter
    (fun ((pb : buf), (st : stats)) ->
      stats.probes <- stats.probes + st.probes;
      stats.probe_hits <- stats.probe_hits + st.probe_hits;
      Array.blit pb.bdata 0 out !off pb.blen;
      off := !off + pb.blen)
    parts;
  (total / w, out)

let natural_join ?(obs = Mj_obs.Obs.noop) ?domains
    ?(par_threshold = default_par_threshold) ?(morsel = default_morsel) ?stats
    f1 f2 =
  if f1.dict != f2.dict then
    invalid_arg "Frame.natural_join: frames use different dictionaries";
  let stats = match stats with Some s -> s | None -> fresh_stats () in
  let spec = make_spec f1 f2 in
  let w = spec.out_width in
  let morsel = max 1 morsel in
  let d =
    match domains with Some d -> max 1 d | None -> Pool.default_domains ()
  in
  let parallel = d > 1 && min f1.rows f2.rows >= par_threshold in
  let nraw, raw =
    if Array.length spec.k1pos = 0 then begin
      (* Cartesian product: a hash index would be one degenerate bucket. *)
      let b = buf_make (w * (max f1.rows f2.rows + 16)) in
      product_idx spec f1 (all_rows f1) f2 (all_rows f2) b;
      (b.blen / w, b.bdata)
    end
    else if parallel then morsel_join ~obs ~domains:d ~morsel ~stats spec f1 f2
    else begin
      let b = buf_make (w * (max f1.rows f2.rows + 16)) in
      hash_join_full ~stats spec f1 f2 b;
      (b.blen / w, b.bdata)
    end
  in
  let rows, data =
    canonicalize_par ~domains:(if parallel then d else 1) w nraw raw
  in
  {
    scheme = spec.out_scheme;
    attrs = spec.out_attrs;
    width = w;
    rows;
    data = Store.of_heap (Store.storage f1.data) (rows * w) data;
    dict = f1.dict;
  }

let semijoin ?stats f1 f2 =
  if f1.dict != f2.dict then
    invalid_arg "Frame.semijoin: frames use different dictionaries";
  let stats = match stats with Some s -> s | None -> fresh_stats () in
  let common = Attr.Set.elements (Attr.Set.inter f1.scheme f2.scheme) in
  if common = [] then
    if f2.rows = 0 then
      { f1 with rows = 0; data = Store.empty (Store.storage f1.data) }
    else f1
  else begin
    let k1pos = Array.of_list (List.map (col_of f1) common) in
    let k2pos = Array.of_list (List.map (col_of f2) common) in
    let bmask = pow2_at_least (2 * max 1 f2.rows) - 1 in
    let head = Array.make (bmask + 1) (-1) in
    let next = Array.make (max 1 f2.rows) (-1) in
    for i = 0 to f2.rows - 1 do
      let h = key_hash f2.data (i * f2.width) k2pos land bmask in
      next.(i) <- head.(h);
      head.(h) <- i
    done;
    let w = f1.width in
    let out = Array.make (max 1 (f1.rows * w)) 0 in
    let kept = ref 0 in
    for i = 0 to f1.rows - 1 do
      let b1 = i * w in
      stats.probes <- stats.probes + 1;
      let matched = ref false in
      let j = ref head.(key_hash f1.data b1 k1pos land bmask) in
      while (not !matched) && !j >= 0 do
        if keys_match f1.data b1 k1pos f2.data (!j * f2.width) k2pos then
          matched := true
        else j := next.(!j)
      done;
      if !matched then begin
        stats.probe_hits <- stats.probe_hits + 1;
        let dst = !kept * w in
        for c = 0 to w - 1 do
          Array.unsafe_set out (dst + c) (Store.get f1.data (b1 + c))
        done;
        incr kept
      end
    done;
    (* A subsequence of canonical rows is canonical. *)
    { f1 with rows = !kept;
      data = Store.of_heap (Store.storage f1.data) (!kept * w) out }
  end

let project f x =
  if Attr.Set.is_empty x then
    invalid_arg "Frame.project: projection onto the empty scheme";
  if not (Attr.Set.subset x f.scheme) then
    invalid_arg
      (Printf.sprintf "Frame.project: %s is not a subset of %s"
         (Attr.Set.to_string x)
         (Attr.Set.to_string f.scheme));
  let attrs = Array.of_list (Attr.Set.elements x) in
  let pos = Array.map (col_of f) attrs in
  let w = Array.length attrs in
  let data = Array.make (max 1 (f.rows * w)) 0 in
  for i = 0 to f.rows - 1 do
    let src = i * f.width and dst = i * w in
    for j = 0 to w - 1 do
      data.(dst + j) <- Store.get f.data (src + pos.(j))
    done
  done;
  let rows, data = canonicalize w f.rows data in
  { scheme = x; attrs; width = w; rows;
    data = Store.of_heap (Store.storage f.data) (rows * w) data; dict = f.dict }

(* ------------------------------------------------------------------ *)
(* Trie iterators and the generic (worst-case-optimal) join            *)

(* A frame *is* a trie: canonical rows are sorted lexicographically by
   code, so the rows sharing a fixed prefix of column values form one
   contiguous run and each deeper column refines the run.  A trie
   iterator is therefore three small int stacks over the packed rows —
   no nodes, no pointers.  The only preparation cost is column order:
   the generic join binds attributes in one global elimination order,
   and a relation whose induced column order differs from its natural
   (sorted-attribute) order needs its rows re-sorted once per order —
   one LSD counting sort, after which iteration is allocation-free. *)
module Trie = struct
  type nonrec t = {
    tattrs : Attr.t array; (* columns, in elimination-induced order *)
    tw : int;
    trows : int;
    tdata : int array; (* row-major, sorted lexicographically *)
    mutable depth : int; (* -1 at the root, else the bound column *)
    tlo : int array; (* per depth: start of the parent's run *)
    thi : int array; (* per depth: end of the parent's run *)
    tpos : int array; (* per depth: start row of the current key's run *)
  }

  let of_frame ~order f =
    if not (List.for_all (fun a -> List.mem a order) (Array.to_list f.attrs))
    then
      invalid_arg "Frame.Trie.of_frame: order does not cover the scheme";
    let induced =
      (* The frame's attributes, reordered by their position in the
         global elimination order. *)
      List.filter (fun a -> Attr.Set.mem a f.scheme) order
    in
    let tattrs = Array.of_list induced in
    let w = f.width in
    let perm = Array.map (col_of f) tattrs in
    let identity =
      let rec go j = j >= w || (perm.(j) = j && go (j + 1)) in
      go 0
    in
    let tdata =
      match (identity, f.data) with
      | true, Store.H a when Array.length a = f.rows * w -> a
      | _ ->
          let buf = Array.make (max 1 (f.rows * w)) 0 in
          for i = 0 to f.rows - 1 do
            let src = i * w and dst = i * w in
            for j = 0 to w - 1 do
              buf.(dst + j) <- Store.get f.data (src + perm.(j))
            done
          done;
          if identity then buf
          else begin
            (* Permuted rows of a canonical frame are distinct but no
               longer sorted; one counting sort restores the trie
               invariant. *)
            let rows, sorted = canonicalize w f.rows buf in
            assert (rows = f.rows);
            sorted
          end
    in
    {
      tattrs;
      tw = w;
      trows = f.rows;
      tdata;
      depth = -1;
      tlo = Array.make (max 1 w) 0;
      thi = Array.make (max 1 w) 0;
      tpos = Array.make (max 1 w) 0;
    }

  let arity t = t.tw
  let attrs t = Array.to_list t.tattrs

  (* First row in [lo, hi) whose column [d] is ≥ [v].  Within a parent
     run the rows share columns 0..d-1, so column [d] is non-decreasing
     and binary search applies. *)
  let lower_bound t d lo hi v =
    let lo = ref lo and hi = ref hi in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if Array.unsafe_get t.tdata ((mid * t.tw) + d) < v then lo := mid + 1
      else hi := mid
    done;
    !lo

  let at_end t = t.tpos.(t.depth) >= t.thi.(t.depth)
  let key t = t.tdata.((t.tpos.(t.depth) * t.tw) + t.depth)

  let run_end t =
    let d = t.depth in
    lower_bound t d (t.tpos.(d) + 1) t.thi.(d) (key t + 1)

  let open_ t =
    let d = t.depth in
    let lo, hi =
      if d < 0 then (0, t.trows)
      else begin
        assert (not (at_end t));
        (t.tpos.(d), run_end t)
      end
    in
    let d' = d + 1 in
    t.depth <- d';
    t.tlo.(d') <- lo;
    t.thi.(d') <- hi;
    t.tpos.(d') <- lo

  let up t =
    assert (t.depth >= 0);
    t.depth <- t.depth - 1

  let next t = t.tpos.(t.depth) <- run_end t

  let seek t v =
    let d = t.depth in
    if (not (at_end t)) && key t < v then
      t.tpos.(d) <- lower_bound t d (t.tpos.(d) + 1) t.thi.(d) v
end

(* Leapfrog alignment of the iterators bound to one attribute: seek
   every iterator below the running maximum up to it until all agree on
   one key (true) or some iterator exhausts its run (false).  Each seek
   only moves forward, so the loop is linear in the runs' length. *)
let leapfrog_align ~stats its =
  let k = Array.length its in
  let rec go () =
    let max_key = ref min_int in
    let agree = ref true in
    let alive = ref true in
    for i = 0 to k - 1 do
      let it = its.(i) in
      if Trie.at_end it then alive := false
      else begin
        let v = Trie.key it in
        if !max_key <> min_int && v <> !max_key then agree := false;
        if v > !max_key then max_key := v
      end
    done;
    if not !alive then false
    else if !agree then true
    else begin
      for i = 0 to k - 1 do
        stats.probes <- stats.probes + 1;
        Trie.seek its.(i) !max_key
      done;
      go ()
    end
  in
  go ()

let generic_join ?stats ~order frames =
  match frames with
  | [] -> invalid_arg "Frame.generic_join: no frames"
  | f0 :: rest ->
      List.iter
        (fun f ->
          if f.dict != f0.dict then
            invalid_arg "Frame.generic_join: frames use different dictionaries")
        rest;
      let stats = match stats with Some s -> s | None -> fresh_stats () in
      let out_scheme =
        List.fold_left
          (fun acc f -> Attr.Set.union acc f.scheme)
          Attr.Set.empty frames
      in
      let order_arr = Array.of_list order in
      let nlv = Array.length order_arr in
      if
        nlv <> Attr.Set.cardinal out_scheme
        || not (List.for_all (fun a -> Attr.Set.mem a out_scheme) order)
      then
        invalid_arg
          "Frame.generic_join: order is not a permutation of the attributes";
      let tries = Array.of_list (List.map (Trie.of_frame ~order) frames) in
      (* Iterators participating at each level: the relations whose
         scheme carries that attribute, in frame-list order. *)
      let iters_at =
        Array.map
          (fun a ->
            Array.of_list
              (List.filter
                 (fun t -> List.exists (Attr.equal a) (Trie.attrs t))
                 (Array.to_list tries)))
          order_arr
      in
      let out_attrs = Array.of_list (Attr.Set.elements out_scheme) in
      let w = nlv in
      let lvl_of_col =
        Array.map
          (fun a ->
            let rec go i = if Attr.equal order_arr.(i) a then i else go (i + 1) in
            go 0)
          out_attrs
      in
      let vals = Array.make (max 1 nlv) 0 in
      let b = buf_make (w * 64) in
      let emit () =
        buf_reserve b w;
        let d = b.bdata and o = b.blen in
        for j = 0 to w - 1 do
          Array.unsafe_set d (o + j) vals.(Array.unsafe_get lvl_of_col j)
        done;
        b.blen <- o + w
      in
      (* Depth-first over the elimination order: at each level open the
         participating iterators one column deeper, walk the leapfrog
         intersection of their runs, and recurse under every common
         key.  Codes flow straight from the packed rows into the output
         buffer — no per-tuple allocation anywhere on the path. *)
      let rec go lv =
        let its = iters_at.(lv) in
        Array.iter Trie.open_ its;
        let ok = ref (leapfrog_align ~stats its) in
        while !ok do
          stats.probe_hits <- stats.probe_hits + 1;
          vals.(lv) <- Trie.key its.(0);
          if lv = nlv - 1 then emit () else go (lv + 1);
          Trie.next its.(0);
          ok := leapfrog_align ~stats its
        done;
        Array.iter Trie.up its
      in
      if nlv > 0 then go 0;
      (* Assignments are enumerated in elimination-order lexicographic
         sequence; when that differs from the sorted-attribute column
         order one final counting sort restores canonical form (rows
         are already distinct either way). *)
      let rows, data = canonicalize w (b.blen / w) b.bdata in
      {
        scheme = out_scheme;
        attrs = out_attrs;
        width = w;
        rows;
        data = Store.of_heap (Store.storage f0.data) (rows * w) data;
        dict = f0.dict;
      }

(* Ranked (top-k) enumeration.  The leapfrog DFS above enumerates
   assignments in lexicographic *code* order.  Over an ordered
   dictionary (every [Db.of_database] one) code order is value order,
   so level keys ascend in value order, emissions stream out in exactly
   [Tuple.compare] order and the first [k] of them are the top-k.  Over
   a dictionary [intern] left unordered, the decode path's rank trick
   runs forwards: rank the codes by value, remap every input frame into
   rank space (a bijection, so canonical rows stay distinct), and run
   the same DFS there.  The DFS stops dead once the budget is
   spent, so the work is bounded by the trie prefix the k results
   touch, not by the size of the full join. *)
let topk ?stats ~order ~k frames =
  match frames with
  | [] -> invalid_arg "Frame.topk: no frames"
  | f0 :: rest ->
      List.iter
        (fun f ->
          if f.dict != f0.dict then
            invalid_arg "Frame.topk: frames use different dictionaries")
        rest;
      let stats = match stats with Some s -> s | None -> fresh_stats () in
      let out_scheme =
        List.fold_left
          (fun acc f -> Attr.Set.union acc f.scheme)
          Attr.Set.empty frames
      in
      let order_arr = Array.of_list order in
      let nlv = Array.length order_arr in
      if
        nlv <> Attr.Set.cardinal out_scheme
        || not (List.for_all (fun a -> Attr.Set.mem a out_scheme) order)
      then
        invalid_arg "Frame.topk: order is not a permutation of the attributes";
      let out_attrs = Array.of_list (Attr.Set.elements out_scheme) in
      let empty_result () =
        {
          scheme = out_scheme;
          attrs = out_attrs;
          width = nlv;
          rows = 0;
          data = Store.empty (Store.storage f0.data);
          dict = f0.dict;
        }
      in
      if k <= 0 || List.exists (fun f -> f.rows = 0) frames then empty_result ()
      else begin
        (* With an ordered dictionary codes already are ranks; otherwise
           rank them by value and remap every frame into rank space. *)
        let by_value, remap =
          if Dict.ordered f0.dict then (None, Fun.id)
          else begin
            let by_value = Dict.by_value f0.dict in
            let rank = Dict.rank_of by_value in
            let remap f =
              let w = f.width in
              let buf = Array.make (max 1 (f.rows * w)) 0 in
              for i = 0 to (f.rows * w) - 1 do
                buf.(i) <- rank.(Store.get f.data i)
              done;
              let rows, data = canonicalize w f.rows buf in
              { f with rows; data = Store.of_heap Heap (rows * w) data }
            in
            (Some by_value, remap)
          end
        in
        let tries =
          Array.of_list (List.map (fun f -> Trie.of_frame ~order (remap f)) frames)
        in
        let iters_at =
          Array.map
            (fun a ->
              Array.of_list
                (List.filter
                   (fun t -> List.exists (Attr.equal a) (Trie.attrs t))
                   (Array.to_list tries)))
            order_arr
        in
        let lvl_of_col =
          Array.map
            (fun a ->
              let rec go i =
                if Attr.equal order_arr.(i) a then i else go (i + 1)
              in
              go 0)
            out_attrs
        in
        let w = nlv in
        let vals = Array.make (max 1 nlv) 0 in
        let b = buf_make (w * (min k 64 + 1)) in
        let remaining = ref k in
        let emit () =
          buf_reserve b w;
          let d = b.bdata and o = b.blen in
          for j = 0 to w - 1 do
            let v = vals.(Array.unsafe_get lvl_of_col j) in
            (* Back from rank space to codes as the row is emitted. *)
            Array.unsafe_set d (o + j)
              (match by_value with Some b -> b.(v) | None -> v)
          done;
          b.blen <- o + w;
          decr remaining
        in
        let rec go lv =
          let its = iters_at.(lv) in
          Array.iter Trie.open_ its;
          let ok = ref (leapfrog_align ~stats its) in
          while !ok && !remaining > 0 do
            stats.probe_hits <- stats.probe_hits + 1;
            vals.(lv) <- Trie.key its.(0);
            if lv = nlv - 1 then emit () else go (lv + 1);
            if !remaining > 0 then begin
              Trie.next its.(0);
              ok := leapfrog_align ~stats its
            end
            else ok := false
          done;
          Array.iter Trie.up its
        in
        if nlv > 0 then go 0;
        (* The k emitted rows are value-lexicographically least; one
           counting sort in code space restores the frame's canonical
           (code-sorted) row order — a sortedness check alone when the
           dictionary is ordered. *)
        let rows, data = canonicalize w (b.blen / w) b.bdata in
        {
          scheme = out_scheme;
          attrs = out_attrs;
          width = w;
          rows;
          data = Store.of_heap (Store.storage f0.data) (rows * w) data;
          dict = f0.dict;
        }
      end

(* ------------------------------------------------------------------ *)
(* Databases of frames                                                 *)

module Db = struct
  type frame = t

  type t = { ddict : Dict.t; dstorage : storage; frames : frame Scheme.Map.t }

  (* Intern every relation in source order, then renumber the
     dictionary once into value order and remap the cells.  Source
     tuples arrive in [Tuple.compare] order, so the remapped rows are
     already canonical and [canonicalize] only runs its sortedness
     check. *)
  let of_database ?(storage = Heap) db =
    let ddict = Dict.create () in
    let encoded = List.map (encode ddict) (Database.relations db) in
    let remap = Dict.renumber ddict in
    let frames =
      List.fold_left
        (fun acc ((scheme, attrs, n, data) as e) ->
          (match remap with
          | Some rank ->
              for c = 0 to (n * Array.length attrs) - 1 do
                Array.unsafe_set data c rank.(Array.unsafe_get data c)
              done
          | None -> ());
          Scheme.Map.add scheme (of_encoded ~storage ddict e) acc)
        Scheme.Map.empty encoded
    in
    { ddict; dstorage = storage; frames }

  let dict fdb = fdb.ddict
  let storage fdb = fdb.dstorage
  let find fdb s = Scheme.Map.find s fdb.frames

  let join_schemes ?obs ?domains ?par_threshold ?morsel ?stats fdb d =
    match Scheme.Set.elements d with
    | [] -> invalid_arg "Frame.Db.join_schemes: empty sub-database"
    | s :: rest ->
        (* Sorted scheme order — the same left-to-right fold as
           Database.join_all. *)
        List.fold_left
          (fun acc s' ->
            natural_join ?obs ?domains ?par_threshold ?morsel ?stats acc
              (find fdb s'))
          (find fdb s) rest

  let join_all ?obs ?domains ?par_threshold ?morsel ?stats fdb =
    join_schemes ?obs ?domains ?par_threshold ?morsel ?stats fdb
      (Scheme.Map.fold (fun s _ acc -> Scheme.Set.add s acc) fdb.frames
         Scheme.Set.empty)

  let cardinality_oracle ?domains ?stats fdb d =
    cardinality (join_schemes ?domains ?stats fdb d)

  let generic_join ?stats fdb ~order d =
    match Scheme.Set.elements d with
    | [] -> invalid_arg "Frame.Db.generic_join: empty sub-database"
    | schemes -> generic_join ?stats ~order (List.map (find fdb) schemes)
end
