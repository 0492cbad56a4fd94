let offset = 0xcbf29ce484222325L
let prime = 0x100000001b3L

(* [state] bytes 0-7 hold the running hash, bytes 8-27 are digit scratch
   for [add_int]; keeping the hash in bytes rather than a mutable int64
   field means reading and writing it never boxes.  [prefix.(j)] is the
   rendering that precedes column [j]: ["\n(A="] for the first, [", B="]
   after. *)
type t = { state : Bytes.t; prefix : string array }

(* Every loop below keeps the hash in a local ref that never escapes,
   so ocamlopt holds it unboxed in a register. *)
let[@inline] step h c = Int64.mul (Int64.logxor h (Int64.of_int c)) prime

let add_string t s =
  let h = ref (Bytes.get_int64_ne t.state 0) in
  for i = 0 to String.length s - 1 do
    h := step !h (Char.code (String.unsafe_get s i))
  done;
  Bytes.set_int64_ne t.state 0 !h

let add_char t c =
  Bytes.set_int64_ne t.state 0 (step (Bytes.get_int64_ne t.state 0) (Char.code c))

(* The digits are produced least significant first into the scratch
   bytes (division by the constant 10 compiles to a multiply), then
   hashed most significant first.  [min_int] has no positive negation,
   so it takes the allocating path. *)
let add_int t n =
  if n = min_int then add_string t (string_of_int n)
  else begin
    if n < 0 then add_char t '-';
    let b = t.state in
    let m = ref (abs n) and k = ref 8 in
    while
      Bytes.unsafe_set b !k (Char.unsafe_chr (48 + (!m mod 10)));
      incr k;
      m := !m / 10;
      !m > 0
    do
      ()
    done;
    let h = ref (Bytes.get_int64_ne b 0) in
    for i = !k - 1 downto 8 do
      h := step !h (Char.code (Bytes.unsafe_get b i))
    done;
    Bytes.set_int64_ne b 0 !h
  end

let create scheme =
  let state = Bytes.create 28 in
  Bytes.set_int64_ne state 0 offset;
  let prefix =
    Array.of_list
      (List.mapi
         (fun j a -> (if j = 0 then "\n(" else ", ") ^ Attr.to_string a ^ "=")
         (Attr.Set.elements scheme))
  in
  let t = { state; prefix } in
  add_string t (Attr.Set.to_string scheme);
  t

let rendered t j s =
  add_string t t.prefix.(j);
  add_string t s

let value t j v =
  add_string t t.prefix.(j);
  match v with Value.Int i -> add_int t i | Value.Str s -> add_string t s

let end_row t = add_char t ')'
let finish t = Bytes.get_int64_ne t.state 0
