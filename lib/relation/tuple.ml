type t = Value.t Attr.Map.t

let empty = Attr.Map.empty

let of_list bindings =
  List.fold_left
    (fun acc (a, v) ->
      if Attr.Map.mem a acc then
        invalid_arg
          (Printf.sprintf "Tuple.of_list: attribute %s bound twice"
             (Attr.to_string a))
      else Attr.Map.add a v acc)
    Attr.Map.empty bindings

let of_string_list bindings =
  of_list (List.map (fun (name, v) -> (Attr.make name, v)) bindings)

(* Trusted fast path for columnar decode: the caller guarantees the
   attributes are distinct, so the per-binding membership probe of
   [of_list] is skipped. *)
let of_distinct_bindings bindings =
  List.fold_left (fun acc (a, v) -> Attr.Map.add a v acc) Attr.Map.empty
    bindings

(* Same contract, driven by column index — lets a columnar decode loop
   build each tuple without materialising a bindings list per row. *)
let of_columns attrs get =
  let tu = ref Attr.Map.empty in
  for j = Array.length attrs - 1 downto 0 do
    tu := Attr.Map.add (Array.unsafe_get attrs j) (get j) !tu
  done;
  !tu

let bindings t = Attr.Map.bindings t
let iter = Attr.Map.iter

let scheme t =
  Attr.Map.fold (fun a _ acc -> Attr.Set.add a acc) t Attr.Set.empty

let get t a = Attr.Map.find a t
let get_opt t a = Attr.Map.find_opt a t
let set t a v = Attr.Map.add a v t

let restrict t x = Attr.Map.filter (fun a _ -> Attr.Set.mem a x) t

let joinable t1 t2 =
  Attr.Map.for_all
    (fun a v1 ->
      match Attr.Map.find_opt a t2 with
      | None -> true
      | Some v2 -> Value.equal v1 v2)
    t1

let merge t1 t2 =
  Attr.Map.union
    (fun a v1 v2 ->
      if Value.equal v1 v2 then Some v1
      else
        invalid_arg
          (Printf.sprintf "Tuple.merge: conflicting values for %s"
             (Attr.to_string a)))
    t1 t2

let compare t1 t2 = Attr.Map.compare Value.compare t1 t2
let equal t1 t2 = compare t1 t2 = 0

let pp fmt t =
  let pp_binding fmt (a, v) =
    Format.fprintf fmt "%a=%a" Attr.pp a Value.pp v
  in
  Format.fprintf fmt "(%a)"
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
       pp_binding)
    (bindings t)

let to_string t = Format.asprintf "%a" pp t
