(* Dense int-keyed table: [slots.(k)] is [Some v] when [k] is bound.  The
   stored option is the one lookups return, so a hit allocates nothing;
   replacing a binding with the value it already holds keeps the old
   option and allocates nothing either. *)

type 'a t = { mutable slots : 'a option array; mutable count : int }

let create () = { slots = [||]; count = 0 }
let length t = t.count

let[@inline] find_opt t k =
  if k >= 0 && k < Array.length t.slots then Array.unsafe_get t.slots k
  else None

let find t k = match find_opt t k with Some v -> v | None -> raise Not_found
let mem t k = match find_opt t k with Some _ -> true | None -> false

let grow t k =
  let len = Array.length t.slots in
  let slots = Array.make (Int.max (k + 1) (Int.max 16 (2 * len))) None in
  Array.blit t.slots 0 slots 0 len;
  t.slots <- slots

let replace t k v =
  if k < 0 then invalid_arg "Idtbl.replace: negative key";
  if k >= Array.length t.slots then grow t k;
  match t.slots.(k) with
  | Some old when old == v -> ()
  | Some _ -> t.slots.(k) <- Some v
  | None ->
    t.slots.(k) <- Some v;
    t.count <- t.count + 1

let remove t k =
  match find_opt t k with
  | Some _ ->
    t.slots.(k) <- None;
    t.count <- t.count - 1
  | None -> ()

let iter f t =
  let slots = t.slots in
  for k = 0 to Array.length slots - 1 do
    match slots.(k) with Some v -> f k v | None -> ()
  done

let fold f t init =
  let slots = t.slots in
  let rec go k acc =
    if k = Array.length slots then acc
    else go (k + 1) (match slots.(k) with Some v -> f k v acc | None -> acc)
  in
  go 0 init
