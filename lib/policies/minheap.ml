type 'a entry = { key : int; seq : int; value : 'a }

type 'a t = {
  mutable heap : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
}

let create () = { heap = [||]; size = 0; next_seq = 0 }
let length t = t.size
let is_empty t = t.size = 0

let earlier a b = a.key < b.key || (a.key = b.key && a.seq < b.seq)

let grow t entry =
  let cap = Array.length t.heap in
  if t.size = cap then begin
    let heap = Array.make (Int.max 8 (2 * cap)) entry in
    Array.blit t.heap 0 heap 0 t.size;
    t.heap <- heap
  end

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if earlier t.heap.(i) t.heap.(parent) then begin
      let tmp = t.heap.(i) in
      t.heap.(i) <- t.heap.(parent);
      t.heap.(parent) <- tmp;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let m = if l < t.size && earlier t.heap.(l) t.heap.(i) then l else i in
  let m = if r < t.size && earlier t.heap.(r) t.heap.(m) then r else m in
  if m <> i then begin
    let tmp = t.heap.(i) in
    t.heap.(i) <- t.heap.(m);
    t.heap.(m) <- tmp;
    sift_down t m
  end

let push t ~key value =
  let entry = { key; seq = t.next_seq; value } in
  t.next_seq <- t.next_seq + 1;
  grow t entry;
  t.heap.(t.size) <- entry;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.heap.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.heap.(0) <- t.heap.(t.size);
      sift_down t 0
    end;
    Some (top.key, top.value)
  end

let peek t = if t.size = 0 then None else Some (t.heap.(0).key, t.heap.(0).value)

let iter f t =
  for i = 0 to t.size - 1 do
    let e = t.heap.(i) in
    f e.key e.value
  done
