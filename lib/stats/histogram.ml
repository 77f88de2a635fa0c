(* 32 sub-buckets per power of two.  Values < 32 get exact unit buckets.
   For v >= 32 with most-significant bit at position e (>= 5), the sub-bucket
   is the top 5 bits below the msb, i.e. (v lsr (e - 5)) in [32, 64). *)

let sub_bits = 5
let sub_count = 1 lsl sub_bits (* 32 *)
let max_exp = 62
let nbuckets = (max_exp - sub_bits + 1) * sub_count

type t = {
  buckets : int array;
  mutable total : int;
  mutable sum : int;
  mutable max_v : int;
}

let create () =
  { buckets = Array.make nbuckets 0; total = 0; sum = 0; max_v = 0 }

let msb_position v =
  (* Position of the most significant set bit of v >= 1 (0-indexed). *)
  let rec go v acc = if v <= 1 then acc else go (v lsr 1) (acc + 1) in
  go v 0

let[@inline] index_of v =
  if v < sub_count then v
  else begin
    let e = msb_position v in
    let sub = v lsr (e - sub_bits) in
    (((e - sub_bits) + 1) * sub_count) + (sub - sub_count)
  end

let value_of_index i =
  if i < sub_count then i
  else begin
    let tier = (i / sub_count) - 1 in
    let sub = (i mod sub_count) + sub_count in
    (* Representative value: top of the bucket range, so percentile reads
       never under-report. *)
    let base = sub lsl tier in
    let width = 1 lsl tier in
    base + width - 1
  end

let[@inline] record h v =
  let v = if v < 0 then 0 else v in
  let i = index_of v in
  h.buckets.(i) <- h.buckets.(i) + 1;
  h.total <- h.total + 1;
  h.sum <- h.sum + v;
  if v > h.max_v then h.max_v <- v

let count h = h.total
let sum h = h.sum
let mean h = if h.total = 0 then 0.0 else float_of_int h.sum /. float_of_int h.total
let max_value h = h.max_v

let percentile h p =
  if h.total = 0 then 0
  else begin
    let p = Float.max 0.0 (Float.min 100.0 p) in
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int h.total)) in
    let rank = max rank 1 in
    let rec walk i seen =
      if i >= nbuckets then h.max_v
      else begin
        let seen = seen + h.buckets.(i) in
        if seen >= rank then min (value_of_index i) h.max_v else walk (i + 1) seen
      end
    in
    walk 0 0
  end

let reset h =
  Array.fill h.buckets 0 nbuckets 0;
  h.total <- 0;
  h.sum <- 0;
  h.max_v <- 0
