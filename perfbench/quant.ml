(* Summary statistics the benchmark reports. *)

(* A tail percentile is reported only when at least this many samples lie
   beyond it; fewer and one outlier decides the value. *)
let min_beyond = 10

let samples_beyond ~count pct =
  int_of_float (Float.of_int count *. (100.0 -. pct) /. 100.0)

let percentile_ok ~count pct = samples_beyond ~count pct >= min_beyond

(* Samples kept off the OCaml heap, so that collecting them neither
   counts in the simulator's peak heap nor slows its collector. *)
type samples = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let samples n : samples = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n

(* In-place heapsort of the first [n] samples. *)
let sort (a : samples) n =
  let swap i j =
    let t = a.{i} in
    a.{i} <- a.{j};
    a.{j} <- t
  in
  let rec sift i len =
    let l = (2 * i) + 1 in
    if l < len then begin
      let c = if l + 1 < len && a.{l + 1} > a.{l} then l + 1 else l in
      if a.{c} > a.{i} then begin
        swap i c;
        sift c len
      end
    end
  in
  for i = (n / 2) - 1 downto 0 do
    sift i n
  done;
  for last = n - 1 downto 1 do
    swap 0 last;
    sift 0 last
  done

(* Nearest-rank percentile of the first [n] samples, sorted: the smallest
   sample with at least [pct]% of the samples at or below it. *)
let nearest_rank (sorted : samples) n pct =
  if n = 0 then invalid_arg "Quant.nearest_rank: empty";
  let rank = int_of_float (Float.ceil (pct /. 100.0 *. float_of_int n)) in
  sorted.{max 0 (min (n - 1) (rank - 1))}

(* Median of a non-empty list; the mean of the middle two for even sizes. *)
let median xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Quant.median: empty";
  Array.sort compare a;
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
