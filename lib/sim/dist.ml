type t =
  | Const of float
  | Uniform of float * float
  | Exponential of float
  | Bimodal of { p_slow : float; fast : float; slow : float }
  | Mixture of (float * t) list

let rec sample rng dist =
  let v =
    match dist with
    | Const x -> x
    | Uniform (lo, hi) -> lo +. Rng.float rng (hi -. lo)
    | Exponential mean -> Rng.exponential rng ~mean
    | Bimodal { p_slow; fast; slow } ->
      if Rng.float rng 1.0 < p_slow then slow else fast
    | Mixture weighted ->
      let total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 weighted in
      let pick = Rng.float rng total in
      let rec choose acc = function
        | [] -> invalid_arg "Dist.sample: empty mixture"
        | [ (_, d) ] -> sample rng d
        | (w, d) :: rest ->
          if pick < acc +. w then sample rng d else choose (acc +. w) rest
      in
      choose 0.0 weighted
  in
  Float.max v 0.0

let sample_ns rng dist =
  let v = int_of_float (Float.round (sample rng dist)) in
  Int.max 1 v

let rec mean = function
  | Const x -> x
  | Uniform (lo, hi) -> (lo +. hi) /. 2.0
  | Exponential m -> m
  | Bimodal { p_slow; fast; slow } ->
    ((1.0 -. p_slow) *. fast) +. (p_slow *. slow)
  | Mixture weighted ->
    let total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 weighted in
    List.fold_left (fun acc (w, d) -> acc +. (w /. total *. mean d)) 0.0 weighted
