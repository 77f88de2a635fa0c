type window = { mutable events : int; hist : Histogram.t }

type t = { width : int; table : (int, window) Hashtbl.t }

let create ~window =
  if window <= 0 then invalid_arg "Timeseries.create: window must be positive";
  { width = window; table = Hashtbl.create 64 }

let bucket t time = time / t.width

let get_window t time =
  let key = bucket t time in
  match Hashtbl.find_opt t.table key with
  | Some w -> w
  | None ->
    let w = { events = 0; hist = Histogram.create () } in
    Hashtbl.add t.table key w;
    w

let record t ~time v =
  let w = get_window t time in
  w.events <- w.events + 1;
  Histogram.record w.hist v

let incr t ~time =
  let w = get_window t time in
  w.events <- w.events + 1

let windows t =
  Hashtbl.fold (fun k w acc -> (k, w) :: acc) t.table []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map (fun (k, w) -> (k * t.width, w.events, w.hist))
