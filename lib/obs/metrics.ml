type counter = { mutable c : int }
type gauge = { mutable g : int }
type histogram = Gstats.Histogram.t

type instrument =
  | ICounter of counter
  | IGauge of gauge
  | IHist of histogram

let registry : (string, instrument) Hashtbl.t = Hashtbl.create 64

let register name make check =
  match Hashtbl.find_opt registry name with
  | Some inst -> (
    match check inst with
    | Some h -> h
    | None ->
      invalid_arg
        (Printf.sprintf "Obs.Metrics: %S already registered as another kind" name))
  | None ->
    let h, inst = make () in
    Hashtbl.add registry name inst;
    h

let counter name =
  register name
    (fun () ->
      let c = { c = 0 } in
      (c, ICounter c))
    (function ICounter c -> Some c | _ -> None)

let[@inline] incr c = c.c <- c.c + 1
let[@inline] add c n = c.c <- c.c + n
let counter_value c = c.c

let gauge name =
  register name
    (fun () ->
      let g = { g = 0 } in
      (g, IGauge g))
    (function IGauge g -> Some g | _ -> None)

let[@inline] set g v = g.g <- v

let histogram name =
  register name
    (fun () ->
      let h = Gstats.Histogram.create () in
      (h, IHist h))
    (function IHist h -> Some h | _ -> None)

let[@inline] observe h v = Gstats.Histogram.record h v

(* --- Snapshots -------------------------------------------------------------- *)

type hist_snapshot = {
  count : int;
  sum : int;
  mean : float;
  p50 : int;
  p90 : int;
  p99 : int;
  max : int;
}

type value =
  | Counter of int
  | Gauge of int
  | Histogram of hist_snapshot

let snap_hist h =
  let open Gstats.Histogram in
  {
    count = count h;
    sum = sum h;
    mean = mean h;
    p50 = percentile h 50.0;
    p90 = percentile h 90.0;
    p99 = percentile h 99.0;
    max = max_value h;
  }

let snapshot () =
  Hashtbl.fold
    (fun name inst acc ->
      let v =
        match inst with
        | ICounter c -> Counter c.c
        | IGauge g -> Gauge g.g
        | IHist h -> Histogram (snap_hist h)
      in
      (name, v) :: acc)
    registry []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let snapshot_json () =
  let jint i = Json.Num (float_of_int i) in
  Json.Obj
    (List.map
       (fun (name, v) ->
         let jv =
           match v with
           | Counter n | Gauge n -> jint n
           | Histogram h ->
             Json.Obj
               [
                 ("count", jint h.count);
                 ("sum", jint h.sum);
                 ("mean", Json.Num h.mean);
                 ("p50", jint h.p50);
                 ("p90", jint h.p90);
                 ("p99", jint h.p99);
                 ("max", jint h.max);
               ]
         in
         (name, jv))
       (snapshot ()))

let reset () =
  Hashtbl.iter
    (fun _ inst ->
      match inst with
      | ICounter c -> c.c <- 0
      | IGauge g -> g.g <- 0
      | IHist h -> Gstats.Histogram.reset h)
    registry
