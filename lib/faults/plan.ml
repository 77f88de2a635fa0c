type kind =
  | Crash
  | Upgrade of { handoff_gap : int; abi : int option }
  | Stall of { duration : int }
  | Slow of { penalty : int; duration : int }
  | Burst of { count : int }

type event = { at : int; jitter : int; kind : kind }

type t = { name : string; events : event list }

let empty = { name = "none"; events = [] }

let make ~name events =
  List.iter
    (fun ev ->
      if ev.at < 0 then invalid_arg "Plan.make: negative event time";
      if ev.jitter < 0 then invalid_arg "Plan.make: negative jitter")
    events;
  { name; events = List.stable_sort (fun a b -> compare a.at b.at) events }

let is_empty t = t.events = []

let kind_to_string = function
  | Crash -> "crash"
  | Upgrade _ -> "upgrade"
  | Stall _ -> "stall"
  | Slow _ -> "slow"
  | Burst _ -> "burst"

(* --- Rendering ---------------------------------------------------------------- *)

let time_to_string ns =
  if ns = 0 then "0"
  else if ns mod 1_000_000_000 = 0 then Printf.sprintf "%ds" (ns / 1_000_000_000)
  else if ns mod 1_000_000 = 0 then Printf.sprintf "%dms" (ns / 1_000_000)
  else if ns mod 1_000 = 0 then Printf.sprintf "%dus" (ns / 1_000)
  else Printf.sprintf "%dns" ns

let event_to_string ev =
  let base =
    match ev.kind with
    | Crash -> Printf.sprintf "crash@%s" (time_to_string ev.at)
    | Upgrade { handoff_gap; abi } ->
      Printf.sprintf "upgrade@%s:gap=%s%s" (time_to_string ev.at)
        (time_to_string handoff_gap)
        (match abi with
        | Some v -> Printf.sprintf ":abi=%d" v
        | None -> "")
    | Stall { duration } ->
      Printf.sprintf "stall@%s:for=%s" (time_to_string ev.at)
        (time_to_string duration)
    | Slow { penalty; duration } ->
      Printf.sprintf "slow@%s:penalty=%s:for=%s" (time_to_string ev.at)
        (time_to_string penalty) (time_to_string duration)
    | Burst { count } ->
      Printf.sprintf "burst@%s:n=%d" (time_to_string ev.at) count
  in
  if ev.jitter > 0 then base ^ ":jitter=" ^ time_to_string ev.jitter else base

let to_string t =
  if t.events = [] then "none"
  else String.concat "," (List.map event_to_string t.events)

(* --- Parsing ------------------------------------------------------------------ *)

let parse_time s =
  (* A count whose product overflows is no time: "10000000000s" would
     otherwise wrap to some other instant. *)
  let suffixed suffix scale =
    let n = String.length s and m = String.length suffix in
    if n > m && String.sub s (n - m) m = suffix then
      match int_of_string_opt (String.sub s 0 (n - m)) with
      | Some v when v <= max_int / scale && v >= -(max_int / scale) ->
        Some (v * scale)
      | Some _ | None -> None
    else None
  in
  (* "ns" before "s": both end in 's'. *)
  match suffixed "ns" 1 with
  | Some v -> Some v
  | None -> (
    match suffixed "us" 1_000 with
    | Some v -> Some v
    | None -> (
      match suffixed "ms" 1_000_000 with
      | Some v -> Some v
      | None -> (
        match suffixed "s" 1_000_000_000 with
        | Some v -> Some v
        | None -> int_of_string_opt s)))

let parse_opts parts =
  List.fold_left
    (fun acc part ->
      match (acc, String.index_opt part '=') with
      | Error _, _ -> acc
      | Ok opts, Some i ->
        let key = String.sub part 0 i in
        let v = String.sub part (i + 1) (String.length part - i - 1) in
        Ok ((key, v) :: opts)
      | Ok _, None -> Error (Printf.sprintf "malformed option %S (want key=value)" part))
    (Ok []) parts

let opt_time opts key ~default =
  match List.assoc_opt key opts with
  | None -> Ok default
  | Some v -> (
    match parse_time v with
    | Some t when t >= 0 -> Ok t
    | Some _ | None -> Error (Printf.sprintf "bad time %S for %s" v key))

let opt_int opts key ~default =
  match List.assoc_opt key opts with
  | None -> Ok default
  | Some v -> (
    match int_of_string_opt v with
    | Some n when n >= 0 -> Ok n
    | Some _ | None -> Error (Printf.sprintf "bad count %S for %s" v key))

let ( let* ) = Result.bind

(* The option keys each kind takes, besides [jitter]. *)
let keys_of = function
  | Crash -> []
  | Upgrade _ -> [ "gap"; "abi" ]
  | Stall _ -> [ "for" ]
  | Slow _ -> [ "penalty"; "for" ]
  | Burst _ -> [ "n" ]

(* A key the kind does not take, or one given twice, would otherwise be
   ignored, and the event would run with a default the user did not ask
   for.  [opts] is in reverse order, so the first bad key is reported. *)
let check_keys kind_s kind opts =
  let keys = List.rev_map fst opts in
  let rec go seen = function
    | [] -> Ok ()
    | key :: rest ->
      if List.mem key seen then Error (Printf.sprintf "option %S given twice" key)
      else if key <> "jitter" && not (List.mem key (keys_of kind)) then
        Error (Printf.sprintf "%s takes no option %S" kind_s key)
      else go (key :: seen) rest
  in
  go [] keys

let parse_event spec =
  match String.split_on_char ':' spec with
  | [] -> Error "empty event"
  | head :: opt_parts -> (
    match String.index_opt head '@' with
    | None -> Error (Printf.sprintf "event %S lacks an @TIME" head)
    | Some i -> (
      let kind_s = String.sub head 0 i in
      let time_s = String.sub head (i + 1) (String.length head - i - 1) in
      match parse_time time_s with
      | None -> Error (Printf.sprintf "bad time %S" time_s)
      | Some at when at >= 0 ->
        let* opts = parse_opts opt_parts in
        let* jitter = opt_time opts "jitter" ~default:0 in
        let* kind =
          match kind_s with
          | "crash" -> Ok Crash
          | "upgrade" ->
            (* Default gap is half the 200us agent-crash grace period, so a
               plain "upgrade@T" hands off before destruction can race it. *)
            let* handoff_gap = opt_time opts "gap" ~default:100_000 in
            let* abi =
              match List.assoc_opt "abi" opts with
              | None -> Ok None
              | Some v -> (
                match int_of_string_opt v with
                | Some n when n >= 0 -> Ok (Some n)
                | Some _ | None ->
                  Error (Printf.sprintf "bad abi version %S" v))
            in
            Ok (Upgrade { handoff_gap; abi })
          | "stall" | "stuck" ->
            let* duration = opt_time opts "for" ~default:20_000_000 in
            Ok (Stall { duration })
          | "slow" ->
            let* penalty = opt_time opts "penalty" ~default:50_000 in
            let* duration = opt_time opts "for" ~default:20_000_000 in
            Ok (Slow { penalty; duration })
          | "burst" ->
            let* count = opt_int opts "n" ~default:100_000 in
            Ok (Burst { count })
          | other -> Error (Printf.sprintf "unknown fault kind %S" other)
        in
        let* () = check_keys kind_s kind opts in
        Ok { at; jitter; kind }
      | Some _ -> Error "negative time"))

let parse spec =
  let spec = String.trim spec in
  if spec = "" || spec = "none" then Ok empty
  else begin
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | part :: rest -> (
        match parse_event (String.trim part) with
        | Ok ev -> go (ev :: acc) rest
        | Error e -> Error e)
    in
    match go [] (String.split_on_char ',' spec) with
    | Ok events -> Ok (make ~name:spec events)
    | Error e -> Error e
  end

(* --- Presets ------------------------------------------------------------------ *)

let preset_names = [ "none"; "crash"; "upgrade"; "stuck"; "slow"; "burst" ]

let preset name ~at =
  let ev kind = Some (make ~name [ { at; jitter = 0; kind } ]) in
  match name with
  | "none" -> Some empty
  | "crash" -> ev Crash
  | "upgrade" -> ev (Upgrade { handoff_gap = 100_000; abi = None })
  | "stuck" -> ev (Stall { duration = 50_000_000 })
  | "slow" -> ev (Slow { penalty = 50_000; duration = 20_000_000 })
  | "burst" -> ev (Burst { count = 100_000 })
  | _ -> None
