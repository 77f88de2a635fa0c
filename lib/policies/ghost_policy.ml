(* The uniform policy contract: typed construction parameters, an agent
   mode, and a stats snapshot.  [Registry] builds on this to instantiate
   any policy from a "name?key=value&..." spec string. *)

module Agent = Ghost.Agent

type mode = [ `Global | `Local ]

type value =
  | Int of int  (* plain integers and time values, normalized to ns *)
  | Bool of bool
  | Float of float
  | String of string

let value_to_string = function
  | Int i -> string_of_int i
  | Bool b -> string_of_bool b
  | Float f -> string_of_float f
  | String s -> s

(* "30us" -> Int 30_000; "0.5ms" -> Int 500_000.  Longest suffix first so
   "ns" is not mistaken for "s".  A product that is not finite or does not
   fit an int ("nanus", "1e30s") is no time, so the value stays a string
   and an int accessor rejects it. *)
let time_suffixes = [ ("ns", 1.); ("us", 1e3); ("ms", 1e6); ("s", 1e9) ]

let parse_time s =
  let try_suffix (suf, mult) =
    let ls = String.length s and lf = String.length suf in
    if ls > lf && String.sub s (ls - lf) lf = suf then
      match float_of_string_opt (String.sub s 0 (ls - lf)) with
      | Some f ->
        let ns = f *. mult in
        if Float.abs ns < 0x1p62 then Some (Int (int_of_float ns)) else None
      | None -> None
    else None
  in
  List.find_map try_suffix time_suffixes

let parse_value s =
  match bool_of_string_opt s with
  | Some b -> Bool b
  | None -> (
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> (
      match parse_time s with
      | Some v -> v
      | None -> (
        match float_of_string_opt s with
        | Some f -> Float f
        | None -> String s)))

(* "name?k=v&k2=v2" -> ("name", [(k, v); (k2, v2)]).  A key without '='
   is a boolean flag. *)
let parse_spec spec =
  match String.index_opt spec '?' with
  | None -> (spec, [])
  | Some i ->
    let name = String.sub spec 0 i in
    let rest = String.sub spec (i + 1) (String.length spec - i - 1) in
    let kvs =
      String.split_on_char '&' rest
      |> List.filter (fun s -> s <> "")
      |> List.map (fun kv ->
             match String.index_opt kv '=' with
             | None -> (kv, Bool true)
             | Some j ->
               ( String.sub kv 0 j,
                 parse_value (String.sub kv (j + 1) (String.length kv - j - 1))
               ))
    in
    (name, kvs)

(* A knob is a declared, typed parameter: the registry parses it from the
   spec string ("shinjuku?timeslice=30us"), the CLI lists it with its
   default, and resolved values auto-publish as [policy.<name>.knob.<key>]
   Obs gauges at stats-publication time. *)
module Knob = struct
  type kind = Time | Int | Bool | Float | String

  type spec = {
    key : string;
    kind : kind;
    default : value option;  (* [None] renders as "unset" *)
    doc : string;
  }

  let time key ~default doc = { key; kind = Time; default = Some (Int default); doc }
  let time_opt key doc = { key; kind = Time; default = None; doc }
  let int key ~default doc = { key; kind = Int; default = Some (Int default); doc }
  let bool key ~default doc = { key; kind = Bool; default = Some (Bool default); doc }

  let string key ~default doc =
    { key; kind = String; default = Some (String default); doc }

  let render_time ns =
    if ns <> 0 && ns mod 1_000_000_000 = 0 then
      Printf.sprintf "%ds" (ns / 1_000_000_000)
    else if ns <> 0 && ns mod 1_000_000 = 0 then
      Printf.sprintf "%dms" (ns / 1_000_000)
    else if ns <> 0 && ns mod 1_000 = 0 then Printf.sprintf "%dus" (ns / 1_000)
    else Printf.sprintf "%dns" ns

  let render_default spec =
    match (spec.kind, spec.default) with
    | _, None -> "unset"
    | Time, Some (Int ns) -> render_time ns
    | _, Some v -> value_to_string v
end

(* Parameter reader: each accessor consumes a declared knob's key; [finish]
   rejects leftovers so a typo in a spec fails loudly instead of silently
   using a default. *)
module Params = struct
  type t = {
    policy : string;
    mutable remaining : (string * value) list;
    mutable consumed : (string * value) list;  (* resolved, defaults included *)
  }

  let of_list ~policy kvs = { policy; remaining = kvs; consumed = [] }

  let take p key =
    match List.assoc_opt key p.remaining with
    | None -> None
    | Some v ->
      p.remaining <- List.remove_assoc key p.remaining;
      Some v

  let bad p key v expected =
    invalid_arg
      (Printf.sprintf "policy %s: parameter %s=%s is not a %s" p.policy key
         (value_to_string v) expected)

  let record p key v =
    p.consumed <- (key, v) :: p.consumed

  (* The knob's value in the spec, else its default.  A duration is never
     negative; zero stays valid (it disables some knobs, e.g. search's
     pending_wait). *)
  let given p (k : Knob.spec) =
    match take p k.key with
    | Some (Int ns) when k.kind = Knob.Time && ns < 0 ->
      invalid_arg
        (Printf.sprintf "policy %s: parameter %s=%dns is a negative time"
           p.policy k.key ns)
    | Some v -> Some v
    | None -> k.default

  let int_opt p (k : Knob.spec) =
    match given p k with
    | None -> None
    | Some (Int i) ->
      record p k.key (Int i);
      Some i
    | Some v -> bad p k.key v "time/int"

  let int p k = Option.get (int_opt p k)

  let bool p (k : Knob.spec) =
    match Option.get (given p k) with
    | Bool b ->
      record p k.key (Bool b);
      b
    | v -> bad p k.key v "bool"

  let string p (k : Knob.spec) =
    let s =
      match Option.get (given p k) with String s -> s | v -> value_to_string v
    in
    record p k.key (String s);
    s

  let consumed p = List.rev p.consumed

  let finish p =
    match p.remaining with
    | [] -> ()
    | kvs ->
      invalid_arg
        (Printf.sprintf "policy %s: unknown parameter(s): %s" p.policy
           (String.concat ", " (List.map fst kvs)))
end

(* A constructed, attachable policy. *)
type instance = {
  spec : string;  (* the full spec string it was built from *)
  name : string;  (* registered name *)
  mode : mode;
  policy : Agent.policy;
  stats : unit -> (string * int) list;  (* live snapshot, sorted keys *)
  knobs : (string * value) list;  (* resolved knob values, defaults included *)
}
