(** The uniform policy contract behind {!Registry}.

    Every scheduling policy in this library can be described by a name, an
    agent {!mode} (one spinning global agent vs. one agent per CPU), a set
    of typed construction parameters, and a stats snapshot.  Spec strings
    like ["shinjuku?timeslice=30us&shenango_ext=true"] parse into a name
    plus parameters; time values accept [ns]/[us]/[ms]/[s] suffixes and
    normalize to nanoseconds. *)

type mode = [ `Global | `Local ]

type value = Int of int | Bool of bool | Float of float | String of string

val parse_value : string -> value
(** Booleans, integers, suffixed times (to ns), floats, else strings. *)

val parse_spec : string -> string * (string * value) list
(** ["name?k=v&k2=v2"] -> [("name", [(k, v); ...])].  A key without [=] is
    a boolean flag. *)

(** A knob is a declared, typed parameter: the registry parses it from the
    spec string ("shinjuku?timeslice=30us"), the CLI lists it with its
    default ([ghost_bench_cli policies]), and resolved values auto-publish
    as [policy.<name>.knob.<key>] Obs gauges at stats-publication time. *)
module Knob : sig
  type kind = Time | Int | Bool | Float | String

  type spec = {
    key : string;
    kind : kind;
    default : value option;  (** [None] renders as "unset" *)
    doc : string;
  }

  val time : string -> default:int -> string -> spec
  (** [time key ~default doc]: a duration knob, default in ns. *)

  val time_opt : string -> string -> spec
  (** A duration knob with no default (e.g. an optional timeslice). *)

  val int : string -> default:int -> string -> spec
  val bool : string -> default:bool -> string -> spec
  val string : string -> default:string -> string -> spec

  val render_default : spec -> string
end

(** Parameter reader handed to a policy's [make]: each accessor consumes a
    declared knob's key and returns the spec's value, else the knob's
    default, and {!Params.finish} rejects any leftover (unknown) keys.  The
    accessors raise [Invalid_argument] on a value of the wrong type or a
    negative [Time]; [int], [bool] and [string] need a knob with a
    default. *)
module Params : sig
  type t

  val of_list : policy:string -> (string * value) list -> t
  val int : t -> Knob.spec -> int
  val int_opt : t -> Knob.spec -> int option
  val bool : t -> Knob.spec -> bool
  val string : t -> Knob.spec -> string

  val finish : t -> unit
  (** Raises [Invalid_argument] naming any unconsumed keys. *)

  val consumed : t -> (string * value) list
  (** Every (key, resolved value) the accessors saw so far, in consumption
      order, defaults included — the instance's effective knob settings. *)
end

(** A constructed, attachable policy instance. *)
type instance = {
  spec : string;
  name : string;
  mode : mode;
  policy : Ghost.Agent.policy;
  stats : unit -> (string * int) list;
  knobs : (string * value) list;
      (** resolved knob values, defaults included *)
}
