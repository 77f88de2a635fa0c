(** Name -> policy registry.

    Every policy in the library is registered under a stable name; a spec
    string like ["shinjuku?timeslice=30us"] instantiates it with typed
    parameters (see {!Ghost_policy.parse_spec} for the syntax).  Built-in
    names: [fifo-centralized], [fifo-percpu], [central], [shinjuku],
    [snap], [search], [secure-vm]. *)

val register :
  name:string ->
  mode:Ghost_policy.mode ->
  doc:string ->
  ?knobs:Ghost_policy.Knob.spec list ->
  (Ghost_policy.Params.t ->
  Ghost.Agent.policy * (unit -> (string * int) list)) ->
  unit
(** Add a policy.  [knobs] declares its spec-string parameters for
    discovery ([ghost_bench_cli policies]); the constructor reads each
    back by its spec through {!Ghost_policy.Params}.  Raises
    [Invalid_argument] on duplicate names. *)

val names : unit -> string list
(** Registered names, sorted. *)

val doc : string -> string

(** Discovery record for one registered policy. *)
type info = {
  info_name : string;
  info_mode : Ghost_policy.mode;
  info_doc : string;
  info_knobs : Ghost_policy.Knob.spec list;
}

val info : string -> info
(** Raises [Invalid_argument] for unknown policies. *)

val infos : unit -> info list
(** All registered policies, sorted by name. *)

val make : string -> Ghost_policy.instance
(** Instantiate from a spec string.  Raises [Invalid_argument] for unknown
    policies, unknown parameters, ill-typed values, or a negative value of
    a Time knob. *)

val attach :
  ?min_iteration:int ->
  ?idle_gap:int ->
  Ghost.System.t ->
  Ghost.System.enclave ->
  Ghost_policy.instance ->
  Ghost.Agent.group
(** Attach in the instance's mode ([`Global] spins one agent, [`Local] runs
    one per CPU).  [min_iteration]/[idle_gap] apply to global agents only. *)

val publish_stats : Ghost_policy.instance -> unit
(** Snapshot the instance's stats into {!Obs.Metrics} gauges named
    [policy.<name>.<stat>]. *)
