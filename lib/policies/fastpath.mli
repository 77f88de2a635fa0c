(** Agent-side companion of the BPF fastpath tier (§3.5).

    Installs the {!Bpf.Kit} programs through the versioned ABI and keeps a
    shared tid ring fed so enclave CPUs dispatch published work without an
    agent round-trip.  All map traffic goes through [Abi.bpf_map_update]/
    [bpf_map_get] and is charged at [Hw.Costs.bpf_map_op].

    Typical use from a policy:
    - [init]: [install_pick]/[install_wakeup]/[install_tick] (+ [set_slice])
    - each [schedule] pass: [reconcile], then [publish] leftover runnable
      tids the pass could not place. *)

type t

val create : ?cap:int -> unit -> t
(** [cap] (default 256) is the ring capacity; must be a power of two. *)

val cap : t -> int

val reconcile : t -> Ghost.Abi.t -> unit
(** Re-read the ring cursors and release consumed slots, making their tids
    publishable again.  Call once per pass before {!publish}. *)

val publish : t -> Ghost.Abi.t -> int -> bool
(** Publish a runnable tid into the ring unless already present or the
    ring is full.  Returns whether a slot was written. *)

val published : t -> int -> bool
(** Is the tid in the ring from an earlier {!publish}, not yet released
    by {!reconcile}?  A local read, charged nothing: when it holds,
    {!publish} of the tid returns [false] without touching the ring. *)

val depth : Ghost.Abi.t -> int
(** Entries currently queued in the ring (tail - head). *)

val install_pick : t -> Ghost.Abi.t -> (unit, string) result
val install_wakeup : Ghost.Abi.t -> (unit, string) result
val install_wakeup_gated : Ghost.Abi.t -> cls_mask:int -> (unit, string) result
val install_tick : t -> Ghost.Abi.t -> (unit, string) result

val set_slice : Ghost.Abi.t -> int -> unit
(** Configure the tick program's preemption timeslice (ns; 0 disables). *)

val set_cls : Ghost.Abi.t -> cls_mask:int -> tid:int -> bool -> unit
(** Mark a tid (hashed by [tid land cls_mask]) wakeup-eligible for the
    gated wakeup program. *)
