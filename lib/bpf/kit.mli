(** Canned fastpath programs and the shared map-layout convention.

    Agent-side publishers (e.g. [Policies.Fastpath]) and the kit
    programs agree on four map ids: a power-of-two tid ring
    ([ring_data]) with head/tail cursors in [ring_meta], a wakeup
    eligibility table ([cls_map], indexed by [tid land cls_mask]), and
    a one-slot config map ([conf_map], slot 0 = timeslice ns). *)

val ring_data : int
val ring_meta : int
val cls_map : int
val conf_map : int

val meta_head : int
val meta_tail : int
val conf_slice : int

(** Pick-hook program: pop the next tid off the shared ring, declining
    when empty.  [cap] must be a power of two. *)
val ring_pick : cap:int -> Prog.t

(** Wakeup-hook program: route every waking thread to the first idle
    enclave cpu (ungated). *)
val wakeup_first_idle : Prog.t

(** Wakeup-hook program gated by [cls_map]: only threads the agent
    marked eligible take the fastpath.  [cls_mask] must be [2^k - 1]. *)
val wakeup_place : cls_mask:int -> Prog.t

(** Tick-hook program: request preemption after a full timeslice
    ([conf_map].(0) ns), pushing the preempted tid onto the ring for the
    pick hook.  [cap] must be a power of two. *)
val tick_requeue : cap:int -> Prog.t
