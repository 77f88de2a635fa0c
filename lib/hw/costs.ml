type t = {
  syscall : int;
  ctx_switch : int;
  cfs_ctx_switch : int;
  msg_produce : int;
  msg_consume : int;
  agent_wakeup : int;
  txn_commit_local : int;
  txn_group_fixed : int;
  txn_group_per_txn : int;
  ipi_wire : int;
  ipi_wire_cross_socket : int;
  ipi_handle : int;
  ipi_handle_group_extra : int;
  smt_contention : float;
  cross_socket_op : float;
  tick_period : int;
  tick_interrupt : int;
  bpf_pick : int;
  bpf_install : int;
  bpf_map_op : int;
  freq_scale : float;
  class_speed : float array;
      (* execution speed per core class: work retired per wall ns.  1.0 is
         the calibrated reference (P) core; an E core at 0.5 takes twice
         the wall time for the same work.  Indexed by Topology class id;
         classes beyond the array default to 1.0. *)
  class_switch_scale : float array;
      (* context-switch cost multiplier per core class (shallower E-core
         pipelines flush cheaper, or pay more for cold caches).  Same
         indexing/default as [class_speed]. *)
  migration_class_extra : int;
      (* extra switch-in cost when a thread migrates between cores of
         different classes (cold uarch state: predictors, prefetchers). *)
}

(* Decomposition solving Table 3 (see costs.mli):
   - line 2: produce 130 + consume 135               = 265
   - line 1: 265 + wakeup 50 + ctx_switch 410        = 725
   - line 3: commit_local 478 + ctx_switch 410       = 888
   - line 4: group_fixed 302 + 1 * per_txn 366       = 668
   - line 5: ipi_handle 654 + ctx_switch 410         = 1064
   - line 6: 668 + wire 40 + 1064                    = 1772
   - line 7: 302 + 10 * 366                          = 3962 (~3964)
   - line 8: 1064 + 9 * extra 84                     = 1820 (~1821) *)
let skylake =
  {
    syscall = 72;
    ctx_switch = 410;
    cfs_ctx_switch = 599;
    msg_produce = 130;
    msg_consume = 135;
    agent_wakeup = 50;
    txn_commit_local = 478;
    txn_group_fixed = 302;
    txn_group_per_txn = 366;
    ipi_wire = 40;
    ipi_wire_cross_socket = 460;
    ipi_handle = 654;
    ipi_handle_group_extra = 84;
    smt_contention = 1.15;
    cross_socket_op = 1.35;
    tick_period = 1_000_000;
    tick_interrupt = 0;
    bpf_pick = 250;
    bpf_install = 65;
    bpf_map_op = 28;
    freq_scale = 1.0;
    class_speed = [| 1.0 |];
    class_switch_scale = [| 1.0 |];
    migration_class_extra = 0;
  }

let scale_i f x = int_of_float (Float.round (f *. float_of_int x))

(* Class lookups tolerate short arrays: class ids past the end behave as
   the reference class, so uniform cost tables never need resizing. *)
let class_speed_of c k =
  if k >= 0 && k < Array.length c.class_speed then c.class_speed.(k) else 1.0

let class_switch_scale_of c k =
  if k >= 0 && k < Array.length c.class_switch_scale then
    c.class_switch_scale.(k)
  else 1.0

let scaled f c =
  {
    c with
    syscall = scale_i f c.syscall;
    ctx_switch = scale_i f c.ctx_switch;
    cfs_ctx_switch = scale_i f c.cfs_ctx_switch;
    msg_produce = scale_i f c.msg_produce;
    msg_consume = scale_i f c.msg_consume;
    agent_wakeup = scale_i f c.agent_wakeup;
    txn_commit_local = scale_i f c.txn_commit_local;
    txn_group_fixed = scale_i f c.txn_group_fixed;
    txn_group_per_txn = scale_i f c.txn_group_per_txn;
    ipi_wire = scale_i f c.ipi_wire;
    ipi_wire_cross_socket = scale_i f c.ipi_wire_cross_socket;
    ipi_handle = scale_i f c.ipi_handle;
    ipi_handle_group_extra = scale_i f c.ipi_handle_group_extra;
    tick_interrupt = scale_i f c.tick_interrupt;
    bpf_pick = scale_i f c.bpf_pick;
    bpf_install = scale_i f c.bpf_install;
    bpf_map_op = scale_i f c.bpf_map_op;
    (* Speed and switch scales are ratios, not nanoseconds: copied, not
       scaled.  The migration surcharge is wall time and scales. *)
    class_speed = Array.copy c.class_speed;
    class_switch_scale = Array.copy c.class_switch_scale;
    migration_class_extra = scale_i f c.migration_class_extra;
  }
