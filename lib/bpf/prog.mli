(** Restricted fastpath program type (paper §3.5).

    Programs are pure decision functions: eight integer registers, a
    read-only {!Snapshot.t} of kernel state, and bounded int-keyed maps
    shared with the installing agent.  The only kernel-visible effect is
    the value left in register 0 at [Exit]; the kernel validates that
    result before acting on it.  {!Verifier.verify} statically bounds
    every program before the kernel will accept it. *)

(** Hook points the kernel consults before falling back to the agent. *)
type hook =
  | Wakeup  (** a managed thread became runnable; r1 = tid, r2 = last cpu.
                Result: cpu to latch the thread onto, or -1 to decline. *)
  | Tick  (** timer tick on a cpu running a managed thread; r1 = tid,
              r2 = ns since dispatch.  Result: 1 to preempt (the program
              is expected to have requeued the thread into a map the
              agent drains or a ring the pick hook pops), else decline. *)
  | Pick  (** a cpu would otherwise go idle; r1 = cpu, r2 = attempt.
              Result: tid to dispatch next, or -1 to decline. *)

val nhooks : int
val hook_index : hook -> int

(** ALU operations.  Register-operand [Lsl]/[Lsr] are rejected by the
    verifier (unbounded shift); the immediate forms are allowed. *)
type alu = Add | Sub | Mul | And | Or | Xor | Lsl | Lsr

type cmp = Eq | Ne | Lt | Le | Gt | Ge

(** Read-only snapshot fields, loaded via [Ldsnap].  Indexed fields take
    their argument (cpu or tid) from the source register. *)
type field =
  | Ncpus  (** number of cpus in the enclave (no argument) *)
  | Cpu_at  (** i-th enclave cpu, -1 out of range *)
  | Idle  (** cpu idle? 0/1 *)
  | Latched  (** tid latched on cpu, -1 if none *)
  | Curr  (** tid running on cpu, -1 if none *)
  | Curr_ghost  (** cpu running a thread of this enclave? 0/1 *)
  | Since_dispatch  (** ns since current thread dispatched on cpu *)
  | Runnable  (** tid runnable? 0/1 *)
  | Thread_seq  (** status-word seqcount for tid, -1 unknown *)
  | First_idle  (** lowest-numbered idle enclave cpu, -1 (no argument) *)
  | Socket  (** socket id of cpu, -1 out of range *)
  | Core_class  (** capability class of cpu's core (0 = P), -1 out of range *)

(** Instructions over registers r0..r7.  r0 is the result register;
    r1/r2 carry the hook arguments on entry.  All jump offsets are
    relative to the next instruction and must be non-negative (the
    verifier enforces a forward-only control-flow DAG). *)
type insn =
  | Ldi of int * int  (** [Ldi (dst, imm)]: dst <- imm *)
  | Mov of int * int  (** [Mov (dst, src)]: dst <- src *)
  | Alu of alu * int * int  (** [Alu (op, dst, src)]: dst <- dst op src *)
  | Alui of alu * int * int  (** [Alui (op, dst, imm)]: dst <- dst op imm *)
  | Ldsnap of int * field * int
      (** [Ldsnap (dst, field, src)]: dst <- snapshot field at index src *)
  | Ldmap of int * int * int
      (** [Ldmap (dst, map, idx)]: dst <- map\[r(idx)\] *)
  | Stmap of int * int * int
      (** [Stmap (map, idx, src)]: map\[r(idx)\] <- src *)
  | Jmp of int  (** unconditional forward jump *)
  | Jcc of cmp * int * int * int
      (** [Jcc (cmp, a, b, off)]: jump if r(a) cmp r(b) *)
  | Jcci of cmp * int * int * int
      (** [Jcci (cmp, a, imm, off)]: jump if r(a) cmp imm *)
  | Exit  (** return r0 *)

(** Declaration of a bounded shared map: id and element count. *)
type map_decl = { mid : int; size : int }

type t = {
  name : string;
  hook : hook;
  insns : insn array;
  maps : map_decl list;
}
