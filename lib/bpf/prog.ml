(* Restricted fastpath program type (paper §3.5).

   A program is a short straight-line-ish instruction sequence over eight
   integer registers, a read-only kernel snapshot, and a handful of bounded
   int arrays (maps) shared with the installing agent.  The only effect a
   program can have on the kernel is its return value in r0; everything
   else it may mutate is its own declared maps. *)

type hook = Wakeup | Tick | Pick

let nhooks = 3

let hook_index = function Wakeup -> 0 | Tick -> 1 | Pick -> 2

type alu = Add | Sub | Mul | And | Or | Xor | Lsl | Lsr

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type field =
  | Ncpus
  | Cpu_at
  | Idle
  | Latched
  | Curr
  | Curr_ghost
  | Since_dispatch
  | Runnable
  | Thread_seq
  | First_idle
  | Socket
  | Core_class

type insn =
  | Ldi of int * int
  | Mov of int * int
  | Alu of alu * int * int
  | Alui of alu * int * int
  | Ldsnap of int * field * int
  | Ldmap of int * int * int
  | Stmap of int * int * int
  | Jmp of int
  | Jcc of cmp * int * int * int
  | Jcci of cmp * int * int * int
  | Exit

type map_decl = { mid : int; size : int }

type t = {
  name : string;
  hook : hook;
  insns : insn array;
  maps : map_decl list;
}
