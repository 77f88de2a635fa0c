(* Zero-alloc interpreter for verified fastpath programs.

   The register file is preallocated in [t] and reused across runs, so
   executing a program on the kernel hot path allocates nothing.  The
   verifier has already proven termination and map bounds; the bounds
   and budget checks here are defense in depth and return -1 (decline)
   rather than raising. *)

type t = { regs : int array }

let create () = { regs = Array.make Verifier.nregs 0 }

let cmp_eval c a b =
  match c with
  | Prog.Eq -> a = b
  | Prog.Ne -> a <> b
  | Prog.Lt -> a < b
  | Prog.Le -> a <= b
  | Prog.Gt -> a > b
  | Prog.Ge -> a >= b

let alu_eval op a b =
  match op with
  | Prog.Add -> a + b
  | Prog.Sub -> a - b
  | Prog.Mul -> a * b
  | Prog.And -> a land b
  | Prog.Or -> a lor b
  | Prog.Xor -> a lxor b
  | Prog.Lsl -> a lsl (b land 63)
  | Prog.Lsr -> a lsr (b land 63)

let run t v ~(snap : Snapshot.t) ~(maps : int array array) ~r1 ~r2 =
  let p = Verifier.prog v in
  let insns = p.Prog.insns in
  let len = Array.length insns in
  let regs = t.regs in
  (* Plain stores: [Array.fill] is a C call on every program run. *)
  regs.(0) <- 0;
  regs.(1) <- r1;
  regs.(2) <- r2;
  for r = 3 to Verifier.nregs - 1 do
    regs.(r) <- 0
  done;
  let rec exec pc steps =
    if steps <= 0 || pc < 0 || pc >= len then -1
    else
      match insns.(pc) with
      | Prog.Exit -> regs.(0)
      | Prog.Ldi (d, imm) ->
          regs.(d) <- imm;
          exec (pc + 1) (steps - 1)
      | Prog.Mov (d, s) ->
          regs.(d) <- regs.(s);
          exec (pc + 1) (steps - 1)
      | Prog.Alu (op, d, s) ->
          regs.(d) <- alu_eval op regs.(d) regs.(s);
          exec (pc + 1) (steps - 1)
      | Prog.Alui (op, d, imm) ->
          regs.(d) <- alu_eval op regs.(d) imm;
          exec (pc + 1) (steps - 1)
      | Prog.Ldsnap (d, f, s) ->
          let a = regs.(s) in
          regs.(d) <-
            (match f with
            | Prog.Ncpus -> snap.ncpus ()
            | Prog.Cpu_at -> snap.cpu_at a
            | Prog.Idle -> snap.idle a
            | Prog.Latched -> snap.latched a
            | Prog.Curr -> snap.curr a
            | Prog.Curr_ghost -> snap.curr_ghost a
            | Prog.Since_dispatch -> snap.since_dispatch a
            | Prog.Runnable -> snap.runnable a
            | Prog.Thread_seq -> snap.thread_seq a
            | Prog.First_idle -> snap.first_idle ()
            | Prog.Socket -> snap.socket a
            | Prog.Core_class -> snap.core_class a);
          exec (pc + 1) (steps - 1)
      | Prog.Ldmap (d, m, i) ->
          if m < 0 || m >= Array.length maps then -1
          else
            let arr = maps.(m) in
            let idx = regs.(i) in
            if idx < 0 || idx >= Array.length arr then -1
            else (
              regs.(d) <- arr.(idx);
              exec (pc + 1) (steps - 1))
      | Prog.Stmap (m, i, s) ->
          if m < 0 || m >= Array.length maps then -1
          else
            let arr = maps.(m) in
            let idx = regs.(i) in
            if idx < 0 || idx >= Array.length arr then -1
            else (
              arr.(idx) <- regs.(s);
              exec (pc + 1) (steps - 1))
      | Prog.Jmp off -> exec (pc + 1 + off) (steps - 1)
      | Prog.Jcc (c, a, b, off) ->
          if cmp_eval c regs.(a) regs.(b) then exec (pc + 1 + off) (steps - 1)
          else exec (pc + 1) (steps - 1)
      | Prog.Jcci (c, a, imm, off) ->
          if cmp_eval c regs.(a) imm then exec (pc + 1 + off) (steps - 1)
          else exec (pc + 1) (steps - 1)
  in
  exec 0 (Verifier.max_steps v)
