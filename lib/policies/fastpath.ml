(* Agent-side companion of the BPF fastpath tier (§3.5).

   Wraps the Bpf.Kit map-layout convention over the versioned ABI calls:
   installs the canned programs and keeps publishing runnable tids into
   the shared ring so a CPU that would otherwise idle between agent
   passes picks one up without a round-trip.

   The agent mirrors its own ring writes ([mirror]/[present]) so a tid is
   published at most once until the kernel consumes its slot.  The tick
   program also produces into the same ring, which is why [reconcile]
   reads both cursors back from the map instead of trusting local state:
   the map is the single source of truth, the mirror only remembers which
   slots carry *our* entries.  Duplicates that slip through (e.g. a tick
   requeue racing a publish) cost one validation miss in the kernel,
   never a lost thread — the policy's own queue still holds every tid. *)

module Abi = Ghost.Abi

type t = {
  cap : int;
  mask : int;
  mirror : int array;  (* ring slot -> tid we published there, or -1 *)
  mutable present : Bytes.t;  (* bit [tid]: currently published by us *)
  mutable head_seen : int;  (* consumer cursor at our last reconcile *)
}

let create ?(cap = 256) () =
  if cap <= 0 || cap land (cap - 1) <> 0 then
    invalid_arg "Fastpath.create: cap must be a power of two";
  {
    cap;
    mask = cap - 1;
    mirror = Array.make cap (-1);
    present = Bytes.make 64 '\000';
    head_seen = 0;
  }

let cap t = t.cap

let published t tid =
  let byte = tid lsr 3 in
  byte < Bytes.length t.present
  && Char.code (Bytes.get t.present byte) land (1 lsl (tid land 7)) <> 0

let set_present t tid on =
  let byte = tid lsr 3 in
  let len = Bytes.length t.present in
  if byte >= len then begin
    let grown = Bytes.make (Int.max (byte + 1) (2 * len)) '\000' in
    Bytes.blit t.present 0 grown 0 len;
    t.present <- grown
  end;
  let bits = Char.code (Bytes.get t.present byte) in
  let bit = 1 lsl (tid land 7) in
  Bytes.set t.present byte
    (Char.chr (if on then bits lor bit else bits land lnot bit))

let cursors ctx =
  let head =
    match Abi.bpf_map_get ctx ~map:Bpf.Kit.ring_meta ~idx:Bpf.Kit.meta_head with
    | Some h -> h
    | None -> 0
  in
  let tail =
    match Abi.bpf_map_get ctx ~map:Bpf.Kit.ring_meta ~idx:Bpf.Kit.meta_tail with
    | Some t -> t
    | None -> 0
  in
  (head, tail)

(* Drop consumed slots from the mirror so their tids become publishable
   again.  Call once per agent pass, before publishing. *)
let reconcile t ctx =
  let head, _tail = cursors ctx in
  let consumed = head - t.head_seen in
  if consumed >= t.cap then begin
    Array.fill t.mirror 0 t.cap (-1);
    Bytes.fill t.present 0 (Bytes.length t.present) '\000'
  end
  else
    for i = t.head_seen to head - 1 do
      let slot = i land t.mask in
      let tid = t.mirror.(slot) in
      if tid >= 0 then begin
        t.mirror.(slot) <- -1;
        set_present t tid false
      end
    done;
  t.head_seen <- head

(* Publish [tid] into the ring unless it is already there or the ring is
   full.  Returns whether a slot was written. *)
let publish t ctx tid =
  if published t tid then false
  else begin
    let head, tail = cursors ctx in
    if tail - head >= t.cap then false
    else begin
      let slot = tail land t.mask in
      ignore (Abi.bpf_map_update ctx ~map:Bpf.Kit.ring_data ~idx:slot tid);
      ignore
        (Abi.bpf_map_update ctx ~map:Bpf.Kit.ring_meta ~idx:Bpf.Kit.meta_tail
           (tail + 1));
      (* A tick-program entry may still sit in this slot's mirror position
         from a previous lap; ours replaces it. *)
      (let old = t.mirror.(slot) in
       if old >= 0 then set_present t old false);
      t.mirror.(slot) <- tid;
      set_present t tid true;
      true
    end
  end

let depth ctx =
  let head, tail = cursors ctx in
  tail - head

(* --- Program installation helpers ----------------------------------- *)

let install_pick t ctx = Abi.bpf_install ctx (Bpf.Kit.ring_pick ~cap:t.cap)

let install_wakeup ctx = Abi.bpf_install ctx Bpf.Kit.wakeup_first_idle

let install_wakeup_gated ctx ~cls_mask =
  Abi.bpf_install ctx (Bpf.Kit.wakeup_place ~cls_mask)

let install_tick t ctx = Abi.bpf_install ctx (Bpf.Kit.tick_requeue ~cap:t.cap)

let set_slice ctx ns =
  ignore (Abi.bpf_map_update ctx ~map:Bpf.Kit.conf_map ~idx:Bpf.Kit.conf_slice ns)

let set_cls ctx ~cls_mask ~tid eligible =
  ignore
    (Abi.bpf_map_update ctx ~map:Bpf.Kit.cls_map ~idx:(tid land cls_mask)
       (if eligible then 1 else 0))
