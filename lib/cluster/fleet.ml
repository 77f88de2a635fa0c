(* The fleet controller: the PR-4 colocation controller one level up.

   Where that controller watches one machine's policy backlog and lends
   CPUs between enclaves, this one watches gossiped per-machine queue
   depths and rebalances request routing across machines.  Each control
   period it turns the latest received depths into target weights
   (w_i proportional to 1 / (1 + depth_i) — an overloaded machine's share
   shrinks toward, but never fully to, zero) and moves the live weights a
   smoothing step toward them, so one gossip blip cannot slosh the whole
   fleet's traffic. *)

type t = {
  signals : int array;  (* latest gossiped depth per machine (after net delay) *)
  target : float array;  (* scratch: this period's target weights *)
  mutable rebalances : int;  (* periods where weights materially moved *)
}

(* Fraction of the gap to the target weights closed per period. *)
let smoothing = 0.3

let create n =
  { signals = Array.make n 0; target = Array.make n 0.0; rebalances = 0 }

let note_signal t ~mid ~depth = t.signals.(mid) <- depth
let rebalances t = t.rebalances

(* One control period: fold signals into the balancer's weights.  Counted
   as a rebalance when any weight moved by more than 1% absolute. *)
let rebalance t balancer =
  let n = Array.length t.signals in
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    let w = 1.0 /. (1.0 +. float_of_int t.signals.(i)) in
    t.target.(i) <- w;
    total := !total +. w
  done;
  let w = Balancer.weights balancer in
  let moved = ref false in
  let next = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let tgt = t.target.(i) /. !total in
    let v = w.(i) +. (smoothing *. (tgt -. w.(i))) in
    if Float.abs (v -. w.(i)) > 0.01 then moved := true;
    next.(i) <- v
  done;
  Balancer.set_weights balancer next;
  if !moved then t.rebalances <- t.rebalances + 1
