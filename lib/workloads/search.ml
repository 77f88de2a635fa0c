module Task = Kernel.Task
module Topology = Hw.Topology

type qtype = A | B | C

type query = { arrival : int; qtype : qtype; mutable remaining : int }

type sub = { q : query; base : int; home_socket : int option }

type t = {
  kernel : Kernel.t;
  rng : Sim.Rng.t;
  rate_a : float;
  rate_b : float;
  rate_c : float;
  ts : (qtype, Gstats.Timeseries.t) Hashtbl.t;
  recs : (qtype, Recorder.t) Hashtbl.t;
  done_counts : (qtype, int ref) Hashtbl.t;
  last_ccx : (int, int) Hashtbl.t;  (* worker tid -> ccx it last ran on *)
  mutable moves : int;
  mutable pool_a : sub Pool.t array;  (* one per socket *)
  mutable pool_b : sub Pool.t option;
  mutable pool_c : sub Pool.t option;
  mutable record_after : int;
}

let series t q = Hashtbl.find t.ts q
let recorder t q = Hashtbl.find t.recs q
let completed t q = !(Hashtbl.find t.done_counts q)
let ccx_moves t = t.moves
let set_record_after t time = t.record_after <- time

(* Cold-cache penalty: resuming on a new CCX costs ~30% extra on memory
   bound work (cross-CCX L3 refill on Rome). *)
let locality_factor t (task : Task.t) =
  let topo = Kernel.topo t.kernel in
  let ccx = Topology.ccx_of topo task.Task.cpu in
  let factor =
    match Hashtbl.find_opt t.last_ccx task.Task.tid with
    | Some c when c = ccx -> 1.0
    | Some _ ->
      t.moves <- t.moves + 1;
      1.30
    | None -> 1.0
  in
  Hashtbl.replace t.last_ccx task.Task.tid ccx;
  factor

let finish_sub t (s : sub) =
  let q = s.q in
  q.remaining <- q.remaining - 1;
  if q.remaining = 0 then begin
    let now = Kernel.now t.kernel in
    if q.arrival >= t.record_after then begin
      let lat = now - q.arrival in
      Gstats.Timeseries.record (series t q.qtype) ~time:now lat;
      Recorder.record_value (recorder t q.qtype) lat
    end;
    let c = Hashtbl.find t.done_counts q.qtype in
    incr c
  end

let scale f ns = int_of_float (Float.round (f *. float_of_int ns))

let work_a t (s : sub) task =
  (* Type A touches the query's in-memory data: running on the wrong socket
     pays remote-DRAM latency on top of any cold-CCX penalty (4.4). *)
  let numa_factor =
    match s.home_socket with
    | Some home
      when Topology.socket_of (Kernel.topo t.kernel) task.Task.cpu <> home ->
      1.35
    | Some _ | None -> 1.0
  in
  [ Pool.Compute (scale (numa_factor *. locality_factor t task) s.base) ]

let work_b t (s : sub) _task =
  let io = 1_000_000 + Sim.Rng.int t.rng 5_000_000 in
  [ Pool.Compute 75_000; Pool.Io io; Pool.Compute (s.base / 4) ]

let work_c t (s : sub) task =
  [ Pool.Compute (scale (locality_factor t task) s.base) ]

let submit_query t qtype =
  let now = Kernel.now t.kernel in
  match qtype with
  | A ->
    let nsockets = Array.length t.pool_a in
    let socket = Sim.Rng.int t.rng nsockets in
    let fanout = 4 in
    let q = { arrival = now; qtype; remaining = fanout } in
    for _ = 1 to fanout do
      let base = 400_000 + Sim.Rng.int t.rng 400_000 in
      Pool.submit t.pool_a.(socket) { q; base; home_socket = Some socket }
    done
  | B ->
    let fanout = 2 in
    let q = { arrival = now; qtype; remaining = fanout } in
    let pool = match t.pool_b with Some p -> p | None -> assert false in
    for _ = 1 to fanout do
      let base = 400_000 + Sim.Rng.int t.rng 200_000 in
      Pool.submit pool { q; base; home_socket = None }
    done
  | C ->
    let q = { arrival = now; qtype; remaining = 1 } in
    let base = 4_000_000 + Sim.Rng.int t.rng 4_000_000 in
    let pool = match t.pool_c with Some p -> p | None -> assert false in
    Pool.submit pool { q; base; home_socket = None }

(* Arrivals come in bursts of up to [2*burst] queries (mean burst+0.5); the
   long-run rate stays [rate].  Burstiness is what stresses scheduler
   reaction time: a spike of fan-out subqueries must be placed *now*. *)
let start_stream t qtype rate ~burst ~until =
  if rate > 0.0 then begin
    let engine = Kernel.engine t.kernel in
    let rec tick () =
      if Sim.Engine.now engine < until then begin
        let n = 1 + Sim.Rng.int t.rng (2 * burst) in
        for _ = 1 to n do
          submit_query t qtype
        done;
        let mean_gap = (float_of_int burst +. 0.5) *. (1e9 /. rate) in
        let gap = Sim.Rng.exponential t.rng ~mean:mean_gap in
        ignore (Sim.Engine.post_in engine ~delay:(Int.max 1 (int_of_float gap)) tick)
      end
    in
    ignore
      (Sim.Engine.post_in engine
         ~delay:(Int.max 1 (Sim.Rng.int t.rng (int_of_float (1e9 /. rate))))
         tick)
  end

let start t ~until =
  start_stream t A t.rate_a ~burst:8 ~until;
  start_stream t B t.rate_b ~burst:2 ~until;
  start_stream t C t.rate_c ~burst:1 ~until

let create kernel ~seed ?(rate_a = 25_000.0) ?(rate_b = 20_000.0)
    ?(rate_c = 9_000.0) ?(window = 1_000_000_000) ~spawn () =
  let t =
    {
      kernel;
      rng = Sim.Rng.create seed;
      rate_a;
      rate_b;
      rate_c;
      ts = Hashtbl.create 3;
      recs = Hashtbl.create 3;
      done_counts = Hashtbl.create 3;
      last_ccx = Hashtbl.create 512;
      moves = 0;
      pool_a = [||];
      pool_b = None;
      pool_c = None;
      record_after = 0;
    }
  in
  List.iter
    (fun q ->
      Hashtbl.replace t.ts q (Gstats.Timeseries.create ~window);
      Hashtbl.replace t.recs q (Recorder.create ());
      Hashtbl.replace t.done_counts q (ref 0))
    [ A; B; C ];
  let topo = Kernel.topo kernel in
  let nsockets = Topology.sockets topo in
  t.pool_a <-
    Array.init nsockets (fun socket ->
        Pool.create kernel ~n:96
          ~spawn:(fun ~idx behavior -> spawn A ~socket:(Some socket) ~idx behavior)
          ~work:(fun s task -> work_a t s task)
          ~on_done:(fun s -> finish_sub t s) ());
  t.pool_b <-
    Some
      (Pool.create kernel ~n:320
         ~spawn:(fun ~idx behavior -> spawn B ~socket:None ~idx behavior)
         ~work:(fun s task -> work_b t s task)
         ~on_done:(fun s -> finish_sub t s) ());
  t.pool_c <-
    Some
      (Pool.create kernel ~n:80
         ~spawn:(fun ~idx behavior -> spawn C ~socket:None ~idx behavior)
         ~work:(fun s task -> work_c t s task)
         ~on_done:(fun s -> finish_sub t s) ());
  t
