module Task = Kernel.Task

type step = Compute of int | Io of int

type 'a t = {
  kernel : Kernel.t;
  pending : 'a Queue.t;
  slots : 'a option array;
  mutable free : int list;
  mutable tasks : Task.t array;
  work : 'a -> Task.t -> step list;
  on_done : 'a -> unit;
  poll_ns : int;
  poll_chunk : int;
}

let behavior t i =
  let rec idle () =
    match t.slots.(i) with
    | Some job -> start job
    | None -> Task.Block { after = idle }
  and start job = steps job (t.work job t.tasks.(i))
  and steps job = function
    | [] ->
      t.slots.(i) <- None;
      t.on_done job;
      next ()
    | Compute ns :: rest -> Task.Run { ns = Int.max 1 ns; after = (fun () -> steps job rest) }
    | Io ns :: rest ->
      (* Park for the I/O; a timer completion wakes us. *)
      ignore
        (Sim.Engine.post_in (Kernel.engine t.kernel) ~delay:(Int.max 1 ns) (fun () ->
             Kernel.wake t.kernel t.tasks.(i)));
      Task.Block { after = (fun () -> steps job rest) }
  and next () =
    match Queue.pop t.pending with
    | job -> start job
    | exception Queue.Empty ->
      if t.poll_ns > 0 then poll t.poll_ns else park ()
  and poll left =
    (* Busy-poll the queues before sleeping: lower latency for the next job
       at the cost of burnt CPU (and MicroQuanta budget). *)
    match Queue.pop t.pending with
    | job -> start job
    | exception Queue.Empty ->
      if left <= 0 then park ()
      else begin
        let chunk = Int.min t.poll_chunk left in
        Task.Run { ns = chunk; after = (fun () -> poll (left - chunk)) }
      end
  and park () =
    t.free <- i :: t.free;
    idle ()
  in
  idle

let submit t job =
  match t.free with
  | i :: rest ->
    t.free <- rest;
    t.slots.(i) <- Some job;
    Kernel.wake t.kernel t.tasks.(i)
  | [] -> Queue.push job t.pending

let tasks t = Array.to_list t.tasks
let task_of t i = t.tasks.(i)
let size t = Array.length t.tasks
let idle_workers t = List.length t.free
let backlog t = Queue.length t.pending

let create kernel ?(poll_ns = 0) ?(poll_chunk = 10_000) ~n ~spawn ~work ~on_done () =
  if n <= 0 then invalid_arg "Pool.create: need workers";
  let t =
    {
      kernel;
      pending = Queue.create ();
      slots = Array.make n None;
      free = List.init n (fun i -> i);
      tasks = [||];
      work;
      on_done;
      poll_ns;
      poll_chunk;
    }
  in
  t.tasks <- Array.init n (fun i -> spawn ~idx:i (behavior t i));
  t
