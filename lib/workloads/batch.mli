(** Batch / antagonist threads: CPU-bound best-effort work that soaks up
    idle cycles (§4.2's co-located batch app, §4.3's 40 antagonists). *)

type t

val create :
  Kernel.t ->
  n:int ->
  ?slice:int ->
  spawn:(idx:int -> (unit -> Kernel.Task.action) -> Kernel.Task.t) ->
  unit ->
  t
(** [n] compute-forever threads, chunked in [slice]-ns segments
    (default 50 us). *)

val tasks : t -> Kernel.Task.t list

val share : t -> since:int -> now:int -> cpus:int -> float
(** Fraction of the machine's capacity ([cpus] CPUs over the window) the
    batch consumed since the CPU-time snapshot [mark] took. *)

val mark : t -> unit
(** Snapshot the batch's total CPU time; [share] measures from the last
    mark. *)
