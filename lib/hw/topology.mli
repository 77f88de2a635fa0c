(** CPU topology: sockets, CCXs (L3 domains), physical cores, SMT threads.

    A CPU is a logical execution unit (a hyperthread), identified by a dense
    integer id.  Ids are laid out core-major: the SMT siblings of physical
    core [c] are [c * smt .. c * smt + smt - 1].  Intel machines are modelled
    with one CCX per socket (monolithic L3); AMD Rome has many 4-core CCXs
    per socket (§4.4). *)

type t

type cpu = int

val create : sockets:int -> ccx_per_socket:int -> cores_per_ccx:int -> smt:int -> t
(** Build a topology.  All arguments must be >= 1.  Every core is class 0
    — byte-identical to the topologies this library built before core
    classes existed, so all uniform presets are unchanged. *)

val with_classes : t -> int array -> t
(** Assign each {e physical core} a capability class id (hybrid P/E
    machines).  The array must have exactly [num_cores] entries, all
    >= 0; it is copied.  [with_classes t (Array.make (num_cores t) 0)]
    is structurally identical to [t]. *)

val perf_class : int
(** Class id 0: the full-speed ("performance") core class, and the class
    of every core on a uniform machine. *)

val efficient_class : int
(** Class id 1 by convention: the slower ("efficiency") core class of a
    hybrid machine.  Class ids are open-ended; these two are just the
    conventional names used by the presets. *)

val sockets : t -> int
val smt : t -> int
val num_cores : t -> int
(** Number of physical cores. *)

val num_cpus : t -> int
(** Number of logical CPUs ([num_cores * smt]). *)

val num_ccx : t -> int

val socket_of : t -> cpu -> int
val ccx_of : t -> cpu -> int
(** Global CCX id of a CPU. *)

val core_of : t -> cpu -> int
(** Global physical-core id of a CPU. *)

val class_of : t -> cpu -> int
(** Capability class of a CPU (its physical core's class). *)

val num_classes : t -> int
(** [1 + max class id]: 1 on uniform machines, 2 on a P/E hybrid. *)

val uniform : t -> bool
(** Every core is class 0 (all pre-hybrid presets). *)

val core_classes : t -> int array
(** Per-core class ids, in core order (a copy). *)

val cpus : t -> cpu list
(** All CPUs in id order. *)

val cpus_of_socket : t -> int -> cpu list
val cpus_of_ccx : t -> int -> cpu list
val cpus_of_core : t -> int -> cpu list

val sibling_of : t -> cpu -> cpu option
(** The other hyperthread of the same physical core (SMT=2 machines);
    [None] when SMT=1. *)

val same_ccx : t -> cpu -> cpu -> bool
val same_socket : t -> cpu -> cpu -> bool

type distance =
  | Same_cpu
  | Smt_sibling  (** Same physical core: shared L1/L2. *)
  | Same_ccx  (** Same L3 domain. *)
  | Same_socket  (** Same NUMA node, different L3. *)
  | Cross_socket

val distance : t -> cpu -> cpu -> distance

val ccx_neighbors_by_distance : t -> int -> int list
(** CCX ids ordered by closeness to the given CCX (same socket first, then
    remote), excluding the CCX itself.  Used by the Search policy's fan-out
    search (§4.4). *)
