(** Time units for the simulator.

    All simulated time is kept in integer nanoseconds.  These helpers avoid
    sprinkling magic powers of ten through the code base. *)

val ns : int -> int
(** [ns x] is [x] nanoseconds (identity; for symmetry). *)

val us : int -> int
(** [us x] is [x] microseconds in nanoseconds. *)

val ms : int -> int
(** [ms x] is [x] milliseconds in nanoseconds. *)

val sec : int -> int
(** [sec x] is [x] seconds in nanoseconds. *)

val to_ms : int -> float
(** [to_ms t] converts nanoseconds to fractional milliseconds. *)
