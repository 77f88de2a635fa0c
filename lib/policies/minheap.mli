(** Binary min-heap keyed by integers (thread runtimes, deadlines).

    Used by the Search policy's least-runtime-first queue (§4.4) and the
    secure-VM policy's EDF ordering (§4.5). *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool
val push : 'a t -> key:int -> 'a -> unit
val pop : 'a t -> (int * 'a) option
(** Remove and return the minimum-key entry. *)

val peek : 'a t -> (int * 'a) option
val iter : (int -> 'a -> unit) -> 'a t -> unit
(** [iter f t] calls [f key value] on every entry in heap-array order
    (not sorted), allocating nothing.  [f] must not modify [t]. *)
