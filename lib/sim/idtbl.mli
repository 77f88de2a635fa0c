(** Tables keyed by small non-negative ints — thread ids, CPU numbers —
    stored densely in an array indexed by the key.

    Every operation indexes the array: no hashing and no polymorphic
    compare.  A slot holds the option {!find_opt} returns, so a hit
    allocates nothing.  Memory grows with the largest key ever stored,
    which is why only densely allocated ids belong here.

    A key outside the array — negative, or beyond the largest key stored —
    is simply absent: {!find_opt}, {!mem} and {!remove} answer for it
    without raising and without growing the table.  Such keys arrive from
    outside the runtime (a BPF pick result, a policy's txn tid).

    {!fold} and {!iter} visit bindings in ascending key order; callers may
    rely on it.  As with [Hashtbl], the table must not be modified while
    one of them runs. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
(** Number of bindings. *)

val find_opt : 'a t -> int -> 'a option
val find : 'a t -> int -> 'a
(** @raise Not_found when [key] is unbound. *)

val mem : 'a t -> int -> bool

val replace : 'a t -> int -> 'a -> unit
(** Bind [key], growing the array to reach it.
    @raise Invalid_argument on a negative key. *)

val remove : 'a t -> int -> unit

val iter : (int -> 'a -> unit) -> 'a t -> unit
(** Ascending key order. *)

val fold : (int -> 'a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc
(** Ascending key order: [f] sees the smallest key first. *)
