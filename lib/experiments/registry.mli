(** Name -> experiment registry.

    Every table and figure the repository reproduces, plus its ablations,
    is one entry here, at three fixed sizes, with the checks that its
    claim holds.  The bench, the CLI (one subcommand per entry, and
    [trace NAME]) and the tier-1 golden digests all run the same entries,
    so each experiment's sizes and each claim's bounds live only here:
    tier 1 checks every verdict on the [Short] report it digests, and
    [bench NAME] on the [Quick] or [Full] one. *)

type scale =
  | Short  (** Tier-1 digests and [trace]: seconds of host time at most. *)
  | Quick  (** [bench quick NAME]. *)
  | Full  (** [bench NAME] and [ghost_bench_cli NAME]. *)

type bound =
  | At_least of float  (** The reading must be [>=] the bound. *)
  | Above of float  (** [>] *)
  | At_most of float  (** [<=] *)

type check = { what : string; reading : float; bound : bound }
(** One named predicate over a report: its reading and the bound the
    reading must meet. *)

val holds : check -> bool

val show_check : check -> string
(** [what], the reading and the bound, on one line. *)

type 'r t = {
  name : string;
  doc : string;
  run : scale -> seed:int -> 'r;
  print : 'r -> unit;
  digest : ('r -> string) option;
      (** Digest of the simulated part of a report: equal across builds
          and profiles.  [None] for an entry that measures the checkout
          rather than a simulation (table2). *)
  verdict : 'r -> check list;
      (** The entry's claim as named predicates over its report, at every
          size.  Empty for fig8 and colocation, whose claims have no
          predicate yet. *)
}

type entry = E : 'r t -> entry

val all : entry list
(** In the paper's order, then the repository's own experiments. *)

val names : string list

val digest_of : 'a -> string
(** MD5 of a closure-free value marshalled with [No_sharing]: it pins the
    value, not how the build boxed and shared its floats. *)

(** {1 Entries whose reports are read outside the registry}

    Tier 1 runs table2 from the build tree; the bench records the others'
    readings. *)

val table2 : Table2.row list t
val colocation : Colocation.result t
val bpf : Bpf_ablation.row list t
val fleet : Fleet.result t
val hybrid : Hybrid.row list t
val adaptive : Adaptive.result t
