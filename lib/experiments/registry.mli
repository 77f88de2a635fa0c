(** Name -> experiment registry.

    Every table and figure the repository reproduces, plus its ablations,
    is one entry here, at three fixed sizes.  The bench, the CLI (one
    subcommand per entry, and [trace NAME]) and the tier-1 golden digests
    all run the same entries, so each experiment's sizes live only
    here. *)

type scale =
  | Short  (** Tier-1 digests and [trace]: seconds of host time at most. *)
  | Quick  (** [bench quick NAME]. *)
  | Full  (** [bench NAME] and [ghost_bench_cli NAME]. *)

type 'r t = {
  name : string;
  doc : string;
  run : scale -> seed:int -> 'r;
  print : 'r -> unit;
  digest : ('r -> string) option;
      (** Digest of the simulated part of a report: equal across builds
          and profiles.  [None] for an entry that measures the checkout
          rather than a simulation (table2). *)
}

type entry = E : 'r t -> entry

val all : entry list
(** In the paper's order, then the repository's own experiments. *)

val names : string list

val digest_of : 'a -> string
(** MD5 of a closure-free value marshalled with [No_sharing]: it pins the
    value, not how the build boxed and shared its floats. *)

(** {1 Entries whose reports the bench guards read} *)

val table3 : Table3.line list t
val colocation : Colocation.result t
val bpf : Bpf_ablation.row list t
val fleet : Fleet.result t
val hybrid : Hybrid.row list t
val adaptive : Adaptive.result t
