(** ASCII rendering for benchmark output.

    The bench harness prints each paper table/figure as plain text: aligned
    tables for tables, (x, series...) rows for figures.  Keeping this in one
    module makes all experiment output uniform. *)

val render : header:string list -> string list list -> string
(** Render an aligned table with a header row and a separator line. *)

val print : header:string list -> string list list -> unit
(** [render] to stdout. *)

val print_title : string -> unit
(** Print a boxed section title. *)

