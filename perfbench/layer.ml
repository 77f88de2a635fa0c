(* Which library layer a sampled stack is charged to.

   A layer is a directory under lib/.  A sample is charged to the innermost
   frame that lives in a layer directory; frames from the OCaml standard
   library or from this benchmark (the sampler's own handler, timing
   wrappers) are skipped, so a [Hashtbl.replace] called from lib/sim is
   charged to sim.  A stack with no layer frame at all is "other". *)

let names =
  [ "sim"; "kernel"; "core"; "policies"; "bpf"; "workloads"; "obs"; "cluster";
    "scenario"; "stats"; "hw"; "faults" ]

let other = "other"

(* [filename] as the compiler records it: relative to the build root, e.g.
   "lib/sim/wheel.ml".  Absolute paths (an installed stdlib under
   .../lib/ocaml/) never name a layer. *)
let of_file filename =
  match String.split_on_char '/' filename with
  | "lib" :: dir :: _ :: _ when List.mem dir names -> Some dir
  | _ -> None

(* [files] innermost first, as [Printexc.get_callstack] lists them. *)
let of_stack files =
  match List.find_map of_file files with Some l -> l | None -> other
