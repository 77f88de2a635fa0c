(* SIGPROF stack sampler: charges host CPU time to library layers without
   touching the library.  Every [period] of process CPU time the handler
   takes the call stack and charges it to {!Layer.of_stack}.  OCaml runs
   signal handlers at its next poll point, so a sample lands on the code
   around a poll rather than an exact instruction; over thousands of
   samples that is an unbiased-enough split between layers. *)

let counts : (string, int) Hashtbl.t = Hashtbl.create 16
let total = ref 0

let files_of_stack stack =
  match Printexc.backtrace_slots stack with
  | None -> []
  | Some slots ->
    Array.to_list slots
    |> List.filter_map (fun slot ->
           Option.map
             (fun (l : Printexc.location) -> l.filename)
             (Printexc.Slot.location slot))

let sample _ =
  let layer = Layer.of_stack (files_of_stack (Printexc.get_callstack 256)) in
  Hashtbl.replace counts layer
    (1 + Option.value ~default:0 (Hashtbl.find_opt counts layer));
  incr total

let period = 0.001

let start () =
  Sys.set_signal Sys.sigprof (Sys.Signal_handle sample);
  ignore
    (Unix.setitimer Unix.ITIMER_PROF
       { Unix.it_interval = period; it_value = period })

let stop () =
  ignore (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = 0.0; it_value = 0.0 });
  Sys.set_signal Sys.sigprof Sys.Signal_ignore

let share layer =
  if !total = 0 then 0.0
  else
    float_of_int (Option.value ~default:0 (Hashtbl.find_opt counts layer))
    /. float_of_int !total
