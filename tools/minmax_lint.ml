(* Polymorphic max/min lint: [Stdlib.max] and [Stdlib.min] compile to a C
   call of the polymorphic compare even on ints, so the simulator's
   libraries write [Int.max], [Int.min] (or [Float.max], [Float.min]).
   Fails on any [max] or [min] in the given directories' .ml/.mli sources
   that no module other than [Stdlib] qualifies; labels ([~max]) and
   polymorphic variants pass.  Comments and string literals are stripped
   first, as in the ABI lint.  `dune build @minmax-lint`; part of `@ci`. *)

let ( // ) = Filename.concat

let polymorphic tok =
  tok = "max" || tok = "min" || tok = "Stdlib.max" || tok = "Stdlib.min"

(* A label ([~max], [?min]) or a polymorphic variant names no function. *)
let is_label line col = col > 0 && String.contains "~?`" line.[col - 1]

let check_file file =
  let source = In_channel.with_open_bin file In_channel.input_all in
  String.split_on_char '\n' (Source_scan.strip source)
  |> List.mapi (fun i line ->
         Source_scan.located_tokens line
         |> List.filter (fun (col, tok) -> polymorphic tok && not (is_label line col))
         |> List.map (fun (_, tok) ->
                let f = String.sub tok (String.length tok - 3) 3 in
                Printf.sprintf "%s:%d: %s compares polymorphically; write Int.%s or Float.%s"
                  file (i + 1) tok f f))
  |> List.concat

let () =
  let dirs = List.tl (Array.to_list Sys.argv) in
  if dirs = [] then failwith "minmax_lint: no directories given";
  let violations =
    List.concat_map
      (fun dir ->
        Sys.readdir dir |> Array.to_list |> List.sort compare
        |> List.filter (fun f ->
               Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli")
        |> List.concat_map (fun f -> check_file (dir // f)))
      dirs
  in
  List.iter prerr_endline violations;
  if violations <> [] then begin
    Printf.eprintf "minmax-lint: %d polymorphic max/min\n" (List.length violations);
    exit 1
  end
