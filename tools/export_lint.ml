(* Export lint: fails on any [val] in lib/*/*.mli whose name is a
   whole-word token in no other .ml/.mli under the source directories
   below, its own module's .ml aside.  A name only tests use passes.  Runs
   from the workspace root; `dune build @export-lint`, part of `@ci`. *)

let ( // ) = Filename.concat
let dirs = [ "lib"; "bin"; "bench"; "test"; "tools"; "perfbench"; "examples" ]

let rec sources dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun f ->
         let p = dir // f in
         if f.[0] = '.' then []
         else if Sys.is_directory p then sources p
         else if Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli"
         then [ p ]
         else [])

let is_ident = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

(* Where the run of identifier characters starting at [i] ends. *)
let ident_end s i =
  let j = ref i in
  while !j < String.length s && is_ident s.[!j] do incr j done;
  !j

(* Each maximal run of identifier characters is one token. *)
let tokens path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  let seen = Hashtbl.create 512 in
  let rec go i =
    if i < String.length text then begin
      let j = ident_end text i in
      if j > i then Hashtbl.replace seen (String.sub text i (j - i)) ();
      go (j + 1)
    end
  in
  go 0;
  seen

let vals mli =
  In_channel.with_open_bin mli In_channel.input_lines
  |> List.filter_map (fun line ->
         match String.split_on_char ' ' (String.trim line) with
         | "val" :: word :: _ when ident_end word 0 > 0 ->
           Some (String.sub word 0 (ident_end word 0))
         | _ -> None)

let () =
  let files = List.concat_map sources dirs in
  let toks = List.map (fun f -> (f, tokens f)) files in
  let unused =
    List.concat_map
      (fun mli ->
        let own = [ mli; Filename.chop_suffix mli "i" ] in
        vals mli
        |> List.filter (fun v ->
               not
                 (List.exists
                    (fun (f, t) -> (not (List.mem f own)) && Hashtbl.mem t v)
                    toks))
        |> List.map (fun v ->
               Printf.sprintf "%s: val %s is named in no other file" mli v))
      (List.filter
         (fun f ->
           Filename.check_suffix f ".mli"
           && List.length (String.split_on_char '/' f) = 3)
         files)
  in
  List.iter prerr_endline unused;
  if unused <> [] then begin
    Printf.eprintf "export-lint: %d exported values nothing else names\n"
      (List.length unused);
    exit 1
  end
