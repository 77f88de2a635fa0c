(* Digest pin: fails unless the [digest=HEX] token on standard input equals
   the expected hex given as the only argument.  The root dune file pipes
   each repo-benchmark workload through it in `runtest`:

     perfbench/main.exe --workload W --seed 1 --seconds 1 --trace 0 \
       | digest_pin EXPECTED

   All of standard input is read, so the writer never sees a closed pipe. *)

let prefix = "digest="

let () =
  if Array.length Sys.argv <> 2 then begin
    prerr_endline "usage: digest_pin EXPECTED_HEX < run-output";
    exit 2
  end;
  let expected = Sys.argv.(1) in
  let found =
    In_channel.input_all stdin
    |> String.split_on_char '\n'
    |> List.concat_map (String.split_on_char ' ')
    |> List.find_map (fun tok ->
           if String.starts_with ~prefix tok then
             Some (String.sub tok 7 (String.length tok - 7))
           else None)
  in
  match found with
  | Some d when d = expected -> ()
  | found ->
    Printf.eprintf "digest_pin: digest %s, expected %s\n"
      (Option.value found ~default:"(none)")
      expected;
    exit 1
