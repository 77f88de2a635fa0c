type row = {
  component : string;
  paper_loc : int option;
  our_loc : int option;
  note : string;
}

let count_file path =
  match open_in path with
  | exception Sys_error _ -> 0
  | ic ->
    let n = ref 0 in
    (try
       while true do
         ignore (input_line ic);
         incr n
       done
     with End_of_file -> ());
    close_in ic;
    !n

let count_files root paths =
  let total =
    List.fold_left
      (fun acc rel ->
        let path = Filename.concat root rel in
        if Sys.file_exists path then begin
          if Sys.is_directory path then
            acc
            + Array.fold_left
                (fun a f ->
                  if Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli"
                  then a + count_file (Filename.concat path f)
                  else a)
                0 (Sys.readdir path)
          else acc + count_file path
        end
        else acc)
      0 paths
  in
  if total = 0 then None else Some total

let run ?(root = ".") () =
  let c = count_files root in
  [
    { component = "Linux CFS (kernel/sched/fair.c)"; paper_loc = Some 6217;
      our_loc = c [ "lib/kernel/cfs.ml"; "lib/kernel/cfs.mli" ];
      note = "our simplified CFS" };
    { component = "Shinjuku (NSDI '19)"; paper_loc = Some 3900;
      our_loc = c [ "lib/baselines" ]; note = "data-plane baseline" };
    { component = "ghOSt kernel scheduling class"; paper_loc = Some 3777;
      our_loc = c [ "lib/core/system.ml"; "lib/core/system.mli";
                    "lib/core/msg.ml"; "lib/core/msg.mli";
                    "lib/core/squeue.ml"; "lib/core/squeue.mli";
                    "lib/core/txn.ml"; "lib/core/txn.mli";
                    "lib/core/status_word.ml"; "lib/core/status_word.mli";
                    "lib/bpf/prog.ml"; "lib/bpf/prog.mli";
                    "lib/bpf/snapshot.ml"; "lib/bpf/snapshot.mli";
                    "lib/bpf/verifier.ml"; "lib/bpf/verifier.mli";
                    "lib/bpf/vm.ml"; "lib/bpf/vm.mli";
                    "lib/bpf/kit.ml"; "lib/bpf/kit.mli" ];
      note = "messages, queues, txns, enclaves, BPF" };
    { component = "ghOSt userspace support library"; paper_loc = Some 3115;
      our_loc = c [ "lib/core/agent.ml"; "lib/core/agent.mli" ];
      note = "agent runtime + policy API" };
    { component = "Shinjuku policy"; paper_loc = Some 710;
      our_loc = c [ "lib/policies/shinjuku.ml"; "lib/policies/shinjuku.mli";
                    "lib/policies/central.ml"; "lib/policies/central.mli" ];
      note = "incl. shared two-class engine" };
    { component = "Shinjuku + Shenango policy"; paper_loc = Some 727;
      our_loc = None; note = "+1 flag on our Shinjuku policy (paper: +17 LoC)" };
    { component = "Google Snap policy"; paper_loc = Some 855;
      our_loc = c [ "lib/policies/snap_policy.ml"; "lib/policies/snap_policy.mli" ];
      note = "reuses the two-class engine" };
    { component = "Google Search policy"; paper_loc = Some 929;
      our_loc = c [ "lib/policies/search_policy.ml";
                    "lib/policies/search_policy.mli";
                    "lib/policies/minheap.ml"; "lib/policies/minheap.mli" ];
      note = "incl. min-heap" };
    { component = "Secure VM ghOSt policy"; paper_loc = Some 4702;
      our_loc = c [ "lib/policies/secure_vm.ml"; "lib/policies/secure_vm.mli" ];
      note = "" };
    { component = "(substrate) simulated kernel"; paper_loc = None;
      our_loc = c [ "lib/kernel" ]; note = "not in the paper: our Linux stand-in" };
    { component = "(substrate) simulation engine + stats + hw"; paper_loc = None;
      our_loc = c [ "lib/sim"; "lib/stats"; "lib/hw" ]; note = "" };
    { component = "(harness) workloads + experiments"; paper_loc = None;
      our_loc = c [ "lib/workloads"; "lib/experiments" ]; note = "" };
  ]

let print rows =
  Gstats.Table.print_title "Table 2: lines of code";
  let s = function Some v -> string_of_int v | None -> "-" in
  Gstats.Table.print
    ~header:[ "component"; "paper LoC"; "this repo LoC"; "note" ]
    (List.map (fun r -> [ r.component; s r.paper_loc; s r.our_loc; r.note ]) rows)
