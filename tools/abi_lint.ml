(* ABI-boundary lint: policies and scenario controllers must talk to the
   kernel through [Ghost.Abi] (and controllers through [Scenario]'s live
   accessors) — never through [Kernel]/[System] internals, status-word
   mutators or the runtime-only side of [Ghost.Abi] — and lib/bpf programs
   must be pure: no runtime module at all, only their own Snapshot and
   maps.  Scans the given directories' .ml/.mli
   sources and fails on any dotted reference outside the per-directory
   ruleset.

   Comments and string literals are stripped first, so prose mentioning
   {!Ghost.System.bpf_install} doesn't trip the lint.  Aliasing a
   restricted module to another name is itself a violation — it would
   defeat the scan. *)

let ( // ) = Filename.concat

type ruleset = {
  restricted : string list;
      (* Module names whose members need an allowlist entry. *)
  allowed : (string * string) list;
      (* (module, immediate member) pairs allowed; a member of ["*"] allows
         everything under the module. *)
  why : string;  (* Appended to every violation report. *)
  agent_sw_checks : bool;
      (* Also run the Agent-backdoor and Status_word-mutation checks. *)
}

let ruleset = function
  | "policies" ->
    {
      restricted = [ "Kernel"; "System" ];
      allowed =
        [
          (* Task records and cpumasks are plain data, not authority. *)
          ("Kernel", "Task");
          ("Kernel", "Cpumask");
          (* Attach signatures name the system/enclave types (capability
             values the harness hands over); the types carry no operations
             here. *)
          ("System", "t");
          ("System", "enclave");
        ];
      why = "bypasses the agent ABI (use Ghost.Abi / Scenario accessors)";
      agent_sw_checks = true;
    }
  | "scenario" ->
    {
      restricted = [ "Kernel"; "System" ];
      allowed =
        [
          (* The harness owns setup/teardown: building the machine, enclaves,
             workloads and the clock is its job.  Live steering goes through
             the [Scenario] accessors, which is why nothing below reads
             per-task kernel state. *)
          ("Kernel", "t");
          ("Kernel", "create");
          ("Kernel", "create_task");
          ("Kernel", "start");
          ("Kernel", "run_until");
          ("Kernel", "now");
          ("Kernel", "engine");
          ("Kernel", "rng");
          ("Kernel", "ncpus");
          ("Kernel", "full_mask");
          ("Kernel", "Task");
          ("Kernel", "Cpumask");
          ("System", "t");
          ("System", "enclave");
          ("System", "install");
          ("System", "create_enclave");
          ("System", "destroy_reason");
          ("System", "on_destroy");
          ("System", "manage");
          ("System", "enclave_cpus");
          ("System", "add_cpu");
          ("System", "remove_cpu");
          ("System", "Explicit");
          ("System", "Watchdog");
          ("System", "Agent_crash");
        ];
      why = "bypasses the agent ABI (use Ghost.Abi / Scenario accessors)";
      agent_sw_checks = true;
    }
  | "bpf" ->
    {
      (* BPF programs are pure decision functions over a bounded snapshot:
         the library may not see the kernel, the runtime, the simulator or
         observability at all.  (The dune file declares zero dependencies;
         this pass keeps even a future dependency edit honest.) *)
      restricted =
        [
          "Kernel"; "System"; "Ghost"; "Sim"; "Obs"; "Hw"; "Agent";
          "Workloads"; "Policies"; "Status_word"; "Gstats"; "Logs";
        ];
      allowed = [];
      why = "breaks BPF purity (lib/bpf sees only Prog/Snapshot/maps)";
      agent_sw_checks = false;
    }
  | "dsl" ->
    {
      (* Policies rebuilt on the combinator layer: the whole runtime
         surface arrives through [Policies.Dsl]'s re-exports, so the source
         may not name any root runtime module at all — [Ghost.Abi] is the
         single sanctioned spelling of the ABI (type annotations), and
         [Obs] stays open so a policy can publish/read its own metrics
         (the adaptive controller's feedback loop). *)
      restricted = [ "Kernel"; "System"; "Sim"; "Hw"; "Bpf"; "Gstats"; "Ghost" ];
      allowed = [ ("Ghost", "Abi") ];
      why = "reaches around the policy DSL (use Dsl.* / Ghost.Abi only)";
      agent_sw_checks = true;
    }
  | other -> failwith (Printf.sprintf "abi_lint: no ruleset for %S" other)

(* Status-word writes are lib/core-only in every linted directory: outside
   the kernel a status word is an immutable snapshot. *)
let status_word_banned member =
  member = "begin_write" || member = "end_write" || member = "bump"
  || member = "create"
  || String.length member >= 4
     && String.sub member 0 4 = "set_"

(* The closed backdoor: policies once reached the raw kernel this way. *)
let agent_banned member = member = "kernel" || member = "sys"

(* The runtime's side of [Ghost.Abi]: the pass-context constructor and the
   pass-state accessors.  Through them a policy could reset its own charge
   or read back and rewrite its submitted batches. *)
let abi_runtime_only member =
  List.mem member [ "context"; "begin_pass"; "charged"; "batches"; "wire_wakeup" ]

let module_binding line =
  (* ["module NAME ="] on an already stripped line, if any. *)
  let toks = Source_scan.tokens_of_line line in
  match toks with
  | "module" :: name :: _ when not (String.contains name '.') -> Some name
  | _ -> None

let violations = ref 0

let report ~file ~lnum fmt =
  Printf.ksprintf
    (fun msg ->
      incr violations;
      Printf.eprintf "%s:%d: %s\n" file lnum msg)
    fmt

let check_line ~rules ~file ~lnum line =
  List.iter
    (fun tok ->
      let comps = String.split_on_char '.' tok in
      let rec walk = function
        | [] | [ _ ] -> ()
        | m :: (next :: _ as rest) ->
          if List.mem m rules.restricted then begin
            if
              not
                (List.mem (m, next) rules.allowed
                || List.mem (m, "*") rules.allowed)
            then report ~file ~lnum "%s.%s %s" m next rules.why
          end
          else if rules.agent_sw_checks then
            (match m with
            | "Agent" ->
              if agent_banned next then
                report ~file ~lnum
                  "Agent.%s is the removed kernel backdoor" next
            | "Status_word" ->
              if status_word_banned next then
                report ~file ~lnum
                  "Status_word.%s mutates a status word (snapshots only outside lib/core)"
                  next
            | "Abi" ->
              if abi_runtime_only next then
                report ~file ~lnum
                  "Abi.%s is the runtime's pass state (lib/core only)" next
            | _ -> ());
          walk rest
      in
      walk comps;
      (* A token ending in a bare restricted module name — or in [Abi],
         whose runtime-only members are checked by name — is only legal
         when it (re)binds that same name. *)
      match List.rev comps with
      | last :: _
        when List.mem last rules.restricted
             || (rules.agent_sw_checks && last = "Abi") -> (
        match module_binding line with
        | Some name when name = last -> ()
        | Some name ->
          report ~file ~lnum "aliasing %s as %s defeats the ABI lint" last name
        | None when List.mem "open" (Source_scan.tokens_of_line line) ->
          report ~file ~lnum "opening %s defeats the ABI lint" last
        | None when comps = [ last ] ->
          (* "module" itself tokenizes, so a bare name here is a use site. *)
          report ~file ~lnum "bare %s module reference outside an alias" last
        | None -> ())
      | _ -> ())
    (Source_scan.tokens_of_line line)

let check_file ~rules file =
  let ic = open_in_bin file in
  let len = in_channel_length ic in
  let source = really_input_string ic len in
  close_in ic;
  let lines = String.split_on_char '\n' (Source_scan.strip source) in
  List.iteri (fun i line -> check_line ~rules ~file ~lnum:(i + 1) line) lines

let check_dir ?rules dir =
  let rules =
    match rules with Some r -> r | None -> ruleset (Filename.basename dir)
  in
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.iter (fun name ->
         if Filename.check_suffix name ".ml" || Filename.check_suffix name ".mli"
         then check_file ~rules (dir // name))

(* An argument is either a directory (ruleset from its basename) or an
   explicit "ruleset:path" pair, where path may be a file or a directory —
   how the build pins the stricter "dsl" rules onto individual policy
   sources that live in a directory with looser rules. *)
let check_arg arg =
  match String.index_opt arg ':' with
  | None -> check_dir arg
  | Some i ->
    let rules = ruleset (String.sub arg 0 i) in
    let path = String.sub arg (i + 1) (String.length arg - i - 1) in
    if Sys.is_directory path then check_dir ~rules path
    else check_file ~rules path

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  if args = [] then failwith "abi_lint: no directories given";
  List.iter check_arg args;
  if !violations > 0 then begin
    Printf.eprintf "abi-lint: %d violation(s)\n" !violations;
    exit 1
  end
  else
    Printf.printf "abi-lint: clean (%s)\n" (String.concat ", " args)
