type t = {
  sockets : int;
  ccx_per_socket : int;
  cores_per_ccx : int;
  smt : int;
  classes : int array;
      (* per physical core: capability class id (0 = the default/perf
         class).  Uniform machines carry all zeros, so every preset built
         before classes existed is structurally unchanged. *)
}

type cpu = int

let perf_class = 0
let efficient_class = 1

let num_cores_dims sockets ccx_per_socket cores_per_ccx =
  sockets * ccx_per_socket * cores_per_ccx

let create ~sockets ~ccx_per_socket ~cores_per_ccx ~smt =
  if sockets < 1 || ccx_per_socket < 1 || cores_per_ccx < 1 || smt < 1 then
    invalid_arg "Topology.create: all dimensions must be >= 1";
  let ncores = sockets * ccx_per_socket * cores_per_ccx in
  { sockets; ccx_per_socket; cores_per_ccx; smt; classes = Array.make ncores 0 }

let with_classes t classes =
  let ncores = num_cores_dims t.sockets t.ccx_per_socket t.cores_per_ccx in
  if Array.length classes <> ncores then
    invalid_arg
      (Printf.sprintf
         "Topology.with_classes: %d class entries for %d cores"
         (Array.length classes) ncores);
  Array.iter
    (fun k ->
      if k < 0 then invalid_arg "Topology.with_classes: negative core class")
    classes;
  { t with classes = Array.copy classes }

let sockets t = t.sockets
let smt t = t.smt
let num_cores t = t.sockets * t.ccx_per_socket * t.cores_per_ccx
let num_cpus t = num_cores t * t.smt
let num_ccx t = t.sockets * t.ccx_per_socket

let num_classes t = 1 + Array.fold_left max 0 t.classes

let uniform t = Array.for_all (fun k -> k = 0) t.classes
let core_classes t = Array.copy t.classes

let check t cpu =
  if cpu < 0 || cpu >= num_cpus t then
    invalid_arg (Printf.sprintf "Topology: cpu %d out of range" cpu)

let core_of t cpu =
  check t cpu;
  cpu / t.smt

let ccx_of t cpu = core_of t cpu / t.cores_per_ccx
let socket_of t cpu = ccx_of t cpu / t.ccx_per_socket
let class_of t cpu = t.classes.(core_of t cpu)

let range lo n = List.init n (fun i -> lo + i)
let cpus t = range 0 (num_cpus t)

let cpus_of_core t core = range (core * t.smt) t.smt

let cpus_of_ccx t ccx =
  range (ccx * t.cores_per_ccx * t.smt) (t.cores_per_ccx * t.smt)

let cpus_of_socket t socket =
  let per_socket = t.ccx_per_socket * t.cores_per_ccx * t.smt in
  range (socket * per_socket) per_socket

let sibling_of t cpu =
  check t cpu;
  if t.smt < 2 then None
  else begin
    let core = cpu / t.smt in
    let pos = cpu mod t.smt in
    (* With smt=2 the sibling is unique; for larger smt return the next in
       rotation, which still identifies "shares the physical core". *)
    Some ((core * t.smt) + ((pos + 1) mod t.smt))
  end

let same_core t a b = core_of t a = core_of t b
let same_ccx t a b = ccx_of t a = ccx_of t b
let same_socket t a b = socket_of t a = socket_of t b

type distance = Same_cpu | Smt_sibling | Same_ccx | Same_socket | Cross_socket

let distance t a b =
  if a = b then Same_cpu
  else if same_core t a b then Smt_sibling
  else if same_ccx t a b then Same_ccx
  else if same_socket t a b then Same_socket
  else Cross_socket

let ccx_neighbors_by_distance t ccx =
  let socket = ccx / t.ccx_per_socket in
  let all = range 0 (num_ccx t) in
  let others = List.filter (fun c -> c <> ccx) all in
  (* Same socket first (by id gap, a proxy for on-die hop distance), then
     remote sockets. *)
  let key c =
    let s = c / t.ccx_per_socket in
    if s = socket then (0, abs (c - ccx)) else (1, abs (c - ccx))
  in
  List.sort (fun a b -> compare (key a) (key b)) others
