(* Two-class centralized engine: the LC/BE parameterization of the DSL's
   centralized template.  LC (class 0) takes idle CPUs, evicts BE, and
   rotates on the timeslice; leftover idle CPUs are donated to BE when
   [schedule_be] — Shenango-style core reallocation. *)

type cls = Lc | Be

type stats = {
  mutable lc_scheduled : int;
  mutable be_scheduled : int;
  mutable lc_preemptions : int;
  mutable be_evictions : int;
  mutable estales : int;
}

type t = Dsl.Centralized.t

let stats t =
  let s = Dsl.Centralized.stats t in
  {
    lc_scheduled = s.Dsl.Centralized.scheduled.(0);
    be_scheduled = s.Dsl.Centralized.scheduled.(1);
    lc_preemptions = s.Dsl.Centralized.preemptions;
    be_evictions = s.Dsl.Centralized.evictions;
    estales = s.Dsl.Centralized.estales;
  }

let lc_backlog t = Dsl.Centralized.backlog t

let policy ~classify ?timeslice ?(schedule_be = true) ?(fastpath = false) () =
  Dsl.Centralized.make ~name:"central-two-class" ~nclasses:2
    ~classify:(fun _ task -> match classify task with Lc -> 0 | Be -> 1)
    ?timeslice ~donate_idle:schedule_be ~fastpath ()
