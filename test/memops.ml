(* The memory operations the machine tests drive, over Memsys's
   unboxed calling convention: the dispatch time goes in at [io_now]
   and a load's completion time comes out at [io_ret]; and a cold start
   for the tests of the timers' machine pool. *)
open Ifko_machine

let at ms now = (Memsys.io ms).(Memsys.io_now) <- now

let load ms ~addr ~now =
  at ms now;
  Memsys.load_io ms addr;
  (Memsys.io ms).(Memsys.io_ret)

let store ms ~addr ~now =
  at ms now;
  Memsys.store_io ms addr

let nt_store ms ~addr ~bytes ~now =
  at ms now;
  Memsys.nt_store_io ms ~bytes addr

let prefetch ms ~kind ~addr ~now =
  at ms now;
  Memsys.prefetch_io ms ~kind addr

(* cycles of transfers queued on the bus past [now] *)
let bus_backlog ms ~now = Float.max 0.0 ((Memsys.io ms).(Memsys.io_bus) -. now)

(* Empty the timers' machine pool of these configs' machines, so the
   counts that follow start cold, and return its counters from there. *)
let drain_machines cfgs =
  let machines = Ifko_sim.Timer.machines in
  List.iter
    (fun cfg ->
      while Ifko_par.Freelist.take machines cfg <> None do
        ()
      done)
    cfgs;
  Ifko_par.Freelist.stats machines
