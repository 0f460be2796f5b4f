(* Kernel-level profiler for the GP hot path: times each cost kernel in
   isolation over a catalogue design (Table-1, XL or rt_channel, each at
   its own seed) and reports wall-clock plus GC allocation deltas.

   Usage: dpp_profile [PRESET [REPS [JOBS]]]   (defaults: xl100k 5 1)

   This is the measurement harness behind the numbers in DESIGN.md
   ("Profiling methodology") and the CI perf guard — the flow's
   end-to-end numbers come from `bench -e XL`; this tool answers *where
   inside a GP round* the time goes. *)

module Design = Dpp_netlist.Design
module Soa = Dpp_netlist.Soa
module Pins = Dpp_wirelen.Pins
module Lse = Dpp_wirelen.Lse
module Par_grad = Dpp_wirelen.Par_grad
module Hpwl = Dpp_wirelen.Hpwl
module Netbox = Dpp_wirelen.Netbox
module Grid = Dpp_density.Grid
module Bell = Dpp_density.Bell
module Rudy = Dpp_congest.Rudy
module Pool = Dpp_par.Pool

type sample = {
  name : string;
  wall_s : float;  (* per repetition *)
  minor_mw : float;  (* minor words allocated per rep, in Mwords *)
  major_mw : float;
  value : float;  (* kernel result, so work cannot be dead-code-eliminated *)
}

let time_kernel ~reps name f =
  (* one warmup rep so lazy setup does not pollute the measurement *)
  let v0 = f () in
  (* the words as [Flow]'s stage ledger reads them: [Gc.quick_stat] on
     OCaml 5.1 misses the minor heap's current fill and words allocated
     straight into the major heap since the last GC slice *)
  let minor0 = Gc.minor_words () and _, _, major0 = Gc.counters () in
  let t0 = Unix.gettimeofday () in
  let v = ref v0 in
  for _ = 1 to reps do
    v := f ()
  done;
  let t1 = Unix.gettimeofday () in
  let minor1 = Gc.minor_words () and _, _, major1 = Gc.counters () in
  let r = float_of_int reps in
  {
    name;
    wall_s = (t1 -. t0) /. r;
    minor_mw = (minor1 -. minor0) /. r /. 1e6;
    major_mw = (major1 -. major0) /. r /. 1e6;
    value = !v;
  }

let () =
  let preset = if Array.length Sys.argv > 1 then Sys.argv.(1) else "xl100k" in
  let reps = if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2) else 5 in
  let jobs = if Array.length Sys.argv > 3 then int_of_string Sys.argv.(3) else 1 in
  let d =
    match Dpp_gen.Catalog.design preset with
    | Some d -> d
    | None ->
      Printf.eprintf "dpp_profile: unknown preset %s (one of: %s)\n" preset
        (String.concat " " Dpp_gen.Catalog.names);
      exit 2
  in
  let pool = Pool.create ~nworkers:jobs in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) @@ fun () ->
  let soa = Soa.of_design d in
  let pins = Pins.of_soa soa in
  let cx, cy = Pins.centers_of_design d in
  let nc = Design.num_cells d in
  let nx, ny = Grid.default_dims d in
  let grid = Grid.build d ~nx ~ny in
  let bell = Bell.of_soa soa ~grid ~target_density:0.9 in
  let par = Par_grad.create pool pins in
  let bell_par = Bell.par_create bell in
  let gx = Array.make nc 0.0 and gy = Array.make nc 0.0 in
  let gamma = 0.5 *. max grid.Grid.bin_w grid.Grid.bin_h in
  let zero2 () =
    Array.fill gx 0 nc 0.0;
    Array.fill gy 0 nc 0.0
  in
  Printf.printf "preset %s: %d cells, %d nets, %d pins, %dx%d bins, jobs %d, reps %d\n%!"
    preset nc (Soa.num_nets soa) (Soa.num_pins soa) grid.Grid.nx grid.Grid.ny jobs reps;
  let samples =
    [
      time_kernel ~reps "lse_value(serial)" (fun () -> Lse.value pins ~gamma ~cx ~cy);
      time_kernel ~reps "lse_grad(serial)" (fun () ->
          zero2 ();
          Lse.value_grad pins ~gamma ~cx ~cy ~gx ~gy);
      time_kernel ~reps "lse_value(pool)" (fun () -> Par_grad.value par pool ~gamma ~cx ~cy);
      time_kernel ~reps "lse_grad(pool)" (fun () ->
          zero2 ();
          Par_grad.value_grad par pool ~gamma ~cx ~cy ~gx ~gy);
      time_kernel ~reps "bell_value(serial)" (fun () -> Bell.value bell ~cx ~cy);
      time_kernel ~reps "bell_grad(serial)" (fun () ->
          zero2 ();
          Bell.value_grad bell ~cx ~cy ~gx ~gy);
      time_kernel ~reps "bell_value(pool)" (fun () -> Bell.par_value bell_par pool ~cx ~cy);
      time_kernel ~reps "bell_grad(pool)" (fun () ->
          zero2 ();
          Bell.par_value_grad bell_par pool ~cx ~cy ~gx ~gy);
      time_kernel ~reps "hpwl" (fun () -> Hpwl.total pins ~cx ~cy);
      time_kernel ~reps "rudy" (fun () ->
          let r = Rudy.compute ~pool ~pins d ~cx ~cy in
          (Rudy.stats r).Rudy.ace_ratio);
      time_kernel ~reps "netbox_build" (fun () ->
          let nb = Netbox.build ~pool pins ~cx ~cy in
          Netbox.total nb);
    ]
  in
  Printf.printf "%-20s %10s %12s %12s %16s\n" "kernel" "ms/rep" "minor Mw/rep" "major Mw/rep"
    "value";
  List.iter
    (fun s ->
      Printf.printf "%-20s %10.2f %12.3f %12.3f %16.6g\n" s.name (s.wall_s *. 1000.0)
        s.minor_mw s.major_mw s.value)
    samples
