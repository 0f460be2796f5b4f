module Rng = Dpp_util.Rng
module Rect = Dpp_geom.Rect
module Types = Dpp_netlist.Types
module Builder = Dpp_netlist.Builder
module Design = Dpp_netlist.Design
module Validate = Dpp_netlist.Validate
module Pins = Dpp_wirelen.Pins
module Hpwl = Dpp_wirelen.Hpwl
module Netbox = Dpp_wirelen.Netbox
module Lse = Dpp_wirelen.Lse
module Par_grad = Dpp_wirelen.Par_grad
module Pool = Dpp_par.Pool
module Grid = Dpp_density.Grid
module Bell = Dpp_density.Bell
module Rudy = Dpp_congest.Rudy
module Check = Dpp_check

type case = {
  seed : int;
  cells : int;
  nets : int;
  moves : int;
  dp_fraction : float;
  jobs : int;
  eco_ops : int;
}

type failure = { case : case; kind : string; stage : string; detail : string list }

let case_of_seed seed =
  let rng = Rng.create seed in
  {
    seed;
    cells = 120 + Rng.int rng 280;
    nets = 40 + Rng.int rng 120;
    moves = 160 + Rng.int rng 340;
    dp_fraction = float_of_int (Rng.int rng 8) /. 10.0;
    jobs = 1;
    eco_ops = 3 + Rng.int rng 6;
  }

let replay_command c =
  Printf.sprintf "dpp_fuzz --seed %d --cells %d --nets %d --moves %d --dp-fraction %g --eco-ops %d%s"
    c.seed c.cells c.nets c.moves c.dp_fraction c.eco_ops
    (if c.jobs = 1 then "" else Printf.sprintf " --jobs %d" c.jobs)

let pp_failure ppf f =
  Format.fprintf ppf "seed %d failed [%s] at %s:@\n" f.case.seed f.kind f.stage;
  List.iter (fun line -> Format.fprintf ppf "  %s@\n" line) f.detail;
  Format.fprintf ppf "replay: %s" (replay_command f.case)

(* ----- the adversarial micro-design generator -----

   Deliberately nastier than the benchmark generator: degenerate single-pin
   nets, unconnected pins, fixed blockers, coincident pin offsets — the
   corners the incremental cache's extreme-multiplicity bookkeeping and the
   Bookshelf round trip must survive. *)

let random_design ~seed ~cells ~nets =
  let cells = max 8 cells and nets = max 2 nets in
  let rng = Rng.create (seed lxor 0x5f3759df) in
  let widths = Array.init cells (fun _ -> float_of_int (2 + Rng.int rng 5)) in
  let rows = max 4 (int_of_float (sqrt (float_of_int cells)) + 1) in
  let row_height = 10.0 in
  let total_w = Array.fold_left ( +. ) 0.0 widths in
  (* ~50% utilization, and never narrower than the widest cell *)
  let die_w =
    max (Array.fold_left max 8.0 widths) (2.0 *. total_w /. float_of_int rows)
  in
  let die = Rect.make ~xl:0.0 ~yl:0.0 ~xh:die_w ~yh:(row_height *. float_of_int rows) in
  let b = Builder.create ~name:(Printf.sprintf "fz%d" seed) ~die ~row_height ~site_width:1.0 () in
  let pin_pool = ref [] in
  for k = 0 to cells - 1 do
    let w = widths.(k) in
    let kind = if Rng.bernoulli rng 0.1 then Types.Fixed else Types.Movable in
    let id =
      Builder.add_cell b ~name:(Printf.sprintf "c%d" k) ~master:"X" ~w ~h:row_height ~kind
    in
    let npins = 1 + Rng.int rng 3 in
    for _ = 1 to npins do
      (* coincident offsets (the die corner of the cell) are common on
         purpose: equal extremes exercise the multiplicity counters *)
      let dx = if Rng.bool rng then 0.0 else Rng.float rng w in
      let dy = if Rng.bool rng then 0.0 else Rng.float rng row_height in
      let dir = if Rng.bool rng then Types.Input else Types.Output in
      pin_pool := Builder.add_pin b ~cell:id ~dir ~dx ~dy () :: !pin_pool
    done;
    Builder.set_position b id
      ~x:(Rng.float rng (die_w -. w))
      ~y:(float_of_int (Rng.int rng rows) *. row_height)
  done;
  let pool = Array.of_list !pin_pool in
  Rng.shuffle rng pool;
  let cursor = ref 0 in
  let take () =
    if !cursor < Array.length pool then begin
      let p = pool.(!cursor) in
      incr cursor;
      Some p
    end
    else None
  in
  for _ = 1 to nets do
    (* ~10% degenerate single-pin nets; leftovers stay unconnected *)
    let deg = if Rng.bernoulli rng 0.1 then 1 else 2 + Rng.int rng 5 in
    let ps = List.filter_map (fun _ -> take ()) (List.init deg Fun.id) in
    if ps <> [] then ignore (Builder.add_net b ps)
  done;
  Builder.finish b

(* ----- differential move/flip/commit/rollback sequences ----- *)

let netbox_differential (c : case) d =
  let pins = Pins.build d in
  let cx, cy = Pins.centers_of_design d in
  let nb = Netbox.build pins ~cx ~cy in
  let rng = Rng.create ((c.seed * 31) + 7) in
  let die = d.Design.die in
  let movable = Design.movable_ids d in
  if Array.length movable = 0 then None
  else begin
    let fail = ref None in
    let ops = ref 0 in
    while !fail = None && !ops < c.moves do
      incr ops;
      let staged = 1 + Rng.int rng 3 in
      for _ = 1 to staged do
        let i = Rng.choose rng movable in
        if Rng.bernoulli rng 0.2 then Netbox.flip_cell nb i
        else
          Netbox.move_cell nb i
            (Rng.float_in rng die.Rect.xl die.Rect.xh)
            (Rng.float_in rng die.Rect.yl die.Rect.yh)
      done;
      let before = Netbox.total nb in
      let delta = Netbox.delta nb in
      if Rng.bool rng then begin
        Netbox.commit nb;
        let expected = before +. delta in
        if abs_float (Netbox.total nb -. expected) > 1e-6 *. (1.0 +. abs_float expected)
        then
          fail :=
            Some
              (Printf.sprintf "op %d: total after commit %.9g <> pre-commit total+delta %.9g"
                 !ops (Netbox.total nb) expected)
      end
      else Netbox.rollback nb;
      if !fail = None && (!ops mod 16 = 0 || !ops = c.moves) then begin
        let fresh = Hpwl.total pins ~cx ~cy in
        if abs_float (Netbox.total nb -. fresh) > 1e-6 *. (1.0 +. abs_float fresh) then
          fail :=
            Some
              (Printf.sprintf "op %d: netbox total %.9g <> fresh rescan total %.9g" !ops
                 (Netbox.total nb) fresh)
        else
          match Netbox.audit nb with
          | [] -> ()
          | (_, msg) :: _ -> fail := Some (Printf.sprintf "op %d: %s" !ops msg)
      end
    done;
    !fail
  end

let unit_checks (c : case) =
  let d = random_design ~seed:c.seed ~cells:(c.cells / 4) ~nets:c.nets in
  match Check.bookshelf_roundtrip d with
  | _ :: _ as vs -> Some ("bookshelf", "roundtrip", Check.Violation.strings vs)
  | [] -> (
    let gamma = max 1.0 (0.02 *. Rect.width d.Design.die) in
    match Check.gradient ~samples:4 ~seed:c.seed ~gamma d with
    | _ :: _ as vs -> Some ("gradient", "finite-difference", Check.Violation.strings vs)
    | [] -> (
      match netbox_differential c d with
      | Some msg -> Some ("netbox", "differential", [ msg ])
      | None -> None))

let first_mismatch ~what a b =
  let bad = ref None in
  for i = Array.length a - 1 downto 0 do
    if not (Float.equal a.(i) b.(i)) then bad := Some i
  done;
  Option.map
    (fun i -> Printf.sprintf "%s[%d]: %.17g vs %.17g" what i a.(i) b.(i))
    !bad

(* ----- SoA-vs-record differential -----

   The flat core's two promises, checked on the adversarial micro-designs
   (single-pin nets, unconnected pins, fixed blockers, coincident pin
   offsets): [Soa.to_design (Soa.of_design d)] reproduces [d] field for
   field, and every SoA kernel is bit-identical ([Float.equal], no
   tolerance) to the preserved record-path implementation in
   [Dpp_refkernels.Record_path]. *)

let soa_checks (c : case) =
  let module Soa = Dpp_netlist.Soa in
  let module R = Dpp_refkernels.Record_path in
  let d = random_design ~seed:c.seed ~cells:(c.cells / 4) ~nets:c.nets in
  let fail = ref None in
  let record stage msg = if !fail = None then fail := Some (stage, [ msg ]) in
  let d' = Soa.to_design (Soa.of_design d) in
  if d' <> d then record "roundtrip" "to_design (of_design d) differs from d";
  if !fail = None then begin
    let pins = Pins.build d in
    let rp = R.Rpins.build d in
    let cx, cy = Pins.centers_of_design d in
    let nc = Design.num_cells d in
    let gamma = max 1.0 (0.02 *. Rect.width d.Design.die) in
    let h = Hpwl.total pins ~cx ~cy and hr = R.hpwl_total rp ~cx ~cy in
    if not (Float.equal h hr) then
      record "hpwl" (Printf.sprintf "soa %.17g vs record %.17g" h hr);
    (let gx = Array.make nc 0.0 and gy = Array.make nc 0.0 in
     let gx' = Array.make nc 0.0 and gy' = Array.make nc 0.0 in
     let v = Lse.value_grad pins ~gamma ~cx ~cy ~gx ~gy in
     let v' = R.lse_value_grad rp ~gamma ~cx ~cy ~gx:gx' ~gy:gy' in
     if not (Float.equal v v') then
       record "lse" (Printf.sprintf "value: soa %.17g vs record %.17g" v v');
     Option.iter (record "lse") (first_mismatch ~what:"lse gx" gx gx');
     Option.iter (record "lse") (first_mismatch ~what:"lse gy" gy gy'));
    if !fail = None then begin
      let nx, ny = Grid.default_dims d in
      let grid = Grid.build d ~nx ~ny in
      let bell = Bell.create d ~grid ~target_density:0.9 in
      let rbell = R.Rbell.create d ~grid ~target_density:0.9 in
      let gx = Array.make nc 0.0 and gy = Array.make nc 0.0 in
      let gx' = Array.make nc 0.0 and gy' = Array.make nc 0.0 in
      let v = Bell.value_grad bell ~cx ~cy ~gx ~gy in
      let v' = R.Rbell.value_grad rbell ~cx ~cy ~gx:gx' ~gy:gy' in
      if not (Float.equal v v') then
        record "bell" (Printf.sprintf "penalty: soa %.17g vs record %.17g" v v');
      Option.iter (record "bell") (first_mismatch ~what:"gx" gx gx');
      Option.iter (record "bell") (first_mismatch ~what:"gy" gy gy');
      let rd = Rudy.compute ~pins ~nx ~ny d ~cx ~cy in
      let rr = R.rudy rp ~nx ~ny ~cx ~cy in
      Option.iter (record "rudy") (first_mismatch ~what:"demand" rd.Rudy.demand rr)
    end;
    if !fail = None then begin
      let nb = Netbox.build pins ~cx ~cy in
      for n = 0 to Design.num_nets d - 1 do
        if Array.length (Design.net d n).Types.n_pins >= 2 then begin
          let a0, a1, a2, a3 = Netbox.net_box nb n in
          let b0, b1, b2, b3 = R.net_box rp ~cx ~cy n in
          if
            not
              (Float.equal a0 b0 && Float.equal a1 b1 && Float.equal a2 b2
             && Float.equal a3 b3)
          then record "netbox" (Printf.sprintf "net %d box differs from record rescan" n)
        end
      done
    end
  end;
  Option.map (fun (stage, detail) -> "soa", stage, detail) !fail

(* ----- parallel-vs-serial differentials (jobs > 1) -----

   The wirelength and netbox kernels promise bit-identity with the serial
   code; the chunk-merged bell/RUDY kernels promise bit-stability across
   worker counts (jobs-N vs jobs-1 over the same pooled kernel).  Both
   promises are checked here with [Float.equal] — no tolerance. *)

let par_checks (c : case) =
  if c.jobs <= 1 then None
  else begin
    let d = random_design ~seed:c.seed ~cells:(c.cells / 4) ~nets:c.nets in
    let pins = Pins.build d in
    let cx, cy = Pins.centers_of_design d in
    let nc = Design.num_cells d in
    let gamma = max 1.0 (0.02 *. Rect.width d.Design.die) in
    Pool.with_pool ~nworkers:c.jobs @@ fun pool ->
    Pool.with_pool ~nworkers:1 @@ fun pool1 ->
    let fail = ref None in
    let record stage msg = if !fail = None then fail := Some (stage, [ msg ]) in
    (* wirelength: pooled kernel must equal the serial kernel exactly *)
    (let gx = Array.make nc 0.0 and gy = Array.make nc 0.0 in
     let v = Lse.value_grad pins ~gamma ~cx ~cy ~gx ~gy in
     let pg = Par_grad.create pool pins in
     let gx' = Array.make nc 0.0 and gy' = Array.make nc 0.0 in
     let v' = Par_grad.value_grad pg pool ~gamma ~cx ~cy ~gx:gx' ~gy:gy' in
     if not (Float.equal v v') then
       record "gradient"
         (Printf.sprintf "lse value: serial %.17g vs %d-worker %.17g" v c.jobs v');
     Option.iter (record "gradient") (first_mismatch ~what:"lse gx" gx gx');
     Option.iter (record "gradient") (first_mismatch ~what:"lse gy" gy gy'));
    (* density: the pooled kernel must not depend on the worker count *)
    if !fail = None then begin
      let nx, ny = Grid.default_dims d in
      let grid = Grid.build d ~nx ~ny in
      let bell = Bell.create d ~grid ~target_density:0.9 in
      let run p =
        let bp = Bell.par_create bell in
        let gx = Array.make nc 0.0 and gy = Array.make nc 0.0 in
        let v = Bell.par_value_grad bp p ~cx ~cy ~gx ~gy in
        v, gx, gy
      in
      let v, gx, gy = run pool1 in
      let v', gx', gy' = run pool in
      if not (Float.equal v v') then
        record "bell"
          (Printf.sprintf "penalty: 1-worker %.17g vs %d-worker %.17g" v c.jobs v');
      Option.iter (record "bell") (first_mismatch ~what:"gx" gx gx');
      Option.iter (record "bell") (first_mismatch ~what:"gy" gy gy')
    end;
    (* RUDY: same worker-count independence over the pooled scatter *)
    if !fail = None then begin
      let r1 = Rudy.compute ~pool:pool1 ~pins d ~cx ~cy in
      let rn = Rudy.compute ~pool ~pins d ~cx ~cy in
      Option.iter (record "rudy")
        (first_mismatch ~what:"demand" r1.Rudy.demand rn.Rudy.demand)
    end;
    (* netbox: pooled build/audit must equal the serial ones exactly *)
    if !fail = None then begin
      let nb = Netbox.build pins ~cx ~cy in
      let nbp = Netbox.build ~pool pins ~cx ~cy in
      if not (Float.equal (Netbox.total nb) (Netbox.total nbp)) then
        record "netbox"
          (Printf.sprintf "total: serial %.17g vs %d-worker %.17g" (Netbox.total nb)
             c.jobs (Netbox.total nbp));
      for n = 0 to Design.num_nets d - 1 do
        if Array.length (Design.net d n).Types.n_pins >= 2 then begin
          let a0, a1, a2, a3 = Netbox.net_box nb n in
          let b0, b1, b2, b3 = Netbox.net_box nbp n in
          if
            not
              (Float.equal a0 b0 && Float.equal a1 b1 && Float.equal a2 b2
             && Float.equal a3 b3)
          then record "netbox" (Printf.sprintf "net %d box differs under pooled build" n)
        end
      done;
      match Netbox.audit ~pool nbp with
      | [] -> ()
      | (_, msg) :: _ -> record "netbox" (Printf.sprintf "pooled audit: %s" msg)
    end;
    Option.map (fun (stage, detail) -> "par", stage, detail) !fail
  end

(* ----- back-end stage determinism (jobs > 1) -----

   Legal, Detail and Flip run evaluate-parallel/commit-serial on the
   pool; their promise is that assignment, coordinates and orientations
   do not depend on the worker count.  Each run rebuilds the design from
   the seed (Flip mutates orientations and the shared pin view's
   offsets, so runs must not share state). *)

let backend_checks (c : case) =
  if c.jobs <= 1 then None
  else begin
    let run_backend jobs =
      let d = random_design ~seed:c.seed ~cells:(c.cells / 4) ~nets:c.nets in
      let cx, cy = Pins.centers_of_design d in
      Pool.with_pool ~nworkers:jobs @@ fun pool ->
      let pins = Pins.build d in
      let legal = Dpp_place.Legal.run d ~pool ~soa:pins.Pins.soa ~cx ~cy () in
      let nb = Netbox.build pins ~cx:legal.Dpp_place.Legal.cx ~cy:legal.Dpp_place.Legal.cy in
      ignore (Dpp_place.Detail.run d ~pool ~max_passes:2 ~netbox:nb ~legal ());
      ignore (Dpp_place.Flip.run d ~pool ~netbox:nb ());
      ( legal.Dpp_place.Legal.assignment,
        legal.Dpp_place.Legal.cx,
        legal.Dpp_place.Legal.cy,
        Array.copy d.Design.orient )
    in
    let a1, x1, y1, o1 = run_backend 1 in
    let an, xn, yn, on_ = run_backend c.jobs in
    let fail = ref None in
    let record msg = if !fail = None then fail := Some msg in
    if a1 <> an then record "row assignment depends on the worker count";
    Option.iter record (first_mismatch ~what:"cx" x1 xn);
    Option.iter record (first_mismatch ~what:"cy" y1 yn);
    if o1 <> on_ then record "orientations depend on the worker count";
    Option.map (fun msg -> "backend", [ msg ]) !fail
  end

let flow_config (c : case) =
  {
    Config.structure_aware with
    Config.gp_rounds = 6;
    gp_inner_iters = 20;
    detail_passes = 2;
    seed = c.seed;
    jobs = c.jobs;
  }

let flow_checks (c : case) =
  let spec =
    Dpp_gen.Presets.scaled
      ~name:(Printf.sprintf "fuzz%d" c.seed)
      ~seed:c.seed ~cells:(max 100 c.cells) ~dp_fraction:c.dp_fraction
  in
  let d = Dpp_gen.Compose.build spec in
  try
    ignore (Flow.run_both ~check:true d (flow_config c));
    (* whole-flow determinism differential: the headline guarantee is that
       the trajectory does not depend on the worker count, so the final
       coordinates at jobs-N must equal those at jobs-1 bit for bit *)
    if c.jobs <= 1 then None
    else begin
      let cfg = flow_config c in
      let r1 = Flow.run d { cfg with Config.jobs = 1 } in
      let rn = Flow.run d { cfg with Config.jobs = c.jobs } in
      let diff axis a b =
        Option.map
          (fun m -> Printf.sprintf "final %s coordinates diverge: %s" axis m)
          (first_mismatch ~what:axis a b)
      in
      (* the per-stage HPWL trace pins down which stage diverged first;
         now that Legal/Detail/Flip are pooled it covers them too *)
      let trace r =
        List.map (fun (s : Dpp_report.Trace.stage) -> s.Dpp_report.Trace.hpwl_after)
          r.Flow.stage_trace
        |> Array.of_list
      in
      let names r =
        List.map (fun (s : Dpp_report.Trace.stage) -> s.Dpp_report.Trace.name)
          r.Flow.stage_trace
      in
      let trace_diff =
        if names r1 <> names rn then Some "stage lists diverge across worker counts"
        else
          Option.map
            (fun m -> Printf.sprintf "per-stage HPWL trace diverges: %s" m)
            (first_mismatch ~what:"hpwl_after" (trace r1) (trace rn))
      in
      match
        ( diff "x" r1.Flow.design.Design.x rn.Flow.design.Design.x,
          diff "y" r1.Flow.design.Design.y rn.Flow.design.Design.y,
          trace_diff )
      with
      | None, None, None -> None
      | Some m, _, _ | _, Some m, _ | _, _, Some m -> Some ("par-determinism", [ m ])
    end
  with
  | Flow.Check_failed { stage; violations } -> Some (stage, violations)
  | Flow.Invalid_design issues ->
    Some
      ( "validate",
        List.map (fun i -> Format.asprintf "%a" Validate.pp_issue i) issues )

(* ----- multilevel-vs-flat differential -----

   The multilevel V-cycle promises the same flow contract as flat global
   placement: every invariant oracle stays clean at every stage boundary
   (including the cluster-integrity oracle at the gp boundary — no
   datapath group split across clusters, areas conserved), and the final
   quality stays within a bounded factor of the flat result.  Both runs
   go through check mode, so a dirty level fails here before the quality
   comparison is even reached.  [Ml_on] and a low coarsening floor force
   the V-cycle on at fuzz-case sizes, where it would normally not
   engage. *)

let ml_hpwl_factor = 1.6

let ml_checks (c : case) =
  let spec =
    Dpp_gen.Presets.scaled
      ~name:(Printf.sprintf "fuzzml%d" c.seed)
      ~seed:c.seed ~cells:(max 100 c.cells) ~dp_fraction:c.dp_fraction
  in
  let d = Dpp_gen.Compose.build spec in
  let cfg ml =
    {
      (flow_config c) with
      Config.multilevel = ml;
      ml_min_cells = 40;
      ml_max_levels = 2;
    }
  in
  try
    let ml = Flow.run ~check:true d (cfg Config.Ml_on) in
    let flat = Flow.run ~check:true d (cfg Config.Ml_off) in
    let ratio = ml.Flow.hpwl_final /. flat.Flow.hpwl_final in
    if Float.is_finite ratio && ratio <= ml_hpwl_factor then None
    else
      Some
        ( "multilevel-vs-flat",
          [
            Printf.sprintf "multilevel HPWL %.0f vs flat %.0f: ratio %.3f above bound %.2f"
              ml.Flow.hpwl_final flat.Flow.hpwl_final ratio ml_hpwl_factor;
          ] )
  with
  | Flow.Check_failed { stage; violations } ->
    Some (Printf.sprintf "multilevel-%s" stage, violations)
  | Flow.Invalid_design issues ->
    Some
      ( "multilevel-validate",
        List.map (fun i -> Format.asprintf "%a" Validate.pp_issue i) issues )

(* ----- routability differential -----

   Two promises fuzzed with routability steering on: the virtual-area
   inflation is a pure density-model overlay (setting factors and
   resetting restores the potential bit for bit), and a
   congestion-steered flow still satisfies every stage oracle — legality,
   group rigidity, the congestion/rt-ledger audits — while staying within
   a bounded HPWL factor of the congestion-blind flow on the same
   design. *)

let rt_hpwl_factor = 1.5

let rt_checks (c : case) =
  (* inflation round trip on the adversarial micro-designs *)
  let d = random_design ~seed:c.seed ~cells:(c.cells / 4) ~nets:c.nets in
  let cx, cy = Pins.centers_of_design d in
  let nx, ny = Grid.default_dims d in
  let grid = Grid.build d ~nx ~ny in
  let bell = Bell.create d ~grid ~target_density:0.9 in
  let v0 = Bell.value bell ~cx ~cy in
  let rng = Rng.create ((c.seed * 17) + 3) in
  let factors =
    Array.init (Design.num_cells d) (fun _ -> 1.0 +. Rng.float rng 1.0)
  in
  Bell.set_inflation bell factors;
  Bell.reset_inflation bell;
  let v1 = Bell.value bell ~cx ~cy in
  Bell.set_inflation bell (Array.make (Design.num_cells d) 1.0);
  let v2 = Bell.value bell ~cx ~cy in
  if not (Float.equal v0 v1) then
    Some
      ( "inflation-roundtrip",
        [ Printf.sprintf "reset_inflation: %.17g vs pristine %.17g" v1 v0 ] )
  else if not (Float.equal v0 v2) then
    Some
      ( "inflation-roundtrip",
        [ Printf.sprintf "all-ones inflation: %.17g vs pristine %.17g" v2 v0 ] )
  else begin
    (* steered-vs-blind flow differential under full check mode *)
    let spec =
      Dpp_gen.Presets.scaled
        ~name:(Printf.sprintf "fuzzrt%d" c.seed)
        ~seed:c.seed ~cells:(max 100 c.cells) ~dp_fraction:c.dp_fraction
    in
    let d = Dpp_gen.Compose.build spec in
    let cfg = flow_config c in
    try
      let on =
        Flow.run ~check:true d { cfg with Config.routability = true; rt_interval = 2 }
      in
      let off = Flow.run d cfg in
      let ratio = on.Flow.hpwl_final /. off.Flow.hpwl_final in
      if Float.is_finite ratio && ratio <= rt_hpwl_factor then None
      else
        Some
          ( "routability-vs-blind",
            [
              Printf.sprintf "steered HPWL %.0f vs blind %.0f: ratio %.3f above bound %.2f"
                on.Flow.hpwl_final off.Flow.hpwl_final ratio rt_hpwl_factor;
            ] )
    with
    | Flow.Check_failed { stage; violations } ->
      Some (Printf.sprintf "routability-%s" stage, violations)
    | Flow.Invalid_design issues ->
      Some
        ( "routability-validate",
          List.map (fun i -> Format.asprintf "%a" Validate.pp_issue i) issues )
  end

(* ----- incremental-ECO differential -----

   The ECO contract fuzzed here: for a seeded edit list against a placed
   base, the incremental path must (a) keep every frozen cell bit-identical
   to the base placement and (b) pass the full legality oracles from the
   legalize boundary on and the Steiner oracle at the metrics boundary,
   which recomputes every net the base record's reuse skipped (Eco.run's
   check mode).  A fallback run trivially
   satisfies both, so fallbacks are not failures.  On failure the edit
   list itself is minimized: greedily drop edits while the failure still
   reproduces — the seeded generator only ever references base cell ids,
   so every sublist is a valid edit list. *)

let eco_edit_failure ~(base : Eco.base) ~cfg es =
  if es = [] then None
  else
    match Eco.run ~check:true ~base es cfg with
    | (r : Eco.result) ->
      if r.Eco.fallback then None
      else begin
        let rd = r.Eco.flow.Flow.design in
        let base = base.Eco.design in
        let bad = ref None in
        Array.iter
          (fun i ->
            if
              !bad = None
              && not
                   (Float.equal rd.Design.x.(i) base.Design.x.(i)
                   && Float.equal rd.Design.y.(i) base.Design.y.(i)
                   && rd.Design.orient.(i) = base.Design.orient.(i))
            then bad := Some i)
          r.Eco.plan.Eco.frozen;
        Option.map
          (fun i ->
            ( "clean-region",
              [
                Printf.sprintf "frozen cell %d moved: base (%.17g, %.17g) -> eco (%.17g, %.17g)"
                  i base.Design.x.(i) base.Design.y.(i) rd.Design.x.(i) rd.Design.y.(i);
              ] ))
          !bad
      end
    | exception Flow.Check_failed { stage; violations } -> Some (stage, violations)
    | exception Invalid_argument m -> Some ("apply", [ m ])

(* Greedy one-at-a-time delta debugging over the edit list, to fixpoint. *)
let minimize_edits failing edits =
  let rec drop es =
    let n = List.length es in
    if n <= 1 then es
    else begin
      let rec try_k k =
        if k >= n then es
        else begin
          let es' = List.filteri (fun i _ -> i <> k) es in
          match failing es' with Some _ -> drop es' | None -> try_k (k + 1)
        end
      in
      try_k 0
    end
  in
  drop edits

let eco_checks (c : case) =
  let spec =
    Dpp_gen.Presets.scaled
      ~name:(Printf.sprintf "fuzzeco%d" c.seed)
      ~seed:c.seed ~cells:(max 100 c.cells) ~dp_fraction:c.dp_fraction
  in
  let d = Dpp_gen.Compose.build spec in
  let cfg = { (flow_config c) with Config.mode = Config.Baseline } in
  let base = Eco.base_of_result (Flow.run d cfg) in
  let failing = eco_edit_failure ~base ~cfg in
  match Eco.random_edits ~ops:c.eco_ops ~seed:c.seed base.Eco.design with
  | exception Invalid_argument m -> Some ("edit-gen", [ m ])
  | edits -> (
    match failing edits with
    | None -> None
    | Some _ ->
      let minimal = minimize_edits failing edits in
      let stage, detail =
        match failing minimal with Some f -> f | None -> Option.get (failing edits)
      in
      Some
        ( stage,
          detail
          @ [
              Printf.sprintf "minimal edit list (%d of %d edits): %s" (List.length minimal)
                (List.length edits)
                (Dpp_report.Json.encode (Eco.edits_to_json minimal));
            ] ))

let run_case ?(flow = true) (c : case) =
  match unit_checks c with
  | Some (kind, stage, detail) -> Some { case = c; kind; stage; detail }
  | None -> (
    match soa_checks c with
    | Some (kind, stage, detail) -> Some { case = c; kind; stage; detail }
    | None -> (
    match par_checks c with
    | Some (kind, stage, detail) -> Some { case = c; kind; stage; detail }
    | None -> (
      match backend_checks c with
      | Some (stage, detail) -> Some { case = c; kind = "par"; stage; detail }
      | None ->
        if not flow then None
        else (
          match flow_checks c with
          | Some (stage, detail) -> Some { case = c; kind = "flow"; stage; detail }
          | None -> (
            match ml_checks c with
            | Some (stage, detail) -> Some { case = c; kind = "multilevel"; stage; detail }
            | None -> (
              match rt_checks c with
              | Some (stage, detail) ->
                Some { case = c; kind = "routability"; stage; detail }
              | None -> (
                match eco_checks c with
                | Some (stage, detail) -> Some { case = c; kind = "eco"; stage; detail }
                | None -> None)))))))

let shrink rerun failure =
  let rec go (f : failure) =
    let c = f.case in
    let candidates =
      [
        (* Presets.scaled refuses designs under 100 cells *)
        { c with cells = max 100 (c.cells / 2) };
        { c with nets = max 1 (c.nets / 2) };
        { c with moves = max 1 (c.moves / 2) };
        { c with jobs = (if c.jobs > 2 then c.jobs / 2 else 1) };
        { c with eco_ops = max 1 (c.eco_ops / 2) };
      ]
      |> List.filter (fun c' -> c' <> c)
    in
    match List.find_map rerun candidates with Some f' -> go f' | None -> f
  in
  go failure
