module Rect = Dpp_geom.Rect
module Types = Dpp_netlist.Types
module Design = Dpp_netlist.Design
module Validate = Dpp_netlist.Validate
module Bookshelf = Dpp_netlist.Bookshelf
module Groups = Dpp_netlist.Groups
module Pins = Dpp_wirelen.Pins
module Netbox = Dpp_wirelen.Netbox
module Lse = Dpp_wirelen.Lse
module Par_grad = Dpp_wirelen.Par_grad
module Dgroup = Dpp_structure.Dgroup
module Legality = Dpp_place.Legality
module Rng = Dpp_util.Rng

let cell_name d i = (Design.cell d i).Types.c_name

let finite d ~cx ~cy =
  Array.fold_left
    (fun acc i ->
      let bad v axis =
        Violation.v ~oracle:"finite"
          ~subject:(Printf.sprintf "cell %s" (cell_name d i))
          "%s coordinate is %s" axis
          (if Float.is_nan v then "NaN" else "infinite")
      in
      let acc = if Float.is_finite cx.(i) then acc else bad cx.(i) "x" :: acc in
      if Float.is_finite cy.(i) then acc else bad cy.(i) "y" :: acc)
    []
    (Design.movable_ids d)
  |> List.rev

let of_legality ~oracle d violation =
  let subj i = Printf.sprintf "cell %s" (cell_name d i) in
  match violation with
  | Legality.Outside i -> Violation.v ~oracle ~subject:(subj i) "lies outside the die"
  | Legality.Off_row i -> Violation.v ~oracle ~subject:(subj i) "bottom edge is off-row"
  | Legality.Off_site i -> Violation.v ~oracle ~subject:(subj i) "is off the site grid"
  | Legality.Overlap (i, j) ->
    Violation.v ~oracle ~subject:(subj i) "overlaps movable cell %s" (cell_name d j)
  | Legality.Overlaps_fixed (i, j) ->
    Violation.v ~oracle ~subject:(subj i) "overlaps fixed cell %s" (cell_name d j)

let audit ?tolerance ~oracle ~keep d ~cx ~cy =
  Legality.check ?tolerance d ~cx ~cy
  |> List.filter keep
  |> List.map (of_legality ~oracle d)

let overlap_bounds ?tolerance d ~cx ~cy =
  audit ?tolerance ~oracle:"overlap-bounds"
    ~keep:(function
      | Legality.Outside _ | Legality.Overlap _ | Legality.Overlaps_fixed _ -> true
      | Legality.Off_row _ | Legality.Off_site _ -> false)
    d ~cx ~cy

let row_site ?tolerance d ~cx ~cy =
  audit ?tolerance ~oracle:"row-site"
    ~keep:(function
      | Legality.Off_row _ | Legality.Off_site _ -> true
      | Legality.Outside _ | Legality.Overlap _ | Legality.Overlaps_fixed _ -> false)
    d ~cx ~cy

let legal ?tolerance d ~cx ~cy =
  audit ?tolerance ~oracle:"legal" ~keep:(fun _ -> true) d ~cx ~cy

let group_integrity ?(tol = 1e-6) d dgroups ~cx ~cy =
  let acc = ref [] in
  let owner = Hashtbl.create 256 in
  List.iter
    (fun (dg : Dgroup.t) ->
      let gname = dg.Dgroup.group.Groups.g_name in
      let subject = Printf.sprintf "group %s" gname in
      Array.iter
        (fun c ->
          (match Hashtbl.find_opt owner c with
          | Some other when other <> gname ->
            acc :=
              Violation.v ~oracle:"groups"
                ~subject:(Printf.sprintf "cell %s" (cell_name d c))
                "belongs to both group %s and group %s" other gname
              :: !acc
          | _ -> Hashtbl.replace owner c gname);
          let r =
            Rect.of_center ~cx:cx.(c) ~cy:cy.(c) ~w:(Design.cell d c).Types.c_width
              ~h:(Design.cell d c).Types.c_height
          in
          if not (Rect.contains_rect (Rect.expand d.Design.die 1e-6) r) then
            acc :=
              Violation.v ~oracle:"groups"
                ~subject:(Printf.sprintf "cell %s" (cell_name d c))
                "member of group %s lies outside the die" gname
              :: !acc)
        dg.Dgroup.cells;
      let err = Dgroup.alignment_error dg ~cx ~cy in
      if err > tol then
        acc :=
          Violation.v ~oracle:"groups" ~subject
            "snapped array has alignment error %.3g (tolerance %.3g)" err tol
          :: !acc)
    dgroups;
  List.rev !acc

let netbox_sync ?pool ?tol ?(net_name = fun n -> Printf.sprintf "#%d" n) nb =
  Netbox.audit ?pool ?tol nb
  |> List.map (fun (net, msg) ->
         match net with
         | Some n ->
           Violation.v ~oracle:"netbox" ~subject:(Printf.sprintf "net %s" (net_name n)) "%s"
             msg
         | None -> Violation.v ~oracle:"netbox" ~subject:"total" "%s" msg)

let gradient ?pool ?(samples = 12) ?(eps = 1e-5) ?(tol = 1e-3) ~seed ~gamma d =
  let pins = Pins.build d in
  let cx, cy = Pins.centers_of_design d in
  let nc = Design.num_cells d in
  let gx = Array.make nc 0.0 and gy = Array.make nc 0.0 in
  (match pool with
  | Some pool ->
    let pg = Par_grad.create pool pins in
    ignore (Par_grad.value_grad pg pool ~gamma ~cx ~cy ~gx ~gy)
  | None -> ignore (Lse.value_grad pins ~gamma ~cx ~cy ~gx ~gy));
  let movable = Design.movable_ids d in
  let rng = Rng.create seed in
  let n = min samples (Array.length movable) in
  let picks =
    if n = 0 then [||]
    else
      Array.map
        (fun k -> movable.(k))
        (Rng.sample_without_replacement rng n (Array.length movable))
  in
  (* Only nets incident to the perturbed cell change under the
     perturbation, so the central difference is taken over those nets
     alone — O(local degree) per sample instead of a full objective
     evaluation, and better conditioned (no cancellation against the
     unchanged rest of the design).  Samples are batched over the pool;
     each lands in its own slot and nothing shared is mutated. *)
  let incident_nets i =
    let nets = ref [] in
    Array.iter
      (fun p ->
        let nid = (Design.pin d p).Types.p_net in
        if
          nid >= 0
          && Array.length (Design.net d nid).Types.n_pins >= 2
          && not (List.mem nid !nets)
        then nets := nid :: !nets)
      (Design.cell d i).Types.c_pins;
    List.rev !nets
  in
  let eval_nets (view : Pins.t) nets ~pert ~dx ~dy =
    List.fold_left
      (fun acc nid ->
        let np = (Design.net d nid).Types.n_pins in
        let k = Array.length np in
        for idx = 0 to k - 1 do
          let p = np.(idx) in
          let c = Dpp_util.Compact.I32.get view.Pins.pin_cell p in
          let px = if c = pert then cx.(c) +. dx else cx.(c) in
          let py = if c = pert then cy.(c) +. dy else cy.(c) in
          view.Pins.scratch_x.(idx) <- px +. view.Pins.off_x.(p);
          view.Pins.scratch_y.(idx) <- py +. view.Pins.off_y.(p)
        done;
        let vx = Lse.axis_value_grad view.Pins.scratch_x k ~gamma ~w:view.Pins.scratch_w ~u:view.Pins.scratch_u ~v:view.Pins.scratch_v ~want_grad:false in
        let vy = Lse.axis_value_grad view.Pins.scratch_y k ~gamma ~w:view.Pins.scratch_w ~u:view.Pins.scratch_u ~v:view.Pins.scratch_v ~want_grad:false in
        acc +. ((Design.net d nid).Types.n_weight *. (vx +. vy)))
      0.0 nets
  in
  let num_x = Array.make (max 1 n) 0.0 and num_y = Array.make (max 1 n) 0.0 in
  let sample_range (view : Pins.t) lo hi =
    for s = lo to hi - 1 do
      let i = picks.(s) in
      let nets = incident_nets i in
      num_x.(s) <-
        (eval_nets view nets ~pert:i ~dx:eps ~dy:0.0
        -. eval_nets view nets ~pert:i ~dx:(-.eps) ~dy:0.0)
        /. (2.0 *. eps);
      num_y.(s) <-
        (eval_nets view nets ~pert:i ~dx:0.0 ~dy:eps
        -. eval_nets view nets ~pert:i ~dx:0.0 ~dy:(-.eps))
        /. (2.0 *. eps)
    done
  in
  (match pool with
  | None -> sample_range pins 0 n
  | Some pool ->
    let views =
      Array.init
        (Dpp_par.Pool.nworkers pool)
        (fun w -> if w = 0 then pins else Pins.clone_scratch pins)
    in
    Dpp_par.Pool.iter_chunks pool ~n (fun ~worker ~chunk:_ ~lo ~hi ->
        sample_range views.(worker) lo hi));
  let acc = ref [] in
  let check numeric g axis i =
    let err = abs_float (numeric -. g.(i)) /. max 1.0 (abs_float numeric) in
    if err > tol then
      acc :=
        Violation.v ~oracle:"gradient"
          ~subject:(Printf.sprintf "cell %s" (cell_name d i))
          "lse %s-gradient %.6g disagrees with finite difference %.6g (rel err %.3g)" axis g.(i)
          numeric err
        :: !acc
  in
  Array.iteri
    (fun s i ->
      check num_x.(s) gx "x" i;
      check num_y.(s) gy "y" i)
    picks;
  List.rev !acc

(* ----- routability / congestion ----- *)

module Rudy = Dpp_congest.Rudy
module Gp = Dpp_place.Gp

let congestion ?pool ?(tol = 1e-9) ~pins d ~(stats : Rudy.stats) ~cx ~cy =
  let oracle = "congestion" in
  let r = Rudy.compute ?pool ~pins d ~cx ~cy in
  let s = Rudy.stats r in
  let acc = ref [] in
  let check subject fresh stored =
    let err = abs_float (fresh -. stored) /. max 1.0 (abs_float fresh) in
    if err > tol then
      acc :=
        Violation.v ~oracle ~subject
          "stored %.9g disagrees with recomputed %.9g (rel err %.3g)" stored fresh err
        :: !acc
  in
  check "max_ratio" s.Rudy.max_ratio stats.Rudy.max_ratio;
  check "avg_ratio" s.Rudy.avg_ratio stats.Rudy.avg_ratio;
  check "p95_ratio" s.Rudy.p95_ratio stats.Rudy.p95_ratio;
  check "ace_ratio" s.Rudy.ace_ratio stats.Rudy.ace_ratio;
  check "overflowed_bins" s.Rudy.overflowed_bins stats.Rudy.overflowed_bins;
  List.rev !acc

let steiner ~pins ~total ~cx ~cy =
  let fresh = Dpp_steiner.Rsmt.total pins ~cx ~cy in
  if Float.equal fresh total then []
  else
    [
      Violation.v ~oracle:"steiner" ~subject:"total"
        "stored %.17g differs from recomputed %.17g" total fresh;
    ]

let rt_ledger ?(tol = 1e-9) (rounds : Gp.rt_round list) =
  let oracle = "rt-ledger" in
  let acc = ref [] in
  let add subject fmt =
    Printf.ksprintf
      (fun detail -> acc := Violation.v ~oracle ~subject "%s" detail :: !acc)
      fmt
  in
  let best = ref infinity in
  let prev_round = ref min_int in
  List.iter
    (fun (r : Gp.rt_round) ->
      let subject = Printf.sprintf "round %d" r.Gp.rt_round in
      if r.Gp.rt_round < !prev_round then
        add subject "steering rounds out of order (previous %d)" !prev_round;
      prev_round := r.Gp.rt_round;
      best := min !best r.Gp.rt_ace;
      if abs_float (r.Gp.rt_best -. !best) > tol *. max 1.0 (abs_float !best) then
        add subject "best-ACE envelope %.9g is not the running minimum %.9g" r.Gp.rt_best
          !best;
      if not (Float.is_finite r.Gp.rt_virtual) || r.Gp.rt_virtual < 0.0 then
        add subject "virtual area %.9g is negative or non-finite" r.Gp.rt_virtual;
      if r.Gp.rt_virtual > r.Gp.rt_budget +. (tol *. max 1.0 r.Gp.rt_budget) then
        add subject "virtual area %.9g exceeds the budget %.9g" r.Gp.rt_virtual
          r.Gp.rt_budget;
      if r.Gp.rt_inflated < 0 then
        add subject "negative inflated-cell count %d" r.Gp.rt_inflated)
    rounds;
  (match List.rev rounds with
  | last :: _ ->
    if last.Gp.rt_virtual <> 0.0 || last.Gp.rt_inflated <> 0 then
      add "close" "ledger not closed: %.9g virtual area over %d cells outstanding"
        last.Gp.rt_virtual last.Gp.rt_inflated
  | [] -> ());
  List.rev !acc

let validate d =
  Validate.check d |> Validate.errors
  |> List.map (fun (i : Validate.issue) ->
         Violation.v ~oracle:"validate" ~subject:i.Validate.subject "%s" i.Validate.message)

(* ----- Bookshelf write -> read -> compare ----- *)

let with_temp_dir f =
  let dir = Filename.temp_file "dpp_check" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun file -> Sys.remove (Filename.concat dir file)) (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () -> f dir)

(* Per net, the multiset of connected endpoints (cell name, pin offset).
   Offsets pass through the writer at finite decimal precision, so the
   multisets are matched under a tolerance rather than compared exactly.
   Unconnected pins are not representable in Bookshelf, so they never
   enter the comparison. *)
let net_endpoints d n =
  Array.to_list (Design.net d n).Types.n_pins
  |> List.map (fun p ->
         let pin = Design.pin d p in
         (cell_name d pin.Types.p_cell, pin.Types.p_dx, pin.Types.p_dy))

let endpoints_match ?(tol = 1e-3) a b =
  let remaining = ref b in
  List.length a = List.length b
  && List.for_all
       (fun (cn, dx, dy) ->
         let rec pick acc = function
           | [] -> false
           | (cn', dx', dy') :: rest
             when cn = cn'
                  && abs_float (dx -. dx') <= tol
                  && abs_float (dy -. dy') <= tol ->
             remaining := List.rev_append acc rest;
             true
           | e :: rest -> pick (e :: acc) rest
         in
         pick [] !remaining)
       a

let bookshelf_roundtrip d =
  let oracle = "bookshelf" in
  let fail =
    try
      with_temp_dir (fun dir ->
          let base = Filename.concat dir "rt" in
          Bookshelf.write d ~basename:base;
          Ok (Bookshelf.read ~basename:base))
    with
    | Bookshelf.Parse_error msg -> Error (Printf.sprintf "re-read failed: %s" msg)
    | Sys_error msg -> Error (Printf.sprintf "I/O failed: %s" msg)
  in
  match fail with
  | Error msg -> [ Violation.v ~oracle ~subject:"design" "%s" msg ]
  | Ok d' ->
    let acc = ref [] in
    let add subject fmt = Printf.ksprintf (fun detail ->
        acc := Violation.v ~oracle ~subject "%s" detail :: !acc) fmt
    in
    let check_count what a b = if a <> b then add "design" "%s count %d became %d" what a b in
    check_count "cell" (Design.num_cells d) (Design.num_cells d');
    check_count "net" (Design.num_nets d) (Design.num_nets d');
    check_count "row" d.Design.num_rows d'.Design.num_rows;
    check_count "group" (List.length d.Design.groups) (List.length d'.Design.groups);
    if Design.num_cells d = Design.num_cells d' then
      for i = 0 to Design.num_cells d - 1 do
        let c = Design.cell d i and c' = Design.cell d' i in
        let subject = Printf.sprintf "cell %s" c.Types.c_name in
        if c.Types.c_name <> c'.Types.c_name then
          add subject "name became %s" c'.Types.c_name;
        if c.Types.c_master <> c'.Types.c_master then
          add subject "master %s became %s" c.Types.c_master c'.Types.c_master;
        if Types.is_fixed_kind c.Types.c_kind <> Types.is_fixed_kind c'.Types.c_kind then
          add subject "fixedness changed";
        if abs_float (c.Types.c_width -. c'.Types.c_width) > 1e-3 then
          add subject "width %.4f became %.4f" c.Types.c_width c'.Types.c_width;
        if abs_float (c.Types.c_height -. c'.Types.c_height) > 1e-3 then
          add subject "height %.4f became %.4f" c.Types.c_height c'.Types.c_height;
        if
          abs_float (d.Design.x.(i) -. d'.Design.x.(i)) > 1e-3
          || abs_float (d.Design.y.(i) -. d'.Design.y.(i)) > 1e-3
        then
          add subject "position (%.4f, %.4f) became (%.4f, %.4f)" d.Design.x.(i)
            d.Design.y.(i) d'.Design.x.(i) d'.Design.y.(i)
      done;
    if Design.num_nets d = Design.num_nets d' then
      for n = 0 to Design.num_nets d - 1 do
        if not (endpoints_match (net_endpoints d n) (net_endpoints d' n)) then
          add
            (Printf.sprintf "net %s" (Design.net d n).Types.n_name)
            "connected pin multiset changed"
      done;
    if List.length d.Design.groups = List.length d'.Design.groups then
      List.iter2
        (fun g g' ->
          let subject = Printf.sprintf "group %s" g.Groups.g_name in
          if g.Groups.g_name <> g'.Groups.g_name then
            add subject "name became %s" g'.Groups.g_name;
          if
            Groups.num_slices g <> Groups.num_slices g'
            || Groups.num_stages g <> Groups.num_stages g'
          then add subject "shape changed";
          if Groups.jaccard g g' < 1.0 then add subject "membership changed")
        d.Design.groups d'.Design.groups;
    List.rev !acc

(* ----- multilevel cluster integrity ----- *)

let cluster_integrity ?(tol = 1e-6) (lvl : Dpp_coarsen.level) =
  let oracle = "clusters" in
  let fine = lvl.Dpp_coarsen.fine and coarse = lvl.Dpp_coarsen.coarse in
  let nf = Design.num_cells fine and k = Design.num_cells coarse in
  let acc = ref [] in
  let add subject fmt =
    Printf.ksprintf
      (fun detail -> acc := Violation.v ~oracle ~subject "%s" detail :: !acc)
      fmt
  in
  let level_subject = Printf.sprintf "level %s" coarse.Design.name in
  if Array.length lvl.Dpp_coarsen.cluster_of <> nf then
    add level_subject "cluster map covers %d of %d fine cells"
      (Array.length lvl.Dpp_coarsen.cluster_of) nf
  else if Array.length lvl.Dpp_coarsen.members <> k then
    add level_subject "member map covers %d of %d clusters"
      (Array.length lvl.Dpp_coarsen.members) k
  else begin
    (* partition: every fine cell in exactly one cluster, maps inverse *)
    let seen = Array.make nf 0 in
    Array.iteri
      (fun cid ms ->
        Array.iter
          (fun i ->
            if i < 0 || i >= nf then add level_subject "cluster %d lists bad cell id %d" cid i
            else begin
              seen.(i) <- seen.(i) + 1;
              if lvl.Dpp_coarsen.cluster_of.(i) <> cid then
                add
                  (Printf.sprintf "cell %s" (cell_name fine i))
                  "listed in cluster %d but mapped to %d" cid
                  lvl.Dpp_coarsen.cluster_of.(i)
            end)
          ms)
      lvl.Dpp_coarsen.members;
    Array.iteri
      (fun i n ->
        if n <> 1 then
          add (Printf.sprintf "cell %s" (cell_name fine i)) "appears in %d clusters" n)
      seen;
    (* kinds and areas: movables cluster into movables with conserved
       area (group clusters own their idealized array footprint, which
       includes spacing, so member area may only fall below it);
       fixed/pads are preserved one-to-one *)
    let is_group = Array.make k false in
    List.iter (fun (cid, _) -> is_group.(cid) <- true) lvl.Dpp_coarsen.group_of;
    for cid = 0 to k - 1 do
      let ms = lvl.Dpp_coarsen.members.(cid) in
      let c = Design.cell coarse cid in
      let subject = Printf.sprintf "cluster %s" c.Types.c_name in
      if Array.length ms = 0 then add subject "is empty"
      else begin
        let movable_members =
          Array.for_all
            (fun i -> (Design.cell fine i).Types.c_kind = Types.Movable)
            ms
        in
        if c.Types.c_kind = Types.Movable then begin
          if not movable_members then add subject "mixes fixed cells into a movable cluster";
          let member_area =
            Array.fold_left
              (fun a i ->
                let fc = Design.cell fine i in
                a +. (fc.Types.c_width *. fc.Types.c_height))
              0.0 ms
          in
          let coarse_area = c.Types.c_width *. c.Types.c_height in
          let rel = tol *. (1.0 +. coarse_area) in
          if is_group.(cid) then begin
            if member_area > coarse_area +. rel then
              add subject "member area %.6g exceeds group footprint %.6g" member_area
                coarse_area
          end
          else if abs_float (member_area -. coarse_area) > rel then
            add subject "area %.6g became %.6g" member_area coarse_area
        end
        else if Array.length ms <> 1 then
          add subject "fixed cluster has %d members" (Array.length ms)
        else begin
          let i = ms.(0) in
          let fc = Design.cell fine i in
          if fc.Types.c_kind <> c.Types.c_kind then
            add subject "kind changed for fixed cell %s" fc.Types.c_name;
          if
            abs_float (fc.Types.c_width -. c.Types.c_width) > tol
            || abs_float (fc.Types.c_height -. c.Types.c_height) > tol
            || abs_float (fine.Design.x.(i) -. coarse.Design.x.(cid)) > tol
            || abs_float (fine.Design.y.(i) -. coarse.Design.y.(cid)) > tol
          then add subject "fixed cell %s not preserved verbatim" fc.Types.c_name
        end
      end
    done;
    (* dgroups intact: each collapsed group's cluster holds exactly the
       group's members — a bit-slice is never split across clusters *)
    List.iter
      (fun (cid, (dg : Dgroup.t)) ->
        let subject = Printf.sprintf "cluster %s" (Design.cell coarse cid).Types.c_name in
        if cid < 0 || cid >= k then add level_subject "group cluster id %d out of range" cid
        else begin
          let ms = lvl.Dpp_coarsen.members.(cid) in
          let sorted_group = Array.copy dg.Dgroup.cells in
          Array.sort compare sorted_group;
          if ms <> sorted_group then
            add subject "holds %d cells but its datapath group has %d (membership differs)"
              (Array.length ms)
              (Array.length dg.Dgroup.cells)
          else
            Array.iter
              (fun i ->
                if lvl.Dpp_coarsen.cluster_of.(i) <> cid then
                  add subject "group member %s escaped to cluster %d" (cell_name fine i)
                    lvl.Dpp_coarsen.cluster_of.(i))
              dg.Dgroup.cells
        end)
      lvl.Dpp_coarsen.group_of
  end;
  List.rev !acc
