(* Tests for Dpp_wirelen: HPWL and LSE — exact values, model bounds, and
   finite-difference gradient verification. *)

module Rect = Dpp_geom.Rect
module Types = Dpp_netlist.Types
module Builder = Dpp_netlist.Builder
module Design = Dpp_netlist.Design
module Pins = Dpp_wirelen.Pins
module Hpwl = Dpp_wirelen.Hpwl
module Lse = Dpp_wirelen.Lse
module Par_grad = Dpp_wirelen.Par_grad
module Soa = Dpp_netlist.Soa
module I32 = Dpp_util.Compact.I32
module Grid = Dpp_density.Grid
module Bell = Dpp_density.Bell
module Pool = Dpp_par.Pool

let check_float = Alcotest.(check (float 1e-9))

(* Two cells with one pin each at known spots, one net. *)
let two_point_design () =
  let die = Rect.make ~xl:0.0 ~yl:0.0 ~xh:100.0 ~yh:50.0 in
  let b = Builder.create ~die ~row_height:10.0 ~site_width:1.0 () in
  let mk name x y =
    let id = Builder.add_cell b ~name ~master:"X" ~w:2.0 ~h:10.0 ~kind:Types.Movable in
    let p = Builder.add_pin b ~cell:id ~dir:Types.Input ~dx:1.0 ~dy:5.0 () in
    Builder.set_position b id ~x ~y;
    p
  in
  let p0 = mk "a" 0.0 0.0 in
  let p1 = mk "b" 30.0 20.0 in
  ignore (Builder.add_net b [ p0; p1 ]);
  Builder.finish b

let test_hpwl_two_points () =
  let d = two_point_design () in
  (* pin positions (1,5) and (31,25): HPWL = 30 + 20 *)
  check_float "hpwl" 50.0 (Hpwl.total_of_design d)

let test_hpwl_weighted () =
  let die = Rect.make ~xl:0.0 ~yl:0.0 ~xh:100.0 ~yh:50.0 in
  let b = Builder.create ~die ~row_height:10.0 ~site_width:1.0 () in
  let mk name x =
    let id = Builder.add_cell b ~name ~master:"X" ~w:2.0 ~h:10.0 ~kind:Types.Movable in
    let p = Builder.add_pin b ~cell:id ~dir:Types.Input ~dx:0.0 ~dy:0.0 () in
    Builder.set_position b id ~x ~y:0.0;
    p
  in
  let p0 = mk "a" 0.0 and p1 = mk "b" 10.0 in
  ignore (Builder.add_net b ~weight:3.0 [ p0; p1 ]);
  let d = Builder.finish b in
  check_float "weighted hpwl" 30.0 (Hpwl.total_of_design d)

let test_hpwl_degenerate () =
  let die = Rect.make ~xl:0.0 ~yl:0.0 ~xh:100.0 ~yh:50.0 in
  let b = Builder.create ~die ~row_height:10.0 ~site_width:1.0 () in
  let id = Builder.add_cell b ~name:"a" ~master:"X" ~w:2.0 ~h:10.0 ~kind:Types.Movable in
  let p = Builder.add_pin b ~cell:id ~dir:Types.Output () in
  ignore (Builder.add_net b [ p ]);
  let d = Builder.finish b in
  check_float "single-pin net is 0" 0.0 (Hpwl.total_of_design d)

(* ---------------- model bounds ---------------- *)

let bounds_design seed = Tutil.random_design ~cells:10 ~nets:8 seed

let test_lse_upper_bound () =
  List.iter
    (fun seed ->
      let d = bounds_design seed in
      let pins = Pins.build d in
      let cx, cy = Pins.centers_of_design d in
      List.iter
        (fun gamma ->
          let lse = Lse.value pins ~gamma ~cx ~cy in
          let hp = Hpwl.total pins ~cx ~cy in
          if lse < hp -. 1e-6 then Alcotest.failf "LSE %.4f < HPWL %.4f" lse hp;
          (* per net per axis the gap is at most 2 gamma log(max degree) *)
          let max_deg = Pins.max_net_degree pins in
          let nn = float_of_int (Design.num_nets d) in
          let bound = hp +. (2.0 *. nn *. Lse.upper_bound_gap ~gamma ~degree:max_deg *. 2.0) in
          if lse > bound then Alcotest.failf "LSE %.4f above bound %.4f" lse bound)
        [ 10.0; 1.0; 0.1 ])
    [ 1; 2; 3 ]

let test_lse_converges_to_hpwl () =
  let d = bounds_design 4 in
  let pins = Pins.build d in
  let cx, cy = Pins.centers_of_design d in
  let hp = Hpwl.total pins ~cx ~cy in
  let err gamma = abs_float (Lse.value pins ~gamma ~cx ~cy -. hp) in
  Alcotest.(check bool) "monotone in gamma" true (err 0.01 < err 1.0 && err 1.0 < err 100.0)

(* ---------------- gradients ---------------- *)

let test_lse_gradient () =
  List.iter
    (fun seed ->
      let d = bounds_design seed in
      let pins = Pins.build d in
      let err =
        Tutil.gradient_error d ~value_grad:(fun ~cx ~cy ~gx ~gy ->
            Lse.value_grad pins ~gamma:3.0 ~cx ~cy ~gx ~gy)
      in
      if err > 1e-4 then Alcotest.failf "LSE gradient error %.2e" err)
    [ 21; 22; 23 ]

let test_gradient_translation_invariance () =
  (* moving everything by a constant leaves the model unchanged *)
  let d = bounds_design 31 in
  let pins = Pins.build d in
  let cx, cy = Pins.centers_of_design d in
  let v1 = Lse.value pins ~gamma:2.0 ~cx ~cy in
  let cx' = Array.map (fun x -> x +. 13.0) cx in
  let cy' = Array.map (fun y -> y -. 7.0) cy in
  let v2 = Lse.value pins ~gamma:2.0 ~cx:cx' ~cy:cy' in
  Alcotest.(check (float 1e-6)) "translation invariant" v1 v2

let test_numerical_stability_large_coords () =
  (* the max-shift normalisation must survive coordinates ~1e6 *)
  let d = two_point_design () in
  let pins = Pins.build d in
  let cx, cy = Pins.centers_of_design d in
  let cx = Array.map (fun x -> x +. 1e6) cx in
  let lse = Lse.value pins ~gamma:0.5 ~cx ~cy in
  Alcotest.(check bool) "lse finite" true (Float.is_finite lse)

(* ---------------- shared exponentials ---------------- *)

(* The LSE axis kernel in its two-exp-per-pin form: u_i and v_i each
   computed from their defining expression.  The kernel computes each
   distinct exponential once and must give these floats bit for bit. *)
let reference_axis (a : float array) k ~gamma (w : float array) =
  let amax = ref a.(0) and amin = ref a.(0) in
  for i = 1 to k - 1 do
    if a.(i) > !amax then amax := a.(i);
    if a.(i) < !amin then amin := a.(i)
  done;
  let u = Array.init k (fun i -> exp ((a.(i) -. !amax) /. gamma)) in
  let v = Array.init k (fun i -> exp ((!amin -. a.(i)) /. gamma)) in
  let splus = ref 0.0 and sminus = ref 0.0 in
  for i = 0 to k - 1 do
    splus := !splus +. u.(i);
    sminus := !sminus +. v.(i)
  done;
  for i = 0 to k - 1 do
    w.(i) <- (u.(i) /. !splus) -. (v.(i) /. !sminus)
  done;
  !amax -. !amin +. (gamma *. (log !splus +. log !sminus))

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let tie_cases =
  let rng = Dpp_util.Rng.create 17 in
  [
    "k=2 distinct", [| 1.5; 7.25 |];
    "k=2 equal", [| 3.0; 3.0 |];
    "k=3 two at the max", [| 2.0; 9.0; 9.0 |];
    "k=5 ties at the max and the min", [| 4.0; 1.0; 4.0; 1.0; 2.5 |];
    "+0 and -0 at the min", [| -0.0; 0.0; 3.0; -0.0 |];
    "+0 and -0 at the max", [| 0.0; -2.0; -0.0 |];
    "+0 and -0 only", [| 0.0; -0.0; -0.0 |];
    "all equal", [| 6.0; 6.0; 6.0; 6.0 |];
    "k=17 random", Array.init 17 (fun _ -> Dpp_util.Rng.float rng 50.0 -. 25.0);
  ]

(* gamma small enough that exp underflows to 0 on the wide nets, one
   near the spreads, and one far above them *)
let tie_gammas = [ 0.05; 1.0; 37.5 ]

let test_lse_shared_exp_axis () =
  List.iter
    (fun gamma ->
      List.iter
        (fun (name, a) ->
          let k = Array.length a in
          let w_ref = Array.make k 0.0 in
          let expect = reference_axis a k ~gamma w_ref in
          List.iter
            (fun want_grad ->
              (* scratch buffers run past the net's pins, as they do in the flow *)
              let buf = Array.append a [| 1e9; -1e9; nan |] in
              let w = Array.make (k + 3) 0.0 and u = Array.make (k + 3) 0.0 in
              let v = Array.make (k + 3) 0.0 in
              let got = Lse.axis_value_grad buf k ~gamma ~w ~u ~v ~want_grad in
              if not (same_bits got expect) then
                Alcotest.failf "%s, gamma %g: value %h, reference %h" name gamma got expect;
              if want_grad then
                for i = 0 to k - 1 do
                  if not (same_bits w.(i) w_ref.(i)) then
                    Alcotest.failf "%s, gamma %g: w.(%d) %h, reference %h" name gamma i w.(i)
                      w_ref.(i)
                done)
            [ false; true ])
        tie_cases)
    tie_gammas

(* One net per tie case (x as listed, y reversed and halved) plus a
   one-pin net, one single-pin cell per pin.  Pin offsets are all -0.0, so
   every pin sits exactly at its cell's centre, signed zeros included. *)
let test_lse_shared_exp_nets () =
  let die = Rect.make ~xl:(-100.0) ~yl:(-100.0) ~xh:100.0 ~yh:100.0 in
  let b = Builder.create ~die ~row_height:10.0 ~site_width:1.0 () in
  let xs = ref [] and ys = ref [] in
  let add_pin x y =
    let id =
      Builder.add_cell b ~name:(Printf.sprintf "c%d" (List.length !xs)) ~master:"X" ~w:2.0
        ~h:10.0 ~kind:Types.Movable
    in
    xs := x :: !xs;
    ys := y :: !ys;
    Builder.add_pin b ~cell:id ~dir:Types.Input ()
  in
  List.iteri
    (fun j (_, a) ->
      let k = Array.length a in
      let ps = List.init k (fun i -> add_pin a.(i) (0.5 *. a.(k - 1 - i))) in
      ignore (Builder.add_net b ~weight:(1.0 +. (0.25 *. float_of_int j)) ps))
    tie_cases;
  ignore (Builder.add_net b [ add_pin 5.0 5.0 ]);
  let d = Builder.finish b in
  let pins = Pins.build d in
  Array.fill pins.Pins.off_x 0 (Array.length pins.Pins.off_x) (-0.0);
  Array.fill pins.Pins.off_y 0 (Array.length pins.Pins.off_y) (-0.0);
  let cx = Array.of_list (List.rev !xs) and cy = Array.of_list (List.rev !ys) in
  let nc = Array.length cx in
  let s = pins.Pins.soa in
  List.iter
    (fun gamma ->
      let acc = ref 0.0 in
      let rgx = Array.make nc 0.0 and rgy = Array.make nc 0.0 in
      for n = 0 to Soa.num_nets s - 1 do
        let lo = I32.get s.Soa.net_pin_off n in
        let k = I32.get s.Soa.net_pin_off (n + 1) - lo in
        let cell i = I32.get pins.Pins.pin_cell (I32.get s.Soa.net_pin (lo + i)) in
        let pin i = I32.get s.Soa.net_pin (lo + i) in
        if k >= 2 then begin
          let wn = s.Soa.net_weight.(n) in
          let axis (c : float array) (off : float array) (g : float array) =
            let a = Array.init k (fun i -> c.(cell i) +. off.(pin i)) in
            let w = Array.make k 0.0 in
            let v = reference_axis a k ~gamma w in
            for i = 0 to k - 1 do
              g.(cell i) <- g.(cell i) +. (wn *. w.(i))
            done;
            v
          in
          let vx = axis cx pins.Pins.off_x rgx in
          let vy = axis cy pins.Pins.off_y rgy in
          acc := !acc +. (wn *. (vx +. vy))
        end
      done;
      let v = Lse.value pins ~gamma ~cx ~cy in
      if not (same_bits v !acc) then Alcotest.failf "gamma %g: value %h, reference %h" gamma v !acc;
      let gx = Array.make nc 0.0 and gy = Array.make nc 0.0 in
      let vg = Lse.value_grad pins ~gamma ~cx ~cy ~gx ~gy in
      if not (same_bits vg !acc) then
        Alcotest.failf "gamma %g: value_grad %h, reference %h" gamma vg !acc;
      for c = 0 to nc - 1 do
        if not (same_bits gx.(c) rgx.(c) && same_bits gy.(c) rgy.(c)) then
          Alcotest.failf "gamma %g: gradient of cell %d (%h, %h), reference (%h, %h)" gamma c
            gx.(c) gy.(c) rgx.(c) rgy.(c)
      done)
    tie_gammas

(* ---------------- allocation ---------------- *)

(* GP evaluates these kernels thousands of times per placement.  After a
   warm-up call each allocates a constant handful of words (its boxed
   result, the closures of a pool fan-out), nothing per pin, net, cell or
   bin: dp_mix_l has thousands of each, so one word per item would read
   thousands. *)
let test_kernels_allocate_nothing_per_item () =
  let d = Option.get (Dpp_gen.Catalog.design "dp_mix_l") in
  let soa = Soa.of_design d in
  let pins = Pins.of_soa soa in
  let cx, cy = Pins.centers_of_design d in
  let nc = Design.num_cells d in
  let nx, ny = Grid.default_dims d in
  let grid = Grid.build d ~nx ~ny in
  let bell = Bell.par_create (Bell.of_soa soa ~grid ~target_density:0.9) in
  let par = Par_grad.create Pool.serial pins in
  let gx = Array.make nc 0.0 and gy = Array.make nc 0.0 in
  let gamma = 0.5 *. Float.max grid.Grid.bin_w grid.Grid.bin_h in
  let check name f =
    ignore (Sys.opaque_identity (f ()));
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    let w = Gc.minor_words () -. w0 in
    if w >= 1000.0 then Alcotest.failf "%s allocates %.0f minor words per call" name w
  in
  check "Lse.value" (fun () -> Lse.value pins ~gamma ~cx ~cy);
  check "Lse.value_grad" (fun () -> Lse.value_grad pins ~gamma ~cx ~cy ~gx ~gy);
  check "Par_grad.value_grad" (fun () ->
      Par_grad.value_grad par Pool.serial ~gamma ~cx ~cy ~gx ~gy);
  check "Hpwl.total" (fun () -> Hpwl.total pins ~cx ~cy);
  check "Bell.par_value" (fun () -> Bell.par_value bell Pool.serial ~cx ~cy);
  check "Bell.par_value_grad" (fun () -> Bell.par_value_grad bell Pool.serial ~cx ~cy ~gx ~gy)

let suite =
  [
    Alcotest.test_case "hpwl two points" `Quick test_hpwl_two_points;
    Alcotest.test_case "hpwl weighted" `Quick test_hpwl_weighted;
    Alcotest.test_case "hpwl degenerate" `Quick test_hpwl_degenerate;
    Alcotest.test_case "lse upper bound" `Quick test_lse_upper_bound;
    Alcotest.test_case "lse gamma convergence" `Quick test_lse_converges_to_hpwl;
    Alcotest.test_case "lse gradient fd" `Quick test_lse_gradient;
    Alcotest.test_case "translation invariance" `Quick test_gradient_translation_invariance;
    Alcotest.test_case "stability at large coords" `Quick test_numerical_stability_large_coords;
    Alcotest.test_case "lse shared exp: axis bits on ties" `Quick test_lse_shared_exp_axis;
    Alcotest.test_case "lse shared exp: net list bits" `Quick test_lse_shared_exp_nets;
    Alcotest.test_case "gp kernels allocate nothing per item" `Quick
      test_kernels_allocate_nothing_per_item;
  ]
