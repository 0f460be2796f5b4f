(* Tests for the scratch arena: buffer recycling semantics, the
   arena-on = arena-off bit-identity contract through Gp/Rudy,
   reuse across runs, and domain confinement (concurrent workers with
   separate arenas must not perturb each other's trajectories). *)

module Arena = Dpp_util.Arena
module Pins = Dpp_wirelen.Pins
module Rudy = Dpp_congest.Rudy
module Qp = Dpp_place.Qp
module Gp = Dpp_place.Gp

let eq_arr name a b =
  Alcotest.(check bool) name true (Array.for_all2 Float.equal a b)

(* ---------------- buffer semantics ---------------- *)

let test_floats_recycle_zeroed () =
  let t = Arena.create () in
  let a = Arena.floats t "k" 5 in
  Array.fill a 0 5 3.25;
  let b = Arena.floats t "k" 5 in
  Alcotest.(check bool) "same buffer back" true (a == b);
  Alcotest.(check bool) "zero-filled on recycle" true (Array.for_all (fun v -> v = 0.0) b);
  Alcotest.(check int) "one miss" 1 (Arena.misses t);
  Alcotest.(check int) "one hit" 1 (Arena.hits t)

let test_floats_size_change_reallocates () =
  let t = Arena.create () in
  let a = Arena.floats t "k" 5 in
  let b = Arena.floats t "k" 7 in
  Alcotest.(check bool) "fresh buffer" true (a != b);
  Alcotest.(check int) "new length" 7 (Array.length b)

let test_floats_raw_preserves_contents () =
  let t = Arena.create () in
  let a = Arena.floats_raw t "r" 4 in
  Array.fill a 0 4 1.5;
  let b = Arena.floats_raw t "r" 4 in
  Alcotest.(check bool) "same buffer back" true (a == b);
  Alcotest.(check bool) "contents untouched" true (Array.for_all (fun v -> v = 1.5) b)

let test_ints_recycle_zeroed () =
  let t = Arena.create () in
  let a = Arena.ints t "i" 6 in
  Array.fill a 0 6 9;
  let b = Arena.ints t "i" 6 in
  Alcotest.(check bool) "same buffer back" true (a == b);
  Alcotest.(check bool) "zero-filled" true (Array.for_all (fun v -> v = 0) b)

let test_cached_memoizes () =
  let t = Arena.create () in
  let built = ref 0 in
  let make () =
    Arena.cached t "c" (fun () ->
        incr built;
        Buffer.create 8)
  in
  let a = make () in
  let b = make () in
  Alcotest.(check bool) "same structure" true (a == b);
  Alcotest.(check int) "built once" 1 !built

let test_clear_drops () =
  let t = Arena.create () in
  let a = Arena.floats t "k" 5 in
  Arena.clear t;
  let b = Arena.floats t "k" 5 in
  Alcotest.(check bool) "reallocated after clear" true (a != b)

(* ---------------- arena-on = arena-off through the stack ------------- *)

let gp_cfg = { Gp.default_config with Gp.rounds = 5; inner_iters = 15 }

let run_gp ?arena d =
  let qp = Qp.run d in
  let r = Gp.run ?arena ~pins:(Pins.build d) d gp_cfg ~cx:qp.Qp.cx ~cy:qp.Qp.cy in
  (* arena-backed results alias arena buffers: snapshot before reuse *)
  Array.copy r.Gp.cx, Array.copy r.Gp.cy, r.Gp.final_hpwl

let test_gp_arena_off_vs_on () =
  let d = Tutil.random_design ~cells:40 ~nets:50 3 in
  let cx0, cy0, h0 = run_gp d in
  let arena = Arena.create () in
  let cx1, cy1, h1 = run_gp ~arena d in
  eq_arr "cx identical" cx0 cx1;
  eq_arr "cy identical" cy0 cy1;
  Alcotest.(check bool) "hpwl identical" true (Float.equal h0 h1)

let test_gp_arena_reuse_across_runs () =
  let d = Tutil.random_design ~cells:40 ~nets:50 5 in
  let cx0, cy0, _ = run_gp d in
  let arena = Arena.create () in
  (* first run populates the arena, second recycles every buffer *)
  let _ = run_gp ~arena d in
  let cx2, cy2, _ = run_gp ~arena d in
  Alcotest.(check bool) "second run recycled buffers" true (Arena.hits arena > 0);
  eq_arr "recycled run cx identical" cx0 cx2;
  eq_arr "recycled run cy identical" cy0 cy2

let test_gp_arena_fuzz () =
  (* many small random designs: the trajectory must never depend on
     whether (or how often) an arena was threaded through *)
  for seed = 1 to 8 do
    let d = Tutil.random_design ~cells:(15 + (3 * seed)) ~nets:(20 + (2 * seed)) seed in
    let cx0, cy0, _ = run_gp d in
    let arena = Arena.create () in
    let _ = run_gp ~arena d in
    let cx1, cy1, _ = run_gp ~arena d in
    eq_arr (Printf.sprintf "seed %d cx" seed) cx0 cx1;
    eq_arr (Printf.sprintf "seed %d cy" seed) cy0 cy1
  done

let test_rudy_arena_identity () =
  let d = Tutil.random_design ~cells:30 ~nets:40 7 in
  let pins = Pins.build d in
  let cx, cy = Pins.centers_of_design d in
  let fresh = Rudy.compute ~pins d ~cx ~cy in
  let arena = Arena.create () in
  let a1 = Rudy.compute ~arena ~pins d ~cx ~cy in
  eq_arr "first arena demand" fresh.Rudy.demand a1.Rudy.demand;
  let a2 = Rudy.compute ~arena ~pins d ~cx ~cy in
  eq_arr "recycled arena demand" fresh.Rudy.demand a2.Rudy.demand;
  Alcotest.(check bool) "grid recycled" true (Arena.hits arena > 0)

let test_concurrent_domains_separate_arenas () =
  (* two worker domains place different designs at once, each with its
     own arena; both trajectories must equal their serial references
     (shared arena state would corrupt one or both) *)
  let d1 = Tutil.random_design ~cells:35 ~nets:45 11 in
  let d2 = Tutil.random_design ~cells:28 ~nets:36 13 in
  let ref1 = run_gp d1 and ref2 = run_gp d2 in
  let worker d = Domain.spawn (fun () -> run_gp ~arena:(Arena.create ()) d) in
  let w1 = worker d1 and w2 = worker d2 in
  let cx1, cy1, _ = Domain.join w1 and cx2, cy2, _ = Domain.join w2 in
  let rcx1, rcy1, _ = ref1 and rcx2, rcy2, _ = ref2 in
  eq_arr "domain 1 cx" rcx1 cx1;
  eq_arr "domain 1 cy" rcy1 cy1;
  eq_arr "domain 2 cx" rcx2 cx2;
  eq_arr "domain 2 cy" rcy2 cy2

let suite =
  [
    Alcotest.test_case "floats recycle zeroed" `Quick test_floats_recycle_zeroed;
    Alcotest.test_case "floats size change reallocates" `Quick test_floats_size_change_reallocates;
    Alcotest.test_case "floats_raw preserves contents" `Quick test_floats_raw_preserves_contents;
    Alcotest.test_case "ints recycle zeroed" `Quick test_ints_recycle_zeroed;
    Alcotest.test_case "cached memoizes" `Quick test_cached_memoizes;
    Alcotest.test_case "clear drops buffers" `Quick test_clear_drops;
    Alcotest.test_case "gp arena off vs on" `Quick test_gp_arena_off_vs_on;
    Alcotest.test_case "gp arena reuse across runs" `Quick test_gp_arena_reuse_across_runs;
    Alcotest.test_case "gp arena fuzz" `Slow test_gp_arena_fuzz;
    Alcotest.test_case "rudy arena identity" `Quick test_rudy_arena_identity;
    Alcotest.test_case "concurrent domains separate arenas" `Quick
      test_concurrent_domains_separate_arenas;
  ]
