(* Tests for Dpp_numeric: Vec, Csr, Pcg, Linesearch, Nlcg. *)

module Vec = Dpp_numeric.Vec
module Csr = Dpp_numeric.Csr
module Pcg = Dpp_numeric.Pcg
module Linesearch = Dpp_numeric.Linesearch
module Nlcg = Dpp_numeric.Nlcg

let check_float = Alcotest.(check (float 1e-9))
let check_close eps = Alcotest.(check (float eps))

(* ---------------- Vec ---------------- *)

let test_vec_ops () =
  let x = [| 1.0; 2.0; 3.0 |] and y = [| 4.0; 5.0; 6.0 |] in
  check_float "dot" 32.0 (Vec.dot x y);
  check_float "nrm2" (sqrt 14.0) (Vec.nrm2 x);
  check_float "nrm_inf" 3.0 (Vec.nrm_inf x);
  let z = Array.copy y in
  Vec.axpy 2.0 x z;
  Alcotest.(check (array (float 1e-12))) "axpy" [| 6.0; 9.0; 12.0 |] z;
  let s = Vec.sub x y in
  Alcotest.(check (array (float 1e-12))) "sub" [| -3.0; -3.0; -3.0 |] s;
  check_float "max_abs_diff" 3.0 (Vec.max_abs_diff x y)

let test_vec_mismatch () =
  Alcotest.(check bool) "length mismatch raises" true
    (try
       ignore (Vec.dot [| 1.0 |] [| 1.0; 2.0 |]);
       false
     with Invalid_argument _ -> true)

(* ---------------- Csr ---------------- *)

let test_csr_build () =
  let b = Csr.Triplets.create ~rows:3 ~cols:3 in
  Csr.Triplets.add b 0 0 2.0;
  Csr.Triplets.add b 0 0 1.0;
  (* duplicate sums *)
  Csr.Triplets.add b 1 2 4.0;
  Csr.Triplets.add b 2 1 5.0;
  Csr.Triplets.add b 2 2 0.0;
  (* explicit zero dropped *)
  let a = Csr.Triplets.to_csr b in
  check_float "dup merged" 3.0 (Csr.get a 0 0);
  check_float "entry" 4.0 (Csr.get a 1 2);
  check_float "absent" 0.0 (Csr.get a 0 1);
  Alcotest.(check int) "nnz (zero dropped)" 3 (Csr.nnz a)

let test_csr_mul () =
  let b = Csr.Triplets.create ~rows:2 ~cols:2 in
  Csr.Triplets.add b 0 0 1.0;
  Csr.Triplets.add b 0 1 2.0;
  Csr.Triplets.add b 1 0 3.0;
  Csr.Triplets.add b 1 1 4.0;
  let a = Csr.Triplets.to_csr b in
  let y = Array.make 2 0.0 in
  Csr.mul a [| 1.0; 1.0 |] y;
  Alcotest.(check (array (float 1e-12))) "mul" [| 3.0; 7.0 |] y

let test_csr_transpose_symmetric () =
  let b = Csr.Triplets.create ~rows:3 ~cols:3 in
  Csr.Triplets.add b 0 1 2.0;
  Csr.Triplets.add b 1 0 2.0;
  Csr.Triplets.add b 2 2 1.0;
  let a = Csr.Triplets.to_csr b in
  Alcotest.(check bool) "symmetric" true (Csr.is_symmetric a);
  let t = Csr.transpose a in
  check_float "transpose entry" 2.0 (Csr.get t 1 0)

let prop_csr_mul_matches_dense =
  let gen =
    QCheck.Gen.(
      let* n = 1 -- 6 in
      let* entries = list_size (0 -- 20) (triple (0 -- (n - 1)) (0 -- (n - 1)) (float_range (-5.0) 5.0)) in
      let* x = list_repeat n (float_range (-3.0) 3.0) in
      return (n, entries, Array.of_list x))
  in
  QCheck.Test.make ~name:"csr mul matches dense" ~count:200 (QCheck.make gen)
    (fun (n, entries, x) ->
      let dense = Array.make_matrix n n 0.0 in
      let b = Csr.Triplets.create ~rows:n ~cols:n in
      List.iter
        (fun (i, j, v) ->
          dense.(i).(j) <- dense.(i).(j) +. v;
          Csr.Triplets.add b i j v)
        entries;
      let a = Csr.Triplets.to_csr b in
      let y = Array.make n 0.0 in
      Csr.mul a x y;
      let ok = ref true in
      for i = 0 to n - 1 do
        let want = ref 0.0 in
        for j = 0 to n - 1 do
          want := !want +. (dense.(i).(j) *. x.(j))
        done;
        if abs_float (!want -. y.(i)) > 1e-7 then ok := false
      done;
      !ok)

(* ---------------- Pcg ---------------- *)

(* random SPD system: L + diag, L a graph Laplacian *)
let laplacian_system seed n =
  let rng = Dpp_util.Rng.create seed in
  let b = Csr.Triplets.create ~rows:n ~cols:n in
  for _ = 1 to 3 * n do
    let i = Dpp_util.Rng.int rng n and j = Dpp_util.Rng.int rng n in
    if i <> j then begin
      let w = Dpp_util.Rng.float rng 2.0 +. 0.1 in
      Csr.Triplets.add b i i w;
      Csr.Triplets.add b j j w;
      Csr.Triplets.add b i j (-.w);
      Csr.Triplets.add b j i (-.w)
    end
  done;
  for i = 0 to n - 1 do
    Csr.Triplets.add b i i 1.0
  done;
  Csr.Triplets.to_csr b

let test_pcg_solves () =
  let n = 50 in
  let a = laplacian_system 5 n in
  let x_true = Array.init n (fun i -> sin (float_of_int i)) in
  let rhs = Array.make n 0.0 in
  Csr.mul a x_true rhs;
  let x, stats = Pcg.solve ~tol:1e-10 a rhs in
  Alcotest.(check bool) "converged" true stats.Pcg.converged;
  Alcotest.(check bool) "accurate" true (Vec.max_abs_diff x x_true < 1e-6)

let test_pcg_identity () =
  let b = Csr.Triplets.create ~rows:3 ~cols:3 in
  for i = 0 to 2 do
    Csr.Triplets.add b i i 1.0
  done;
  let a = Csr.Triplets.to_csr b in
  let x, stats = Pcg.solve a [| 1.0; 2.0; 3.0 |] in
  Alcotest.(check bool) "identity immediate" true (stats.Pcg.iterations <= 2);
  Alcotest.(check (array (float 1e-8))) "solution" [| 1.0; 2.0; 3.0 |] x

let test_pcg_warm_start () =
  let n = 30 in
  let a = laplacian_system 6 n in
  let x_true = Array.init n (fun i -> float_of_int (i mod 5)) in
  let rhs = Array.make n 0.0 in
  Csr.mul a x_true rhs;
  let _, cold = Pcg.solve ~tol:1e-10 a rhs in
  let _, warm = Pcg.solve ~tol:1e-10 ~x0:x_true a rhs in
  Alcotest.(check bool) "warm start cheaper" true (warm.Pcg.iterations <= cold.Pcg.iterations)

let test_pcg_operator () =
  (* matrix-free 2x2: A = [[2,0],[0,4]] *)
  let mul x y =
    y.(0) <- 2.0 *. x.(0);
    y.(1) <- 4.0 *. x.(1)
  in
  let x, stats = Pcg.solve_operator ~n:2 ~mul ~diag:[| 2.0; 4.0 |] [| 2.0; 8.0 |] in
  Alcotest.(check bool) "converged" true stats.Pcg.converged;
  Alcotest.(check (array (float 1e-8))) "solution" [| 1.0; 2.0 |] x

(* ---------------- Linesearch ---------------- *)

let test_armijo_quadratic () =
  (* f(x) = x^2 from x=1 along d=-1: any step in (0,2) acceptable-ish *)
  let f v = v.(0) *. v.(0) in
  let scratch = [| 0.0 |] in
  let r =
    Linesearch.armijo ~f ~x:[| 1.0 |] ~d:[| -1.0 |] ~f0:1.0 ~slope:(-2.0) ~step0:1.0 ~scratch ()
  in
  Alcotest.(check bool) "ok" true r.Linesearch.ok;
  Alcotest.(check bool) "decreased" true (r.Linesearch.f_new < 1.0)

let test_armijo_failure () =
  (* ascent direction: no step satisfies Armijo with negative slope claim *)
  let f v = v.(0) *. v.(0) in
  let scratch = [| 0.0 |] in
  let r =
    Linesearch.armijo ~max_trials:8 ~f ~x:[| 1.0 |] ~d:[| 1.0 |] ~f0:1.0 ~slope:(-2.0)
      ~step0:1.0 ~scratch ()
  in
  Alcotest.(check bool) "fails" false r.Linesearch.ok;
  check_float "scratch restored" 1.0 scratch.(0)

(* ---------------- Nlcg ---------------- *)

(* the fused entry point from a value and a gradient-only function *)
let problem n eval grad =
  Nlcg.problem ~n ~eval ~eval_grad:(fun v g ->
      grad v g;
      eval v)

let test_nlcg_quadratic_bowl () =
  let p =
    problem 2
      (fun v -> ((v.(0) -. 3.0) ** 2.0) +. (10.0 *. ((v.(1) +. 1.0) ** 2.0)))
      (fun v g ->
        g.(0) <- 2.0 *. (v.(0) -. 3.0);
        g.(1) <- 20.0 *. (v.(1) +. 1.0))
  in
  let x = [| 0.0; 0.0 |] in
  let r = Nlcg.minimize p x in
  check_close 1e-3 "x0" 3.0 x.(0);
  check_close 1e-3 "x1" (-1.0) x.(1);
  Alcotest.(check bool) "converged" true r.Nlcg.converged

let test_nlcg_rosenbrock () =
  let p =
    problem 2
      (fun v ->
        let a = 1.0 -. v.(0) and b = v.(1) -. (v.(0) *. v.(0)) in
        (a *. a) +. (100.0 *. b *. b))
      (fun v g ->
        let b = v.(1) -. (v.(0) *. v.(0)) in
        g.(0) <- (-2.0 *. (1.0 -. v.(0))) -. (400.0 *. v.(0) *. b);
        g.(1) <- 200.0 *. b)
  in
  let options = { Nlcg.default_options with Nlcg.max_iter = 5000; f_tol = 0.0; grad_tol = 1e-7 } in
  let x = [| -1.2; 1.0 |] in
  ignore (Nlcg.minimize ~options p x : Nlcg.result);
  Alcotest.(check bool) "near optimum" true
    (abs_float (x.(0) -. 1.0) < 1e-2 && abs_float (x.(1) -. 1.0) < 2e-2)

let test_nlcg_projection () =
  (* minimise (x-5)^2 constrained to x <= 2 by projection *)
  let p = problem 1 (fun v -> (v.(0) -. 5.0) ** 2.0) (fun v g -> g.(0) <- 2.0 *. (v.(0) -. 5.0)) in
  let project v = if v.(0) > 2.0 then v.(0) <- 2.0 in
  let options = { Nlcg.default_options with Nlcg.project = Some project } in
  let x = [| 0.0 |] in
  ignore (Nlcg.minimize ~options p x : Nlcg.result);
  Alcotest.(check bool) "at bound" true (x.(0) <= 2.0 +. 1e-9);
  Alcotest.(check bool) "reaches bound" true (x.(0) > 1.9)

let test_nlcg_monotone =
  QCheck.Test.make ~name:"nlcg decreases a random convex quadratic" ~count:50
    QCheck.(pair (float_range 0.5 10.0) (float_range (-5.0) 5.0))
    (fun (a, c) ->
      let eval v = a *. ((v.(0) -. c) ** 2.0) in
      let p = problem 1 eval (fun v g -> g.(0) <- 2.0 *. a *. (v.(0) -. c)) in
      let f0 = eval [| 100.0 |] in
      let options = { Nlcg.default_options with Nlcg.max_iter = 500; f_tol = 0.0 } in
      let x = [| 100.0 |] in
      let r = Nlcg.minimize ~options p x in
      (* must make substantial progress toward the optimum (the Armijo-only
         line search is deliberately cheap, not exact) *)
      r.Nlcg.f <= f0 +. 1e-9 && (r.Nlcg.f <= 1e-3 *. f0 || abs_float (x.(0) -. c) < 1.0))

(* A separable quadratic over [n] variables with per-variable curvature,
   so the solve takes several CG iterations. *)
let bowl n =
  let eval v =
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      let t = v.(i) -. float_of_int (i mod 7) in
      acc := !acc +. (float_of_int (1 + (i mod 5)) *. t *. t)
    done;
    !acc
  in
  let grad v g =
    for i = 0 to n - 1 do
      g.(i) <- 2.0 *. float_of_int (1 + (i mod 5)) *. (v.(i) -. float_of_int (i mod 7))
    done
  in
  problem n eval grad

let bowl_options = { Nlcg.default_options with Nlcg.max_iter = 8; f_tol = 0.0 }

(* the working vectors a problem keeps between solves must not carry
   state: a second solve on a used problem reproduces a fresh one *)
let test_nlcg_reused_problem () =
  let n = 64 in
  let start () = Array.init n (fun i -> float_of_int (i mod 11) -. 5.0) in
  let reused = bowl n in
  let warm = start () in
  ignore (Nlcg.minimize ~options:bowl_options reused warm : Nlcg.result);
  let x_fresh = start () and x_reused = start () in
  let r_fresh = Nlcg.minimize ~options:bowl_options (bowl n) x_fresh in
  let r_reused = Nlcg.minimize ~options:bowl_options reused x_reused in
  Alcotest.(check bool) "same iterate" true (Array.for_all2 Float.equal x_fresh x_reused);
  Alcotest.(check bool) "same value" true (Float.equal r_fresh.Nlcg.f r_reused.Nlcg.f);
  Alcotest.(check int) "same evaluations" r_fresh.Nlcg.f_evals r_reused.Nlcg.f_evals

(* major words allocated by [f], counted across a minor collection on
   each side so direct major allocations are settled in the counter *)
let major_words f =
  Gc.minor ();
  let w0 = (Gc.quick_stat ()).Gc.major_words in
  f ();
  Gc.minor ();
  (Gc.quick_stat ()).Gc.major_words -. w0

(* the GP round loop solves one problem many times: only the first
   solve's problem pays for the working vectors *)
let test_nlcg_reuse_allocation () =
  let n = 10_000 in
  let one_vector = major_words (fun () -> ignore (Sys.opaque_identity (Array.make n 0.0))) in
  Alcotest.(check bool) "the counter sees one vector" true (one_vector >= float_of_int n);
  let p = bowl n in
  let x = Array.init n (fun i -> float_of_int (i mod 11) -. 5.0) in
  let solve () = ignore (Nlcg.minimize ~options:bowl_options p x : Nlcg.result) in
  solve ();
  let second = major_words solve in
  Alcotest.(check bool)
    (Printf.sprintf "second solve allocates %.0f major words, under one vector" second)
    true
    (second < float_of_int n)

let suite =
  [
    Alcotest.test_case "vec ops" `Quick test_vec_ops;
    Alcotest.test_case "vec mismatch" `Quick test_vec_mismatch;
    Alcotest.test_case "csr build" `Quick test_csr_build;
    Alcotest.test_case "csr mul" `Quick test_csr_mul;
    Alcotest.test_case "csr transpose/symmetric" `Quick test_csr_transpose_symmetric;
    QCheck_alcotest.to_alcotest prop_csr_mul_matches_dense;
    Alcotest.test_case "pcg solves laplacian" `Quick test_pcg_solves;
    Alcotest.test_case "pcg identity" `Quick test_pcg_identity;
    Alcotest.test_case "pcg warm start" `Quick test_pcg_warm_start;
    Alcotest.test_case "pcg operator" `Quick test_pcg_operator;
    Alcotest.test_case "armijo quadratic" `Quick test_armijo_quadratic;
    Alcotest.test_case "armijo failure" `Quick test_armijo_failure;
    Alcotest.test_case "nlcg bowl" `Quick test_nlcg_quadratic_bowl;
    Alcotest.test_case "nlcg rosenbrock" `Quick test_nlcg_rosenbrock;
    Alcotest.test_case "nlcg projection" `Quick test_nlcg_projection;
    Alcotest.test_case "nlcg reused problem matches fresh" `Quick test_nlcg_reused_problem;
    Alcotest.test_case "nlcg reuse allocates no vector" `Quick test_nlcg_reuse_allocation;
    QCheck_alcotest.to_alcotest test_nlcg_monotone;
  ]
