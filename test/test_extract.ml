(* Tests for Dpp_extract: net classification, signatures, labels, the
   slicer and the quality metrics. *)

module Design = Dpp_netlist.Design
module Groups = Dpp_netlist.Groups
module Soa = Dpp_netlist.Soa
module Netclass = Dpp_extract.Netclass
module Signature = Dpp_extract.Signature
module Slicer = Dpp_extract.Slicer
module Exmetrics = Dpp_extract.Exmetrics
module Compose = Dpp_gen.Compose

let adder_design bits glue =
  Compose.build
    {
      Compose.sp_name = "xadd";
      sp_seed = 31;
      sp_blocks = [ Compose.Adder bits ];
      sp_random_cells = glue;
      sp_utilization = 0.7;
    }

let alu_design () =
  Compose.build
    {
      Compose.sp_name = "xalu";
      sp_seed = 32;
      sp_blocks = [ Compose.Alu 16 ];
      sp_random_cells = 200;
      sp_utilization = 0.7;
    }

(* ---------------- Netclass ---------------- *)

let test_netclass () =
  let d = alu_design () in
  let s = Soa.of_design d in
  let nc = Netclass.classify s ~max_data_degree:5 in
  let counts = Hashtbl.create 4 in
  Array.iteri
    (fun n _ ->
      let k = Netclass.kind nc n in
      Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k)))
    d.Design.nets;
  let get k = Option.value ~default:0 (Hashtbl.find_opt counts k) in
  Alcotest.(check bool) "data nets dominate" true (get Netclass.Data > get Netclass.Control);
  Alcotest.(check bool) "control nets exist (op selects)" true (get Netclass.Control >= 2)

let test_netclass_bad_degree () =
  let d = alu_design () in
  let s = Soa.of_design d in
  Alcotest.(check bool) "degree < 2 rejected" true
    (try
       ignore (Netclass.classify s ~max_data_degree:1);
       false
     with Invalid_argument _ -> true)

(* ---------------- Signature ---------------- *)

let test_signature_replicas_cohere () =
  (* in a clean adder, interior slices' cells of the same stage must share
     a class: each stage contributes a class of size close to [bits] *)
  let d = adder_design 16 100 in
  let s = Soa.of_design d in
  let nc = Netclass.classify s ~max_data_degree:5 in
  let sg = Signature.compute s nc ~iterations:3 in
  let truth = List.hd d.Design.groups in
  (* count distinct classes among the adder's first-stage cells *)
  let stage_cells k =
    Array.to_list (Array.map (fun row -> row.(k)) truth.Groups.g_rows)
    |> List.filter (fun c -> c >= 0)
  in
  List.iter
    (fun k ->
      let classes = List.map (Signature.class_of sg) (stage_cells k) |> List.sort_uniq compare in
      (* boundary bits may differ; interior must collapse to few classes *)
      if List.length classes > 4 then
        Alcotest.failf "stage %d fragments into %d classes" k (List.length classes))
    [ 0; 1; 2; 3; 4 ]

let test_signature_fixed_excluded () =
  let d = adder_design 8 50 in
  let s = Soa.of_design d in
  let nc = Netclass.classify s ~max_data_degree:5 in
  let sg = Signature.compute s nc ~iterations:2 in
  Array.iter
    (fun i -> Alcotest.(check int) "pad has no class" (-1) (Signature.class_of sg i))
    (Design.fixed_ids d)

let test_signature_pin_class_stable () =
  let s = Soa.of_design (adder_design 8 50) in
  (* equal pins hash equally, distinct offsets differ *)
  let p0 = Signature.pin_class s 0 and p0' = Signature.pin_class s 0 in
  Alcotest.(check int) "deterministic" p0 p0'

(* ---------------- Slicer ---------------- *)

let test_extract_adder_recall () =
  let d = adder_design 16 150 in
  let r = Slicer.run d Slicer.default_config in
  let m = Exmetrics.compare_to_truth ~truth:d.Design.groups ~found:r.Slicer.groups in
  Alcotest.(check bool) "high recall on a clean adder" true (m.Exmetrics.recall > 0.8);
  Alcotest.(check bool) "high precision" true (m.Exmetrics.precision > 0.9)

let test_extract_alu_control_seeds () =
  let d = alu_design () in
  let r = Slicer.run d Slicer.default_config in
  Alcotest.(check bool) "control seeds used" true (r.Slicer.seeds_control > 0);
  let m = Exmetrics.compare_to_truth ~truth:d.Design.groups ~found:r.Slicer.groups in
  Alcotest.(check bool) "recall > 0.8" true (m.Exmetrics.recall > 0.8)

let test_extract_pure_glue () =
  (* no datapath: the extractor must stand down (precision guard) *)
  let d =
    Compose.build
      {
        Compose.sp_name = "glue";
        sp_seed = 33;
        sp_blocks = [ Compose.Adder 4 ];
        sp_random_cells = 800;
        sp_utilization = 0.7;
      }
  in
  let r = Slicer.run d Slicer.default_config in
  let m = Exmetrics.compare_to_truth ~truth:d.Design.groups ~found:r.Slicer.groups in
  (* whatever is found must be mostly real datapath *)
  Alcotest.(check bool) "precision stays high" true (m.Exmetrics.precision > 0.8)

let test_extract_group_shapes () =
  let d = adder_design 16 150 in
  let cfg = Slicer.default_config in
  let r = Slicer.run d cfg in
  List.iter
    (fun g ->
      Alcotest.(check bool) "min slices respected" true
        (Groups.num_slices g >= cfg.Slicer.min_slices);
      Alcotest.(check bool) "min stages respected" true
        (Groups.num_stages g >= cfg.Slicer.min_stages))
    r.Slicer.groups

let test_extract_no_cell_in_two_groups () =
  let d = Compose.build (List.nth Dpp_gen.Presets.suite 5) in
  let r = Slicer.run d Slicer.default_config in
  let seen = Hashtbl.create 1024 in
  List.iter
    (fun g ->
      Array.iter
        (fun c ->
          if Hashtbl.mem seen c then Alcotest.failf "cell %d in two groups" c;
          Hashtbl.add seen c ())
        (Groups.cell_ids g))
    r.Slicer.groups

let test_extract_strict_config_finds_less () =
  let d = adder_design 16 150 in
  let default = Slicer.run d Slicer.default_config in
  let strict = Slicer.run d { Slicer.default_config with Slicer.min_slices = 64 } in
  let cells gs =
    List.fold_left (fun acc g -> acc + Groups.cell_count g) 0 gs
  in
  Alcotest.(check bool) "strict finds fewer cells" true
    (cells strict.Slicer.groups <= cells default.Slicer.groups);
  Alcotest.(check int) "min_slices 64 finds nothing" 0 (List.length strict.Slicer.groups)

let test_extract_deterministic () =
  let d = alu_design () in
  let r1 = Slicer.run d Slicer.default_config in
  let r2 = Slicer.run d Slicer.default_config in
  Alcotest.(check int) "same group count" (List.length r1.Slicer.groups)
    (List.length r2.Slicer.groups);
  List.iter2
    (fun a b ->
      if Groups.jaccard a b < 1.0 then Alcotest.fail "extraction not deterministic")
    r1.Slicer.groups r2.Slicer.groups

(* ---------------- Exmetrics ---------------- *)

let test_metrics_perfect () =
  let g = Groups.make "g" [| [| 0; 1 |]; [| 2; 3 |] |] in
  let m = Exmetrics.compare_to_truth ~truth:[ g ] ~found:[ g ] in
  Alcotest.(check (float 1e-9)) "precision" 1.0 m.Exmetrics.precision;
  Alcotest.(check (float 1e-9)) "recall" 1.0 m.Exmetrics.recall;
  Alcotest.(check (float 1e-9)) "f1" 1.0 m.Exmetrics.f1;
  Alcotest.(check int) "matched" 1 m.Exmetrics.matched_groups

let test_metrics_partial () =
  let truth = Groups.make "t" [| [| 0; 1 |]; [| 2; 3 |] |] in
  let found = Groups.make "f" [| [| 0; 1 |]; [| 4; 5 |] |] in
  let m = Exmetrics.compare_to_truth ~truth:[ truth ] ~found:[ found ] in
  Alcotest.(check (float 1e-9)) "precision" 0.5 m.Exmetrics.precision;
  Alcotest.(check (float 1e-9)) "recall" 0.5 m.Exmetrics.recall;
  Alcotest.(check int) "not matched (jaccard 1/3)" 0 m.Exmetrics.matched_groups

let test_metrics_empty () =
  let m = Exmetrics.compare_to_truth ~truth:[] ~found:[] in
  Alcotest.(check (float 1e-9)) "empty precision" 1.0 m.Exmetrics.precision;
  Alcotest.(check (float 1e-9)) "empty recall" 1.0 m.Exmetrics.recall

(* The scoring against its definition: member-set unions for the cell
   counts and [Groups.jaccard] for every found x true pair.  Cell ids come
   from a small range so groups overlap and repeat a cell within one group;
   some groups are all holes, some lists empty. *)
let reference ~truth ~found =
  let union groups =
    let h = Hashtbl.create 64 in
    List.iter (fun g -> Hashtbl.iter (fun c () -> Hashtbl.replace h c ()) (Groups.member_set g)) groups;
    h
  in
  let ts = union truth and fs = union found in
  let correct = Hashtbl.fold (fun c () n -> if Hashtbl.mem ts c then n + 1 else n) fs 0 in
  let nf = Hashtbl.length fs and nt = Hashtbl.length ts in
  let precision = if nf = 0 then 1.0 else float_of_int correct /. float_of_int nf in
  let recall = if nt = 0 then 1.0 else float_of_int correct /. float_of_int nt in
  {
    Exmetrics.true_groups = List.length truth;
    found_groups = List.length found;
    matched_groups =
      List.length
        (List.filter (fun f -> List.exists (fun t -> Groups.jaccard f t >= 0.5) truth) found);
    true_cells = nt;
    found_cells = nf;
    correct_cells = correct;
    precision;
    recall;
    f1 =
      (if precision +. recall <= 0.0 then 0.0
       else 2.0 *. precision *. recall /. (precision +. recall));
  }

let same_metrics (a : Exmetrics.t) (b : Exmetrics.t) =
  a.true_groups = b.true_groups && a.found_groups = b.found_groups
  && a.matched_groups = b.matched_groups && a.true_cells = b.true_cells
  && a.found_cells = b.found_cells && a.correct_cells = b.correct_cells
  && Float.equal a.precision b.precision && Float.equal a.recall b.recall
  && Float.equal a.f1 b.f1

let prop_metrics_match_definition =
  let group =
    QCheck.Gen.(
      let* slices = int_range 1 4 in
      let* stages = int_range 1 4 in
      let* holes_only = int_range 0 7 in
      let cell = if holes_only = 0 then return (-1) else frequency [ 1, return (-1); 4, int_range 0 15 ] in
      let+ rows = array_repeat slices (array_repeat stages cell) in
      Groups.make "g" rows)
  in
  (* a few found groups are copies of true ones, so matches are common *)
  let lists =
    QCheck.Gen.(
      let* truth = list_size (int_range 0 5) group in
      let* found = list_size (int_range 0 5) group in
      let+ copies = int_range 0 2 in
      truth, found @ List.filteri (fun i _ -> i < copies) truth)
  in
  let print gs =
    String.concat " | "
      (List.map
         (fun g ->
           String.concat "; "
             (Array.to_list
                (Array.map
                   (fun r -> String.concat "," (Array.to_list (Array.map string_of_int r)))
                   g.Groups.g_rows)))
         gs)
  in
  QCheck.Test.make ~name:"metrics match the pairwise definition" ~count:500
    (QCheck.make ~print:QCheck.Print.(pair print print) lists)
    (fun (truth, found) ->
      same_metrics (Exmetrics.compare_to_truth ~truth ~found) (reference ~truth ~found))

let suite =
  [
    Alcotest.test_case "netclass" `Quick test_netclass;
    Alcotest.test_case "netclass bad degree" `Quick test_netclass_bad_degree;
    Alcotest.test_case "signature replicas cohere" `Quick test_signature_replicas_cohere;
    Alcotest.test_case "signature fixed excluded" `Quick test_signature_fixed_excluded;
    Alcotest.test_case "signature pin class" `Quick test_signature_pin_class_stable;
    Alcotest.test_case "extract adder recall" `Quick test_extract_adder_recall;
    Alcotest.test_case "extract alu control seeds" `Quick test_extract_alu_control_seeds;
    Alcotest.test_case "extract pure glue precision" `Quick test_extract_pure_glue;
    Alcotest.test_case "extract group shapes" `Quick test_extract_group_shapes;
    Alcotest.test_case "extract disjoint groups" `Slow test_extract_no_cell_in_two_groups;
    Alcotest.test_case "extract strict config" `Quick test_extract_strict_config_finds_less;
    Alcotest.test_case "extract deterministic" `Quick test_extract_deterministic;
    Alcotest.test_case "metrics perfect" `Quick test_metrics_perfect;
    Alcotest.test_case "metrics partial" `Quick test_metrics_partial;
    Alcotest.test_case "metrics empty" `Quick test_metrics_empty;
    QCheck_alcotest.to_alcotest prop_metrics_match_definition;
  ]
