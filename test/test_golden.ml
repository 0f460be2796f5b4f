(* The committed golden bits (golden_bits.txt, written by [dpp_golden
   record]): every preset's extraction digest, and the Table-1 presets'
   HPWL bits and .pl digest at one worker domain.  [dpp_golden check]
   (a CI step) checks every field, rt_channel and xl10k placements and
   four domains included. *)

module Golden = Dpp_core.Golden

let rows = lazy (Golden.load "golden_bits.txt")
let row name = List.find (fun (r : Golden.row) -> r.Golden.preset = name) (Lazy.force rows)

let test_rows () =
  Alcotest.(check (list string)) "one row per preset, in order" Golden.presets
    (List.map (fun (r : Golden.row) -> r.Golden.preset) (Lazy.force rows))

let test_extraction name () =
  Alcotest.(check string) "groups and counts" (row name).Golden.extract (Golden.extraction name)

let test_placement name () =
  let hpwl, pl = Golden.placement name ~jobs:1 in
  Alcotest.(check string) "final HPWL" (row name).Golden.hpwl_j1 hpwl;
  Alcotest.(check string) ".pl digest" (row name).Golden.pl_j1 pl

let suite =
  Alcotest.test_case "rows" `Quick test_rows
  :: List.map
       (fun p -> Alcotest.test_case ("extraction " ^ p) `Quick (test_extraction p))
       Golden.presets
  @ List.map
      (fun p -> Alcotest.test_case ("placement " ^ p) `Slow (test_placement p))
      Golden.table1
