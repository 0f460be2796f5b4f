(* Tests for Dpp_report: table rendering and series output. *)

module Table = Dpp_report.Table
module Series = Dpp_report.Series

let test_table_render () =
  let out =
    Table.render ~title:"T" ~header:[ "name"; "v" ] [ [ "a"; "1.5" ]; [ "bb"; "20" ] ]
  in
  let lines = String.split_on_char '\n' out |> List.filter (fun l -> l <> "") in
  Alcotest.(check int) "title + header + sep + 2 rows" 5 (List.length lines);
  Alcotest.(check string) "title first" "T" (List.hd lines);
  (* numeric right-alignment: "1.5" occupies width 3 right-aligned under "v" *)
  Alcotest.(check bool) "columns aligned" true
    (String.length (List.nth lines 3) = String.length (List.nth lines 4))

let test_table_short_rows_padded () =
  let out = Table.render ~title:"T" ~header:[ "a"; "b"; "c" ] [ [ "x" ] ] in
  Alcotest.(check bool) "renders without exception" true (String.length out > 0)

let test_geomean_row () =
  let rows = [ [ "a"; "2.0"; "x" ]; [ "b"; "8.0"; "y" ] ] in
  match Table.geomean_row ~label:"gm" rows with
  | [ l; v; nv ] ->
    Alcotest.(check string) "label" "gm" l;
    Alcotest.(check string) "geomean" "4" v;
    Alcotest.(check string) "non-numeric column dashed" "-" nv
  | _ -> Alcotest.fail "wrong arity"

let test_geomean_row_empty () =
  Alcotest.(check (list string)) "empty rows" [ "gm" ] (Table.geomean_row ~label:"gm" [])

let test_series_make_checks_arity () =
  Alcotest.(check bool) "arity mismatch rejected" true
    (try
       ignore
         (Series.make ~title:"f" ~x_label:"x" ~y_labels:[ "a"; "b" ] [ (1.0, [ 2.0 ]) ]);
       false
     with Invalid_argument _ -> true)

let test_series_csv () =
  let s =
    Series.make ~title:"f" ~x_label:"x" ~y_labels:[ "y" ] [ (1.0, [ 2.0 ]); (3.0, [ 4.0 ]) ]
  in
  let path = Filename.temp_file "dpp_series" ".csv" in
  Series.to_csv s ~path;
  let ic = open_in path in
  let header = input_line ic in
  let row = input_line ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check string) "header" "x,y" header;
  Alcotest.(check string) "row" "1,2" row

let test_sparkline () =
  Alcotest.(check string) "empty" "" (Series.sparkline []);
  let s = Series.sparkline [ 0.0; 0.5; 1.0 ] in
  Alcotest.(check bool) "three glyphs" true (String.length s > 0);
  (* constant series does not crash (zero range) *)
  Alcotest.(check bool) "constant ok" true (String.length (Series.sparkline [ 2.0; 2.0 ]) > 0)

(* ----- the minimal JSON reader used by the trace schema tests ----- *)

module Json = Dpp_report.Json

let test_json_values () =
  let p = Json.parse in
  Alcotest.(check bool) "null" true (p "null" = Json.Null);
  Alcotest.(check bool) "bools" true (p "true" = Json.Bool true && p "false" = Json.Bool false);
  Alcotest.(check (float 1e-12)) "number" (-12.5e2) (Json.to_float (p "-12.5e2"));
  Alcotest.(check string) "string escapes" "a\"b\n\t\\" (Json.to_string (p {|"a\"b\n\t\\"|}));
  Alcotest.(check int) "array" 3 (List.length (Json.to_list (p "[1, 2, 3]")));
  Alcotest.(check bool) "empty array" true (Json.to_list (p "[]") = []);
  Alcotest.(check bool) "empty object" true (p "{}" = Json.Obj [])

let test_json_nested () =
  let v = Json.parse {|{"a": [1, {"b": true}], "c": null}|} in
  (match Json.member "a" v with
  | Some (Json.Arr [ Json.Num n; inner ]) ->
    Alcotest.(check (float 0.0)) "first element" 1.0 n;
    Alcotest.(check bool) "nested member" true
      (Json.member "b" inner = Some (Json.Bool true))
  | _ -> Alcotest.fail "array member lost");
  Alcotest.(check bool) "null member present" true (Json.member "c" v = Some Json.Null);
  Alcotest.(check bool) "missing member" true (Json.member "zzz" v = None)

let test_json_errors () =
  let rejects s =
    try
      ignore (Json.parse s);
      false
    with Json.Parse_error _ -> true
  in
  Alcotest.(check bool) "unterminated string" true (rejects {|"abc|});
  Alcotest.(check bool) "trailing garbage" true (rejects "1 2");
  Alcotest.(check bool) "bare word" true (rejects "nope");
  Alcotest.(check bool) "unclosed array" true (rejects "[1, 2");
  Alcotest.(check bool) "empty input" true (rejects "")

(* Regression: the stage parser must carry unknown fields through a
   round-trip instead of dropping them (an earlier reader rejected any
   schema extension outright).  The serve layer's event stream relies on
   this to tag stage payloads with job-level extras. *)
let test_trace_unknown_field_roundtrip () =
  let module Trace = Dpp_report.Trace in
  let src =
    {|{"name":"gp","wall_s":1.5,"t_s":2.0,"hpwl_before":100,"hpwl_after":90,
       "overflow":0.25,"levels":[],"check":null,
       "eco":{"fallback":false},"job":7,"new_metric":[1,2]}|}
  in
  let s = Trace.stage_of_json (Json.parse src) in
  Alcotest.(check string) "known field parsed" "gp" s.Trace.name;
  Alcotest.(check int) "unknown fields collected" 3 (List.length s.Trace.extra);
  Alcotest.(check bool) "unknown field value intact" true
    (List.assoc_opt "job" s.Trace.extra = Some (Json.Num 7.0));
  (* re-encode and re-parse: the extras must survive unchanged *)
  let s' = Trace.stage_of_json (Json.parse (Json.encode (Trace.stage_to_json s))) in
  Alcotest.(check bool) "extras survive re-encode" true (s'.Trace.extra = s.Trace.extra);
  Alcotest.(check bool) "stage equal after roundtrip" true (s' = s)

(* The file writer and the reader agree on the whole record: levels, a
   check verdict and extras included (values exact under %.12g). *)
let test_trace_write_roundtrip () =
  let module Trace = Dpp_report.Trace in
  let gp =
    {
      Trace.name = "gp";
      wall_s = 1.5;
      t_s = 2.25;
      hpwl_before = 1234.5;
      hpwl_after = 987.25;
      overflow = Some 0.125;
      vm_hwm_kb = 51200;
      heap_kb = 20480;
      levels =
        [
          { Trace.index = 1; movables = 300; hpwl = 800.5; overflow = 0.25; wall_s = 0.5 };
          { Trace.index = 2; movables = 120; hpwl = 700.0; overflow = 0.375; wall_s = 0.25 };
        ];
      check = Some { Trace.ok = false; oracles = [ "legal"; "netbox" ]; violations = [ "a \"b\"" ] };
      extra = [ "legal_failed", Json.Num 3.0; "note", Json.Str "x\ny" ];
    }
  in
  let metrics =
    { gp with Trace.name = "metrics"; overflow = None; levels = []; check = None; extra = [] }
  in
  let runs =
    [
      { Trace.design = "d1"; mode = "structure-aware"; total_s = 4.5; stages = [ gp; metrics ] };
      { Trace.design = "d2"; mode = "baseline"; total_s = 0.75; stages = [] };
    ]
  in
  let path = Filename.temp_file "dpp_trace" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Trace.write ~path runs;
  let text = In_channel.with_open_bin path In_channel.input_all in
  let back = List.map Trace.of_json (Json.to_list (Json.parse text)) in
  Alcotest.(check bool) "write -> parse -> of_json is the identity" true (back = runs)

let suite =
  [
    Alcotest.test_case "table render" `Quick test_table_render;
    Alcotest.test_case "table short rows" `Quick test_table_short_rows_padded;
    Alcotest.test_case "geomean row" `Quick test_geomean_row;
    Alcotest.test_case "geomean empty" `Quick test_geomean_row_empty;
    Alcotest.test_case "series arity" `Quick test_series_make_checks_arity;
    Alcotest.test_case "series csv" `Quick test_series_csv;
    Alcotest.test_case "sparkline" `Quick test_sparkline;
    Alcotest.test_case "json values" `Quick test_json_values;
    Alcotest.test_case "json nested" `Quick test_json_nested;
    Alcotest.test_case "json errors" `Quick test_json_errors;
    Alcotest.test_case "trace unknown-field roundtrip" `Quick test_trace_unknown_field_roundtrip;
    Alcotest.test_case "trace write roundtrip" `Quick test_trace_write_roundtrip;
  ]
