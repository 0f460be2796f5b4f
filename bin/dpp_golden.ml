(* dpp_golden: record or check the golden output bits (see Golden).

     dpp_golden record test/golden_bits.txt     # every preset, both domain counts
     dpp_golden check test/golden_bits.txt      # exit 1 on any differing field *)

module Golden = Dpp_core.Golden

let header =
  "# preset extract-md5 hpwl-jobs1 pl-md5-jobs1 hpwl-jobs4 pl-md5-jobs4\n\
   # written by dpp_golden record; each design is read back from the Bookshelf\n\
   # files its generator wrote, then extracted and placed (see lib/core/golden.mli)\n"

let record path =
  let rows = List.map Golden.row Golden.presets in
  Out_channel.with_open_text path (fun oc ->
      output_string oc header;
      List.iter (fun r -> output_string oc (Golden.to_line r ^ "\n")) rows);
  print_endline ("golden bits written to " ^ path);
  0

let check path =
  let bad = ref 0 in
  List.iter
    (fun (want : Golden.row) ->
      let got = Golden.row want.Golden.preset in
      let ok = got = want in
      if not ok then incr bad;
      Printf.printf "%-10s %s\n%!" want.Golden.preset
        (if ok then "ok" else Printf.sprintf "DIFFERS: got %s" (Golden.to_line got)))
    (Golden.load path);
  if !bad = 0 then 0
  else begin
    Printf.eprintf "%d preset(s) differ from %s\n" !bad path;
    1
  end

let () =
  exit
    (match Sys.argv with
    | [| _; "record"; path |] -> record path
    | [| _; "check"; path |] -> check path
    | _ ->
      prerr_endline "usage: dpp_golden (record|check) FILE";
      2)
