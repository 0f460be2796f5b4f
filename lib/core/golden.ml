module Bookshelf = Dpp_netlist.Bookshelf
module Groups = Dpp_netlist.Groups
module Slicer = Dpp_extract.Slicer

let table1 =
  List.map (fun (s : Dpp_gen.Compose.spec) -> s.Dpp_gen.Compose.sp_name) Dpp_gen.Presets.suite

let presets = table1 @ [ Dpp_gen.Channel.name; "xl10k" ]

type row = {
  preset : string;
  extract : string;
  hpwl_j1 : string;
  pl_j1 : string;
  hpwl_j4 : string;
  pl_j4 : string;
}

let generate name =
  match Dpp_gen.Catalog.design name with
  | Some d -> d
  | None -> invalid_arg ("Golden: unknown preset " ^ name)

(* [f dir] in a fresh directory, removed afterwards *)
let in_temp_dir f =
  let dir = Filename.temp_file "dpp_golden" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

(* the preset written by its generator and read back *)
let read_back ~dir name =
  let basename = Filename.concat dir name in
  Bookshelf.write (generate name) ~basename;
  Bookshelf.read ~basename

let hex_digest s = Digest.to_hex (Digest.string s)

let extraction name =
  in_temp_dir (fun dir ->
      let r = Slicer.run (read_back ~dir name) Slicer.default_config in
      let b = Buffer.create 4096 in
      Printf.bprintf b "%d %d %d\n" r.Slicer.seeds_control r.Slicer.seeds_chain
        r.Slicer.columns_grown;
      List.iter
        (fun g ->
          Buffer.add_string b g.Groups.g_name;
          Array.iter
            (fun row ->
              Buffer.add_char b '\n';
              Array.iter (Printf.bprintf b " %d") row)
            g.Groups.g_rows;
          Buffer.add_char b '\n')
        r.Slicer.groups;
      hex_digest (Buffer.contents b))

let config name ~jobs =
  if name = Dpp_gen.Channel.name then
    {
      Config.structure_aware with
      Config.mode = Config.Baseline;
      multilevel = Config.Ml_off;
      routability = true;
      jobs;
    }
  else { Config.structure_aware with Config.jobs }

let placement name ~jobs =
  in_temp_dir (fun dir ->
      let r = Flow.run (read_back ~dir name) (config name ~jobs) in
      let basename = Filename.concat dir "placed" in
      Bookshelf.write r.Flow.design ~basename;
      Printf.sprintf "%h" r.Flow.hpwl_final, Digest.to_hex (Digest.file (basename ^ ".pl")))

let row name =
  let hpwl_j1, pl_j1 = placement name ~jobs:1 in
  let hpwl_j4, pl_j4 = placement name ~jobs:4 in
  { preset = name; extract = extraction name; hpwl_j1; pl_j1; hpwl_j4; pl_j4 }

let to_line r =
  String.concat " " [ r.preset; r.extract; r.hpwl_j1; r.pl_j1; r.hpwl_j4; r.pl_j4 ]

let load path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "" && l.[0] <> '#')
  |> List.map (fun l ->
         match String.split_on_char ' ' l |> List.filter (( <> ) "") with
         | [ preset; extract; hpwl_j1; pl_j1; hpwl_j4; pl_j4 ] ->
           { preset; extract; hpwl_j1; pl_j1; hpwl_j4; pl_j4 }
         | _ -> failwith (Printf.sprintf "%s: bad golden line %S" path l))
