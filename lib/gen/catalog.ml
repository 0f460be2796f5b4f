let names = Presets.names @ Xl.preset_names @ [ Channel.name ]

let design ?seed name =
  match Presets.by_name name with
  | Some spec ->
    let spec = match seed with Some s -> { spec with Compose.sp_seed = s } | None -> spec in
    Some (Compose.build spec)
  | None -> (
    match Xl.by_name ?seed name with Some d -> Some d | None -> Channel.by_name ?seed name)
