module Groups = Dpp_netlist.Groups

type t = {
  true_groups : int;
  found_groups : int;
  matched_groups : int;
  true_cells : int;
  found_cells : int;
  correct_cells : int;
  precision : float;
  recall : float;
  f1 : float;
}

(* Linear in the largest cell id plus the group sizes.  [mark.(c)] is the
   last group of the side being walked that counted cell [c], so every
   group's distinct members are visited once.  [owners.(c)] lists the true
   groups holding cell [c]; each found group counts its intersection with
   every true group it touches.  Jaccard is taken only over those touched
   pairs: an untouched pair has an empty intersection and can never reach
   0.5. *)
let compare_to_truth ~truth ~found =
  let max_id groups acc =
    List.fold_left (fun acc g -> Array.fold_left (Array.fold_left Int.max) acc g.Groups.g_rows) acc groups
  in
  let n = 1 + max_id found (max_id truth (-1)) in
  let mark = Array.make n (-1) in
  let walk_distinct k g f =
    Array.iter
      (Array.iter (fun c ->
           if c >= 0 && mark.(c) <> k then begin
             mark.(c) <- k;
             f c
           end))
      g.Groups.g_rows
  in
  let owners = Array.make n [] in
  let true_size =
    Array.of_list
      (List.mapi
         (fun j g ->
           let size = ref 0 in
           walk_distinct j g (fun c ->
               owners.(c) <- j :: owners.(c);
               incr size);
           !size)
         truth)
  in
  Array.fill mark 0 n (-1);
  let inter = Array.make (Array.length true_size) 0 in
  let matched = ref 0 in
  List.iteri
    (fun i g ->
      let size = ref 0 and touched = ref [] in
      walk_distinct i g (fun c ->
          incr size;
          List.iter
            (fun j ->
              if inter.(j) = 0 then touched := j :: !touched;
              inter.(j) <- inter.(j) + 1)
            owners.(c));
      if
        List.exists
          (fun j ->
            let union = !size + true_size.(j) - inter.(j) in
            float_of_int inter.(j) /. float_of_int union >= 0.5)
          !touched
      then incr matched;
      List.iter (fun j -> inter.(j) <- 0) !touched)
    found;
  (* [mark] now flags every found cell, [owners] every true one *)
  let nt = ref 0 and nf = ref 0 and correct = ref 0 in
  for c = 0 to n - 1 do
    let t = owners.(c) <> [] and f = mark.(c) >= 0 in
    if t then incr nt;
    if f then incr nf;
    if t && f then incr correct
  done;
  let nt = !nt and nf = !nf in
  let precision = if nf = 0 then 1.0 else float_of_int !correct /. float_of_int nf in
  let recall = if nt = 0 then 1.0 else float_of_int !correct /. float_of_int nt in
  let f1 =
    if precision +. recall <= 0.0 then 0.0 else 2.0 *. precision *. recall /. (precision +. recall)
  in
  {
    true_groups = Array.length true_size;
    found_groups = List.length found;
    matched_groups = !matched;
    true_cells = nt;
    found_cells = nf;
    correct_cells = !correct;
    precision;
    recall;
    f1;
  }

let header =
  [ "design"; "#true-grp"; "#found-grp"; "#matched"; "#true-cells"; "#found-cells"; "prec"; "recall"; "F1" ]

let to_row name t =
  [
    name;
    string_of_int t.true_groups;
    string_of_int t.found_groups;
    string_of_int t.matched_groups;
    string_of_int t.true_cells;
    string_of_int t.found_cells;
    Printf.sprintf "%.3f" t.precision;
    Printf.sprintf "%.3f" t.recall;
    Printf.sprintf "%.3f" t.f1;
  ]
