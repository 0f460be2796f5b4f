module Soa = Dpp_netlist.Soa
module Groups = Dpp_netlist.Groups

type config = {
  max_data_degree : int;
  refine_iterations : int;
  min_slices : int;
  min_stages : int;
  coverage : float;
  max_conflict : float;
  chain_depth : int;
  max_labels_per_class : int;
}

let default_config =
  {
    max_data_degree = 5;
    refine_iterations = 3;
    min_slices = 4;
    min_stages = 2;
    coverage = 0.7;
    max_conflict = 0.2;
    chain_depth = 4;
    max_labels_per_class = 12;
  }

type result = {
  groups : Groups.t list;
  seeds_control : int;
  seeds_chain : int;
  columns_grown : int;
}

type state = {
  cfg : config;
  sg : Signature.t;
  lb : Labels.t;
  group_of : int array;  (** cell -> group id or -1 *)
  slice_of : int array;  (** cell -> slice id within its group *)
  group_columns : int array Dpp_util.Dyn.t Dpp_util.Dyn.t;  (** group -> columns *)
  mutable n_control : int;
  mutable n_chain : int;
  mutable n_grown : int;
}

let new_group st =
  let g = Dpp_util.Dyn.length st.group_columns in
  Dpp_util.Dyn.push st.group_columns (Dpp_util.Dyn.create ());
  g

let assign st g column =
  Array.iter (fun c -> if c >= 0 then st.group_of.(c) <- g) column;
  Dpp_util.Dyn.push (Dpp_util.Dyn.get st.group_columns g) column

(* ------------------------------------------------------------------ *)
(* Parallel BFS expansion                                              *)
(* ------------------------------------------------------------------ *)

(* Try to map column [cells] through [label]; returns the new column on
   success.  Slice ids propagate from source to target. *)
let try_expand st g label cells =
  let m = Array.length cells in
  let targets = Array.make m (-1) in
  let seen = Hashtbl.create m in
  let n_new = ref 0 and n_conflict = ref 0 in
  Array.iteri
    (fun k c ->
      if c >= 0 then
        match Labels.target st.lb ~cell:c ~label with
        | -1 -> ()
        | t ->
          if Hashtbl.mem seen t then begin
            (* duplicate target: drop both occurrences *)
            (match Hashtbl.find_opt seen t with
            | Some k' when k' >= 0 ->
              (* undo the earlier "new" claim on this target *)
              targets.(k') <- -1;
              Hashtbl.replace seen t (-1);
              decr n_new;
              incr n_conflict
            | Some _ | None -> ());
            incr n_conflict
          end
          else if st.group_of.(t) = -1 then begin
            Hashtbl.add seen t k;
            targets.(k) <- t;
            incr n_new
          end
          else if st.group_of.(t) = g && st.slice_of.(t) = st.slice_of.(c) then
            (* already discovered at the right slice: consistent, not new *)
            Hashtbl.add seen t (-1)
          else begin
            Hashtbl.add seen t (-1);
            incr n_conflict
          end)
    cells;
  let live = Array.fold_left (fun acc c -> if c >= 0 then acc + 1 else acc) 0 cells in
  if
    !n_new >= st.cfg.min_slices
    && float_of_int !n_new >= st.cfg.coverage *. float_of_int live
    && float_of_int !n_conflict <= st.cfg.max_conflict *. float_of_int live
  then begin
    (* commit *)
    Array.iteri
      (fun k t ->
        if t >= 0 then begin
          st.group_of.(t) <- g;
          st.slice_of.(t) <- st.slice_of.(cells.(k))
        end)
      targets;
    Some (Array.of_list (Array.to_list targets |> List.filter (fun t -> t >= 0)))
  end
  else None

let expand_from st g seed_column =
  let queue = Queue.create () in
  Queue.push seed_column queue;
  while not (Queue.is_empty queue) do
    let cells = Queue.pop queue in
    let live = Array.to_list cells |> List.filter (fun c -> c >= 0) in
    match live with
    | [] -> ()
    | c0 :: _ ->
      let cls = Signature.class_of st.sg c0 in
      let labels = Labels.labels_from_class st.lb cls in
      List.iter
        (fun label ->
          match try_expand st g label cells with
          | Some column ->
            st.n_grown <- st.n_grown + 1;
            assign st g column;
            Queue.push column queue
          | None -> ())
        labels
  done

(* ------------------------------------------------------------------ *)
(* Control-net seeding                                                 *)
(* ------------------------------------------------------------------ *)

let control_seeds st (s : Soa.t) (nc : Netclass.t) =
  for n = 0 to Soa.num_nets s - 1 do
    if Netclass.kind nc n = Netclass.Control then begin
      (* group sinks by signature class *)
      let by_class = Hashtbl.create 16 in
      Soa.iter_cells_of_net s n (fun c ->
          let cls = Signature.class_of st.sg c in
          if cls >= 0 then
            Hashtbl.replace by_class cls
              (c :: Option.value ~default:[] (Hashtbl.find_opt by_class cls)));
      let classes = Hashtbl.fold (fun cls cells acc -> (cls, cells) :: acc) by_class [] in
      let classes = List.sort (fun (a, _) (b, _) -> compare a b) classes in
      List.iter
        (fun (_cls, cells) ->
          let cells = List.sort compare cells in
          let unvisited = List.for_all (fun c -> st.group_of.(c) = -1) cells in
          if List.length cells >= st.cfg.min_slices && unvisited then begin
            let column = Array.of_list cells in
            let g = new_group st in
            Array.iteri
              (fun k c ->
                st.group_of.(c) <- g;
                st.slice_of.(c) <- k)
              column;
            Dpp_util.Dyn.push (Dpp_util.Dyn.get st.group_columns g) column;
            st.n_control <- st.n_control + 1;
            expand_from st g column
          end)
        classes
    end
  done

(* ------------------------------------------------------------------ *)
(* Chain seeding                                                       *)
(* ------------------------------------------------------------------ *)

(* Search label compositions of length <= chain_depth from class [cls]
   back to [cls] whose composed partial map over the class members is
   injective, fixed-point-free and covers >= min_slices cells. *)
let find_successor st cls members =
  let m = Array.length members in
  let member_pos = Hashtbl.create m in
  Array.iteri (fun k c -> Hashtbl.add member_pos c k) members;
  let take_labels c =
    let labels = Labels.labels_from_class st.lb c in
    let labels =
      List.sort (fun a b -> compare (Labels.count st.lb b) (Labels.count st.lb a)) labels
    in
    List.filteri (fun i _ -> i < st.cfg.max_labels_per_class) labels
  in
  let valid h =
    let seen = Hashtbl.create m in
    let defined = ref 0 in
    let ok = ref true in
    Array.iteri
      (fun pos t ->
        if t >= 0 then begin
          if not (Hashtbl.mem member_pos t) then ok := false
          else begin
            if t = members.(pos) then ok := false;
            if Hashtbl.mem seen t then ok := false else Hashtbl.add seen t ();
            incr defined
          end
        end)
      h;
    !ok && !defined >= st.cfg.min_slices
  in
  let exception Found of int array in
  let rec dfs cur_class map depth =
    if depth < st.cfg.chain_depth then
      List.iter
        (fun label ->
          let next = Array.make m (-1) in
          let defined = ref 0 in
          Array.iteri
            (fun pos c ->
              if c >= 0 then
                match Labels.target st.lb ~cell:c ~label with
                | -1 -> ()
                | t ->
                  next.(pos) <- t;
                  incr defined)
            map;
          if !defined >= st.cfg.min_slices then begin
            let tc = Labels.target_class st.lb label in
            if tc = cls then begin
              if valid next then raise (Found next)
            end
            else dfs tc next (depth + 1)
          end)
        (take_labels cur_class)
  in
  match dfs cls members 0 with
  | () -> None
  | exception Found h -> Some h

(* Decompose the successor map into ordered chains (slices in order). *)
let chains_of_successor members h =
  let m = Array.length members in
  let succ = Hashtbl.create m in
  let has_pred = Hashtbl.create m in
  Array.iteri
    (fun pos t ->
      if t >= 0 then begin
        Hashtbl.replace succ members.(pos) t;
        Hashtbl.replace has_pred t ()
      end)
    h;
  let visited = Hashtbl.create m in
  let walk start =
    let rec go c acc =
      if Hashtbl.mem visited c then List.rev acc
      else begin
        Hashtbl.add visited c ();
        match Hashtbl.find_opt succ c with
        | Some t -> go t (c :: acc)
        | None -> List.rev (c :: acc)
      end
    in
    go start []
  in
  let chains = ref [] in
  (* path starts first *)
  Array.iter
    (fun c -> if (not (Hashtbl.mem has_pred c)) && not (Hashtbl.mem visited c) then chains := walk c :: !chains)
    members;
  (* remaining cycles: break at the smallest id *)
  Array.iter (fun c -> if not (Hashtbl.mem visited c) then chains := walk c :: !chains) members;
  List.rev !chains

let chain_seeds st =
  for cls = 0 to st.sg.Signature.num_classes - 1 do
    let members =
      Array.of_list
        (Array.to_list st.sg.Signature.class_members.(cls)
        |> List.filter (fun c -> st.group_of.(c) = -1))
    in
    if Array.length members >= st.cfg.min_slices then begin
      match find_successor st cls members with
      | None -> ()
      | Some h ->
        List.iter
          (fun chain ->
            if List.length chain >= st.cfg.min_slices then begin
              let column = Array.of_list chain in
              (* all cells must still be free (prior chain of same class
                 cannot overlap, but BFS of a previous chain might) *)
              if Array.for_all (fun c -> st.group_of.(c) = -1) column then begin
                let g = new_group st in
                Array.iteri
                  (fun k c ->
                    st.group_of.(c) <- g;
                    st.slice_of.(c) <- k)
                  column;
                Dpp_util.Dyn.push (Dpp_util.Dyn.get st.group_columns g) column;
                st.n_chain <- st.n_chain + 1;
                expand_from st g column
              end
            end)
          (chains_of_successor members h)
    end
  done

(* ------------------------------------------------------------------ *)
(* Assembly                                                            *)
(* ------------------------------------------------------------------ *)

let assemble st =
  let out = ref [] in
  let gid = ref 0 in
  Dpp_util.Dyn.iteri
    (fun _g columns ->
      let n_stages = Dpp_util.Dyn.length columns in
      if n_stages >= st.cfg.min_stages then begin
        (* collect slice ids present *)
        let slice_ids = Hashtbl.create 64 in
        Dpp_util.Dyn.iter
          (fun col -> Array.iter (fun c -> if c >= 0 then Hashtbl.replace slice_ids st.slice_of.(c) ()) col)
          columns;
        let rows_list = Hashtbl.fold (fun s () acc -> s :: acc) slice_ids [] |> List.sort compare in
        let n_slices = List.length rows_list in
        if n_slices >= st.cfg.min_slices then begin
          let row_index = Hashtbl.create n_slices in
          List.iteri (fun i s -> Hashtbl.add row_index s i) rows_list;
          let matrix = Array.make_matrix n_slices n_stages (-1) in
          Dpp_util.Dyn.iteri
            (fun stage col ->
              Array.iter
                (fun c ->
                  if c >= 0 then begin
                    let r = Hashtbl.find row_index st.slice_of.(c) in
                    matrix.(r).(stage) <- c
                  end)
                col)
            columns;
          let name = Printf.sprintf "dp%d" !gid in
          incr gid;
          out := Groups.make name matrix :: !out
        end
      end)
    st.group_columns;
  List.rev !out

let run_with ~soa cfg =
  let nc = Netclass.classify soa ~max_data_degree:cfg.max_data_degree in
  let sg = Signature.compute soa nc ~iterations:cfg.refine_iterations in
  let lb = Labels.build soa nc sg in
  let n_cells = Soa.num_cells soa in
  let st =
    {
      cfg;
      sg;
      lb;
      group_of = Array.make n_cells (-1);
      slice_of = Array.make n_cells (-1);
      group_columns = Dpp_util.Dyn.create ();
      n_control = 0;
      n_chain = 0;
      n_grown = 0;
    }
  in
  control_seeds st soa nc;
  chain_seeds st;
  {
    groups = assemble st;
    seeds_control = st.n_control;
    seeds_chain = st.n_chain;
    columns_grown = st.n_grown;
  }

let run d cfg = run_with ~soa:(Soa.of_design d) cfg
