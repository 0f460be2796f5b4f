(* Perf-regression guard: compare a freshly produced BENCH_xl.json
   against the committed reference and fail when any watched wall-clock
   or memory number regresses past its tolerance factor.

   Watched wall-clock numbers: the xl100k full-flow wall time and every
   per-size SoA kernel time present in both files.  The wall tolerance
   defaults to 2.5x — CI runners are slow and noisy relative to the
   machine the reference was recorded on, so this only catches
   order-of-magnitude regressions (an accidentally quadratic loop, a
   lost optimization), not jitter.

   Watched memory numbers: per-size [vm_hwm_kb] and [top_heap_kb] from
   the sweep, and the xl1m full-flow [vm_hwm_kb] when both files carry
   one.  Resident footprint is far less noisy than wall time — the
   same binary on the same input allocates the same bytes — so the
   memory tolerance defaults to a much tighter 1.3x.  A change that
   re-boxes the compact netlist core or leaks a per-level buffer trips
   this gate even on a fast runner.

   Sizes, kernels or memory fields present in only one file are
   skipped, so the guard keeps working when the sweep is capped via
   DPP_XL_MAX or when an older reference predates the memory ledger.

   Scaling leg: the least-squares slope of log [extract_s] against log
   [cells] over the fresh file's sizes (at least three), failing above
   1.5.  It reads nothing from the reference, so a superlinear
   extraction trips it on any runner without a refreshed baseline. *)

module Json = Dpp_report.Json

let usage () =
  prerr_endline "usage: dpp_perfguard REFERENCE.json FRESH.json [WALL_TOL] [MEM_TOL]";
  exit 2

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let num path v =
  match v with
  | Some (Json.Num f) -> Some f
  | _ ->
    Printf.eprintf "warning: %s missing or not a number, skipped\n" path;
    None

(* memory fields are optional (older references predate the ledger) —
   no warning when absent, the join just skips them *)
let num_opt v = match v with Some (Json.Num f) -> Some f | _ -> None

let max_extract_exponent = 1.5

(* least-squares slope of log y against log x *)
let loglog_slope pts =
  let n = float_of_int (List.length pts) in
  let lx = List.map (fun (x, _) -> log x) pts and ly = List.map (fun (_, y) -> log y) pts in
  let mean l = List.fold_left ( +. ) 0.0 l /. n in
  let mx = mean lx and my = mean ly in
  let sxy = List.fold_left2 (fun a x y -> a +. ((x -. mx) *. (y -. my))) 0.0 lx ly in
  let sxx = List.fold_left (fun a x -> a +. ((x -. mx) *. (x -. mx))) 0.0 lx in
  sxy /. sxx

let () =
  let ref_path, fresh_path, wall_tol, mem_tol =
    match Array.to_list Sys.argv with
    | [ _; r; f ] -> r, f, 2.5, 1.3
    | [ _; r; f; t ] -> r, f, float_of_string t, 1.3
    | [ _; r; f; t; m ] -> r, f, float_of_string t, float_of_string m
    | _ -> usage ()
  in
  let reference = Json.parse (read_file ref_path) in
  let fresh = Json.parse (read_file fresh_path) in
  let failures = ref 0 in
  let check label r f =
    match r, f with
    | Some r, Some f when r > 0.0 ->
      let ratio = f /. r in
      let bad = ratio > wall_tol in
      if bad then incr failures;
      Printf.printf "%-28s ref %8.3f s  fresh %8.3f s  %5.2fx %s\n" label r f ratio
        (if bad then "FAIL" else "ok")
    | _ -> ()
  in
  let check_mem label r f =
    match r, f with
    | Some r, Some f when r > 0.0 ->
      let ratio = f /. r in
      let bad = ratio > mem_tol in
      if bad then incr failures;
      Printf.printf "%-28s ref %8.1f MB fresh %8.1f MB %5.2fx %s\n" label (r /. 1024.)
        (f /. 1024.) ratio
        (if bad then "FAIL" else "ok")
    | _ -> ()
  in
  let flow_wall doc =
    num "flow.wall_s" (Option.bind (Json.member "flow" doc) (Json.member "wall_s"))
  in
  check "flow xl100k" (flow_wall reference) (flow_wall fresh);
  (* per-size kernel times and memory marks, joined by size name *)
  let sizes doc =
    match Json.member "sizes" doc with
    | Some (Json.Arr xs) ->
      List.filter_map
        (fun x ->
          match Json.member "name" x with Some (Json.Str n) -> Some (n, x) | _ -> None)
        xs
    | _ -> []
  in
  let ref_sizes = sizes reference in
  List.iter
    (fun (name, fx) ->
      match List.assoc_opt name ref_sizes with
      | None -> ()
      | Some rx ->
        (match Json.member "kernels" rx, Json.member "kernels" fx with
        | Some (Json.Obj rk), Some (Json.Obj fk) ->
          List.iter
            (fun (kname, rv) ->
              match List.assoc_opt kname fk with
              | None -> ()
              | Some fv ->
                check
                  (Printf.sprintf "%s %s" name kname)
                  (num "soa_s" (Json.member "soa_s" rv))
                  (num "soa_s" (Json.member "soa_s" fv)))
            rk
        | _ -> ());
        List.iter
          (fun field ->
            check_mem
              (Printf.sprintf "%s %s" name field)
              (num_opt (Json.member field rx))
              (num_opt (Json.member field fx)))
          [ "vm_hwm_kb"; "top_heap_kb" ])
    (sizes fresh);
  (* the non-gating-in-CI xl1m flow still gates here when both files
     recorded it: its VmHWM is the number the compact core exists for *)
  let xl1m_hwm doc =
    num_opt (Option.bind (Json.member "flow_xl1m" doc) (Json.member "vm_hwm_kb"))
  in
  check_mem "flow xl1m vm_hwm" (xl1m_hwm reference) (xl1m_hwm fresh);
  let extract_pts =
    List.filter_map
      (fun (_, x) ->
        match num_opt (Json.member "cells" x), num_opt (Json.member "extract_s" x) with
        | Some c, Some t when t > 0.0 -> Some (c, t)
        | _ -> None)
      (sizes fresh)
  in
  (match List.length extract_pts with
  | n when n >= 3 ->
    let e = loglog_slope extract_pts in
    let bad = e > max_extract_exponent in
    if bad then incr failures;
    Printf.printf "%-28s exponent %.2f over %d sizes (max %.2f) %s\n" "extract scaling" e n
      max_extract_exponent
      (if bad then "FAIL" else "ok")
  | n -> Printf.printf "%-28s skipped: %d sizes carry extract_s, 3 needed\n" "extract scaling" n);
  if !failures > 0 then begin
    Printf.printf "%d regression(s) past tolerance (wall %.1fx, mem %.1fx)\n" !failures
      wall_tol mem_tol;
    exit 1
  end
  else Printf.printf "perf guard clean (wall tolerance %.1fx, mem %.1fx)\n" wall_tol mem_tol
