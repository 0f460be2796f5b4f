(* Process-level memory introspection for the per-stage memory ledger.

   Two complementary figures:

   - [vm_hwm_kb]: the kernel's high-water mark of resident set size
     (VmHWM in /proc/self/status).  Monotone over the process lifetime,
     so sampling it at a stage boundary attributes the first spike to
     the stage that introduced it: the stage whose sample first shows a
     jump is the one that touched that many pages.

   - [top_heap_kb]: the OCaml major heap's high-water mark from
     [Gc.quick_stat].  Also monotone.  The gap between the two is
     memory the runtime holds outside the major heap (minor heaps,
     Bigarray payloads, stacks, code) plus malloc fragmentation.

   Both return 0 when the figure is unavailable (non-Linux /proc), so
   ledger consumers can treat 0 as "not sampled". *)

let status_field field =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
    let prefix = field ^ ":" in
    let plen = String.length prefix in
    let rec scan () =
      match input_line ic with
      | exception End_of_file -> 0
      | line ->
        if String.length line > plen && String.sub line 0 plen = prefix then
          (* "VmHWM:     123456 kB" — first numeric token after the key *)
          let rest = String.sub line plen (String.length line - plen) in
          let rest = String.map (fun c -> if c = '\t' then ' ' else c) rest in
          let tokens = String.split_on_char ' ' rest in
          (match List.find_opt (fun t -> t <> "" && int_of_string_opt t <> None) tokens with
          | Some t -> int_of_string t
          | None -> 0)
        else scan ()
    in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) scan

let vm_hwm_kb () = status_field "VmHWM"

let top_heap_kb () =
  (Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8) / 1024
