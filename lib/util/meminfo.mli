(** Process memory introspection for the per-stage memory ledger.

    All figures are high-water marks (monotone over the process
    lifetime): sampling them at every stage boundary attributes a spike
    to the first stage whose sample shows it.  Functions return [0]
    when the figure is unavailable on this platform. *)

val vm_hwm_kb : unit -> int
(** Peak resident set size (VmHWM from [/proc/self/status]), in kB.
    Counts everything the OS ever kept resident for this process: OCaml
    heaps, Bigarray payloads, stacks, mapped code. *)

val top_heap_kb : unit -> int
(** High-water mark of the OCaml major heap ([Gc.quick_stat]'s
    [top_heap_words]), in kB.  Excludes Bigarray payloads, which are
    malloc'd outside the major heap — the gap between {!vm_hwm_kb} and
    this figure is dominated by exactly those plus the minor heaps. *)
