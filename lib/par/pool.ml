type t = {
  nworkers : int;
  mutex : Mutex.t;
  work : Condition.t;
  idle : Condition.t;
  mutable job : (int -> unit) option;
  mutable epoch : int;  (** bumped per job; helpers wake when it moves *)
  mutable pending : int;  (** helpers still running the current job *)
  mutable failure : exn option;  (** first exception raised by any worker *)
  mutable stop : bool;
  mutable helpers : unit Domain.t array;  (** spawned lazily, length nworkers - 1 *)
}

(* The chunk structure is the determinism contract: [chunk_count] is a
   constant, so per-chunk partial sums reduced in ascending chunk order
   give the same bits at every worker count. *)
let chunk_count = 16

(* [iter_chunks] hands worker [w] the chunks [w, w + nworkers, ...], so a
   worker at or above [chunk_count] would never get one: the width is
   capped there, which also bounds the domains and per-worker scratch a
   client-chosen width can ask for *)
let create ~nworkers =
  {
    nworkers = min chunk_count (max 1 nworkers);
    mutex = Mutex.create ();
    work = Condition.create ();
    idle = Condition.create ();
    job = None;
    epoch = 0;
    pending = 0;
    failure = None;
    stop = false;
    helpers = [||];
  }

let nworkers t = t.nworkers

let serial = create ~nworkers:1

let record_failure t exn =
  Mutex.lock t.mutex;
  if t.failure = None then t.failure <- Some exn;
  Mutex.unlock t.mutex

(* Helper domains park here between jobs.  [seen] is the last epoch this
   helper executed, so a broadcast cannot double-run or skip a job.  The
   starting epoch is captured by the spawner *before* the domain exists:
   reading [t.epoch] from inside the new domain would race with the first
   [run], which may bump the epoch before the helper gets scheduled. *)
let helper_loop t epoch0 w =
  let seen = ref epoch0 in
  let running = ref true in
  while !running do
    Mutex.lock t.mutex;
    while (not t.stop) && t.epoch = !seen do
      Condition.wait t.work t.mutex
    done;
    if t.stop then begin
      Mutex.unlock t.mutex;
      running := false
    end
    else begin
      seen := t.epoch;
      let job = t.job in
      Mutex.unlock t.mutex;
      (match job with
      | Some f -> ( try f w with exn -> record_failure t exn)
      | None -> ());
      Mutex.lock t.mutex;
      t.pending <- t.pending - 1;
      if t.pending = 0 then Condition.broadcast t.idle;
      Mutex.unlock t.mutex
    end
  done

let ensure_spawned t =
  if Array.length t.helpers = 0 && t.nworkers > 1 then begin
    t.stop <- false;
    let epoch0 = t.epoch in
    t.helpers <-
      Array.init (t.nworkers - 1) (fun k ->
          Domain.spawn (fun () -> helper_loop t epoch0 (k + 1)))
  end

let run t f =
  if t.nworkers = 1 then f 0
  else begin
    ensure_spawned t;
    Mutex.lock t.mutex;
    t.job <- Some f;
    t.failure <- None;
    t.pending <- t.nworkers - 1;
    t.epoch <- t.epoch + 1;
    Condition.broadcast t.work;
    Mutex.unlock t.mutex;
    (try f 0 with exn -> record_failure t exn);
    Mutex.lock t.mutex;
    while t.pending > 0 do
      Condition.wait t.idle t.mutex
    done;
    t.job <- None;
    let failure = t.failure in
    t.failure <- None;
    Mutex.unlock t.mutex;
    match failure with Some exn -> raise exn | None -> ()
  end

let chunk_bounds ~n c = c * n / chunk_count, (c + 1) * n / chunk_count

(* Auto-serial fallback: fanning tiny work out to parked domains costs
   more in wake-up latency than the chunks cost to compute, and on a
   single-core machine the helpers only add scheduling overhead.  The
   fallback runs the same 16 chunks inline on the caller (as worker 0),
   in ascending chunk order — exactly the order a chunk-merged reduction
   assumes — so kernel results stay bit-identical to the fanned-out
   path and the determinism contract is untouched. *)
let effective_cores = Domain.recommended_domain_count ()

let min_parallel_items = 2048

let auto_serial t ~n = t.nworkers <= 1 || effective_cores < 2 || n < min_parallel_items

let iter_chunks t ~n f =
  if auto_serial t ~n then
    for c = 0 to chunk_count - 1 do
      let lo, hi = chunk_bounds ~n c in
      f ~worker:0 ~chunk:c ~lo ~hi
    done
  else
    run t (fun w ->
        let c = ref w in
        while !c < chunk_count do
          let lo, hi = chunk_bounds ~n !c in
          f ~worker:w ~chunk:!c ~lo ~hi;
          c := !c + t.nworkers
        done)

let shutdown t =
  if Array.length t.helpers > 0 then begin
    Mutex.lock t.mutex;
    t.stop <- true;
    Condition.broadcast t.work;
    Mutex.unlock t.mutex;
    Array.iter Domain.join t.helpers;
    t.helpers <- [||];
    t.stop <- false
  end

let with_pool ~nworkers f =
  let t = create ~nworkers in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
