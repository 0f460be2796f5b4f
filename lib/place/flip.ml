module Design = Dpp_netlist.Design
module Soa = Dpp_netlist.Soa
module Orient = Dpp_geom.Orient
module Pins = Dpp_wirelen.Pins
module Netbox = Dpp_wirelen.Netbox
module Pool = Dpp_par.Pool

type stats = { flips : int; gain : float; flipped : int list }

let run (d : Design.t) ?(pool = Pool.serial) ?(skip = fun _ -> false) ~netbox:nb () =
  let s = (Netbox.pins nb).Pins.soa in
  (* evaluate-parallel/commit-serial: workers score every candidate flip
     with the read-only {!Netbox.eval_flip} against the committed state;
     the serial phase re-checks each proposal transactionally in
     ascending chunk (= ascending id) order, since an earlier committed
     flip of a net neighbour can change the sign of a later delta. *)
  let cands =
    Array.to_list (Design.movable_ids d)
    |> List.filter (fun i -> (not (skip i)) && s.Soa.height.(i) <= s.Soa.row_height +. 1e-9)
    |> Array.of_list
  in
  let proposals = Array.make Pool.chunk_count [] in
  Pool.iter_chunks pool ~n:(Array.length cands) (fun ~worker:_ ~chunk ~lo ~hi ->
      let props = ref [] in
      for q = lo to hi - 1 do
        let i = cands.(q) in
        if Netbox.eval_flip nb i < -1e-9 then props := i :: !props
      done;
      proposals.(chunk) <- List.rev !props);
  let flips = ref 0 and gain = ref 0.0 and flipped = ref [] in
  Array.iter
    (List.iter (fun i ->
         (* mirror this cell's pin x-offsets in the shared pin view; the
            netbox keeps the offsets and its boxes consistent on commit,
            so no caller ever rebuilds the pin structure after flipping *)
         Netbox.flip_cell nb i;
         let delta = Netbox.delta nb in
         if delta < -1e-9 then begin
           Netbox.commit nb;
           (* s.orient aliases d.orient, so both views see the flip *)
           d.Design.orient.(i) <- Orient.flip_x d.Design.orient.(i);
           incr flips;
           gain := !gain -. delta;
           flipped := i :: !flipped
         end
         else Netbox.rollback nb))
    proposals;
  { flips = !flips; gain = !gain; flipped = !flipped }
