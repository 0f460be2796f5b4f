module Soa = Dpp_netlist.Soa
module I32 = Dpp_util.Compact.I32
module Pool = Dpp_par.Pool

type t = {
  pins : Pins.t;
  views : Pins.t array;  (* per-worker scratch views over the shared geometry *)
  net_val : float array;  (* per net: weighted smooth value, 0 for degree < 2 *)
  pin_gx : float array;  (* per pin: weighted x-gradient contribution *)
  pin_gy : float array;
}

let create pool pins =
  let s = pins.Pins.soa in
  {
    pins;
    views = Array.init (Pool.nworkers pool) (fun w -> if w = 0 then pins else Pins.clone_scratch pins);
    net_val = Array.make (max 1 (Soa.num_nets s)) 0.0;
    pin_gx = Array.make (max 1 (Soa.num_pins s)) 0.0;
    pin_gy = Array.make (max 1 (Soa.num_pins s)) 0.0;
  }

(* Fan-out: each worker evaluates whole nets into slots owned by exactly
   one net (net_val) or one pin (pin_gx / pin_gy), so the stored values
   are independent of how nets were partitioned across workers. *)
let scan t pool ~gamma ~cx ~cy ~want_grad =
  let s = t.pins.Pins.soa in
  Pool.iter_chunks pool ~n:(Soa.num_nets s) (fun ~worker ~chunk:_ ~lo ~hi ->
      let view = t.views.(worker) in
      for n = lo to hi - 1 do
        let plo = Int32.to_int (I32.uget s.Soa.net_pin_off n) in
        let k = Pins.load_net view ~cx ~cy n in
        if k >= 2 then begin
          let wn = s.Soa.net_weight.(n) in
          let vx = Lse.axis_value_grad view.Pins.scratch_x k ~gamma ~w:view.Pins.scratch_w ~u:view.Pins.scratch_u ~v:view.Pins.scratch_v ~want_grad in
          if want_grad then
            for i = 0 to k - 1 do
              let p = Int32.to_int (I32.uget s.Soa.net_pin (plo + i)) in
              t.pin_gx.(p) <- wn *. view.Pins.scratch_w.(i)
            done;
          let vy = Lse.axis_value_grad view.Pins.scratch_y k ~gamma ~w:view.Pins.scratch_w ~u:view.Pins.scratch_u ~v:view.Pins.scratch_v ~want_grad in
          if want_grad then
            for i = 0 to k - 1 do
              let p = Int32.to_int (I32.uget s.Soa.net_pin (plo + i)) in
              t.pin_gy.(p) <- wn *. view.Pins.scratch_w.(i)
            done;
          t.net_val.(n) <- wn *. (vx +. vy)
        end
        else t.net_val.(n) <- 0.0
      done)

(* Reduce on the calling domain, in exactly the serial kernel's order:
   the value folds nets ascending, and each cell's gradient slot receives
   its pins' contributions ordered by (net, pin position) — the same
   addition sequence Lse.value_grad performs, so the result is
   bit-identical to the serial path at every worker count. *)
let reduce t ~want_grad ~gx ~gy =
  let s = t.pins.Pins.soa in
  let pin_cell = t.pins.Pins.pin_cell in
  let net_pin = s.Soa.net_pin in
  let acc = ref 0.0 in
  for n = 0 to Soa.num_nets s - 1 do
    let lo = Int32.to_int (I32.uget s.Soa.net_pin_off n)
    and hi = Int32.to_int (I32.uget s.Soa.net_pin_off (n + 1)) in
    if hi - lo >= 2 then begin
      if want_grad then begin
        for i = lo to hi - 1 do
          let p = Int32.to_int (I32.uget net_pin i) in
          let c = Int32.to_int (I32.uget pin_cell p) in
          gx.(c) <- gx.(c) +. t.pin_gx.(p)
        done;
        for i = lo to hi - 1 do
          let p = Int32.to_int (I32.uget net_pin i) in
          let c = Int32.to_int (I32.uget pin_cell p) in
          gy.(c) <- gy.(c) +. t.pin_gy.(p)
        done
      end;
      acc := !acc +. t.net_val.(n)
    end
  done;
  !acc

let no_grad = [||]

(* The fan-out/reduce pair is bit-identical to the serial kernels at any
   worker count (see [reduce]), so when the pool would run the scan on
   the calling domain anyway we skip the net_val/pin_g staging entirely
   and call the serial kernel — same floats, none of the staging-array
   traffic. *)
let serial_effective t pool = Pool.auto_serial pool ~n:(Soa.num_nets t.pins.Pins.soa)

let value t pool ~gamma ~cx ~cy =
  if serial_effective t pool then Lse.value t.pins ~gamma ~cx ~cy
  else begin
    scan t pool ~gamma ~cx ~cy ~want_grad:false;
    reduce t ~want_grad:false ~gx:no_grad ~gy:no_grad
  end

let value_grad t pool ~gamma ~cx ~cy ~gx ~gy =
  if serial_effective t pool then Lse.value_grad t.pins ~gamma ~cx ~cy ~gx ~gy
  else begin
    scan t pool ~gamma ~cx ~cy ~want_grad:true;
    reduce t ~want_grad:true ~gx ~gy
  end
