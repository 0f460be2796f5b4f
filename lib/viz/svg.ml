type t = { width : float; height : float; buf : Buffer.t }

(* blank border around the canvas, in user units *)
let margin = 10.0

let create ~width ~height () = { width; height; buf = Buffer.create 4096 }

(* user y grows up; SVG y grows down *)
let fy t y = t.height -. y

let esc s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '<' -> Buffer.add_string b "&lt;"
      | '>' -> Buffer.add_string b "&gt;"
      | '&' -> Buffer.add_string b "&amp;"
      | '"' -> Buffer.add_string b "&quot;"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let rect t ~x ~y ~w ~h ?(fill = "none") ?(stroke = "none") ?(stroke_width = 0.5) ?(opacity = 1.0)
    () =
  Buffer.add_string t.buf
    (Printf.sprintf
       "<rect x=\"%.3f\" y=\"%.3f\" width=\"%.3f\" height=\"%.3f\" fill=\"%s\" stroke=\"%s\" \
        stroke-width=\"%.3f\" fill-opacity=\"%.3f\"/>\n"
       x (fy t (y +. h)) w h fill stroke stroke_width opacity)

let line t ~x1 ~y1 ~x2 ~y2 ?(stroke = "black") ?(stroke_width = 0.5) () =
  Buffer.add_string t.buf
    (Printf.sprintf
       "<line x1=\"%.3f\" y1=\"%.3f\" x2=\"%.3f\" y2=\"%.3f\" stroke=\"%s\" stroke-width=\"%.3f\"/>\n"
       x1 (fy t y1) x2 (fy t y2) stroke stroke_width)

let text t ~x ~y ?(size = 8.0) ?(fill = "black") s =
  Buffer.add_string t.buf
    (Printf.sprintf "<text x=\"%.3f\" y=\"%.3f\" font-size=\"%.1f\" fill=\"%s\">%s</text>\n" x
       (fy t y) size fill (esc s))

let to_string t =
  Printf.sprintf
    "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n\
     <svg xmlns=\"http://www.w3.org/2000/svg\" viewBox=\"%.3f %.3f %.3f %.3f\" width=\"%.0f\" \
     height=\"%.0f\">\n\
     %s</svg>\n"
    (-.margin) (-.margin)
    (t.width +. (2.0 *. margin))
    (t.height +. (2.0 *. margin))
    (t.width +. (2.0 *. margin))
    (t.height +. (2.0 *. margin))
    (Buffer.contents t.buf)

let write t ~path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc (to_string t))

let palette =
  [|
    "#4c72b0"; "#dd8452"; "#55a868"; "#c44e52"; "#8172b3"; "#937860"; "#da8bc3"; "#8c8c8c";
    "#ccb974"; "#64b5cd"; "#e377c2"; "#17becf";
  |]

let color_of_index i = palette.(((i mod Array.length palette) + Array.length palette) mod Array.length palette)

let heat_color v =
  let v = max 0.0 (min 1.0 v) in
  (* piecewise blue -> green -> yellow -> red *)
  let r, g, b =
    if v < 0.33 then begin
      let u = v /. 0.33 in
      0.0, u, 1.0 -. u
    end
    else if v < 0.66 then begin
      let u = (v -. 0.33) /. 0.33 in
      u, 1.0, 0.0
    end
    else begin
      let u = (v -. 0.66) /. 0.34 in
      1.0, 1.0 -. u, 0.0
    end
  in
  Printf.sprintf "#%02x%02x%02x"
    (int_of_float (255.0 *. r))
    (int_of_float (255.0 *. g))
    (int_of_float (255.0 *. b))
