type vtc = { inputs : float array; outputs : float array }

let trace_vtc ?(points = 81) ~cell ~side ~access_on condition =
  assert (points >= 2);
  let lo = min condition.Sram6t.vssc 0.0 in
  let hi = condition.Sram6t.vddc in
  let inputs =
    Array.init points (fun i ->
        lo +. ((hi -. lo) *. float_of_int i /. float_of_int (points - 1)))
  in
  let build vin =
    let netlist, _out = Sram6t.build_half_vtc ~cell ~side ~access_on condition ~vin in
    netlist
  in
  (* The output node is always the second allocated node of the half-cell
     netlist; re-fetch it once for voltage extraction. *)
  let _, out_node = Sram6t.build_half_vtc ~cell ~side ~access_on condition ~vin:lo in
  let solutions = Spice.Dc.sweep ~build ~points:inputs in
  let outputs = Array.map (fun s -> Spice.Dc.node_voltage s out_node) solutions in
  { inputs; outputs }

type butterfly = { curve_r : vtc; curve_l : vtc }

let trace ?points ~cell ~access_on condition =
  { curve_r = trace_vtc ?points ~cell ~side:`Right ~access_on condition;
    curve_l = trace_vtc ?points ~cell ~side:`Left ~access_on condition }

type snm = { lobe_high : float; lobe_low : float }

(* Largest square in the eye bounded above by [upper] (y = u(x)) and on the
   lower-left by [lower] (x = l(y)).  Both touching corners of the maximal
   square lie on a common 45-degree line y = x + b; the square side equals
   the horizontal distance between the two intersection points.  We scan b
   and keep the best. *)
let lobe ~upper ~lower =
  let u = Numerics.Interp.pchip ~xs:upper.inputs ~ys:upper.outputs in
  let l = Numerics.Interp.pchip ~xs:lower.inputs ~ys:lower.outputs in
  let lo = upper.inputs.(0) in
  let hi = upper.inputs.(Array.length upper.inputs - 1) in
  let span = hi -. lo in
  (* Both curves are sampled once, on [Roots.find_bracket]'s 64-cell grid.
     [u x -. x -. b] groups as [(u x -. x) -. b], and [v -. b] is exactly
     [v +. (-.b)], so shifting the samples by each offset gives the values
     [find_bracket] would compute, and the same brackets. *)
  let n = 64 in
  let step = (hi -. lo) /. float_of_int n in
  let grid = Array.init (n + 1) (fun i -> if i = 0 then lo else lo +. (float_of_int i *. step)) in
  let du = Array.map (fun x -> u x -. x) grid in
  let dl = Array.map (fun y -> l y -. y) grid in
  (* The first cell where the shifted samples change sign. *)
  let bracket d shift =
    let rec scan i prev =
      if i > n then None
      else begin
        let cur = d.(i) +. shift in
        if prev *. cur <= 0.0 then Some (grid.(i - 1), grid.(i)) else scan (i + 1) cur
      end
    in
    scan 1 (d.(0) +. shift)
  in
  (* A square's side is [x1 -. (y2 -. b)] with [x1] Brent's root in
     [glo, ghi] and [y2] its root in [hlo, hhi].  Brent returns a point
     inside its bracket and rounded subtraction is monotone, so
     [ghi -. (hlo -. b)] bounds the side from above.  Offsets are solved in
     descending bound order until no bound can beat the best side; the
     maximum does not depend on visiting order, so it is the same float as
     solving every offset.  An offset without both brackets never wins. *)
  let steps = 160 in
  let candidates =
    Array.of_list
      (List.filter_map
         (fun k ->
           let b = span *. float_of_int k /. float_of_int steps in
           match (bracket du (-.b), bracket dl b) with
           | Some ((_, ghi) as g), Some ((hlo, _) as h) ->
             Some (ghi -. (hlo -. b), b, g, h)
           | None, (Some _ | None) | Some _, None -> None)
         (List.init (steps - 1) (fun k -> k + 1)))
  in
  Array.sort (fun (x, _, _, _) (y, _, _, _) -> Float.compare y x) candidates;
  let side b (glo, ghi) (hlo, hhi) =
    (* Intersection with the upper curve: u(x) = x + b. *)
    let g x = u x -. x -. b in
    (* Intersection with the lower curve: point (l(y), y) on the line means
       l(y) = y - b. *)
    let h y = l y -. y +. b in
    let x1 = Numerics.Roots.brent ~tol:1e-9 g ~lo:glo ~hi:ghi in
    let y2 = Numerics.Roots.brent ~tol:1e-9 h ~lo:hlo ~hi:hhi in
    let x2 = y2 -. b in
    x1 -. x2
  in
  let rec best_from i best =
    if i >= Array.length candidates then best
    else begin
      let bound, b, g, h = candidates.(i) in
      if bound <= best then best
      else begin
        let s = side b g h in
        best_from (i + 1) (if s > best then s else best)
      end
    end
  in
  best_from 0 0.0

let snm_of_butterfly { curve_r; curve_l } =
  (* Upper-left eye: curve R bounds it from above, curve L from the
     lower-left.  The lower-right eye is the same picture with the axes
     swapped (a reflection across y = x), which simply exchanges the two
     curves' roles. *)
  let lobe_high = lobe ~upper:curve_r ~lower:curve_l in
  let lobe_low = lobe ~upper:curve_l ~lower:curve_r in
  { lobe_high; lobe_low }

let worst_snm { lobe_high; lobe_low } = min lobe_high lobe_low

let hold_snm ?points ~cell condition =
  worst_snm (snm_of_butterfly (trace ?points ~cell ~access_on:false condition))

let read_snm ?points ~cell condition =
  worst_snm (snm_of_butterfly (trace ?points ~cell ~access_on:true condition))
