let hold_snm ?points ~cell vdd =
  Butterfly.hold_snm ?points ~cell (Sram6t.hold ~vdd ())

let read_snm ?points ~cell condition = Butterfly.read_snm ?points ~cell condition

type flip_probe = { flips : bool; converged : bool }

let probe_flip ~cell condition ~vwl =
  let condition = { condition with Sram6t.vwl } in
  (* Start from the lobe holding '1' on Q; if the DC solution lands with Q
     below QB, the access transistor has overpowered the feedback and the
     write succeeded. *)
  let q, qb, converged =
    Sram6t.solve_state ~q_init:condition.Sram6t.vddc ~cell condition
  in
  { flips = q < qb; converged }

let minimum_flipping_vwl ?(tol = 1e-3) ~cell condition =
  let hi = condition.Sram6t.vdd +. 0.4 in
  let flips_at_vwl vwl = (probe_flip ~cell condition ~vwl).flips in
  if not (flips_at_vwl hi) then hi
  else if flips_at_vwl 0.0 then 0.0
  else begin
    (* Bisection on the flip predicate: invariant lo never flips, hi
       always does (the access strength is monotone in V_WL). *)
    let rec bisect lo hi =
      if hi -. lo < tol then hi
      else begin
        let mid = 0.5 *. (lo +. hi) in
        if flips_at_vwl mid then bisect lo mid
        else bisect mid hi
      end
    in
    bisect 0.0 hi
  end

let write_margin ?tol ~cell condition =
  condition.Sram6t.vwl -. minimum_flipping_vwl ?tol ~cell condition
