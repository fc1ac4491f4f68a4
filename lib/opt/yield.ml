let voltage_grid = 0.010

let snap_up v = ceil ((v /. voltage_grid) -. 1e-9) *. voltage_grid

let cell_of ?(corner = Finfet.Corners.TT) ?(celsius = Finfet.Thermal.t_ref_celsius)
    flavor =
  let lib = Lazy.force Finfet.Library.default in
  let derate d =
    Finfet.Thermal.at_temperature ~celsius (Finfet.Corners.apply corner d)
  in
  Finfet.Variation.nominal_cell
    ~nfet:(derate (Finfet.Library.nfet lib flavor))
    ~pfet:(derate (Finfet.Library.pfet lib flavor))

type levels = {
  vddc_min : float;
  vwl_min : float;
  hsnm_nominal : float;
}

let rsnm_at ?(points = 81) ~flavor ~vddc ~vssc () =
  Sram_cell.Margins.read_snm ~points ~cell:(cell_of flavor)
    (Sram_cell.Sram6t.read ~vddc ~vssc ())

let solve_cache :
  (Finfet.Library.flavor * float * int * Finfet.Corners.corner option
   * float option,
   levels)
  Runtime.Memo.t =
  Runtime.Memo.create ~name:"yield.solve" ~capacity:64 ()

let solve_uncached ?(delta = Finfet.Tech.min_margin) ?(points = 81) ?corner
    ?celsius ~flavor () =
  let cell = cell_of ?corner ?celsius flavor in
  let vdd = Finfet.Tech.vdd_nominal in
  (* RSNM grows monotonically with V_DDC (stronger pull-down feedback). *)
  let rsnm_gap vddc =
    Sram_cell.Margins.read_snm ~points ~cell (Sram_cell.Sram6t.read ~vddc ())
    -. delta
  in
  let vddc_min =
    let f_lo = rsnm_gap vdd in
    if f_lo >= 0.0 then vdd
    else
      snap_up (Numerics.Roots.bisect ~tol:1e-3 ~f_lo rsnm_gap ~lo:vdd ~hi:0.80)
  in
  (* WM(v_wl) = v_wl - minimum flipping level, so the minimum write level
     is one bisection of the flip point away. *)
  let flip =
    Sram_cell.Margins.minimum_flipping_vwl ~cell (Sram_cell.Sram6t.write0 ())
  in
  let vwl_min = max vdd (snap_up (flip +. delta)) in
  let hsnm_nominal = Sram_cell.Margins.hold_snm ~points ~cell vdd in
  { vddc_min; vwl_min; hsnm_nominal }

(* Disk tier (inactive until the CLI sets --cache-dir): yield pins are
   pure functions of the key, so they persist across processes. *)
let disk_cache = Persist.Cache.create ~name:"yield.solve" ()

let disk_key (flavor, delta, points, corner, celsius) =
  Printf.sprintf "%s|%.17g|%d|%s|%s"
    (Finfet.Library.flavor_to_string flavor)
    delta points
    (match corner with None -> "-" | Some c -> Finfet.Corners.name c)
    (match celsius with None -> "-" | Some t -> Printf.sprintf "%.17g" t)

let levels_to_json l =
  Persist.Json.Obj
    [
      ("vddc_min", Persist.Json.Float l.vddc_min);
      ("vwl_min", Persist.Json.Float l.vwl_min);
      ("hsnm_nominal", Persist.Json.Float l.hsnm_nominal);
    ]

let levels_of_json j =
  match
    ( Persist.Json.float_field j "vddc_min",
      Persist.Json.float_field j "vwl_min",
      Persist.Json.float_field j "hsnm_nominal" )
  with
  | Some vddc_min, Some vwl_min, Some hsnm_nominal ->
    Some { vddc_min; vwl_min; hsnm_nominal }
  | _ -> None

let solve ?(delta = Finfet.Tech.min_margin) ?(points = 81) ?corner ?celsius
    ~flavor () =
  (* Spelling out the defaults solves the same pins, so it shares their
     memo and disk keys. *)
  let corner = match corner with Some Finfet.Corners.TT -> None | c -> c in
  let celsius =
    match celsius with
    | Some t when t = Finfet.Thermal.t_ref_celsius -> None
    | t -> t
  in
  Runtime.Memo.find_or_compute_tiered solve_cache
    (flavor, delta, points, corner, celsius)
    ~load:(fun key ->
      Option.bind (Persist.Cache.find disk_cache (disk_key key)) levels_of_json)
    ~store:(fun key levels ->
      Persist.Cache.add disk_cache (disk_key key) (levels_to_json levels))
    (fun () ->
      Runtime.Telemetry.time "yield.solve" (fun () ->
          solve_uncached ~delta ~points ?corner ?celsius ~flavor ()))

let margins_ok ?(delta = Finfet.Tech.min_margin) ?(points = 81) ~flavor ~vddc
    ~vssc ~vwl () =
  let cell = cell_of flavor in
  let vdd = Finfet.Tech.vdd_nominal in
  let hsnm = Sram_cell.Margins.hold_snm ~points ~cell vdd in
  if hsnm < delta then false
  else if rsnm_at ~points ~flavor ~vddc ~vssc () < delta then false
  else begin
    let wm =
      Sram_cell.Margins.write_margin ~cell (Sram_cell.Sram6t.write0 ~vwl ())
    in
    wm >= delta
  end
