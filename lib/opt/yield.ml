let voltage_grid = 0.010

type rule = Read_snm | Write_flip

exception
  No_level of {
    flavor : Finfet.Library.flavor;
    corner : Finfet.Corners.corner;
    celsius : float;
    rule : rule;
  }

let () =
  Printexc.register_printer (function
    | No_level { flavor; corner; celsius; rule } ->
      Some
        (Printf.sprintf
           "Opt.Yield.No_level: no grid level meets the %s rule for %s at %s, %g C"
           (match rule with
           | Read_snm -> "V_DDC (RSNM >= delta)"
           | Write_flip -> "V_WL (flip at V_WL - delta)")
           (Finfet.Library.flavor_to_string flavor)
           (Finfet.Corners.name corner) celsius)
    | _ -> None)

let cell_of ?(corner = Finfet.Corners.TT) ?(celsius = Finfet.Thermal.t_ref_celsius)
    flavor =
  let lib = Lazy.force Finfet.Library.default in
  let derate d =
    Finfet.Thermal.at_temperature ~celsius (Finfet.Corners.apply corner d)
  in
  Finfet.Variation.nominal_cell
    ~nfet:(derate (Finfet.Library.nfet lib flavor))
    ~pfet:(derate (Finfet.Library.pfet lib flavor))

(* The searchable grid: indices k_vdd .. k_top, one per 10 mV, up to
   800 mV for V_DDC and 1.01 V for V_WL.  The floor is Vdd itself (its
   bits, not [k_vdd * grid]); every other level is [float k * grid]. *)
let k_vdd = Float.to_int (Float.round (Finfet.Tech.vdd_nominal /. voltage_grid))
let k_top = function Read_snm -> 80 | Write_flip -> 101

let level k =
  if k = k_vdd then Finfet.Tech.vdd_nominal else float_of_int k *. voltage_grid

let grid rule = List.init (k_top rule - k_vdd + 1) (fun i -> level (k_vdd + i))

let c_probes = Runtime.Telemetry.counter "yield.pin_probes"
let c_flip_nonconverged = Runtime.Telemetry.counter "yield.flip_nonconverged"

(* The one RSNM probe: the V_DDC pin, [rsnm_at] and [margins_ok] all
   read the cell through it. *)
let read_snm ~points ~cell ~vddc ~vssc =
  Sram_cell.Margins.read_snm ~points ~cell (Sram_cell.Sram6t.read ~vddc ~vssc ())

(* The V_WL rule's probe: a write-0 attempt at WL = [vwl] - delta. *)
let write_flip_of ~delta ~cell vwl =
  Sram_cell.Margins.probe_flip ~cell (Sram_cell.Sram6t.write0 ())
    ~vwl:(vwl -. delta)

let write_flip ?corner ~flavor vwl =
  write_flip_of ~delta:Finfet.Tech.min_margin ~cell:(cell_of ?corner flavor) vwl

(* Smallest index in [k_vdd, top] whose level passes, by bisection on
   the invariant "f fails, p passes".  Neither starting endpoint is
   probed: f = k_vdd - 1 lies below the grid, and p = top is probed only
   if the search ends there. *)
let first_passing ~top passes =
  let rec go f p =
    if p - f <= 1 then p
    else
      let mid = (f + p) / 2 in
      if passes mid then go f mid else go mid p
  in
  let k = go (k_vdd - 1) top in
  if k = top && not (passes top) then None else Some k

type levels = {
  vddc_min : float;
  vwl_min : float;
  hsnm_nominal : float;
}

let rsnm_at ?(points = 81) ?corner ~flavor ~vddc ~vssc () =
  read_snm ~points ~cell:(cell_of ?corner flavor) ~vddc ~vssc

let solve_cache :
  (Finfet.Library.flavor * float * int * Finfet.Corners.corner option
   * float option,
   levels)
  Runtime.Memo.t =
  Runtime.Memo.create ~name:"yield.solve" ~capacity:64 ()

let solve_uncached ?(delta = Finfet.Tech.min_margin) ?(points = 81)
    ?(corner = Finfet.Corners.TT) ?(celsius = Finfet.Thermal.t_ref_celsius)
    ~flavor () =
  let cell = cell_of ~corner ~celsius flavor in
  let pin rule passes =
    let probe k =
      Runtime.Telemetry.incr c_probes;
      passes (level k)
    in
    match first_passing ~top:(k_top rule) probe with
    | Some k -> level k
    | None -> raise (No_level { flavor; corner; celsius; rule })
  in
  (* RSNM grows monotonically with V_DDC (stronger pull-down feedback). *)
  let vddc_min =
    pin Read_snm (fun vddc -> read_snm ~points ~cell ~vddc ~vssc:0.0 >= delta)
  in
  (* WM(v_wl) = v_wl - minimum flipping level >= delta exactly when the
     cell flips at v_wl - delta, and the access strength grows with
     V_WL. *)
  let vwl_min =
    pin Write_flip (fun v ->
        let p = write_flip_of ~delta ~cell v in
        if not p.Sram_cell.Margins.converged then
          Runtime.Telemetry.incr c_flip_nonconverged;
        p.Sram_cell.Margins.flips)
  in
  let hsnm_nominal =
    Sram_cell.Margins.hold_snm ~points ~cell Finfet.Tech.vdd_nominal
  in
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
  else if read_snm ~points ~cell ~vddc ~vssc < delta then false
  else begin
    let wm =
      Sram_cell.Margins.write_margin ~cell (Sram_cell.Sram6t.write0 ~vwl ())
    in
    wm >= delta
  end
