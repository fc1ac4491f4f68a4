(* PVT margin signoff of the co-optimized design.

   The paper optimizes at the nominal corner; a design team would not tape
   out without checking the chosen assist levels across process corners,
   temperature, and local mismatch.  This example runs that flow for the
   4KB 6T-HVT-M2 optimum: five global corners x three temperatures for the
   static margins, plus a Monte Carlo mu - k sigma summary at the worst
   corner.

   Run with: dune exec examples/margin_signoff.exe *)

let delta = Finfet.Tech.min_margin

let () =
  (* The design under signoff: the co-optimized 4KB HVT array. *)
  let o =
    Sram_edp.Framework.optimize ~capacity_bits:(4096 * 8)
      ~config:{ Sram_edp.Framework.flavor = Finfet.Library.Hvt;
                method_ = Opt.Space.M2 }
      ()
  in
  let a = Sram_edp.Framework.assist o in
  let vddc = a.Array_model.Components.vddc in
  let vwl = a.Array_model.Components.vwl in
  let vssc = a.Array_model.Components.vssc in
  Printf.printf "Design under signoff: 4KB 6T-HVT-M2, V_DDC=%s V_SSC=%s V_WL=%s\n"
    (Sram_edp.Units.mv vddc) (Sram_edp.Units.mv vssc) (Sram_edp.Units.mv vwl);

  let lib = Lazy.force Finfet.Library.default in
  let nfet0 = Finfet.Library.nfet lib Finfet.Library.Hvt in
  let pfet0 = Finfet.Library.pfet lib Finfet.Library.Hvt in

  (* Corners x temperature sweep of the three static margins. *)
  let table =
    Sram_edp.Report.create
      ~columns:[ "corner"; "T"; "HSNM"; "RSNM"; "WM"; "min margin"; "verdict" ]
  in
  let worst = ref (Finfet.Corners.TT, 25.0, infinity) in
  List.iter
    (fun corner ->
      List.iter
        (fun celsius ->
          let derate d =
            Finfet.Thermal.at_temperature ~celsius (Finfet.Corners.apply corner d)
          in
          let cell =
            Finfet.Variation.nominal_cell ~nfet:(derate nfet0) ~pfet:(derate pfet0)
          in
          let hsnm =
            Sram_cell.Margins.hold_snm ~points:41 ~cell Finfet.Tech.vdd_nominal
          in
          let rsnm =
            Sram_cell.Margins.read_snm ~points:41 ~cell
              (Sram_cell.Sram6t.read ~vddc ~vssc ())
          in
          let wm =
            Sram_cell.Margins.write_margin ~cell (Sram_cell.Sram6t.write0 ~vwl ())
          in
          let min_margin = min hsnm (min rsnm wm) in
          let _, _, worst_margin = !worst in
          if min_margin < worst_margin then worst := (corner, celsius, min_margin);
          Sram_edp.Report.add_row table
            [ Finfet.Corners.name corner;
              Printf.sprintf "%.0f C" celsius;
              Sram_edp.Units.mv hsnm;
              Sram_edp.Units.mv rsnm;
              Sram_edp.Units.mv wm;
              Sram_edp.Units.mv min_margin;
              (if min_margin >= delta then "pass"
               else if min_margin >= 0.8 *. delta then "MARGINAL"
               else "FAIL") ])
        [ 25.0; 85.0; 125.0 ])
    Finfet.Corners.all;
  Sram_edp.Report.print
    ~title:
      (Printf.sprintf "Static margins across PVT (requirement: %s at nominal conditions)"
         (Sram_edp.Units.mv delta))
    table;

  (* Monte Carlo at the worst static corner. *)
  let corner, celsius, margin = !worst in
  Printf.printf
    "\nWorst static point: %s corner at %.0f C (min margin %s) — running local-mismatch MC there.\n"
    (Finfet.Corners.name corner) celsius (Sram_edp.Units.mv margin);
  let derate d =
    Finfet.Thermal.at_temperature ~celsius (Finfet.Corners.apply corner d)
  in
  let samples =
    Sram_cell.Montecarlo.sample_margins ~points:31 ~seed:404 ~n:30
      ~nfet:(derate nfet0) ~pfet:(derate pfet0)
      ~read_condition:(Sram_cell.Sram6t.read ~vddc ~vssc ())
      ~write_condition:(Sram_cell.Sram6t.write0 ~vwl ())
      ()
  in
  let passes_k k =
    (Sram_cell.Montecarlo.summarize ~k samples).Sram_cell.Montecarlo
      .worst_mu_minus_k_sigma >= 0.0
  in
  List.iter
    (fun k ->
      let s = Sram_cell.Montecarlo.summarize ~k samples in
      Printf.printf "  mu - %.0f sigma (worst of three margins): %s -> %s\n" k
        (Sram_edp.Units.mv s.Sram_cell.Montecarlo.worst_mu_minus_k_sigma)
        (if passes_k k then "pass" else "FAIL"))
    [ 3.0; 6.0 ];
  if passes_k 3.0 then
    Printf.printf
      "\nVerdict: the nominal-corner optimization survives its worst corner at\n\
       3 sigma.\n"
  else begin
    Printf.printf
      "\nVerdict: the nominal-corner assist levels do NOT survive the %s corner\n\
       under mismatch — exactly why production flows re-solve the assist\n\
       voltages per corner.  Re-solving the pins at that corner:\n"
      (Finfet.Corners.name corner);
    let fixed =
      Opt.Yield.solve ~corner ~celsius ~flavor:Finfet.Library.Hvt ()
    in
    Printf.printf
      "  corner-aware pins: V_DDC >= %s, V_WL >= %s (nominal-corner pins were %s / %s)\n"
      (Sram_edp.Units.mv fixed.Opt.Yield.vddc_min)
      (Sram_edp.Units.mv fixed.Opt.Yield.vwl_min)
      (Sram_edp.Units.mv vddc) (Sram_edp.Units.mv vwl);
    (* Confirm the re-solved write level with the rule the pin search
       applies: WM >= delta exactly when a write-0 at V_WL - delta flips
       the derated cell.  The check reads one DC solve and reports
       whether it converged: near the SF flip point some do not, and
       their reading cannot confirm anything. *)
    let derated =
      Finfet.Variation.nominal_cell
        ~nfet:(derate nfet0) ~pfet:(derate pfet0)
    in
    let probe =
      Sram_cell.Margins.probe_flip ~cell:derated (Sram_cell.Sram6t.write0 ())
        ~vwl:(fixed.Opt.Yield.vwl_min -. delta)
    in
    Printf.printf "  write-0 at the re-solved V_WL - %s on the %s cell: %s\n"
      (Sram_edp.Units.mv delta) (Finfet.Corners.name corner)
      (match probe with
       | { Sram_cell.Margins.converged = false; _ } ->
         "DC solve did not converge — unconfirmed"
       | { flips = true; _ } -> "flips (pass)"
       | { flips = false; _ } -> "holds — still short, raise further")
  end
