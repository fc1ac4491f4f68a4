(* Benchmark / reproduction harness.

   With no arguments it regenerates every table and figure of the paper's
   evaluation (printing paper-vs-measured rows) and runs the ablation
   studies called out in DESIGN.md.

   With an argument it runs one experiment from the DESIGN.md index:
     fig2a fig2b fig3a fig3b fig3c fig3d fig5a fig5b
     table4 fig7a fig7b fig7c fig7d headline ablation
   or [gates], the wall-clock regression gates `make check` runs. *)

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '#')

(* --smoke shrinks the headline to the reduced space at one capacity — a
   seconds-long end-to-end liveness check for `make check`. *)
let smoke = ref false

(* ----- ablations (DESIGN.md section 5) ----- *)

let ablation_accounting () =
  section "Ablation: energy accounting (Table 3 verbatim vs physical multiplicities)";
  List.iter
    (fun (name, accounting) ->
      let h = Sram_edp.Framework.headline ~accounting () in
      Printf.printf
        "%-9s: avg EDP reduction %5.1f%%, delay penalty avg %4.1f%% / max %4.1f%%\n"
        name
        (100.0 *. h.Sram_edp.Framework.avg_edp_reduction)
        (100.0 *. h.Sram_edp.Framework.avg_delay_penalty)
        (100.0 *. h.Sram_edp.Framework.max_delay_penalty))
    [ ("strict", Array_model.Array_eval.Paper_strict);
      ("physical", Array_model.Array_eval.Physical) ];
  print_endline
    "(The paper's leakage-driven story needs its own per-component accounting;\n\
     physical per-bitline pricing shifts weight to switching energy and\n\
     compresses the HVT advantage.)"

let ablation_objective () =
  section "Ablation: optimization objective at 4KB, 6T-HVT-M2";
  let env = Array_model.Array_eval.make_env ~cell_flavor:Finfet.Library.Hvt () in
  let table =
    Sram_edp.Report.create
      ~columns:[ "objective"; "org"; "V_SSC"; "delay"; "energy"; "EDP" ]
  in
  List.iter
    (fun objective ->
      let r =
        Opt.Exhaustive.search ~objective ~env ~capacity_bits:(4096 * 8)
          ~method_:Opt.Space.M2 ()
      in
      let b = r.Opt.Exhaustive.best in
      let g = b.Opt.Exhaustive.geometry in
      let m = b.Opt.Exhaustive.metrics in
      Sram_edp.Report.add_row table
        [ Opt.Objective.name objective;
          Printf.sprintf "%dx%d" g.Array_model.Geometry.nr g.Array_model.Geometry.nc;
          Sram_edp.Units.mv b.Opt.Exhaustive.assist.Array_model.Components.vssc;
          Sram_edp.Units.ps m.Array_model.Array_eval.d_array;
          Sram_edp.Units.fj m.Array_model.Array_eval.e_total;
          Printf.sprintf "%.3g Js" m.Array_model.Array_eval.edp ])
    Opt.Objective.all;
  Sram_edp.Report.print table

let ablation_read_model () =
  section "Ablation: simulated stack current vs the paper's power-law fit";
  let at model =
    let env =
      Array_model.Array_eval.make_env ~read_current_model:model
        ~cell_flavor:Finfet.Library.Hvt ()
    in
    let r =
      Opt.Exhaustive.search ~env ~capacity_bits:(4096 * 8) ~method_:Opt.Space.M2 ()
    in
    r.Opt.Exhaustive.best
  in
  let sim = at `Simulated and fit = at `Paper_fit in
  let describe label (b : Opt.Exhaustive.candidate) =
    Printf.printf "%-10s: V_SSC=%s D=%s EDP=%.3g Js\n" label
      (Sram_edp.Units.mv b.Opt.Exhaustive.assist.Array_model.Components.vssc)
      (Sram_edp.Units.ps b.Opt.Exhaustive.metrics.Array_model.Array_eval.d_array)
      b.Opt.Exhaustive.metrics.Array_model.Array_eval.edp
  in
  describe "simulated" sim;
  describe "paper fit" fit

let ablation_ksigma () =
  section "Ablation: simplified margin rule vs Monte Carlo mu - k sigma";
  let lib = Lazy.force Finfet.Library.default in
  let flavor = Finfet.Library.Hvt in
  let levels = Opt.Yield.solve ~flavor () in
  let pins = Opt.Space.pins_for Opt.Space.M2 levels in
  let samples =
    Sram_cell.Montecarlo.sample_margins ~points:31 ~seed:2026 ~n:40
      ~nfet:(Finfet.Library.nfet lib flavor)
      ~pfet:(Finfet.Library.pfet lib flavor)
      ~read_condition:(Sram_cell.Sram6t.read ~vddc:pins.Opt.Space.vddc ())
      ~write_condition:(Sram_cell.Sram6t.write0 ~vwl:pins.Opt.Space.vwl ())
      ()
  in
  Printf.printf "HVT at pinned rails (V_DDC=%s, V_WL=%s), 40 MC samples:\n"
    (Sram_edp.Units.mv pins.Opt.Space.vddc) (Sram_edp.Units.mv pins.Opt.Space.vwl);
  List.iter
    (fun k ->
      let s = Sram_cell.Montecarlo.summarize ~k samples in
      Printf.printf "  k=%.0f: worst (mu - k sigma) = %s -> %s\n" k
        (Sram_edp.Units.mv s.Sram_cell.Montecarlo.worst_mu_minus_k_sigma)
        (if Sram_cell.Montecarlo.passes_k_sigma ~k samples then "PASS" else "FAIL"))
    [ 1.0; 3.0; 6.0 ];
  Printf.printf
    "  simplified rule (min margin >= %s at nominal corners): PASS by construction\n"
    (Sram_edp.Units.mv Finfet.Tech.min_margin);
  (* Re-pin the assist voltages under the k-sigma constraint itself and
     re-run the 4KB co-optimization — the "accurate way" end to end. *)
  List.iter
    (fun k ->
      let mc =
        Opt.Yield_mc.solve
          ~config:{ Opt.Yield_mc.default_config with Opt.Yield_mc.k }
          ~flavor ()
      in
      let injected =
        { Opt.Yield.vddc_min = mc.Opt.Yield_mc.vddc_min;
          vwl_min = mc.Opt.Yield_mc.vwl_min;
          hsnm_nominal = levels.Opt.Yield.hsnm_nominal }
      in
      let env = Array_model.Array_eval.make_env ~cell_flavor:flavor () in
      let r =
        Opt.Exhaustive.search ~levels:injected ~env ~capacity_bits:(4096 * 8)
          ~method_:Opt.Space.M2 ()
      in
      let m = r.Opt.Exhaustive.best.Opt.Exhaustive.metrics in
      Printf.printf
        "  k=%.0f pins: V_DDC=%s V_WL=%s -> 4KB HVT-M2 D=%s EDP=%.3g Js\n" k
        (Sram_edp.Units.mv mc.Opt.Yield_mc.vddc_min)
        (Sram_edp.Units.mv mc.Opt.Yield_mc.vwl_min)
        (Sram_edp.Units.ps m.Array_model.Array_eval.d_array)
        m.Array_model.Array_eval.edp)
    [ 3.0; 6.0 ];
  Printf.printf
    "  (the simplified 35%%-of-Vdd pins were V_DDC=%s V_WL=%s)\n"
    (Sram_edp.Units.mv pins.Opt.Space.vddc)
    (Sram_edp.Units.mv pins.Opt.Space.vwl)

let ablation_validate () =
  section "Validation: Equation (1) vs distributed-RC column transient";
  let lib = Lazy.force Finfet.Library.default in
  let cell =
    Finfet.Variation.nominal_cell
      ~nfet:(Finfet.Library.nfet lib Finfet.Library.Hvt)
      ~pfet:(Finfet.Library.pfet lib Finfet.Library.Hvt)
  in
  let table =
    Sram_edp.Report.create
      ~columns:[ "column"; "condition"; "analytic"; "simulated"; "error" ]
  in
  List.iter
    (fun (nr, vssc, with_wire_resistance) ->
      let config =
        { Sram_cell.Column.default_config with
          Sram_cell.Column.nr; with_wire_resistance }
      in
      let r =
        Sram_cell.Column.validate ~cell config
          (Sram_cell.Sram6t.read ~vddc:0.55 ~vssc ())
      in
      Sram_edp.Report.add_row table
        [ Printf.sprintf "%d rows%s" nr
            (if with_wire_resistance then "" else " (no wire R)");
          Printf.sprintf "V_SSC=%s" (Sram_edp.Units.mv vssc);
          Sram_edp.Units.ps r.Sram_cell.Column.analytic;
          Sram_edp.Units.ps r.Sram_cell.Column.simulated;
          Sram_edp.Units.percent r.Sram_cell.Column.relative_error ])
    [ (64, 0.0, true);
      (64, -0.240, true);
      (256, 0.0, true);
      (512, 0.0, true);
      (512, 0.0, false) ];
  Sram_edp.Report.print table;
  print_endline
    "(The paper's lumped C dV / I model neglects wire resistance; the error\n\
     it introduces stays in the single digits even at 512 rows.)";
  let wtable =
    Sram_edp.Report.create
      ~columns:[ "column"; "N_wr"; "analytic"; "simulated"; "error" ]
  in
  List.iter
    (fun (nr, n_wr) ->
      let config =
        { Sram_cell.Column.default_config with Sram_cell.Column.nr; n_wr }
      in
      let r = Sram_cell.Column.validate_write ~cell config in
      Sram_edp.Report.add_row wtable
        [ Printf.sprintf "%d rows" nr;
          string_of_int n_wr;
          Sram_edp.Units.ps r.Sram_cell.Column.analytic;
          Sram_edp.Units.ps r.Sram_cell.Column.simulated;
          Sram_edp.Units.percent r.Sram_cell.Column.relative_error ])
    [ (64, 1); (64, 4); (256, 2); (512, 2); (512, 8) ];
  Sram_edp.Report.print
    ~title:"Validation: Table 2's BL-write pricing vs a transmission-gate transient"
    wtable;
  print_endline
    "(The full-swing write model holds within ~20% while the transmission\n\
     gate is the bottleneck; once a strong buffer outruns the bitline's own\n\
     RC — 512 rows, 8 fins — the wire dominates and C dV / I underestimates\n\
     several-fold.  The optimizer's small N_wr choices keep it in the valid\n\
     regime.)"

let ablation_banking () =
  section "Extension: bank-count co-optimization, 64KB 6T-HVT-M2";
  let env = Array_model.Array_eval.make_env ~cell_flavor:Finfet.Library.Hvt () in
  let best, all =
    Cache_model.Banked.optimize ~space:Opt.Space.reduced ~env
      ~capacity_bits:(64 * 1024 * 8) ~method_:Opt.Space.M2 ()
  in
  let table =
    Sram_edp.Report.create
      ~columns:[ "banks"; "H-tree"; "total delay"; "energy"; "EDP"; "" ]
  in
  List.iter
    (fun (d : Cache_model.Banked.bank_design) ->
      Sram_edp.Report.add_row table
        [ string_of_int d.Cache_model.Banked.banks;
          Sram_edp.Units.ps d.Cache_model.Banked.d_htree;
          Sram_edp.Units.ps d.Cache_model.Banked.d_total;
          Sram_edp.Units.fj d.Cache_model.Banked.e_total;
          Printf.sprintf "%.3g Js" d.Cache_model.Banked.edp;
          (if d.Cache_model.Banked.banks = best.Cache_model.Banked.banks
           then "<-- best" else "") ])
    all;
  Sram_edp.Report.print table

let ablation_corners () =
  section "Extension: five-corner signoff of the pinned HVT rails";
  let lib = Lazy.force Finfet.Library.default in
  let nfet = Finfet.Library.nfet lib Finfet.Library.Hvt in
  let pfet = Finfet.Library.pfet lib Finfet.Library.Hvt in
  let table =
    Sram_edp.Report.create ~columns:[ "corner"; "HSNM"; "RSNM"; "WM"; "leakage" ]
  in
  List.iter
    (fun corner ->
      let cell = Finfet.Corners.cell corner ~nfet ~pfet in
      Sram_edp.Report.add_row table
        [ Finfet.Corners.name corner;
          Sram_edp.Units.mv
            (Sram_cell.Margins.hold_snm ~points:41 ~cell Finfet.Tech.vdd_nominal);
          Sram_edp.Units.mv
            (Sram_cell.Margins.read_snm ~points:41 ~cell
               (Sram_cell.Sram6t.read ~vddc:0.55 ()));
          Sram_edp.Units.mv
            (Sram_cell.Margins.write_margin ~cell (Sram_cell.Sram6t.write0 ~vwl:0.55 ()));
          Sram_edp.Units.nw (Sram_cell.Leakage.power ~cell ()) ])
    Finfet.Corners.all;
  Sram_edp.Report.print table

let ablation_eight_t () =
  section "Extension: 8T-LVT versus the paper's 6T-HVT proposal";
  Sram_edp.Eight_t.print_comparison ~capacity_bits:(4096 * 8);
  Sram_edp.Eight_t.print_comparison ~capacity_bits:(16384 * 8);
  print_endline
    "(The 8T cell fixes read stability structurally — RSNM = HSNM, no boost\n\
     rail — but keeps LVT leakage, adds a read-port leakage path and ~30%\n\
     area; the paper's HVT-plus-assists route wins the EDP comparison.)"

let ablation_workload () =
  section "Extension: workload sensitivity (alpha, beta from synthetic traces)";
  let rows = Workload.Sensitivity.study ~capacity_bits:(4096 * 8) () in
  let table =
    Sram_edp.Report.create
      ~columns:
        [ "workload"; "alpha"; "beta"; "V_SSC"; "delay"; "energy"; "EDP";
          "HVT advantage" ]
  in
  List.iter
    (fun (r : Workload.Sensitivity.study_row) ->
      Sram_edp.Report.add_row table
        [ r.Workload.Sensitivity.name;
          Printf.sprintf "%.2f" r.Workload.Sensitivity.alpha;
          Printf.sprintf "%.2f" r.Workload.Sensitivity.beta;
          Sram_edp.Units.mv r.Workload.Sensitivity.vssc;
          Sram_edp.Units.ps r.Workload.Sensitivity.d_array;
          Sram_edp.Units.fj r.Workload.Sensitivity.e_total;
          Printf.sprintf "%.3g Js" r.Workload.Sensitivity.edp;
          Sram_edp.Units.percent (-.r.Workload.Sensitivity.hvt_advantage) ])
    rows;
  Sram_edp.Report.print table;
  print_endline
    "(Idle-dominated workloads amplify the leakage term and with it the HVT\n\
     advantage — the paper's fixed alpha = 0.5 is the conservative case.)"

let ablation_thermal () =
  section "Extension: temperature derating (leakage and retention margin)";
  let lib = Lazy.force Finfet.Library.default in
  let table =
    Sram_edp.Report.create
      ~columns:[ "T"; "P_leak LVT"; "P_leak HVT"; "ratio"; "HSNM LVT"; "HSNM HVT" ]
  in
  List.iter
    (fun celsius ->
      let cell flavor =
        Finfet.Variation.nominal_cell
          ~nfet:(Finfet.Thermal.at_temperature ~celsius (Finfet.Library.nfet lib flavor))
          ~pfet:(Finfet.Thermal.at_temperature ~celsius (Finfet.Library.pfet lib flavor))
      in
      let lvt = cell Finfet.Library.Lvt and hvt = cell Finfet.Library.Hvt in
      let pl = Sram_cell.Leakage.power ~cell:lvt () in
      let ph = Sram_cell.Leakage.power ~cell:hvt () in
      Sram_edp.Report.add_row table
        [ Printf.sprintf "%.0f C" celsius;
          Sram_edp.Units.nw pl;
          Sram_edp.Units.nw ph;
          Printf.sprintf "%.1fx" (pl /. ph);
          Sram_edp.Units.mv
            (Sram_cell.Margins.hold_snm ~points:41 ~cell:lvt Finfet.Tech.vdd_nominal);
          Sram_edp.Units.mv
            (Sram_cell.Margins.hold_snm ~points:41 ~cell:hvt Finfet.Tech.vdd_nominal) ])
    [ 25.0; 85.0; 125.0 ];
  Sram_edp.Report.print table;
  print_endline
    "(Both flavors leak exponentially with temperature; the LVT/HVT ratio\n\
     narrows as kT erodes the fixed threshold gap, but HVT's retention\n\
     margin barely moves where LVT's drops 37 mV.)"

let ablation_stat_timing () =
  section "Extension: statistical sense timing (3-sigma slow-cell guardband)";
  let lib = Lazy.force Finfet.Library.default in
  let cell =
    Finfet.Variation.nominal_cell
      ~nfet:(Finfet.Library.nfet lib Finfet.Library.Hvt)
      ~pfet:(Finfet.Library.pfet lib Finfet.Library.Hvt)
  in
  let table =
    Sram_edp.Report.create
      ~columns:[ "V_SSC"; "nominal"; "mean"; "3-sigma slow"; "derate" ]
  in
  List.iter
    (fun vssc ->
      let g =
        Sram_cell.Stat_timing.bl_delay_guardband ~cell
          ~column:Sram_cell.Column.default_config
          ~condition:(Sram_cell.Sram6t.read ~vddc:0.55 ~vssc ())
          ()
      in
      Sram_edp.Report.add_row table
        [ Sram_edp.Units.mv vssc;
          Sram_edp.Units.ps g.Sram_cell.Stat_timing.nominal_delay;
          Sram_edp.Units.ps g.Sram_cell.Stat_timing.mean_delay;
          Sram_edp.Units.ps g.Sram_cell.Stat_timing.k_sigma_delay;
          Printf.sprintf "%.2fx" g.Sram_cell.Stat_timing.derate ])
    [ 0.0; -0.120; -0.240 ];
  Sram_edp.Report.print table;
  print_endline
    "(Beyond its mean speedup, negative Gnd shrinks the relative spread of\n\
     the read current — the 3-sigma guardband falls from 1.58x to 1.19x —\n\
     because the added overdrive makes the stack less Vt-sensitive.)"

let ablation_dcdc () =
  section "Extension: derived DC-DC overheads (vs the assumed 1.25 factor)";
  List.iter
    (fun (label, v_out) ->
      Printf.printf "  %-22s eta=%.1f%%  overhead=%.3f\n" label
        (100.0 *. Array_model.Dcdc.efficiency ~v_out ())
        (Array_model.Dcdc.overhead ~v_out ()))
    [ ("V_DDC/V_WL = 550 mV", 0.550);
      ("V_WL (LVT) = 510 mV", 0.510);
      ("V_DDC (LVT) = 570 mV", 0.570);
      ("V_SSC = -240 mV", -0.240);
      ("V_SSC = -100 mV", -0.100) ];
  let lib = Lazy.force Finfet.Library.default in
  let nfet = Finfet.Library.nfet lib Finfet.Library.Lvt in
  let pfet = Finfet.Library.pfet lib Finfet.Library.Lvt in
  Printf.printf
    "  (fin-quantized WL-driver delay penalty vs continuous sizing: %.1f%% at 40 fF)\n"
    (100.0 *. Gates.Superbuffer.quantization_penalty ~nfet ~pfet ~c_load:40e-15);
  (* And the other fixed constant of Section 5: the sensing swing. *)
  let offset = Gates.Sa_offset.analyze ~n:150 ~nfet ~pfet () in
  Printf.printf
    "  sense-amp offset under mismatch: sigma = %s -> required swing %s (paper: Delta V_S = 120 mV)\n"
    (Sram_edp.Units.mv offset.Gates.Sa_offset.sigma)
    (Sram_edp.Units.mv offset.Gates.Sa_offset.required_swing)

let ablation_minarray () =
  section "Validation: end-to-end transistor-level array read/write";
  let lib = Lazy.force Finfet.Library.default in
  let cell =
    Finfet.Variation.nominal_cell
      ~nfet:(Finfet.Library.nfet lib Finfet.Library.Hvt)
      ~pfet:(Finfet.Library.pfet lib Finfet.Library.Hvt)
  in
  let r =
    Sram_cell.Minarray.read_experiment ~nr:16 ~nc:4 ~cell
      (Sram_cell.Sram6t.read ~vddc:0.55 ())
  in
  Printf.printf
    "read, 16x4 cells (%d unknowns): sensed in %s vs %s analytic (%s);\n  accessed cell retains: %b; row mates retain: %b; other rows retain: %b\n"
    r.Sram_cell.Minarray.unknowns
    (Sram_edp.Units.ps r.Sram_cell.Minarray.sensed_delay)
    (Sram_edp.Units.ps r.Sram_cell.Minarray.analytic_delay)
    (Sram_edp.Units.percent r.Sram_cell.Minarray.relative_error)
    r.Sram_cell.Minarray.accessed_retains r.Sram_cell.Minarray.row_mates_retain
    r.Sram_cell.Minarray.unselected_retain;
  let w = Sram_cell.Minarray.write_experiment ~cell ~vwl:0.55 () in
  Printf.printf
    "write, 8x4 cells: target flipped in %s; half-selected mates survive: %b; other rows: %b\n"
    (Sram_edp.Units.ps w.Sram_cell.Minarray.write_delay)
    w.Sram_cell.Minarray.mates_survive w.Sram_cell.Minarray.others_survive;
  print_endline
    "(Every cell here is six real transistors; the sparse-LU DC path makes\nthe hundreds-of-unknowns transients tractable.)"

let ablation_segmented () =
  section "Extension: divided word-line architecture at the 16KB optimum";
  let env = Array_model.Array_eval.make_env ~cell_flavor:Finfet.Library.Hvt () in
  let o =
    Sram_edp.Framework.optimize ~capacity_bits:(16384 * 8)
      ~config:{ Sram_edp.Framework.flavor = Finfet.Library.Hvt;
                method_ = Opt.Space.M2 }
      ()
  in
  let g = Sram_edp.Framework.geometry o in
  let a = Sram_edp.Framework.assist o in
  let base = Sram_edp.Framework.metrics o in
  let table =
    Sram_edp.Report.create
      ~columns:[ "WL organization"; "WL delay"; "delay"; "energy"; "EDP" ]
  in
  Sram_edp.Report.add_row table
    [ "flat (paper)";
      Sram_edp.Units.ps
        (Array_model.Components.wl_read env.Array_model.Array_eval.dcaps
           env.Array_model.Array_eval.currents g a)
          .Array_model.Components.delay;
      Sram_edp.Units.ps base.Array_model.Array_eval.d_array;
      Sram_edp.Units.fj base.Array_model.Array_eval.e_total;
      Printf.sprintf "%.3g Js" base.Array_model.Array_eval.edp ];
  let max_segments = Array_model.Segmented.natural_segments g in
  let rec powers s acc = if s > max_segments then List.rev acc else powers (2 * s) (s :: acc) in
  List.iter
    (fun segments ->
      let b =
        Array_model.Segmented.wl env.Array_model.Array_eval.dcaps
          env.Array_model.Array_eval.currents g a ~segments
      in
      let m = Array_model.Segmented.evaluate env g a ~segments in
      Sram_edp.Report.add_row table
        [ Printf.sprintf "%d segments" segments;
          Sram_edp.Units.ps b.Array_model.Segmented.d_total;
          Sram_edp.Units.ps m.Array_model.Array_eval.d_array;
          Sram_edp.Units.fj m.Array_model.Array_eval.e_total;
          Printf.sprintf "%.3g Js" m.Array_model.Array_eval.edp ])
    (powers 2 []);
  Sram_edp.Report.print table;
  print_endline
    "(With enough segments the divided WL beats the paper's flat organization
     on both delay and energy — a natural extension of its architecture
     search space.)"

let ablation_vddc_pin () =
  section "Ablation: is pinning V_DDC at the yield minimum EDP-optimal? (paper's claim)";
  let env = Array_model.Array_eval.make_env ~cell_flavor:Finfet.Library.Hvt () in
  let o =
    Sram_edp.Framework.optimize ~capacity_bits:(4096 * 8)
      ~config:{ Sram_edp.Framework.flavor = Finfet.Library.Hvt;
                method_ = Opt.Space.M2 }
      ()
  in
  let g = Sram_edp.Framework.geometry o in
  let a = Sram_edp.Framework.assist o in
  Printf.printf "EDP of the 4KB optimum as V_DDC rises above its 550 mV pin:\n";
  List.iter
    (fun vddc ->
      let m =
        Array_model.Array_eval.evaluate env g
          { a with Array_model.Components.vddc }
      in
      Printf.printf "  V_DDC=%s: D=%s E=%s EDP=%.4g Js\n" (Sram_edp.Units.mv vddc)
        (Sram_edp.Units.ps m.Array_model.Array_eval.d_array)
        (Sram_edp.Units.fj m.Array_model.Array_eval.e_total)
        m.Array_model.Array_eval.edp)
    [ 0.55; 0.60; 0.65; 0.70 ];
  print_endline
    "(Delay barely moves while energy climbs - confirming the paper's\nargument for pinning V_DDC at the lowest yield-passing level.)"

let ablation_dynamic () =
  section "Extension: dynamic read stability (the static margin is conservative)";
  let lib = Lazy.force Finfet.Library.default in
  let nfet = Finfet.Library.nfet lib Finfet.Library.Hvt in
  let pfet = Finfet.Library.pfet lib Finfet.Library.Hvt in
  let nominal = Finfet.Variation.nominal_cell ~nfet ~pfet in
  let weak =
    { nominal with
      Finfet.Variation.pull_down_l = Finfet.Device.with_vt nfet 0.47;
      Finfet.Variation.access_l = Finfet.Device.with_vt nfet 0.23 }
  in
  let cond = Sram_cell.Sram6t.read () in
  let rsnm = Sram_cell.Margins.read_snm ~points:41 ~cell:weak cond in
  Printf.printf "a 3-sigma-skewed cell: static RSNM = %s (statically rejected)\n"
    (Sram_edp.Units.mv rsnm);
  (match Sram_cell.Dynamic_stability.critical_pulse ~cell:weak ~condition:cond () with
   | Some p ->
     let sensing =
       Assist.Sweep.bl_delay_of_current ~flavor:Finfet.Library.Hvt
         (Finfet.Library.i_read lib Finfet.Library.Hvt ~vddc:0.55 ~vssc:(-0.24))
     in
     Printf.printf
       "  yet it survives WL pulses up to %s - while the assisted 64-row read\n  completes in %s, so dynamically the access is safe.\n"
       (Sram_edp.Units.ps p) (Sram_edp.Units.ps sensing)
   | None -> print_endline "  (cell unexpectedly stable)");
  print_endline
    "(Static-margin assist pinning is therefore conservative; a dynamic\nconstraint would admit lower boost levels - future work the framework\nalready supports measuring.)"

let ablation_array_yield () =
  section "Extension: statistical array yield vs the 35% margin proxy";
  let g = Array_model.Geometry.create ~nr:128 ~nc:256 ~n_pre:24 ~n_wr:2 () in
  let small = Array_model.Geometry.create ~nr:32 ~nc:32 ~n_pre:8 ~n_wr:1 () in
  let proxy = Opt.Yield.solve ~flavor:Finfet.Library.Hvt () in
  Printf.printf "proxy rule (margins >= 35%% Vdd): V_DDC >= %s regardless of size\n"
    (Sram_edp.Units.mv proxy.Opt.Yield.vddc_min);
  List.iter
    (fun (label, geometry, spare_rows) ->
      let s =
        Opt.Array_yield.solve_vddc ~spare_rows ~flavor:Finfet.Library.Hvt
          ~geometry ()
      in
      Printf.printf
        "  %-22s 99%% array yield at V_DDC >= %s (yield %.4f, cell fail %.2g)\n"
        label (Sram_edp.Units.mv s.Opt.Array_yield.vddc_min)
        s.Opt.Array_yield.achieved_yield s.Opt.Array_yield.cell_fail)
    [ ("128B, no repair", small, 0);
      ("4KB, no repair", g, 0);
      ("4KB, 2 spare rows", g, 2) ];
  print_endline
    "(The direct yield computation is size-aware and less conservative than\nthe paper's fixed-threshold proxy; spare-row repair buys another grid\nstep of boost.)"

let ablations () =
  ablation_accounting ();
  ablation_objective ();
  ablation_read_model ();
  ablation_ksigma ();
  ablation_validate ();
  ablation_banking ();
  ablation_corners ();
  ablation_eight_t ();
  ablation_workload ();
  ablation_thermal ();
  ablation_stat_timing ();
  ablation_dcdc ();
  ablation_segmented ();
  ablation_minarray ();
  ablation_vddc_pin ();
  ablation_dynamic ();
  ablation_array_yield ()

(* ----- wall-clock gates ----- *)

(* Four regression gates with no deterministic equivalent: a throughput
   floor for the scan kernel and three bounds on what an always-compiled-
   in feature costs when it is switched on.  Bit-identity across kernels,
   job counts, modes and resumes is pinned by the test suite instead.
   Each gate runs in its own forked process, so none inherits another's
   heap, caches or observability state.  Every gate runs even when an
   earlier one failed; any failure makes the run exit 1. *)

(* Every Table 4 config at 1KB through the staged kernel.  Environments
   and yield pins are built once per gate process, outside every timed
   region. *)
let gate_inputs =
  lazy
    (let setup flavor =
       ( Array_model.Array_eval.make_env ~cell_flavor:flavor (),
         Opt.Yield.solve ~flavor () )
     in
     let lvt = setup Finfet.Library.Lvt and hvt = setup Finfet.Library.Hvt in
     function Finfet.Library.Lvt -> lvt | Finfet.Library.Hvt -> hvt)

let sweep ~space =
  let inputs = Lazy.force gate_inputs in
  fun ~pool () ->
    List.map
      (fun (c : Sram_edp.Framework.config) ->
        let env, levels = inputs c.Sram_edp.Framework.flavor in
        Opt.Exhaustive.search ~space ~kernel:`Staged ~pool ~levels ~env
          ~capacity_bits:(1024 * 8) ~method_:c.Sram_edp.Framework.method_ ())
      Sram_edp.Framework.all_configs

(* The reduced-space, 1KB, jobs-1 winner checksum and decided-points/s
   throughput recorded as the scan kernel's baseline. *)
let kernel_baseline_checksum = "7da17d1b346e49de"

let kernel_baseline_points_per_s = 8982081.4960374702

(* One cold jobs-1 staged sweep of the reduced space lasts ~5 ms — short
   enough that scheduler and timer noise dominate a single sample — so
   the probe times several cold repetitions in one region and reports
   aggregate throughput.  Decided points per second: the search settles
   every point of the geometry x vssc product, by evaluating it or
   covering it with an admissible bound, so the figure stays comparable
   when a better kernel evaluates less. *)
let kernel_probe () =
  let reps = 10 in
  let pool = Runtime.Pool.create ~jobs:1 () in
  let run = sweep ~space:Opt.Space.reduced ~pool in
  let decided = ref 0 in
  let checksum = ref "" in
  let t0 = Runtime.Telemetry.now () in
  for _ = 1 to reps do
    Runtime.Memo.reset_all ();
    Array_model.Array_eval.reset_staging ();
    let results = run () in
    decided :=
      List.fold_left (fun acc r -> acc + r.Opt.Exhaustive.considered) !decided results;
    checksum := Opt.Exhaustive.checksum results
  done;
  let wall = Runtime.Telemetry.now () -. t0 in
  Runtime.Pool.shutdown pool;
  (!checksum, float_of_int !decided /. wall)

(* The checksum must match on any machine; throughput is machine-
   dependent, so the floor is 80% of baseline on the best of two probes,
   which damps scheduler noise without hiding a real regression. *)
let kernel_gate () =
  Obs.Control.set_enabled true;
  let checksum, first = kernel_probe () in
  let best = Float.max first (snd (kernel_probe ())) in
  let same = String.equal checksum kernel_baseline_checksum in
  let pass = same && best >= 0.8 *. kernel_baseline_points_per_s in
  Printf.printf
    "kernel throughput (best of 2 probes): %.2fM decided points/s (baseline \
     %.2fM, floor 80%%), checksum %s (baseline %s) -> %s\n"
    (best /. 1e6) (kernel_baseline_points_per_s /. 1e6) checksum
    kernel_baseline_checksum
    (if pass then "pass" else "FAIL");
  pass

(* Every overhead trial measures both sides back to back, alternating
   which goes first, so neither systematically inherits a warmer cache
   or a quieter slice of the host.  Wall-time noise on a shared host is
   strictly additive (background load can only slow a measurement down),
   so each side keeps its minimum over trials and the gate compares
   min(on) / min(off).  A median of per-trial ratios would fail whenever
   a load burst outlasts half the trials, which a single-core container
   sees regularly.  A failing estimate is re-measured once, each side
   keeping its minimum over both rounds: a sustained burst of background
   load cannot fail the gate, while a genuine regression, which both
   rounds show, still does.  Returns [(off, on, on /. off -. 1)]. *)
let overhead_threshold = 0.03

let overhead_trials = 9

let paired_overhead ~off ~on =
  let round () =
    let best_off = ref infinity and best_on = ref infinity in
    let take best side = best := Float.min !best (side ()) in
    for t = 0 to overhead_trials - 1 do
      if t land 1 = 0 then (take best_off off; take best_on on)
      else (take best_on on; take best_off off)
    done;
    (!best_off, !best_on)
  in
  let overhead (off_s, on_s) = (on_s /. off_s) -. 1.0 in
  let first = round () in
  let off_s, on_s =
    if overhead first < overhead_threshold then first
    else
      let off2, on2 = round () in
      (Float.min (fst first) off2, Float.min (snd first) on2)
  in
  (off_s, on_s, overhead (off_s, on_s))

let report_overhead ~what ~reps (off, on, overhead) =
  let pass = overhead < overhead_threshold in
  Printf.printf
    "%s (min over %d paired %d-rep trials): %.1f us vs %.1f us = %+.2f%% \
     (budget %.0f%%) -> %s\n"
    what overhead_trials reps (1e6 *. on) (1e6 *. off) (100.0 *. overhead)
    (100.0 *. overhead_threshold)
    (if pass then "pass" else "FAIL");
  pass

(* A warm sweep repeated [reps] times with [set side] applied, then
   reset by [set false]. *)
let timed_sweeps ~run ~reps ~set side () =
  let t0 = Runtime.Telemetry.now () in
  set side;
  for _ = 1 to reps do
    ignore (run ())
  done;
  set false;
  Runtime.Telemetry.now () -. t0

(* Histograms and counters recording vs not, on the warm staged
   sweep at one job so scheduler noise cannot hide a real regression.
   A trial lasts ~4 ms, so one major GC cycle more or less moves the
   ratio by points; timing starts only after ten warm sweeps alternating
   the two sides, once GC pacing has settled. *)
let stats_gate () =
  let reps = 10 in
  let pool = Runtime.Pool.create ~jobs:1 () in
  let run = sweep ~space:Opt.Space.reduced ~pool in
  for i = 1 to 10 do
    Obs.Control.set_enabled (i land 1 = 0);
    ignore (run ())
  done;
  Obs.Control.set_enabled false;
  let time = timed_sweeps ~run ~reps ~set:Obs.Control.set_enabled in
  let result = paired_overhead ~off:(time false) ~on:(time true) in
  Runtime.Pool.shutdown pool;
  report_overhead ~what:"stats on vs off" ~reps result

(* The search journal armed vs disarmed.  Always the paper's full design
   space: journal cost scales with incumbent improvements (dozens per
   search regardless of space size), so a microscopic sweep would
   measure a fixed cost against a vanishing baseline. *)
let journal_gate () =
  let reps = 25 in
  let pool = Runtime.Pool.create ~jobs:1 () in
  let run = sweep ~space:Opt.Space.default ~pool in
  ignore (run ());
  let set armed = if armed then Obs.Search.arm () else Obs.Search.disarm () in
  let time = timed_sweeps ~run ~reps ~set in
  let result = paired_overhead ~off:(time false) ~on:(time true) in
  Runtime.Pool.shutdown pool;
  report_overhead ~what:"search journal armed vs disarmed" ~reps result

(* Tracing, windowed metrics and the flight recorder ride the request
   path; this gate bounds their cost.  Two servers run side by side —
   one default (observability on), one with it off — and the warm
   round-trip latency to each is compared through [paired_overhead].
   Both answers must re-derive the one-shot reference checksum. *)
let serve_gate () =
  Obs.Control.set_enabled true;
  let c0 = List.hd Sram_edp.Framework.all_configs in
  let q =
    { Serve.Protocol.default_query with
      Serve.Protocol.capacity_bits = 1024 * 8;
      flavor = c0.Sram_edp.Framework.flavor;
      method_ = c0.Sram_edp.Framework.method_;
      space = Serve.Protocol.reduced_override }
  in
  let reference =
    Opt.Exhaustive.checksum
      [ (Sram_edp.Framework.optimize
           ~space:(Serve.Protocol.space_of_override q.Serve.Protocol.space)
           ~objective:q.Serve.Protocol.objective
           ~accounting:q.Serve.Protocol.accounting ~w:q.Serve.Protocol.w
           ~capacity_bits:q.Serve.Protocol.capacity_bits ~config:c0 ())
          .Sram_edp.Framework.result ]
  in
  let fail msg =
    Printf.printf "serve overhead gate: %s\n" msg;
    exit 1
  in
  (* Each server is a real separate process: a forked child running
     [Serve.Server.run] on a Unix socket in the temp dir, driven through
     [Serve.Client].  It starts cold, whatever this process computed for
     the reference. *)
  let spawn observability =
    let path =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "sram_opt_gates_%d_%b.sock" (Unix.getpid ())
           observability)
    in
    (try Unix.unlink path with Unix.Unix_error _ -> ());
    flush stdout;
    flush stderr;
    match Unix.fork () with
    | 0 ->
      Runtime.Memo.reset_all ();
      Runtime.Telemetry.reset ();
      Obs.Histogram.reset_all ();
      let cfg =
        { Serve.Server.default_config with
          Serve.Server.socket_path = Some path;
          install_signals = false;
          observability }
      in
      (try ignore (Serve.Server.run cfg) with _ -> ());
      Unix._exit 0
    | pid -> (
      match Serve.Client.wait_ready ~socket_path:path () with
      | Error e ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        fail ("server did not come up: " ^ e)
      | Ok c -> (pid, c))
  in
  let pid_on, c_on = spawn true in
  let pid_off, c_off = spawn false in
  let ask c =
    match Serve.Client.optimize c q with
    | Ok a -> a.Serve.Client.checksum
    | Error e -> fail ("optimize failed: " ^ e)
  in
  let identical = ask c_on = reference && ask c_off = reference in
  (* Warm round-trips are ~60µs, so 200 reps per measurement is ~12ms —
     cheap enough to keep the floor estimator tight (a loose floor, not
     real overhead, is what flakes).  The per-trial statistic is the MIN
     round-trip, not the median: the floor is the deterministic cost of
     the path, while the median still carries scheduler and GC noise
     that dwarfs the few-µs effect being bounded here.  The monotonic
     clock matters too — gettimeofday's 1µs quantization alone is ±2% of
     one round-trip. *)
  let reps = 200 in
  let measure c () =
    let best = ref infinity in
    for _ = 1 to reps do
      let t0 = Obs.Clock.now () in
      ignore (ask c);
      best := Float.min !best (Obs.Clock.now () -. t0)
    done;
    !best
  in
  let result = paired_overhead ~off:(measure c_off) ~on:(measure c_on) in
  List.iter
    (fun (pid, c) ->
      (match Serve.Client.shutdown c with
      | Ok () -> ()
      | Error e -> fail ("shutdown failed: " ^ e));
      Serve.Client.close c;
      ignore (Unix.waitpid [] pid))
    [ (pid_on, c_on); (pid_off, c_off) ];
  Printf.printf "serve answers match the one-shot checksum: %s\n"
    (if identical then "yes" else "NO");
  report_overhead ~what:"serve warm round trip, observability on vs off" ~reps
    result
  && identical

let isolated gate =
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 -> exit (if gate () then 0 else 1)
  | pid -> (
    match Unix.waitpid [] pid with _, Unix.WEXITED 0 -> true | _ -> false)

let gates () =
  section "Gates: kernel throughput floor and feature overhead budgets";
  let results =
    List.map
      (fun (name, gate) -> (name, isolated gate))
      [ ("kernel", kernel_gate); ("stats", stats_gate);
        ("journal", journal_gate); ("serve", serve_gate) ]
  in
  match List.filter (fun (_, pass) -> not pass) results with
  | [] -> ()
  | failed ->
    List.iter (fun (name, _) -> Printf.eprintf "%s gate FAILED\n" name) failed;
    exit 1

(* ----- dispatch ----- *)

let headline_smoke () =
  section "Headline (smoke: reduced space, 1KB, M2 HVT vs LVT)";
  let h =
    Sram_edp.Framework.headline ~space:Opt.Space.reduced
      ~capacities:[ 1024 * 8 ] ()
  in
  Printf.printf
    "EDP reduction %.1f%%, delay penalty %.1f%% (reduced space; paper-space \
     numbers come from the full headline run)\n"
    (100.0 *. h.Sram_edp.Framework.avg_edp_reduction)
    (100.0 *. h.Sram_edp.Framework.avg_delay_penalty)

let run_one = function
  | "fig2a" | "fig2b" -> Sram_edp.Experiments.print_fig2 ()
  | "fig3a" -> Sram_edp.Experiments.print_fig3a ()
  | "fig3b" | "fig3c" | "fig3d" -> Sram_edp.Experiments.print_fig3bcd ()
  | "fig5a" | "fig5b" -> Sram_edp.Experiments.print_fig5 ()
  | "table4" -> Sram_edp.Experiments.print_table4 ()
  | "fig7a" | "fig7b" | "fig7c" -> Sram_edp.Experiments.print_fig7 ()
  | "fig7d" -> Sram_edp.Experiments.print_fig7d ()
  | "headline" ->
    if !smoke then headline_smoke () else Sram_edp.Experiments.print_headline ()
  | "ablation" -> ablations ()
  | "gates" -> gates ()
  | "all" ->
    Sram_edp.Experiments.run_all ();
    ablations ()
  | other ->
    Printf.eprintf
      "unknown experiment %S (try fig2a..fig7d, table4, headline, ablation, \
       gates, all)\n"
      other;
    exit 1

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let flags, experiments = List.partition (fun a -> String.length a > 0 && a.[0] = '-') args in
  List.iter
    (function
      | "--smoke" -> smoke := true
      | other ->
        Printf.eprintf "unknown flag %S (try --smoke)\n" other;
        exit 1)
    flags;
  match experiments with
  | [] -> run_one "all"
  | names -> List.iter run_one names
