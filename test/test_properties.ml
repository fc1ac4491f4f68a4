(* Property-based tests: randomized invariants across every layer,
   registered as alcotest cases via QCheck_alcotest. *)

let lib = Lazy.force Finfet.Library.default
let nfet_hvt = Finfet.Library.nfet lib Finfet.Library.Hvt
let pfet_hvt = Finfet.Library.pfet lib Finfet.Library.Hvt

let dcaps = Array_model.Caps.device_caps_of ~nfet:nfet_hvt ~pfet:pfet_hvt ()

let bits_equal x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

(* Generators *)

let pow2 lo hi =
  QCheck.map (fun k -> 1 lsl k) (QCheck.int_range lo hi)

let geometry_gen =
  QCheck.map
    (fun (((nr, nc), n_pre), n_wr) ->
      Array_model.Geometry.create ~nr ~nc ~n_pre ~n_wr ())
    QCheck.(pair (pair (pair (pow2 1 10) (pow2 0 10)) (int_range 1 50)) (int_range 1 20))

let assist_gen =
  QCheck.map
    (fun ((vddc_step, vssc_step), vwl_step) ->
      { Array_model.Components.vddc = 0.45 +. (0.01 *. float_of_int vddc_step);
        vssc = -0.01 *. float_of_int vssc_step;
        vwl = 0.45 +. (0.01 *. float_of_int vwl_step) })
    QCheck.(pair (pair (int_bound 25) (int_bound 24)) (int_bound 25))

(* --- numerics --- *)

let prop_percentile_bounds =
  QCheck.Test.make ~name:"percentile endpoints are min and max" ~count:200
    QCheck.(array_of_size (Gen.int_range 1 40) (float_range (-100.0) 100.0))
    (fun xs ->
      let lo, hi = Numerics.Stats.min_max xs in
      Numerics.Stats.percentile xs ~p:0.0 = lo
      && Numerics.Stats.percentile xs ~p:100.0 = hi)

let prop_brent_cubic =
  QCheck.Test.make ~name:"brent solves random shifted cubics" ~count:200
    QCheck.(float_range (-3.0) 3.0)
    (fun root ->
      let f x = ((x -. root) ** 3.0) +. (0.5 *. (x -. root)) in
      let solved = Numerics.Roots.brent f ~lo:(root -. 10.0) ~hi:(root +. 10.0) in
      abs_float (solved -. root) < 1e-6)

let prop_table1d_clamp_bounds =
  QCheck.Test.make ~name:"clamped table stays within its data range" ~count:200
    QCheck.(pair (array_of_size (Gen.int_range 2 10) (float_range 0.0 10.0))
              (float_range (-5.0) 15.0))
    (fun (ys, x) ->
      let xs = Array.init (Array.length ys) float_of_int in
      let t = Numerics.Interp.Table1d.create xs ys in
      let lo, hi = Numerics.Stats.min_max ys in
      let v = Numerics.Interp.Table1d.eval t x in
      v >= lo -. 1e-12 && v <= hi +. 1e-12)

let prop_power_law_roundtrip =
  QCheck.Test.make ~name:"power-law fit recovers random parameters" ~count:60
    QCheck.(triple (float_range 1.0 2.0) (float_range 1e-5 1e-3) (float_range 0.1 0.3))
    (fun (a, b, vt) ->
      let vs = Array.init 12 (fun i -> vt +. 0.1 +. (0.04 *. float_of_int i)) in
      let is_ = Array.map (fun v -> b *. ((v -. vt) ** a)) vs in
      let fit = Numerics.Fit.power_law ~vt_lo:0.0 ~vt_hi:(vt +. 0.09) vs is_ in
      abs_float (fit.Numerics.Fit.a -. a) < 0.02
      && fit.Numerics.Fit.rms_error < 1e-3)

let prop_uniform_range =
  QCheck.Test.make ~name:"uniform_range respects arbitrary bounds" ~count:200
    QCheck.(triple (int_bound 10_000) (float_range (-50.0) 50.0) (float_range 0.0 100.0))
    (fun (seed, lo, span) ->
      let rng = Numerics.Rng.create ~seed in
      let hi = lo +. span in
      let x = Numerics.Rng.uniform_range rng ~lo ~hi in
      x >= lo && x <= hi)

(* --- spice --- *)

let prop_divider =
  QCheck.Test.make ~name:"random resistor dividers solve exactly" ~count:100
    QCheck.(pair (float_range 10.0 1e6) (float_range 10.0 1e6))
    (fun (r1, r2) ->
      let n = Spice.Netlist.create () in
      let vin = Spice.Netlist.fresh_node n "vin" in
      let mid = Spice.Netlist.fresh_node n "mid" in
      Spice.Netlist.vdc n ~plus:vin ~minus:0 ~volts:1.0;
      Spice.Netlist.resistor n ~plus:vin ~minus:mid ~ohms:r1;
      Spice.Netlist.resistor n ~plus:mid ~minus:0 ~ohms:r2;
      let s = Spice.Dc.operating_point n in
      abs_float (Spice.Dc.node_voltage s mid -. (r2 /. (r1 +. r2))) < 1e-5)

let prop_step_waveform_bounds =
  QCheck.Test.make ~name:"step waveforms stay between their levels" ~count:200
    QCheck.(triple (float_range 0.0 1.0) (float_range 0.0 1.0) (float_range (-1.0) 3.0))
    (fun (v0, v1, t) ->
      let w = Spice.Netlist.Step { t_delay = 0.5; t_rise = 1.0; v0; v1 } in
      let v = Spice.Netlist.waveform_at w t in
      v >= min v0 v1 -. 1e-12 && v <= max v0 v1 +. 1e-12)

(* --- device --- *)

let prop_ids_monotone_vgs =
  QCheck.Test.make ~name:"drain current is monotone in vgs at any vds" ~count:200
    QCheck.(triple (float_range 0.02 0.8) (float_range 0.0 0.75) (float_range 0.001 0.05))
    (fun (vds, vgs, dv) ->
      Finfet.Device.ids nfet_hvt ~vgs:(vgs +. dv) ~vds
      >= Finfet.Device.ids nfet_hvt ~vgs ~vds)

let prop_stack_bounded_by_pull_down =
  QCheck.Test.make
    ~name:"series stack current never exceeds the lone pull-down's" ~count:100
    QCheck.(pair (float_range 0.45 0.7) (float_range 0.0 0.24))
    (fun (vddc, depth) ->
      let vssc = -.depth in
      let stack =
        Finfet.Calibration.stack_read_current ~access:nfet_hvt
          ~pull_down:nfet_hvt ~vwl:0.45 ~vbl:0.45 ~vddc ~vssc
      in
      let lone =
        Finfet.Device.ids nfet_hvt ~vgs:(vddc -. vssc) ~vds:(0.45 -. vssc)
      in
      stack <= lone +. 1e-12)

(* --- sram cell --- *)

(* The lobe search before bound pruning: Brent at all 159 offsets. *)
let reference_lobe ~upper ~lower =
  let open Sram_cell.Butterfly in
  let u = Numerics.Interp.pchip ~xs:upper.inputs ~ys:upper.outputs in
  let l = Numerics.Interp.pchip ~xs:lower.inputs ~ys:lower.outputs in
  let lo = upper.inputs.(0) in
  let hi = upper.inputs.(Array.length upper.inputs - 1) in
  let span = hi -. lo in
  let n = 64 in
  let step = (hi -. lo) /. float_of_int n in
  let grid = Array.init (n + 1) (fun i -> if i = 0 then lo else lo +. (float_of_int i *. step)) in
  let du = Array.map (fun x -> u x -. x) grid in
  let dl = Array.map (fun y -> l y -. y) grid in
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
  let side_at b =
    let g x = u x -. x -. b in
    let h y = l y -. y +. b in
    match (bracket du (-.b), bracket dl b) with
    | Some (glo, ghi), Some (hlo, hhi) ->
      let x1 = Numerics.Roots.brent ~tol:1e-9 g ~lo:glo ~hi:ghi in
      let y2 = Numerics.Roots.brent ~tol:1e-9 h ~lo:hlo ~hi:hhi in
      x1 -. (y2 -. b)
    | None, (Some _ | None) | Some _, None -> neg_infinity
  in
  let best = ref 0.0 in
  let steps = 160 in
  for k = 1 to steps - 1 do
    let s = side_at (span *. float_of_int k /. float_of_int steps) in
    if s > !best then best := s
  done;
  !best

let prop_pruned_lobes_match_reference =
  QCheck.Test.make
    ~name:"bound-pruned SNM lobes equal the all-offset search bit for bit"
    ~count:100
    QCheck.(quad bool (int_bound 4) (float_range 0.30 0.80) bool)
    (fun (hvt, corner_i, vddc, access_on) ->
      let flavor = if hvt then Finfet.Library.Hvt else Finfet.Library.Lvt in
      let corner = List.nth Finfet.Corners.all corner_i in
      let cell =
        Finfet.Corners.cell corner ~nfet:(Finfet.Library.nfet lib flavor)
          ~pfet:(Finfet.Library.pfet lib flavor)
      in
      let condition =
        if access_on then Sram_cell.Sram6t.read ~vddc ()
        else Sram_cell.Sram6t.hold ~vdd:vddc ()
      in
      let ({ Sram_cell.Butterfly.curve_r; curve_l } as bf) =
        Sram_cell.Butterfly.trace ~cell ~access_on condition
      in
      let got = Sram_cell.Butterfly.snm_of_butterfly bf in
      bits_equal (reference_lobe ~upper:curve_r ~lower:curve_l)
        got.Sram_cell.Butterfly.lobe_high
      && bits_equal (reference_lobe ~upper:curve_l ~lower:curve_r)
           got.Sram_cell.Butterfly.lobe_low)

(* --- array model --- *)

let prop_caps_positive =
  QCheck.Test.make ~name:"all Table 1 capacitances are positive" ~count:200
    geometry_gen
    (fun g ->
      Array_model.Caps.cvdd dcaps g > 0.0
      && Array_model.Caps.cvss dcaps g > 0.0
      && Array_model.Caps.wl dcaps g > 0.0
      && Array_model.Caps.bl dcaps g > 0.0
      && Array_model.Caps.col dcaps g >= 0.0)

let env_hvt = Array_model.Array_eval.make_env ~cell_flavor:Finfet.Library.Hvt ()

let prop_metrics_invariants =
  QCheck.Test.make
    ~name:"array metrics: positivity, max-delay and EDP identities" ~count:150
    QCheck.(pair geometry_gen assist_gen)
    (fun (g, a) ->
      let m = Array_model.Array_eval.evaluate env_hvt g a in
      let open Array_model.Array_eval in
      m.d_read > 0.0 && m.d_write > 0.0 && m.e_total > 0.0
      && abs_float (m.d_array -. max m.d_read m.d_write) < 1e-18
      && abs_float (m.edp -. (m.e_total *. m.d_array)) < 1e-30
      && m.e_leakage >= 0.0)

let prop_physical_not_cheaper =
  QCheck.Test.make
    ~name:"physical accounting never undercuts strict accounting" ~count:80
    QCheck.(pair geometry_gen assist_gen)
    (fun (g, a) ->
      let phys =
        Array_model.Array_eval.make_env
          ~accounting:Array_model.Array_eval.Physical
          ~cell_flavor:Finfet.Library.Hvt ()
      in
      let ms = Array_model.Array_eval.evaluate env_hvt g a in
      let mp = Array_model.Array_eval.evaluate phys g a in
      mp.Array_model.Array_eval.e_read
      >= ms.Array_model.Array_eval.e_read -. 1e-20)

let prop_deeper_vssc_faster_reads =
  QCheck.Test.make ~name:"deeper negative Gnd never slows the read" ~count:80
    QCheck.(pair geometry_gen (int_bound 23))
    (fun (g, step) ->
      let at vssc =
        (Array_model.Array_eval.evaluate env_hvt g
           { Array_model.Components.vddc = 0.55; vssc; vwl = 0.55 })
          .Array_model.Array_eval.d_read
      in
      at (-0.01 *. float_of_int (step + 1)) <= at (-0.01 *. float_of_int step) +. 1e-18)

let prop_dcdc_bounds =
  QCheck.Test.make ~name:"dcdc efficiency in (0,1], overhead >= 1" ~count:200
    QCheck.(float_range (-0.9) 0.9)
    (fun v_out ->
      let eta = Array_model.Dcdc.efficiency ~v_out () in
      eta > 0.0 && eta <= 1.0 && Array_model.Dcdc.overhead ~v_out () >= 1.0)

(* --- staged evaluation kernel --- *)

let env_lvt = Array_model.Array_eval.make_env ~cell_flavor:Finfet.Library.Lvt ()

let env_hvt_physical =
  Array_model.Array_eval.make_env ~accounting:Array_model.Array_eval.Physical
    ~cell_flavor:Finfet.Library.Hvt ()

let kernel_envs = [ env_hvt; env_lvt; env_hvt_physical ]

(* Field-for-field Float.equal — NOT a tolerance check: the staged kernel
   promises bit identity with the reference path. *)
let metrics_equal (a : Array_model.Array_eval.metrics)
    (b : Array_model.Array_eval.metrics) =
  let open Array_model.Array_eval in
  Float.equal a.d_read b.d_read
  && Float.equal a.d_write b.d_write
  && Float.equal a.d_array b.d_array
  && Float.equal a.e_read b.e_read
  && Float.equal a.e_write b.e_write
  && Float.equal a.e_switching b.e_switching
  && Float.equal a.e_leakage b.e_leakage
  && Float.equal a.e_total b.e_total
  && Float.equal a.edp b.edp
  && Float.equal a.d_bl_read b.d_bl_read
  && Float.equal a.d_row_path_read b.d_row_path_read
  && Float.equal a.d_col_path b.d_col_path

let prop_staged_bit_identical =
  QCheck.Test.make
    ~name:"eval_staged = evaluate bit-for-bit (LVT, HVT, both accountings)"
    ~count:150
    QCheck.(pair geometry_gen assist_gen)
    (fun (g, a) ->
      List.for_all
        (fun env ->
          let reference = Array_model.Array_eval.evaluate env g a in
          let staged =
            Array_model.Array_eval.(eval_staged (stage env g) a)
          in
          metrics_equal reference staged)
        kernel_envs)

let prop_bound_admissible =
  QCheck.Test.make
    ~name:"envelope bound lower-bounds every enveloped assist's metrics"
    ~count:80
    QCheck.(pair geometry_gen (list_of_size (Gen.int_range 1 8) assist_gen))
    (fun (g, assists) ->
      List.for_all
        (fun env ->
          let open Array_model.Array_eval in
          let st = stage env g in
          let preps =
            Array.of_list (List.map (fun a -> prepare env a) assists)
          in
          let b = bound_metrics st (envelope preps) in
          List.for_all
            (fun a ->
              let m = evaluate env g a in
              b.d_read <= m.d_read && b.d_write <= m.d_write
              && b.d_array <= m.d_array && b.e_read <= m.e_read
              && b.e_write <= m.e_write && b.e_total <= m.e_total
              && b.edp <= m.edp)
            assists)
        kernel_envs)

(* Assist corner cases the batched scan's zero-guard branches must get
   bit-for-bit right: dv exactly zero, negative zero, and subnormal
   magnitudes where naive reassociation would flush differently. *)
let corner_assists =
  [ { Array_model.Components.vddc = 0.45; vssc = 0.0; vwl = 0.45 };
    { Array_model.Components.vddc = 0.45; vssc = -0.0; vwl = 0.45 };
    { Array_model.Components.vddc = 0.5; vssc = -4.9e-324; vwl = 0.5 };
    { Array_model.Components.vddc = 0.55; vssc = -1e-310; vwl = 0.55 } ]

let prop_scan_bit_identical =
  (* Stricter than [Float.equal]: raw IEEE bit comparison, so a -0.0
     where the record path produced +0.0 fails the property. *)
  QCheck.Test.make
    ~name:"scan slots = eval_staged bit-for-bit (incl. -0.0/subnormal vssc)"
    ~count:100
    QCheck.(pair geometry_gen (list_of_size (Gen.int_range 1 6) assist_gen))
    (fun (g, random_assists) ->
      let assists = Array.of_list (corner_assists @ random_assists) in
      List.for_all
        (fun env ->
          let open Array_model.Array_eval in
          let st = stage env g in
          let preps = Array.map (prepare env) assists in
          let buf = scan_buffer () in
          scan st preps buf;
          let ok = ref (scan_length buf = Array.length assists) in
          Array.iteri
            (fun i a ->
              let m = eval_staged st a in
              ok :=
                !ok
                && bits_equal (scan_e_total buf).(i) m.e_total
                && bits_equal (scan_d_array buf).(i) m.d_array
                && bits_equal (scan_edp buf).(i) m.edp)
            assists;
          !ok)
        kernel_envs)

let prop_attribution_bit_exact =
  (* The explainer's contract: [attribute] deliberately re-derives
     [evaluate]'s arithmetic term by term, and its ordered lists must
     refold — left-associated, head-seeded — to the very same IEEE
     bits, across random geometries, both accounting modes, and the
     -0.0/subnormal V_SSC corner operands the scan kernel guards. *)
  QCheck.Test.make
    ~name:"attribution terms refold to evaluate's totals bit-for-bit"
    ~count:100
    QCheck.(pair geometry_gen (list_of_size (Gen.int_range 1 4) assist_gen))
    (fun (g, random_assists) ->
      let assists = corner_assists @ random_assists in
      List.for_all
        (fun env ->
          List.for_all
            (fun a ->
              let open Array_model.Array_eval in
              let at = attribute env g a in
              let m = evaluate env g a in
              attribution_consistent at
              && bits_equal at.at_metrics.e_read m.e_read
              && bits_equal at.at_metrics.e_write m.e_write
              && bits_equal at.at_metrics.e_total m.e_total
              && bits_equal at.at_metrics.d_read m.d_read
              && bits_equal at.at_metrics.d_write m.d_write
              && bits_equal at.at_metrics.d_array m.d_array
              && bits_equal at.at_metrics.edp m.edp)
            assists)
        kernel_envs)

let prop_suffix_bounds_admissible =
  (* The mid-scan abandonment invariant: scanning the [bound_prepared]
     image of suffix envelope [j] yields slots that lower-bound every
     real point at index >= j*block, for every objective's read fields.
     If this held only approximately the batched search could abandon a
     line containing the true winner. *)
  QCheck.Test.make
    ~name:"suffix-envelope bound slots lower-bound their whole suffix"
    ~count:60
    QCheck.(triple geometry_gen
              (list_of_size (Gen.int_range 1 12) assist_gen) (int_range 1 4))
    (fun (g, random_assists, block) ->
      let assists = Array.of_list (corner_assists @ random_assists) in
      List.for_all
        (fun env ->
          let open Array_model.Array_eval in
          let st = stage env g in
          let preps = Array.map (prepare env) assists in
          let n = Array.length preps in
          let bound_ps =
            Array.map (bound_prepared env) (suffix_envelopes preps ~block)
          in
          let bbuf = scan_buffer () in
          scan st bound_ps bbuf;
          let buf = scan_buffer () in
          scan st preps buf;
          let ok = ref true in
          for j = 0 to Array.length bound_ps - 1 do
            for i = j * block to n - 1 do
              ok :=
                !ok
                && (scan_e_total bbuf).(j) <= (scan_e_total buf).(i)
                && (scan_d_array bbuf).(j) <= (scan_d_array buf).(i)
                && (scan_edp bbuf).(j) <= (scan_edp buf).(i)
            done
          done;
          !ok)
        kernel_envs)

let prop_pruned_search_matches_reference =
  (* Whole searches: the pruned staged scan must select the same design,
     bit for bit, as the never-pruning reference kernel. *)
  QCheck.Test.make
    ~name:"pruned staged search returns the reference kernel's winner"
    ~count:6
    QCheck.(triple (int_range 0 3) bool (int_bound 3))
    (fun (cap_exp, m2, obj_i) ->
      let capacity_bits = 1024 * (1 lsl cap_exp) in
      let method_ = if m2 then Opt.Space.M2 else Opt.Space.M1 in
      let objective =
        [| Opt.Objective.Energy_delay_product;
           Opt.Objective.Energy_delay_squared; Opt.Objective.Energy_only;
           Opt.Objective.Delay_only |].(obj_i)
      in
      let run kernel =
        Opt.Exhaustive.search ~space:Opt.Space.reduced ~objective ~kernel
          ~env:env_hvt ~capacity_bits ~method_ ()
      in
      let staged = run `Staged in
      let reference = run `Reference in
      let sb = staged.Opt.Exhaustive.best
      and rb = reference.Opt.Exhaustive.best in
      sb.Opt.Exhaustive.geometry = rb.Opt.Exhaustive.geometry
      && sb.Opt.Exhaustive.assist = rb.Opt.Exhaustive.assist
      && Float.equal sb.Opt.Exhaustive.score rb.Opt.Exhaustive.score
      && metrics_equal sb.Opt.Exhaustive.metrics rb.Opt.Exhaustive.metrics
      && staged.Opt.Exhaustive.evaluated + staged.Opt.Exhaustive.pruned
         > 0
      && reference.Opt.Exhaustive.pruned = 0)

(* Not a property but the strongest single determinism check we have:
   the full paper sweep (all capacities x configs, staged kernel) must
   reproduce one specific winner checksum — the value committed in
   BENCH_kernel.json — at every job count.  Any reassociation slip in
   the scan kernel, any order dependence in the parallel reduction, and
   any pruning bound that is not strictly admissible shows up here as a
   changed digest.  The per-capacity HVT-M2 winners (128B..16KB, the
   paper's headline config) are pinned one by one as well, so a drift
   names the capacity it hit. *)
let full_sweep_checksum = "67fd83cd67998ac0"

let hvt_m2_checksums =
  [ (128, "2ef9d2225d615c06"); (256, "b2516eb19c334481");
    (1024, "d14357348bab71f9"); (4096, "5ada44e428b6403f");
    (16384, "636f136ac9159ea7") ]

let test_full_sweep_deterministic () =
  let env_of =
    let lvt = Array_model.Array_eval.make_env ~cell_flavor:Finfet.Library.Lvt () in
    let hvt = Array_model.Array_eval.make_env ~cell_flavor:Finfet.Library.Hvt () in
    function Finfet.Library.Lvt -> lvt | Finfet.Library.Hvt -> hvt
  in
  let levels_of =
    let lvt = Opt.Yield.solve ~flavor:Finfet.Library.Lvt () in
    let hvt = Opt.Yield.solve ~flavor:Finfet.Library.Hvt () in
    function Finfet.Library.Lvt -> lvt | Finfet.Library.Hvt -> hvt
  in
  let sweep jobs =
    let pool = Runtime.Pool.create ~jobs () in
    let results =
      List.concat_map
        (fun capacity_bits ->
          List.map
            (fun (c : Sram_edp.Framework.config) ->
              ( capacity_bits, c,
                Opt.Exhaustive.search ~kernel:`Staged ~pool
                  ~levels:(levels_of c.Sram_edp.Framework.flavor)
                  ~env:(env_of c.Sram_edp.Framework.flavor) ~capacity_bits
                  ~method_:c.Sram_edp.Framework.method_ () ))
            Sram_edp.Framework.all_configs)
        Sram_edp.Framework.paper_capacities
    in
    Runtime.Pool.shutdown pool;
    results
  in
  let hvt_m2 =
    { Sram_edp.Framework.flavor = Finfet.Library.Hvt; method_ = Opt.Space.M2 }
  in
  List.iter
    (fun jobs ->
      let results = sweep jobs in
      Alcotest.(check string)
        (Printf.sprintf "full-sweep checksum at %d jobs" jobs)
        full_sweep_checksum
        (Opt.Exhaustive.checksum (List.map (fun (_, _, r) -> r) results));
      List.iter
        (fun (capacity_bits, c, r) ->
          if c = hvt_m2 then
            Alcotest.(check string)
              (Printf.sprintf "%dB HVT-M2 checksum at %d jobs"
                 (capacity_bits / 8) jobs)
              (List.assoc (capacity_bits / 8) hvt_m2_checksums)
              (Opt.Exhaustive.checksum [ r ]))
        results)
    [ 1; 2; 4 ]

(* The scan path's allocation contract, measured directly: once a
   warm-up pass has grown the buffer, repeated scans must allocate
   nothing — the inner loop writes into preallocated float arrays and
   materializes no records.  1000 repetitions of a 26-point scan
   amplify even one boxed float per point into megawords, while the
   measurement's own boxing noise stays under a few dozen words. *)
let test_scan_allocation_free () =
  let open Array_model.Array_eval in
  let env = make_env ~cell_flavor:Finfet.Library.Hvt () in
  let g = Array_model.Geometry.create ~nr:256 ~nc:64 ~n_pre:4 ~n_wr:4 () in
  let st = stage env g in
  let preps =
    Array.init 26 (fun i ->
        prepare env
          { Array_model.Components.vddc = 0.45;
            vssc = -0.01 *. float_of_int i;
            vwl = 0.45 })
  in
  let buf = scan_buffer () in
  scan st preps buf;
  let reps = 1000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to reps do
    scan st preps buf
  done;
  let delta = Gc.minor_words () -. w0 in
  let per_point = delta /. float_of_int (reps * Array.length preps) in
  if per_point > 0.01 then
    Alcotest.failf "scan allocated %.4f minor words per point (want 0)"
      per_point

(* --- workload --- *)

let prop_trace_summary_bounds =
  QCheck.Test.make ~name:"trace alpha and beta are probabilities" ~count:100
    QCheck.(triple (int_bound 10_000) (float_range 0.0 1.0) (float_range 0.0 1.0))
    (fun (seed, activity, read_fraction) ->
      let p = Workload.Trace.Uniform { activity; read_fraction } in
      let s = Workload.Trace.characterize (Workload.Trace.generate ~seed p ~length:500) in
      s.Workload.Trace.alpha >= 0.0 && s.Workload.Trace.alpha <= 1.0
      && s.Workload.Trace.beta >= 0.0 && s.Workload.Trace.beta <= 1.0)

(* --- deck round trip on random RC ladders --- *)

let prop_deck_roundtrip =
  QCheck.Test.make ~name:"deck print/parse preserves random ladder solutions"
    ~count:40
    QCheck.(pair (int_bound 10_000) (int_range 2 8))
    (fun (seed, stages) ->
      let rng = Numerics.Rng.create ~seed in
      let n = Spice.Netlist.create () in
      let top = Spice.Netlist.fresh_node n "top" in
      Spice.Netlist.vdc n ~plus:top ~minus:0 ~volts:1.0;
      let rec build prev k =
        if k = 0 then prev
        else begin
          let next = Spice.Netlist.fresh_node n (Printf.sprintf "n%d" k) in
          Spice.Netlist.resistor n ~plus:prev ~minus:next
            ~ohms:(Numerics.Rng.uniform_range rng ~lo:100.0 ~hi:1e5);
          build next (k - 1)
        end
      in
      let last = build top stages in
      Spice.Netlist.resistor n ~plus:last ~minus:0
        ~ohms:(Numerics.Rng.uniform_range rng ~lo:100.0 ~hi:1e5);
      let original =
        Spice.Dc.node_voltage (Spice.Dc.operating_point n) last
      in
      match Spice.Deck.parse ~lib (Spice.Deck.print n) with
      | Error _ -> false
      | Ok (n2, names) ->
        (match Spice.Deck.node names (Spice.Netlist.node_name n last) with
         | None -> false
         | Some node ->
           abs_float
             (Spice.Dc.node_voltage (Spice.Dc.operating_point n2) node
              -. original)
           < 1e-6))

(* --- macro: model-based testing against a reference map --- *)

let prop_macro_matches_reference =
  let op_gen =
    QCheck.(list_of_size (Gen.int_range 1 60)
              (pair (int_bound 127) (option (int_bound 0xFFFF))))
  in
  QCheck.Test.make
    ~name:"macro contents always match a reference associative model" ~count:40
    op_gen
    (fun ops ->
      let macro =
        Sram_macro.Macro.create_optimized ~space:Opt.Space.reduced
          ~capacity_bits:(1024 * 8) ~flavor:Finfet.Library.Hvt
          ~method_:Opt.Space.M1 ()
      in
      let words = Sram_macro.Macro.words macro in
      let reference = Hashtbl.create 32 in
      List.for_all
        (fun (addr_raw, op) ->
          let addr = addr_raw mod words in
          match op with
          | Some data ->
            let data = Int64.of_int data in
            let r = Sram_macro.Macro.write macro ~addr ~data in
            Hashtbl.replace reference addr r.Sram_macro.Macro.data;
            true
          | None ->
            let got = (Sram_macro.Macro.read macro ~addr).Sram_macro.Macro.data in
            (match Hashtbl.find_opt reference addr with
             | Some expected -> got = expected
             | None -> true (* power-up garbage: any value is legal *)))
        ops)

let to_alco = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "properties"
    [ ("numerics",
       List.map to_alco
         [ prop_percentile_bounds; prop_brent_cubic; prop_table1d_clamp_bounds;
           prop_power_law_roundtrip; prop_uniform_range ]);
      ("spice", List.map to_alco [ prop_divider; prop_step_waveform_bounds ]);
      ("device", List.map to_alco [ prop_ids_monotone_vgs; prop_stack_bounded_by_pull_down ]);
      ("sram_cell", List.map to_alco [ prop_pruned_lobes_match_reference ]);
      ("array_model",
       List.map to_alco
         [ prop_caps_positive; prop_metrics_invariants; prop_physical_not_cheaper;
           prop_deeper_vssc_faster_reads; prop_dcdc_bounds ]);
      ("staged_kernel",
       List.map to_alco
         [ prop_staged_bit_identical; prop_bound_admissible;
           prop_scan_bit_identical; prop_attribution_bit_exact;
           prop_suffix_bounds_admissible;
           prop_pruned_search_matches_reference ]
       @ [ Alcotest.test_case "full sweep reproduces committed checksum"
             `Slow test_full_sweep_deterministic;
           Alcotest.test_case "warm scan path allocates zero words"
             `Quick test_scan_allocation_free ]);
      ("workload", List.map to_alco [ prop_trace_summary_bounds ]);
      ("deck", List.map to_alco [ prop_deck_roundtrip ]);
      ("macro", List.map to_alco [ prop_macro_matches_reference ]) ]
