(* Tests of the optimization layer: yield-driven voltage pinning, the
   search space and M1/M2 policies, exhaustive search correctness (best
   really is the minimum) and Pareto extraction. *)

open Testutil

(* Pin probes and unconverged flip probes of one solve from empty memos
   (the disk tier is off in tests). *)
let cold_solve_counts ?corner flavor =
  let probes = Runtime.Telemetry.counter "yield.pin_probes"
  and unconverged = Runtime.Telemetry.counter "yield.flip_nonconverged" in
  Runtime.Memo.reset_all ();
  let p0 = Runtime.Telemetry.value probes
  and u0 = Runtime.Telemetry.value unconverged in
  ignore (Opt.Yield.solve ?corner ~flavor ());
  ( Runtime.Telemetry.value probes - p0,
    Runtime.Telemetry.value unconverged - u0 )

let yield_tests =
  [ case "a cold TT solve takes 11 grid probes, all converged" (fun () ->
        List.iter
          (fun flavor ->
            let name = Finfet.Library.flavor_to_string flavor in
            let probes, unconverged = cold_solve_counts flavor in
            Alcotest.(check int) (name ^ " probes") 11 probes;
            Alcotest.(check int) (name ^ " unconverged") 0 unconverged)
          [ Finfet.Library.Hvt; Finfet.Library.Lvt ]);
    case "HVT levels near the paper's 550 mV pins" (fun () ->
        let l = Opt.Yield.solve ~flavor:Finfet.Library.Hvt () in
        check_within "vddc" ~lo:0.50 ~hi:0.58 l.Opt.Yield.vddc_min;
        check_within "vwl" ~lo:0.51 ~hi:0.59 l.Opt.Yield.vwl_min;
        Alcotest.(check bool) "hold ok" true
          (l.Opt.Yield.hsnm_nominal >= Finfet.Tech.min_margin));
    case "LVT needs a deeper boost than HVT (paper ordering)" (fun () ->
        let lvt = Opt.Yield.solve ~flavor:Finfet.Library.Lvt () in
        let hvt = Opt.Yield.solve ~flavor:Finfet.Library.Hvt () in
        Alcotest.(check bool) "vddc order" true
          (lvt.Opt.Yield.vddc_min > hvt.Opt.Yield.vddc_min);
        Alcotest.(check bool) "vwl order" true
          (lvt.Opt.Yield.vwl_min < hvt.Opt.Yield.vwl_min));
    case "margins_ok accepts the solved pins and rejects weaker ones" (fun () ->
        let l = Opt.Yield.solve ~flavor:Finfet.Library.Hvt () in
        Alcotest.(check bool) "pins ok" true
          (Opt.Yield.margins_ok ~flavor:Finfet.Library.Hvt
             ~vddc:l.Opt.Yield.vddc_min ~vssc:0.0 ~vwl:l.Opt.Yield.vwl_min ());
        Alcotest.(check bool) "nominal fails" false
          (Opt.Yield.margins_ok ~flavor:Finfet.Library.Hvt ~vddc:0.45 ~vssc:0.0
             ~vwl:0.45 ()));
    case "SF corner demands a higher write level" (fun () ->
        let tt = Opt.Yield.solve ~flavor:Finfet.Library.Hvt () in
        let sf = Opt.Yield.solve ~corner:Finfet.Corners.SF ~flavor:Finfet.Library.Hvt () in
        Alcotest.(check bool) "vwl up" true
          (sf.Opt.Yield.vwl_min > tt.Opt.Yield.vwl_min +. 0.02));
    case "FS corner demands a deeper read boost" (fun () ->
        let tt = Opt.Yield.solve ~flavor:Finfet.Library.Hvt () in
        let fs = Opt.Yield.solve ~corner:Finfet.Corners.FS ~flavor:Finfet.Library.Hvt () in
        Alcotest.(check bool) "vddc up" true
          (fs.Opt.Yield.vddc_min > tt.Opt.Yield.vddc_min +. 0.01));
    case "heat raises the required read boost" (fun () ->
        let cold = Opt.Yield.solve ~flavor:Finfet.Library.Hvt () in
        let hot = Opt.Yield.solve ~celsius:125.0 ~flavor:Finfet.Library.Hvt () in
        Alcotest.(check bool) "vddc up hot" true
          (hot.Opt.Yield.vddc_min >= cold.Opt.Yield.vddc_min));
    case "rsnm_at repeats and meets the rule" (fun () ->
        let a = Opt.Yield.rsnm_at ~flavor:Finfet.Library.Hvt ~vddc:0.55 ~vssc:0.0 () in
        let b = Opt.Yield.rsnm_at ~flavor:Finfet.Library.Hvt ~vddc:0.55 ~vssc:0.0 () in
        Alcotest.(check int64) "bit-identical recomputation"
          (Int64.bits_of_float a) (Int64.bits_of_float b);
        Alcotest.(check bool) "meets rule at 550" true (a >= Finfet.Tech.min_margin));
    (* Tripwire for the open SF defect (ROADMAP item 1): near the flip
       point some write-0 DC solves do not converge and their reading is
       used anyway.  Once the flip probe continues from the last
       converged state, expect 0 here. *)
    case "HVT-SF solve still meets an unconverged flip probe" (fun () ->
        let _, unconverged =
          cold_solve_counts ~corner:Finfet.Corners.SF Finfet.Library.Hvt
        in
        Alcotest.(check bool) "unconverged >= 1" true (unconverged >= 1));
    case "no V_DDC level reads LVT at 125 C: typed No_level" (fun () ->
        match Opt.Yield.solve ~celsius:125.0 ~flavor:Finfet.Library.Lvt () with
        | _ -> Alcotest.fail "expected Opt.Yield.No_level"
        | exception Opt.Yield.No_level { flavor; corner; celsius; rule } ->
          Alcotest.(check bool) "flavor" true (flavor = Finfet.Library.Lvt);
          Alcotest.(check bool) "corner" true (corner = Finfet.Corners.TT);
          check_close "celsius" 125.0 celsius;
          Alcotest.(check bool) "rule" true (rule = Opt.Yield.Read_snm)) ]

(* Bit-for-bit pins of what the analog layer hands the optimizer.  The
   sweep checksum hashes EDP bits downstream of these, so a last-bit
   change in the DC solver, the SNM extraction or the write transient
   fails here first, by name, instead of as an opaque checksum change. *)
let analog_pin_case flavor ~vddc ~vwl ~hsnm ~delays ~read_op_iterations =
  case (Finfet.Library.flavor_to_string flavor ^ " yield pins, write delays and read OP are bit-exact")
    (fun () ->
      let l = Opt.Yield.solve ~flavor () in
      check_bits "vddc_min" vddc l.Opt.Yield.vddc_min;
      check_bits "vwl_min" vwl l.Opt.Yield.vwl_min;
      check_bits "hsnm_nominal" hsnm l.Opt.Yield.hsnm_nominal;
      let lib = Lazy.force Finfet.Library.default in
      let p = Array_model.Periphery.characterize ~lib ~cell_flavor:flavor () in
      let table = Numerics.Interp.Table1d.ys p.Array_model.Periphery.write_cell_delay in
      Alcotest.(check int) "delay table size" (Array.length delays) (Array.length table);
      Array.iteri (fun i d -> check_bits (Printf.sprintf "write delay %d" i) d table.(i)) delays;
      let cell =
        Finfet.Variation.nominal_cell ~nfet:(Finfet.Library.nfet lib flavor)
          ~pfet:(Finfet.Library.pfet lib flavor)
      in
      let netlist, _ = Sram_cell.Sram6t.build ~cell (Sram_cell.Sram6t.read ()) in
      let op = Spice.Dc.operating_point netlist in
      Alcotest.(check bool) "read OP converged" true op.Spice.Dc.converged;
      Alcotest.(check int) "read OP iterations" read_op_iterations op.Spice.Dc.iterations)

let analog_pin_tests =
  [ analog_pin_case Finfet.Library.Hvt ~vddc:0x1.147ae147ae148p-1
      ~vwl:0x1.199999999999ap-1 ~hsnm:0x1.97e3c16510d84p-3
      ~delays:
        [| 0x1.50663e95f3062p-38; 0x1.6ce9db9eda2a8p-39; 0x1.feb1bd5ac1bb9p-40;
           0x1.93cd141a21d22p-40; 0x1.56e9b80cf9f59p-40; 0x1.225f3718685fbp-40;
           0x1.f8a0efc2cbd0cp-41 |]
      ~read_op_iterations:7;
    analog_pin_case Finfet.Library.Lvt ~vddc:0x1.23d70a3d70a3ep-1
      ~vwl:0x1.051eb851eb852p-1 ~hsnm:0x1.936d62d8dfc42p-3
      ~delays:
        [| 0x1.1c20ed352b796p-39; 0x1.9f92401afc284p-40; 0x1.53e10a135bc07p-40;
           0x1.27f04e769f4c2p-40; 0x1.0bbc2d256dd15p-40; 0x1.e1ba0b6d780f2p-41;
           0x1.b732e0b4ce0ecp-41 |]
      ~read_op_iterations:6;
    case "spelled-out TT / 25 C shares the default solve's memo entry" (fun () ->
        Runtime.Memo.reset_all ();
        let explicit =
          Opt.Yield.solve ~corner:Finfet.Corners.TT
            ~celsius:Finfet.Thermal.t_ref_celsius ~flavor:Finfet.Library.Hvt ()
        in
        let default = Opt.Yield.solve ~flavor:Finfet.Library.Hvt () in
        Alcotest.(check bool) "same pins" true (explicit = default);
        match
          List.find_opt
            (fun (s : Runtime.Memo.stats) -> s.Runtime.Memo.name = "yield.solve")
            (Runtime.Memo.registered_stats ())
        with
        | None -> Alcotest.fail "yield.solve memo not registered"
        | Some s ->
          Alcotest.(check int) "misses" 1 s.Runtime.Memo.misses;
          Alcotest.(check int) "hits" 1 s.Runtime.Memo.hits) ]

let space_tests =
  [ case "default grids match the paper's ranges" (fun () ->
        let s = Opt.Space.default in
        Alcotest.(check int) "vssc" 25 (Array.length s.Opt.Space.vssc_values);
        Alcotest.(check int) "nr" 10 (Array.length s.Opt.Space.nr_values);
        Alcotest.(check int) "npre" 50 (Array.length s.Opt.Space.n_pre_values);
        Alcotest.(check int) "nwr" 20 (Array.length s.Opt.Space.n_wr_values);
        check_close "deepest vssc" (-0.240)
          s.Opt.Space.vssc_values.(24);
        Alcotest.(check int) "largest nr" 1024 s.Opt.Space.nr_values.(9));
    case "M1 shares one boosted level and forbids V_SSC" (fun () ->
        let levels = Opt.Yield.solve ~flavor:Finfet.Library.Lvt () in
        let pins = Opt.Space.pins_for Opt.Space.M1 levels in
        check_close "shared" (max levels.Opt.Yield.vddc_min levels.Opt.Yield.vwl_min)
          pins.Opt.Space.vddc;
        check_close "same" pins.Opt.Space.vddc pins.Opt.Space.vwl;
        Alcotest.(check bool) "no vssc" false pins.Opt.Space.vssc_allowed;
        Alcotest.(check int) "one extra level" 1 pins.Opt.Space.extra_levels);
    case "M2 separates distant levels (LVT) and merges close ones (HVT)" (fun () ->
        let lvt = Opt.Space.pins_for Opt.Space.M2 (Opt.Yield.solve ~flavor:Finfet.Library.Lvt ()) in
        Alcotest.(check bool) "lvt separate" true (lvt.Opt.Space.vddc <> lvt.Opt.Space.vwl);
        Alcotest.(check int) "three pins" 3 lvt.Opt.Space.extra_levels;
        let hvt = Opt.Space.pins_for Opt.Space.M2 (Opt.Yield.solve ~flavor:Finfet.Library.Hvt ()) in
        check_close "hvt merged" hvt.Opt.Space.vddc hvt.Opt.Space.vwl;
        Alcotest.(check int) "two pins" 2 hvt.Opt.Space.extra_levels);
    case "assist_of clamps V_SSC under M1" (fun () ->
        let levels = Opt.Yield.solve ~flavor:Finfet.Library.Hvt () in
        let m1 = Opt.Space.pins_for Opt.Space.M1 levels in
        let a = Opt.Space.assist_of m1 ~vssc:(-0.2) in
        check_close_abs "clamped" 0.0 a.Array_model.Components.vssc);
    case "candidate geometries keep both dimensions powers of two" (fun () ->
        let geoms =
          Opt.Space.candidate_geometries Opt.Space.reduced ~capacity_bits:(1024 * 8)
        in
        Alcotest.(check bool) "nonempty" true (geoms <> []);
        List.iter
          (fun g ->
            Alcotest.(check int) "capacity" (1024 * 8)
              (Array_model.Geometry.capacity_bits g))
          geoms);
    case "size counts the cross product" (fun () ->
        let s = Opt.Space.reduced in
        let geoms = List.length (Opt.Space.candidate_geometries s ~capacity_bits:(1024 * 8)) in
        Alcotest.(check int) "m2"
          (geoms * Array.length s.Opt.Space.vssc_values)
          (Opt.Space.size s ~capacity_bits:(1024 * 8) Opt.Space.M2);
        Alcotest.(check int) "m1" geoms
          (Opt.Space.size s ~capacity_bits:(1024 * 8) Opt.Space.M1)) ]

let env_hvt = Array_model.Array_eval.make_env ~cell_flavor:Finfet.Library.Hvt ()
let small_cap = 1024 * 8

let exhaustive_tests =
  [ case "best really is the minimum over all candidates" (fun () ->
        let result, all =
          Opt.Exhaustive.search_all ~space:Opt.Space.reduced ~env:env_hvt
            ~capacity_bits:small_cap ~method_:Opt.Space.M2 ()
        in
        Alcotest.(check int) "count matches" result.Opt.Exhaustive.evaluated
          (List.length all);
        List.iter
          (fun (c : Opt.Exhaustive.candidate) ->
            Alcotest.(check bool) "no better candidate" true
              (c.Opt.Exhaustive.score
               >= result.Opt.Exhaustive.best.Opt.Exhaustive.score -. 1e-30))
          all);
    case "search rejects non-power-of-two capacities" (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore
               (Opt.Exhaustive.search ~env:env_hvt ~capacity_bits:3000
                  ~method_:Opt.Space.M2 ());
             false
           with Invalid_argument _ -> true));
    case "M1 never uses a negative V_SSC" (fun () ->
        let r =
          Opt.Exhaustive.search ~space:Opt.Space.reduced ~env:env_hvt
            ~capacity_bits:small_cap ~method_:Opt.Space.M1 ()
        in
        check_close_abs "vssc" 0.0
          r.Opt.Exhaustive.best.Opt.Exhaustive.assist.Array_model.Components.vssc);
    case "M2 beats (or ties) M1 on the objective" (fun () ->
        let m1 =
          Opt.Exhaustive.search ~space:Opt.Space.reduced ~env:env_hvt
            ~capacity_bits:small_cap ~method_:Opt.Space.M1 ()
        in
        let m2 =
          Opt.Exhaustive.search ~space:Opt.Space.reduced ~env:env_hvt
            ~capacity_bits:small_cap ~method_:Opt.Space.M2 ()
        in
        Alcotest.(check bool) "m2 <= m1" true
          (m2.Opt.Exhaustive.best.Opt.Exhaustive.score
           <= m1.Opt.Exhaustive.best.Opt.Exhaustive.score +. 1e-30));
    case "delay-only objective is at least as fast as the EDP optimum" (fun () ->
        let edp =
          Opt.Exhaustive.search ~space:Opt.Space.reduced ~env:env_hvt
            ~capacity_bits:small_cap ~method_:Opt.Space.M2 ()
        in
        let fast =
          Opt.Exhaustive.search ~space:Opt.Space.reduced
            ~objective:Opt.Objective.Delay_only ~env:env_hvt
            ~capacity_bits:small_cap ~method_:Opt.Space.M2 ()
        in
        Alcotest.(check bool) "delay" true
          (fast.Opt.Exhaustive.best.Opt.Exhaustive.metrics.Array_model.Array_eval.d_array
           <= edp.Opt.Exhaustive.best.Opt.Exhaustive.metrics.Array_model.Array_eval.d_array
              +. 1e-30)) ]

let objective_tests =
  [ case "objective formulas" (fun () ->
        let r =
          Opt.Exhaustive.search ~space:Opt.Space.reduced ~env:env_hvt
            ~capacity_bits:small_cap ~method_:Opt.Space.M1 ()
        in
        let m = r.Opt.Exhaustive.best.Opt.Exhaustive.metrics in
        let e = m.Array_model.Array_eval.e_total in
        let d = m.Array_model.Array_eval.d_array in
        check_close "edp" (e *. d) (Opt.Objective.eval Opt.Objective.Energy_delay_product m);
        check_close "ed2" (e *. d *. d) (Opt.Objective.eval Opt.Objective.Energy_delay_squared m);
        check_close "e" e (Opt.Objective.eval Opt.Objective.Energy_only m);
        check_close "d" d (Opt.Objective.eval Opt.Objective.Delay_only m));
    case "objective names" (fun () ->
        Alcotest.(check string) "edp" "EDP" (Opt.Objective.name Opt.Objective.Energy_delay_product);
        Alcotest.(check int) "all four" 4 (List.length Opt.Objective.all)) ]

let pareto_tests =
  [ case "front members are mutually non-dominated" (fun () ->
        let _, all =
          Opt.Exhaustive.search_all ~space:Opt.Space.reduced ~env:env_hvt
            ~capacity_bits:small_cap ~method_:Opt.Space.M2 ()
        in
        let front = Opt.Pareto.front all in
        Alcotest.(check bool) "nonempty" true (front <> []);
        let d (c : Opt.Exhaustive.candidate) = c.Opt.Exhaustive.metrics.Array_model.Array_eval.d_array in
        let e (c : Opt.Exhaustive.candidate) = c.Opt.Exhaustive.metrics.Array_model.Array_eval.e_total in
        List.iter
          (fun a ->
            List.iter
              (fun b ->
                if a != b then
                  Alcotest.(check bool) "non-dominated" false
                    (d b <= d a && e b <= e a && (d b < d a || e b < e a)))
              front)
          front);
    case "front dominates every candidate" (fun () ->
        let _, all =
          Opt.Exhaustive.search_all ~space:Opt.Space.reduced ~env:env_hvt
            ~capacity_bits:small_cap ~method_:Opt.Space.M2 ()
        in
        let front = Opt.Pareto.front all in
        let d (c : Opt.Exhaustive.candidate) = c.Opt.Exhaustive.metrics.Array_model.Array_eval.d_array in
        let e (c : Opt.Exhaustive.candidate) = c.Opt.Exhaustive.metrics.Array_model.Array_eval.e_total in
        List.iter
          (fun c ->
            Alcotest.(check bool) "covered" true
              (List.exists
                 (fun f -> d f <= d c +. 1e-30 && e f <= e c +. 1e-30)
                 front))
          all);
    case "knee lies on the front" (fun () ->
        let _, all =
          Opt.Exhaustive.search_all ~space:Opt.Space.reduced ~env:env_hvt
            ~capacity_bits:small_cap ~method_:Opt.Space.M2 ()
        in
        match Opt.Pareto.knee all with
        | Some k ->
          Alcotest.(check bool) "member" true
            (List.exists (fun c -> c == k) (Opt.Pareto.front all))
        | None -> Alcotest.fail "no knee");
    case "empty input yields empty front and no knee" (fun () ->
        Alcotest.(check bool) "front" true (Opt.Pareto.front [] = []);
        Alcotest.(check bool) "knee" true (Opt.Pareto.knee [] = None)) ]

(* Pareto invariants as QCheck properties over synthetic candidates:
   the front logic only reads (d_array, e_total), so a dummy geometry
   and nominal rails let us drive it with arbitrary objective points
   instead of the handful a real search produces. *)
let synth_candidate (d, e) =
  { Opt.Exhaustive.geometry =
      Array_model.Geometry.create ~nr:16 ~nc:16 ~n_pre:1 ~n_wr:1 ();
    assist = Array_model.Components.no_assist;
    metrics =
      { Array_model.Array_eval.d_read = d; d_write = d; d_array = d;
        e_read = e; e_write = e; e_switching = e; e_leakage = 0.0;
        e_total = e; edp = d *. e; d_bl_read = d; d_row_path_read = 0.0;
        d_col_path = 0.0 };
    score = d *. e }

let points_arb =
  QCheck.(
    list_of_size (Gen.int_range 1 40)
      (pair (float_range 1e-3 1e3) (float_range 1e-3 1e3)))

let dm (c : Opt.Exhaustive.candidate) = c.Opt.Exhaustive.metrics.Array_model.Array_eval.d_array
let em (c : Opt.Exhaustive.candidate) = c.Opt.Exhaustive.metrics.Array_model.Array_eval.e_total
let dominates a b = dm a <= dm b && em a <= em b && (dm a < dm b || em a < em b)

let pareto_prop_tests =
  [ QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"front is mutually non-dominated" ~count:300
         points_arb (fun points ->
           let front = Opt.Pareto.front (List.map synth_candidate points) in
           front <> []
           && List.for_all
                (fun a -> List.for_all (fun b -> a == b || not (dominates b a)) front)
                front));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"every candidate is covered by the front" ~count:300
         points_arb (fun points ->
           let all = List.map synth_candidate points in
           let front = Opt.Pareto.front all in
           List.for_all
             (fun c ->
               List.exists (fun f -> dm f <= dm c && em f <= em c) front)
             all));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"front extraction is idempotent" ~count:300
         points_arb (fun points ->
           let front = Opt.Pareto.front (List.map synth_candidate points) in
           let again = Opt.Pareto.front front in
           List.length again = List.length front
           && List.for_all
                (fun f -> List.exists (fun g -> dm f = dm g && em f = em g) again)
                front));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"knee is a front member" ~count:300 points_arb
         (fun points ->
           let all = List.map synth_candidate points in
           match Opt.Pareto.knee all with
           | None -> false
           | Some k ->
             List.exists
               (fun f -> dm f = dm k && em f = em k)
               (Opt.Pareto.front all)));
  ]

let journal_tests =
  [ slow_case "journal is observation-only: winners bit-identical on/off"
      (fun () ->
        let fingerprint (r : Opt.Exhaustive.result) =
          let b = r.Opt.Exhaustive.best in
          let g = b.Opt.Exhaustive.geometry in
          Printf.sprintf "%d/%d/%d/%d %.17g %.17g" g.Array_model.Geometry.nr
            g.Array_model.Geometry.nc g.Array_model.Geometry.n_pre
            g.Array_model.Geometry.n_wr
            b.Opt.Exhaustive.assist.Array_model.Components.vssc
            b.Opt.Exhaustive.score
        in
        let search jobs =
          let pool = Runtime.Pool.create ~jobs () in
          Opt.Exhaustive.search ~space:Opt.Space.reduced ~pool ~env:env_hvt
            ~capacity_bits:small_cap ~method_:Opt.Space.M2 ()
        in
        List.iter
          (fun jobs ->
            Obs.Search.disarm ();
            let off = fingerprint (search jobs) in
            Obs.Search.arm ();
            Obs.Control.set_enabled true;
            let on = fingerprint (search jobs) in
            let s = Obs.Search.summary () in
            Obs.Control.set_enabled false;
            Obs.Search.disarm ();
            Alcotest.(check string)
              (Printf.sprintf "identical design at jobs=%d" jobs)
              off on;
            Alcotest.(check bool)
              (Printf.sprintf "journal saw the search at jobs=%d" jobs)
              true
              (s.Obs.Search.incumbents > 0 || s.Obs.Search.prunes > 0))
          [ 1; 2; 4 ];
        (* The armed run fed the bound-quality histogram; gaps are
           relative, so every observation is non-negative. *)
        match
          List.find_opt
            (fun (sn : Obs.Histogram.snapshot) ->
              sn.Obs.Histogram.name = "opt.bound_gap")
            (Obs.Histogram.snapshots ())
        with
        | None -> Alcotest.fail "opt.bound_gap histogram never registered"
        | Some sn ->
          Alcotest.(check bool) "bound gaps observed" true
            (sn.Obs.Histogram.count > 0);
          Alcotest.(check bool) "gaps non-negative" true
            (sn.Obs.Histogram.min_s >= 0.0)) ]

let explain_tests =
  let result =
    lazy
      (Opt.Exhaustive.search ~space:Opt.Space.reduced ~env:env_hvt
         ~capacity_bits:small_cap ~method_:Opt.Space.M2 ())
  in
  [ case "no grid neighbor of the exhaustive winner is better" (fun () ->
        let r = Lazy.force result in
        let axes =
          Opt.Explain.sensitivity ~space:Opt.Space.reduced ~env:env_hvt
            ~pins:r.Opt.Exhaustive.pins ~winner:r.Opt.Exhaustive.best ()
        in
        Alcotest.(check (list string))
          "axes in search order"
          [ "n_r"; "N_pre"; "N_wr"; "V_SSC" ]
          (List.map (fun a -> a.Opt.Explain.ax_name) axes);
        List.iter
          (fun (ax : Opt.Explain.axis) ->
            List.iter
              (function
                | None -> ()
                | Some (n : Opt.Explain.neighbor) ->
                  if n.Opt.Explain.nb_delta < 0.0 then
                    Alcotest.failf
                      "%s neighbor at %g beats the winner by %.3g%%"
                      ax.Opt.Explain.ax_name n.Opt.Explain.nb_value
                      (-100.0 *. n.Opt.Explain.nb_delta))
              [ ax.Opt.Explain.ax_minus; ax.Opt.Explain.ax_plus ])
          axes);
    case "energy rollup reproduces E_total" (fun () ->
        let r = Lazy.force result in
        let b = r.Opt.Exhaustive.best in
        let at =
          Array_model.Array_eval.attribute env_hvt b.Opt.Exhaustive.geometry
            b.Opt.Exhaustive.assist
        in
        Alcotest.(check bool) "terms refold bit-exactly" true
          (Array_model.Array_eval.attribution_consistent at);
        let rollup = Opt.Explain.energy_rollup at in
        let total = List.fold_left (fun acc (_, e) -> acc +. e) 0.0 rollup in
        check_close "weighted shares sum to the total"
          at.Array_model.Array_eval.at_metrics.Array_model.Array_eval.e_total
          total);
    slow_case "pareto provenance accounts for every candidate" (fun () ->
        let p =
          Opt.Explain.pareto ~space:Opt.Space.reduced ~env:env_hvt
            ~capacity_bits:small_cap ~method_:Opt.Space.M2 ()
        in
        Alcotest.(check int) "front + dominated = evaluated"
          p.Opt.Explain.pv_evaluated
          (List.length p.Opt.Explain.pv_front + p.Opt.Explain.pv_dominated);
        Alcotest.(check bool) "front nonempty" true
          (p.Opt.Explain.pv_front <> []);
        let best_front =
          List.fold_left
            (fun acc (c : Opt.Exhaustive.candidate) ->
              min acc c.Opt.Exhaustive.score)
            infinity p.Opt.Explain.pv_front
        in
        let r = Lazy.force result in
        (* The EDP winner is Pareto-optimal, so the front must contain
           a point with exactly the winning score. *)
        Alcotest.(check int64) "winner sits on the front"
          (Int64.bits_of_float r.Opt.Exhaustive.best.Opt.Exhaustive.score)
          (Int64.bits_of_float best_front)) ]

let array_yield_tests =
  let g = Array_model.Geometry.create ~nr:128 ~nc:256 ~n_pre:24 ~n_wr:2 () in
  [ case "zero cell failures give unit yield" (fun () ->
        check_close "one" 1.0 (Opt.Array_yield.array_yield ~geometry:g ~cell_fail:0.0 ()));
    case "yield falls with cell failure probability" (fun () ->
        let y p = Opt.Array_yield.array_yield ~geometry:g ~cell_fail:p () in
        check_decreasing ~strict:true "monotone" [| y 1e-8; y 1e-6; y 1e-4 |]);
    case "spare rows raise the yield" (fun () ->
        let at spare_rows =
          Opt.Array_yield.array_yield ~spare_rows ~geometry:g ~cell_fail:1e-5 ()
        in
        check_increasing ~strict:true "repair" [| at 0; at 1; at 4 |]);
    case "cell failure probability combines the three margins" (fun () ->
        let good = [| 0.2; 0.21; 0.19; 0.2; 0.22; 0.18 |] in
        let marginal = [| 0.02; 0.01; -0.01; 0.03; 0.0; 0.02 |] in
        let p_good =
          Opt.Array_yield.cell_failure_probability
            { Sram_cell.Montecarlo.hsnm = good; rsnm = good; wm = good }
        in
        let p_marginal =
          Opt.Array_yield.cell_failure_probability
            { Sram_cell.Montecarlo.hsnm = good; rsnm = marginal; wm = good }
        in
        Alcotest.(check bool) "ordering" true (p_good < 1e-6 && p_marginal > 0.1));
    case "yield-solved boost undercuts the 35% proxy rule" (fun () ->
        let cfg = { Opt.Yield_mc.default_config with Opt.Yield_mc.samples = 12 } in
        let s =
          Opt.Array_yield.solve_vddc ~config:cfg ~flavor:Finfet.Library.Hvt
            ~geometry:g ()
        in
        Alcotest.(check bool) "meets target" true
          (s.Opt.Array_yield.achieved_yield >= 0.99);
        let proxy = Opt.Yield.solve ~flavor:Finfet.Library.Hvt () in
        Alcotest.(check bool) "cheaper than proxy" true
          (s.Opt.Array_yield.vddc_min <= proxy.Opt.Yield.vddc_min)) ]

let () =
  Alcotest.run "opt"
    [ ("yield", yield_tests);
      ("analog_pins", analog_pin_tests);
      ("space", space_tests);
      ("exhaustive", exhaustive_tests);
      ("objective", objective_tests);
      ("pareto", pareto_tests);
      ("pareto_props", pareto_prop_tests);
      ("journal", journal_tests);
      ("explain", explain_tests);
      ("array_yield", array_yield_tests) ]
