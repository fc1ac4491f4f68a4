(* Golden-file content generation, shared by the regression tests
   (test_golden.ml, which diffs against the files under test/golden)
   and the regenerator (regen_golden.ml, `make regen-golden`).  Everything here
   must be bit-stable run to run: the searches are deterministic at any
   job count and Persist.Json prints floats with enough digits to
   round-trip, so a golden diff means the model output changed, not
   that the harness wobbled. *)

open Sram_edp

(* Reduced space keeps regeneration and `dune runtest` fast while still
   exercising the staged kernel, yield pinning and both methods; the
   full-space Table 4 lives in the bench harness, not the goldens. *)
let capacities = [ 128 * 8; 1024 * 8; 4 * 1024 * 8 ]

let designs =
  lazy
    (Framework.sweep_capacities ~space:Opt.Space.reduced ~capacities
       ~configs:Framework.all_configs ())

let rows =
  lazy
    (List.map
       (fun (o : Framework.optimized) ->
         let g = Framework.geometry o in
         let a = Framework.assist o in
         let m = Framework.metrics o in
         { Experiments.capacity_bits = o.Framework.capacity_bits;
           config = o.Framework.config;
           nr = g.Array_model.Geometry.nr;
           nc = g.Array_model.Geometry.nc;
           n_pre = g.Array_model.Geometry.n_pre;
           n_wr = g.Array_model.Geometry.n_wr;
           vddc = a.Array_model.Components.vddc;
           vssc = a.Array_model.Components.vssc;
           vwl = a.Array_model.Components.vwl;
           d_array = m.Array_model.Array_eval.d_array;
           e_total = m.Array_model.Array_eval.e_total;
           edp = m.Array_model.Array_eval.edp;
           d_bl_read = m.Array_model.Array_eval.d_bl_read })
       (Lazy.force designs))

let table4_json () =
  Json_out.to_string_pretty
    (Json_out.List (List.map Json_out.of_design_row (Lazy.force rows)))
  ^ "\n"

let report_text () =
  let table =
    Report.create
      ~columns:
        [ "M"; "SRAM"; "n_r"; "n_c"; "N_pre"; "N_wr"; "V_DDC"; "V_SSC"; "V_WL" ]
  in
  let last_capacity = ref 0 in
  List.iter
    (fun (r : Experiments.design_row) ->
      if !last_capacity <> 0 && r.Experiments.capacity_bits <> !last_capacity
      then Report.add_separator table;
      last_capacity := r.Experiments.capacity_bits;
      Report.add_row table
        [ Units.capacity r.Experiments.capacity_bits;
          Framework.config_name r.Experiments.config;
          string_of_int r.Experiments.nr;
          string_of_int r.Experiments.nc;
          string_of_int r.Experiments.n_pre;
          string_of_int r.Experiments.n_wr;
          Units.mv r.Experiments.vddc;
          Units.mv r.Experiments.vssc;
          Units.mv r.Experiments.vwl ])
    (Lazy.force rows);
  Report.to_string table

let datasheet_text () =
  let pick =
    List.find
      (fun (o : Framework.optimized) ->
        o.Framework.capacity_bits = 1024 * 8
        && o.Framework.config.Framework.flavor = Finfet.Library.Hvt
        && o.Framework.config.Framework.method_ = Opt.Space.M2)
      (Lazy.force designs)
  in
  Datasheet.to_string (Datasheet.build pick)

(* ----- stats endpoint schema ----- *)

(* The `stats` payload carries timings, so its VALUES are not golden —
   its SHAPE is.  Every scalar is collapsed to its type name and every
   list to its first element, giving a schema tree that is bit-stable
   while pinning the key set and nesting documented in DESIGN.md §7:
   a golden diff here means a client-visible schema change. *)
let rec schema_of = function
  | Json_out.Null -> Json_out.String "null"
  | Json_out.Bool _ -> Json_out.String "bool"
  | Json_out.Int _ -> Json_out.String "int"
  | Json_out.Float _ -> Json_out.String "float"
  | Json_out.String _ -> Json_out.String "string"
  | Json_out.List [] -> Json_out.List []
  | Json_out.List (x :: _) -> Json_out.List [ schema_of x ]
  | Json_out.Obj fields ->
    Json_out.Obj (List.map (fun (k, v) -> (k, schema_of v)) fields)

(* Synthesize the full serving state a live daemon would have —
   windowed request histograms, SLO counters, serve.* telemetry — so
   the schema covers every optional section ("windows", "server"), then
   reset so the synthetic state cannot leak into other goldens. *)
let stats_schema () =
  ignore (Lazy.force designs);  (* memo caches registered and warm *)
  Runtime.Telemetry.reset ();
  Obs.Histogram.reset_all ();
  Obs.Window.reset_all ();
  let slo =
    [ "serve.requests"; "serve.responses"; "serve.errors";
      "serve.deadline_expired"; "serve.rejected_busy"; "serve.bad_request";
      "serve.bad_frame" ]
  in
  List.iteri
    (fun i name -> Runtime.Telemetry.add (Runtime.Telemetry.counter name) i)
    slo;
  List.iter
    (fun name ->
      let counter = Runtime.Telemetry.counter name in
      Obs.Window.track name (fun () -> Runtime.Telemetry.value counter))
    slo;
  List.iter
    (fun name ->
      let h = Obs.Histogram.create name in
      List.iter (Obs.Histogram.observe h) [ 1e-5; 2e-4; 3e-3 ];
      ignore (Obs.Window.create h))
    [ "serve.queue_wait"; "serve.handle.optimize"; "serve.e2e" ];
  Obs.Window.rotate_all ();
  let text =
    Json_out.to_string_pretty (schema_of (Json_out.runtime_stats_json ()))
    ^ "\n"
  in
  Runtime.Telemetry.reset ();
  Obs.Histogram.reset_all ();
  Obs.Window.reset_all ();
  text

(* ----- result schema ----- *)

(* The result JSON a client sees (the serve payloads and the checkpoint
   journal both embed it) is pinned by SHAPE, same collapse as the
   stats schema, under the engine's name. *)
let strategies_schema () =
  let env = Array_model.Array_eval.make_env ~cell_flavor:Finfet.Library.Hvt () in
  let result =
    Opt.Exhaustive.search ~space:Opt.Space.reduced ~env
      ~capacity_bits:(1024 * 8) ~method_:Opt.Space.M2 ()
  in
  Json_out.to_string_pretty
    (Json_out.Obj
       [ ("exhaustive", schema_of (Opt.Exhaustive.result_to_json result)) ])
  ^ "\n"

let files_memo =
  (* Sequenced lets: [stats_schema] mutates (then resets) global
     telemetry state, so it must not interleave with the sweep-backed
     generators.  The whole list is memoized so every golden test reads
     one generation. *)
  lazy
    (let table4 = table4_json () in
     let report = report_text () in
     let datasheet = datasheet_text () in
     let stats = stats_schema () in
     let strategies = strategies_schema () in
     [ ("table4.json", table4);
       ("report.txt", report);
       ("datasheet.txt", datasheet);
       ("stats.json", stats);
       ("strategies.json", strategies) ])

let files () = Lazy.force files_memo
