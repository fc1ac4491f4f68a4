(* The traced run: per-layer numbers.

   Two parts.  Layer probes call each layer's public entry point directly
   and time it (the analog solvers, staging and search, the pool,
   encoding and persistence, the wire codec).  Replays re-run the
   workload's seeded stream in this process with a span around every
   layer call, so each layer's self time is measured where the request
   spends it and whatever no span covers shows up as unattributed.  The
   same stream is then replayed untraced; the difference is the
   tracing overhead.  Every traced run also drives a serve session, whose
   server-side numbers come from the daemon's public [stats] endpoint.

   The spans are written as Chrome trace-event JSON (Perfetto loads it)
   to .perfbench/trace-<workload>-<seed>.json. *)

open Perfbench_lib

let now = Obs.Clock.now
let m = E2e.m

(* The ROADMAP rule: spans must account for at least 95% of request time. *)
let max_unattributed = 0.05

let timed f =
  let t0 = now () in
  let v = f () in
  (now () -. t0, v)

(* Median wall time of [reps] calls. *)
let median_time reps f = Stats.median (List.init reps (fun _ -> fst (timed f)))

(* Wall time and allocation (mega-words) of one call, on this domain. *)
let alloc_timed f =
  let a0 = Gc.allocated_bytes () in
  let t, v = timed f in
  (t, (Gc.allocated_bytes () -. a0) /. 8e6, v)

(* What a fresh process starts with: empty memos and staging caches, no
   disk tier. *)
let cold_process () =
  Persist.Cache.set_dir None;
  Runtime.Memo.reset_all ();
  Array_model.Array_eval.reset_staging ()

let flavor = Finfet.Library.Hvt
let vdd = Finfet.Tech.vdd_nominal

(* ---- analog: opt.Yield, array_model.Periphery and what they call ------- *)

let analog_probes () =
  let yield_runs =
    List.init 3 (fun _ ->
        cold_process ();
        alloc_timed (fun () -> Opt.Yield.solve ~flavor ()))
  in
  let periphery_runs =
    List.init 3 (fun _ ->
        alloc_timed (fun () ->
            Array_model.Periphery.characterize ~lib:(Lazy.force Finfet.Library.default)
              ~cell_flavor:flavor ()))
  in
  let med f xs = Stats.median (List.map f xs) in
  let t (x, _, _) = x and a (_, x, _) = x in
  let lib = Lazy.force Finfet.Library.default in
  let cell =
    Finfet.Variation.nominal_cell ~nfet:(Finfet.Library.nfet lib flavor)
      ~pfet:(Finfet.Library.pfet lib flavor)
  in
  let netlist, _ = Sram_cell.Sram6t.build ~cell (Sram_cell.Sram6t.read ()) in
  let dc = Spice.Dc.operating_point netlist in
  [ m "opt.yield_solve_ms" (1e3 *. med t yield_runs) "ms";
    m "opt.yield_alloc_mw" (med a yield_runs) "Mword";
    m "sram_cell.read_snm_ms"
      (1e3 *. median_time 5 (fun () ->
           Sram_cell.Margins.read_snm ~points:81 ~cell (Sram_cell.Sram6t.read ~vddc:vdd ())))
      "ms";
    m "sram_cell.min_flip_vwl_ms"
      (1e3 *. median_time 5 (fun () ->
           Sram_cell.Margins.minimum_flipping_vwl ~cell (Sram_cell.Sram6t.write0 ())))
      "ms";
    m "sram_cell.hold_snm_ms"
      (1e3 *. median_time 5 (fun () -> Sram_cell.Margins.hold_snm ~points:81 ~cell vdd))
      "ms";
    m "sram_cell.write_delay_ms"
      (1e3 *. median_time 5 (fun () ->
           Sram_cell.Dynamics.write_delay ~cell (Sram_cell.Sram6t.write0 ~vwl:0.54 ())))
      "ms";
    m "spice.dc_op_us" (1e6 *. median_time 51 (fun () -> Spice.Dc.operating_point netlist)) "us";
    m "spice.newton_iters" (float_of_int dc.Spice.Dc.iterations) "count";
    m "array_model.periphery_ms" (1e3 *. med t periphery_runs) "ms";
    m "array_model.periphery_alloc_mw" (med a periphery_runs) "Mword" ]

(* ---- search: array_model.Array_eval, opt.Strategy / Exhaustive / Explain *)

let search_probes () =
  let accounting = Array_model.Array_eval.Paper_strict in
  let capacity_bits = 16384 * 8 and method_ = Opt.Space.M2 in
  let make_env () = Array_model.Array_eval.make_env ~accounting ~cell_flavor:flavor () in
  let env = make_env () in
  let search ctx () =
    Opt.Strategy.run Opt.Strategy.Exhaustive ~env ~stage_ctx:ctx ~capacity_bits ~method_ ()
  in
  let runs =
    List.init 5 (fun _ ->
        let ctx = Array_model.Array_eval.make_ctx env in
        let cold_s, alloc, r = alloc_timed (search ctx) in
        let warm_s, _ = timed (search ctx) in
        (cold_s, alloc, warm_s, r))
  in
  let med f = Stats.median (List.map f runs) in
  let _, _, _, r = List.hd runs in
  let warm = med (fun (_, _, w, _) -> w) in
  let considered = float_of_int r.Opt.Exhaustive.considered in
  let key = Stream.key ~cap_bytes:16384 ~flavor:Stream.Hvt ~method_:Stream.M2 ~accounting:Stream.Strict () in
  let explain () =
    let o = Reference.optimize key in
    let res = o.Sram_edp.Framework.result in
    let winner = res.Opt.Exhaustive.best in
    let env =
      Array_model.Array_eval.ctx_env (Sram_edp.Framework.stage_ctx_for ~flavor ~accounting)
    in
    let at =
      Array_model.Array_eval.attribute env winner.Opt.Exhaustive.geometry
        winner.Opt.Exhaustive.assist
    in
    let sens = Opt.Explain.sensitivity ~env ~pins:res.Opt.Exhaustive.pins ~winner () in
    Sram_edp.Json_out.to_string
      (Sram_edp.Json_out.Obj
         [ ("attribution", Sram_edp.Json_out.of_attribution at);
           ("sensitivity", Sram_edp.Json_out.of_sensitivity sens) ])
  in
  ignore (explain ());
  [ m "array_model.make_env_ms" (1e3 *. median_time 5 make_env) "ms";
    m "opt.search_cold_ms" (1e3 *. med (fun (c, _, _, _) -> c)) "ms";
    m "opt.search_warm_ms" (1e3 *. warm) "ms";
    m "opt.points_per_s" (considered /. warm) "1/s";
    m "opt.evaluated_share" (float_of_int r.Opt.Exhaustive.evaluated /. considered) "ratio";
    m "opt.search_alloc_mw" (med (fun (_, a, _, _) -> a)) "Mword";
    m "opt.explain_ms" (1e3 *. median_time 5 explain) "ms" ]

(* ---- parallelism: runtime.Pool over the 20 Table-4 searches ------------ *)

let table4_searches pool =
  let levels f = Opt.Yield.solve ~flavor:f () in
  let env f = Array_model.Array_eval.make_env ~cell_flavor:f () in
  let lvt = (env Finfet.Library.Lvt, levels Finfet.Library.Lvt)
  and hvt = (env Finfet.Library.Hvt, levels Finfet.Library.Hvt) in
  Array_model.Array_eval.reset_staging ();
  List.concat_map
    (fun capacity_bits ->
      List.map
        (fun (c : Sram_edp.Framework.config) ->
          let env, levels =
            if c.Sram_edp.Framework.flavor = Finfet.Library.Lvt then lvt else hvt
          in
          Opt.Exhaustive.search ~pool ~levels ~env ~capacity_bits
            ~method_:c.Sram_edp.Framework.method_ ())
        Sram_edp.Framework.all_configs)
    Sram_edp.Framework.paper_capacities

(* Returns the metrics and whether every sweep reproduced the pinned
   checksum. *)
let pool_probes ~nproc =
  let sweep jobs =
    let pool = Runtime.Pool.create ~jobs () in
    let gc0 = (Gc.quick_stat ()).Gc.minor_collections in
    let t, results = timed (fun () -> table4_searches pool) in
    let gcs = (Gc.quick_stat ()).Gc.minor_collections - gc0 in
    Runtime.Pool.shutdown pool;
    (t, gcs, Reference.tamper (Opt.Exhaustive.checksum results) = Reference.sweep_checksum)
  in
  let runs jobs = List.init 3 (fun _ -> sweep jobs) in
  let serial = runs 1 and par = runs nproc in
  let med f xs = Stats.median (List.map f xs) in
  let t (x, _, _) = x and g (_, x, _) = float_of_int x in
  let ok = List.for_all (fun (_, _, ok) -> ok) (serial @ par) in
  ( [ m "runtime.pool_speedup" (med t serial /. med t par) "ratio";
      m "runtime.sweep_minor_gcs" (med g par) "count" ],
    ok )

(* ---- encoding and persistence: core.Json_out, persist.Cache, bin ------- *)

(* The object [sram_opt optimize --json] prints. *)
let cli_json (o : Sram_edp.Framework.optimized) =
  let module J = Sram_edp.Json_out in
  let g = Sram_edp.Framework.geometry o and a = Sram_edp.Framework.assist o in
  J.to_string_pretty
    (J.Obj
       [ ("capacity_bits", J.Int o.Sram_edp.Framework.capacity_bits);
         ("config", J.String (Sram_edp.Framework.config_name o.Sram_edp.Framework.config));
         ("strategy", J.String (Opt.Strategy.name Opt.Strategy.Exhaustive));
         ("nr", J.Int g.Array_model.Geometry.nr);
         ("nc", J.Int g.Array_model.Geometry.nc);
         ("n_pre", J.Int g.Array_model.Geometry.n_pre);
         ("n_wr", J.Int g.Array_model.Geometry.n_wr);
         ("vddc_v", J.Float a.Array_model.Components.vddc);
         ("vssc_v", J.Float a.Array_model.Components.vssc);
         ("vwl_v", J.Float a.Array_model.Components.vwl);
         ("metrics", J.of_metrics (Sram_edp.Framework.metrics o));
         ("checksum", J.String (Opt.Exhaustive.checksum [ o.Sram_edp.Framework.result ])) ])

let sweep_json () =
  let module J = Sram_edp.Json_out in
  let designs = J.design_table_json () in
  let headline = J.of_headline (Sram_edp.Framework.headline ()) in
  J.to_string_pretty (J.Obj [ ("designs", designs); ("headline", headline) ])

(* Write the cached-class keys of [plan] into [dir] through the disk tier,
   as a filling CLI process would. *)
let fill_in_process ~dir (plan : Stream.cli_plan) =
  cold_process ();
  Persist.Cache.set_dir (Some dir);
  Array.iter (fun k -> ignore (Reference.optimize k)) plan.Stream.cached;
  cold_process ()

let encoding_probes c =
  let key = Stream.key ~cap_bytes:16384 ~flavor:Stream.Hvt ~method_:Stream.M2 ~accounting:Stream.Strict () in
  let dir = Filename.concat c.E2e.work "probe-cache" in
  fill_in_process ~dir (Stream.cli_plan ~seed:c.E2e.seed);
  let o = Reference.optimize key in
  ignore (sweep_json ());
  let load () =
    let t, () = timed (fun () -> Persist.Cache.set_dir (Some dir)) in
    Persist.Cache.set_dir None;
    t
  in
  [ m "core.result_json_us" (1e6 *. median_time 201 (fun () -> cli_json o)) "us";
    m "core.sweep_json_ms" (1e3 *. median_time 11 sweep_json) "ms";
    m "core.framework_hit_us" (1e6 *. median_time 1001 (fun () -> Reference.optimize key)) "us";
    m "persist.cache_load_ms" (1e3 *. Stats.median (List.init 5 (fun _ -> load ()))) "ms";
    m "bin.process_start_ms"
      (1e3 *. median_time 21 (fun () -> Child.run c.E2e.bin [ "--version" ]))
      "ms" ]

(* ---- serve: Protocol / Persist.Json / Frame codec ---------------------- *)

(* One optimize request and its answer through the client-side codec
   path and back: JSON encode, frame over a pipe, unframe, decode. *)
let codec_probe () =
  let key = Stream.key ~cap_bytes:4096 ~flavor:Stream.Hvt ~method_:Stream.M2 ~accounting:Stream.Strict () in
  let result = (Reference.optimize key).Sram_edp.Framework.result in
  let answer =
    Persist.Json.Obj
      [ ("capacity_bits", Persist.Json.Int (4096 * 8));
        ("config", Persist.Json.String "6T-HVT-M2");
        ("strategy", Persist.Json.String "exhaustive");
        ("checksum", Persist.Json.String (Opt.Exhaustive.checksum [ result ]));
        ("eval_s", Persist.Json.Float 1e-5);
        ("result", Opt.Exhaustive.result_to_json result) ]
  in
  let req =
    { Serve.Protocol.id = 1; deadline_ms = None; trace_id = Some "t-1";
      endpoint = Serve.Protocol.Optimize (Reference.query key) }
  in
  let resp = { Serve.Protocol.rid = 1; rtrace_id = Some "t-1"; body = Ok answer } in
  let r, w = Unix.pipe ~cloexec:true () in
  let through to_json of_json v =
    Serve.Frame.write w (Persist.Json.to_string (to_json v));
    match Serve.Frame.read r with
    | Ok s -> (
      match Persist.Json.of_string s with
      | Ok j -> (match of_json j with Ok _ -> () | Error e -> failwith e)
      | Error e -> failwith e)
    | Error e -> failwith (Serve.Frame.error_to_string e)
  in
  let t =
    median_time 201 (fun () ->
        through Serve.Protocol.request_to_json Serve.Protocol.request_of_json req;
        through Serve.Protocol.response_to_json Serve.Protocol.response_of_json resp)
  in
  Unix.close r;
  Unix.close w;
  m "serve.codec_us" (1e6 *. t) "us"

(* ---- replays ----------------------------------------------------------- *)

type replay = {
  traced_s : float;     (* summed request time with spans on *)
  untraced_s : float;   (* the same requests with spans off *)
  spans : Span.span list;
  ok : bool;            (* every answer matched the reference *)
}

(* A layer-call wrapper, polymorphic in the call's result. *)
type spanner = { span : 'a. string -> (unit -> 'a) -> 'a }

(* [f i s] runs request [i], wrapping each layer call in [s.span].
   Each request runs twice, traced and untraced, alternating which goes
   first, until [seconds] have passed. *)
let replay ~seconds f =
  let recorder = Span.create ~clock:now () in
  let traced i =
    Span.within recorder ~req:i "request" (fun root ->
        f i
          { span =
              (fun name g -> Span.within recorder ~parent:root ~req:i name (fun _ -> g ())) })
  in
  let untraced i = f i { span = (fun _ g -> g ()) } in
  let t0 = now () in
  let rec go i tr un ok =
    if i > 0 && now () -. t0 >= seconds then
      { traced_s = tr; untraced_s = un; spans = Span.spans recorder; ok }
    else begin
      let run g = timed (fun () -> g i) in
      let (t, a), (u, b) =
        if i mod 2 = 0 then
          let x = run traced in
          (x, run untraced)
        else
          let y = run untraced in
          (run traced, y)
      in
      go (i + 1) (tr +. t) (un +. u) (ok && a && b)
    end
  in
  go 0 0.0 0.0 true

let cli_replay c ~seconds =
  let plan = Stream.cli_plan ~seed:c.E2e.seed in
  let _, (dir, fills) = E2e.fill_cache ~reps:1 c plan in
  (* References first: the replay empties the framework memo per request. *)
  Array.iter (fun k -> ignore (Reference.checksum k)) (Array.append plan.Stream.cold plan.Stream.cached);
  let fills_ok = Array.for_all (fun (k, o) -> E2e.answer_ok k o) fills in
  let request i { span } =
    let cls, k = Stream.cli_request plan i in
    cold_process ();
    span "bin.process_start" (fun () -> ignore (Child.run c.E2e.bin [ "--version" ]));
    (match cls with
     | Stream.Cold ->
       let flavor = Reference.flavor k.Stream.flavor in
       span "opt.yield_solve" (fun () -> ignore (Opt.Yield.solve ~flavor ()));
       span "array_model.periphery" (fun () ->
           ignore (Array_model.Periphery.shared ~cell_flavor:flavor));
       span "array_model.make_env" (fun () ->
           ignore
             (Sram_edp.Framework.stage_ctx_for ~flavor
                ~accounting:(Reference.accounting k.Stream.accounting)))
     | Stream.Cached ->
       span "persist.cache_load" (fun () -> Persist.Cache.set_dir (Some dir)));
    let o = span "core.framework" (fun () -> Reference.optimize k) in
    let out = span "core.result_json" (fun () -> cli_json o) in
    E2e.field_checksum out = Some (Reference.checksum k)
  in
  let r = replay ~seconds request in
  cold_process ();
  { r with ok = r.ok && fills_ok }

let sweep_replay c ~seconds =
  ignore (Lazy.force Reference.sweep_rows);
  let request i { span } =
    let jobs = Stream.sweep_jobs ~seed:c.E2e.seed ~nproc:c.E2e.nproc i in
    cold_process ();
    span "bin.process_start" (fun () -> ignore (Child.run c.E2e.bin [ "--version" ]));
    span "runtime.pool_start" (fun () -> Runtime.Pool.set_default_jobs jobs);
    List.iter
      (fun flavor ->
        span "opt.yield_solve" (fun () -> ignore (Opt.Yield.solve ~flavor ()));
        span "array_model.periphery" (fun () ->
            ignore (Array_model.Periphery.shared ~cell_flavor:flavor));
        span "array_model.make_env" (fun () ->
            ignore
              (Sram_edp.Framework.stage_ctx_for ~flavor
                 ~accounting:Array_model.Array_eval.Paper_strict)))
      [ Finfet.Library.Lvt; Finfet.Library.Hvt ];
    let results =
      span "core.framework" (fun () ->
          Sram_edp.Framework.sweep_capacities ~capacities:Sram_edp.Framework.paper_capacities
            ~configs:Sram_edp.Framework.all_configs ())
    in
    let out = span "core.sweep_json" sweep_json in
    Reference.tamper (Opt.Exhaustive.checksum (List.map (fun o -> o.Sram_edp.Framework.result) results))
    = Reference.sweep_checksum
    && Reference.sweep_matches out
  in
  let r = replay ~seconds request in
  Runtime.Pool.set_default_jobs 1;
  cold_process ();
  r

let stats d =
  match Serve.Client.connect ~socket_path:d.E2e.socket () with
  | Error e -> failwith e
  | Ok cl ->
    let s = Serve.Client.stats cl in
    Serve.Client.close cl;
    (match s with Ok j -> j | Error e -> failwith e)

(* The entry called [name] of the [list] array in a stats payload. *)
let named list name j =
  Option.bind (Option.bind (Persist.Json.member list j) Persist.Json.to_list)
    (List.find_opt (fun x -> Persist.Json.string_field x "name" = Some name))

let counter name j =
  Option.bind (Persist.Json.member "telemetry" j) (Persist.Json.member "counters")
  |> Fun.flip Option.bind (Persist.Json.member name)
  |> Fun.flip Option.bind Persist.Json.to_int
  |> Option.value ~default:0

(* Serve sessions: a fresh daemon per session, warmed up, then a
   serve-mix stream ([limit] requests of it at most), once with a span
   around each request and once without. *)
let serve_session c ~limit =
  let conns = c.E2e.nproc in
  let stream = Stream.serve_pass ~seed:c.E2e.seed ~pass:0 ~conns in
  let stream = Array.sub stream 0 (min limit (Array.length stream)) in
  let session ?around name =
    fst
      (E2e.with_daemon c ~name (fun d warm ->
           let before = stats d in
           let served, _ = E2e.closed_loop ?around ~conns d stream in
           (warm, before, served, stats d)))
  in
  let recorder = Span.create ~clock:now () in
  let around ~track ~req _ f =
    Span.within recorder ~track ~req "request" (fun root ->
        Span.within recorder ~parent:root ~track ~req "serve.client" (fun _ -> f ()))
  in
  let warm, before, traced, after = session ~around "traced" in
  let warm', _, untraced, _ = session "untraced" in
  let sum xs = List.fold_left (fun a s -> a +. s.E2e.latency_s) 0.0 xs in
  let ok = List.for_all E2e.reply_ok (warm @ traced @ warm' @ untraced) in
  let memo field j =
    Option.value ~default:0
      (Option.bind (named "memos" "framework.optimize" j) (fun x -> Persist.Json.int_field x field))
  in
  let hits = memo "hits" after - memo "hits" before
  and misses = memo "misses" after - memo "misses" before in
  (* Its mean, not its p50: with two connections about half the requests
     wait behind the other one's search, so the p50 flips between ~0 and
     a search's length. *)
  let queue_wait =
    Option.bind (named "histograms" "serve.queue_wait" after) (fun x ->
        Persist.Json.float_field x "mean_s")
    |> Option.value ~default:nan
  in
  (* Staging lookups: every candidate geometry of every new-key search. *)
  let staged =
    List.fold_left
      (fun a s ->
        match s.E2e.req with
        | Stream.New k ->
          a
          + List.length
              (Opt.Space.candidate_geometries ~w:k.Stream.w Opt.Space.default
                 ~capacity_bits:(k.Stream.cap_bytes * 8))
        | _ -> a)
      0 traced
  in
  let stage_misses = counter "array_eval.stage" after - counter "array_eval.stage" before in
  let repeats =
    List.filter_map
      (fun s ->
        match (s.E2e.req, s.E2e.reply) with
        | Stream.Repeat _, E2e.Answer a -> Some (s.E2e.latency_s, a.Serve.Client.eval_s)
        | _ -> None)
      traced
  in
  let metrics =
    [ m "serve.handle_p50_us" (1e6 *. Stats.median (List.map snd repeats)) "us";
      m "serve.wire_p50_us" (1e6 *. Stats.median (List.map (fun (l, e) -> l -. e) repeats)) "us";
      m "serve.queue_wait_mean_us" (1e6 *. queue_wait) "us";
      codec_probe ();
      m "serve.memo_hit_ratio" (float_of_int hits /. float_of_int (max 1 (hits + misses))) "ratio";
      m "serve.staging_hit_ratio"
        (1.0 -. (float_of_int stage_misses /. float_of_int (max 1 staged)))
        "ratio" ]
  in
  ( metrics,
    { traced_s = sum traced; untraced_s = sum untraced; spans = Span.spans recorder; ok } )

(* ---- the traced run ---------------------------------------------------- *)

let run (c : E2e.ctx) workload =
  let seconds = c.E2e.seconds /. 2.0 in
  let serve_metrics, serve = serve_session c ~limit:(if workload = "serve_mix" then max_int else 1000) in
  let main =
    match workload with
    | "cli_optimize" -> cli_replay c ~seconds
    | "table4_sweep" -> sweep_replay c ~seconds
    | _ -> serve
  in
  let analog = analog_probes () in
  let search = search_probes () in
  let pool, pool_ok = pool_probes ~nproc:c.E2e.nproc in
  let encoding = encoding_probes c in
  let unattributed = Span.unattributed_share ~root:"request" main.spans in
  let overhead = (main.traced_s -. main.untraced_s) /. main.untraced_s in
  let path =
    Filename.concat (Filename.dirname c.E2e.work)
      (Printf.sprintf "trace-%s-%d.json" workload c.E2e.seed)
  in
  let oc = open_out path in
  output_string oc (Span.to_chrome main.spans);
  close_out oc;
  Printf.printf "trace written to %s\n" path;
  let layers =
    List.map
      (fun (name, n, self) -> m ("self." ^ name) (1e3 *. self /. float_of_int n) "ms/call")
      (Span.self_by_name main.spans)
  in
  let checks =
    [ main.ok; serve.ok; pool_ok; unattributed <= max_unattributed ]
  in
  { E2e.metrics =
      analog @ search @ pool @ encoding @ serve_metrics
      @ [ m "trace.unattributed_share" unattributed "ratio";
          m "trace.overhead_share" overhead "ratio" ];
    details = layers;
    attempted = List.length checks;
    failed = List.length (List.filter not checks) }
