(* The untraced runs: each workload drives the real [sram_opt] binary
   from this one process, times what a user would wait for, and checks
   every answer against the in-process reference.

   Every workload reports the same end-to-end metrics, each read on its
   own request classes (README.md has the table):

     metric               cli_optimize     table4_sweep       serve_mix
     primary_typical_ms   cold, iqm        --jobs 1, iqm      new key, mean
     primary_tail_ms      cold p90         --jobs 1, mean     new-key p90
                                           beyond p60
     secondary_typical_ms cached, iqm      --jobs nproc, iqm  repeat, mean
     throughput_per_s     processes        sweeps             answers
     peak_rss_mb          largest process  largest process    the daemon

   No typical request is a median.  A shared host can switch between a
   fast and a slow speed every second or so, and a median then jumps from
   one to the other as the share of slow time crosses one half.  The
   interquartile mean ([Stats.iqm]) moves smoothly with that share and
   drops the scheduling spikes of short processes.  serve_mix uses the
   plain mean: about a third of its requests wait behind a search on the
   other connection, a second mode by design, which an iqm would
   straddle.  The per-workload p50s and p90s stay in the printed
   summary. *)

open Perfbench_lib

let now = Obs.Clock.now

type metric = { name : string; value : float; unit_ : string }

type outcome = {
  metrics : metric list;  (* the end-to-end metrics, or the per-layer ones *)
  details : metric list;  (* named per workload, for the printed summary *)
  attempted : int;
  failed : int;
}

type ctx = {
  bin : string;     (* the sram_opt executable *)
  seed : int;
  seconds : float;
  nproc : int;
  work : string;    (* scratch directory of this run *)
}

let m name value unit_ = { name; value; unit_ }

let ms xs = List.map (fun s -> s *. 1e3) xs

let ok_exn = function Ok v -> v | Error e -> failwith e
let tail_exn ~p xs = ok_exn (Stats.tail ~p xs)

let need90 = Stats.samples_needed ~p:90.0

(* Mean of [reps] timed set-ups; the last one's value is kept. *)
let mean_setup reps f =
  let runs =
    List.init reps (fun i ->
        let t0 = now () in
        let v = f i in
        (now () -. t0, v))
  in
  (Stats.mean (List.map fst runs), snd (List.nth runs (reps - 1)))

let field_checksum out =
  match Persist.Json.of_string out with
  | Ok j -> Persist.Json.string_field j "checksum"
  | Error _ -> None

let answer_ok k (o : Child.outcome) =
  o.Child.code = 0 && field_checksum o.Child.out = Some (Reference.checksum k)

let generic ~typical ~setup ~primary ~primary_tail ~secondary ~throughput ~rss_kb =
  [ m "setup_s" setup "s";
    m "primary_typical_ms" (typical primary) "ms";
    m "primary_tail_ms" primary_tail "ms";
    m "secondary_typical_ms" (typical secondary) "ms";
    m "throughput_per_s" throughput "1/s";
    m "peak_rss_mb" (float_of_int rss_kb /. 1024.0) "MB" ]

let error_rate ~attempted ~failed =
  m "error_rate" (float_of_int failed /. float_of_int (max 1 attempted)) "ratio"

(* ---- cli_optimize ------------------------------------------------------ *)

let fill_reps = 3

(* Set-up: write the cached-class keys into a fresh --cache-dir, three
   times; the last directory serves the cached requests. *)
let fill_cache ?(reps = fill_reps) c (plan : Stream.cli_plan) =
  mean_setup reps (fun i ->
      let dir = Filename.concat c.work (Printf.sprintf "cache%d" i) in
      let outs =
        Array.map
          (fun k -> (k, Child.run c.bin (Reference.cli_args k @ [ "--cache-dir"; dir ])))
          plan.Stream.cached
      in
      (dir, outs))

let cli_optimize c =
  let plan = Stream.cli_plan ~seed:c.seed in
  let setup_s, (dir, fills) = fill_cache c plan in
  let t0 = now () in
  let rec loop i acc ncold =
    if now () -. t0 >= c.seconds && ncold >= need90 then (i, acc)
    else begin
      let cls, k = Stream.cli_request plan i in
      let args =
        match cls with
        | Stream.Cold -> Reference.cli_args k
        | Stream.Cached -> Reference.cli_args k @ [ "--cache-dir"; dir ]
      in
      let o = Child.run c.bin args in
      loop (i + 1) ((cls, k, o) :: acc) (if cls = Stream.Cold then ncold + 1 else ncold)
    end
  in
  let n, runs = loop 0 [] 0 in
  let elapsed = now () -. t0 in
  let wall cls =
    ms (List.filter_map (fun (c, _, o) -> if c = cls then Some o.Child.wall_s else None) runs)
  in
  let cold = wall Stream.Cold and cached = wall Stream.Cached in
  let checked = List.map (fun (_, k, o) -> (k, o)) runs @ Array.to_list fills in
  let failed = List.length (List.filter (fun (k, o) -> not (answer_ok k o)) checked) in
  let attempted = List.length checked in
  let rss_kb = List.fold_left (fun a (_, _, o) -> max a o.Child.rss_kb) 0 runs in
  { metrics =
      generic ~typical:Stats.iqm ~setup:setup_s ~primary:cold
        ~primary_tail:(tail_exn ~p:90.0 cold)
        ~secondary:cached ~throughput:(float_of_int n /. elapsed) ~rss_kb;
    details =
      [ m "cli_cold_p50_ms" (Stats.median cold) "ms";
        m "cli_cold_p90_ms" (tail_exn ~p:90.0 cold) "ms";
        m "cli_cached_p50_ms" (Stats.median cached) "ms";
        m "cli_cached_p90_ms" (tail_exn ~p:90.0 cached) "ms";
        m "cli_cold_iqr_share" (Stats.spread cold) "ratio";
        m "cli_cached_iqr_share" (Stats.spread cached) "ratio";
        m "cli_cold_samples" (float_of_int (List.length cold)) "count";
        m "cli_cached_samples" (float_of_int (List.length cached)) "count";
        error_rate ~attempted ~failed ];
    attempted;
    failed }

(* ---- table4_sweep ------------------------------------------------------ *)

let version_reps = 51

(* Twenty-five sweeps of each kind, the fewest that put ten beyond a p60:
   the sweep's tail is the mean of those ten or more slowest. *)
let sweeps_per_class = 25
let sweep_tail xs = ok_exn (Stats.tail_mean ~p:60.0 xs)

let table4_sweep c =
  let setup_s, _ =
    mean_setup version_reps (fun _ ->
        let o = Child.run c.bin [ "--version" ] in
        if o.Child.code <> 0 || o.Child.out = "" then failwith "sram_opt --version failed")
  in
  let t0 = now () in
  let rec loop i acc =
    let count j = List.length (List.filter (fun (jobs, _) -> jobs = j) acc) in
    if now () -. t0 >= c.seconds && count 1 >= sweeps_per_class
       && count c.nproc >= sweeps_per_class
    then
      (i, acc)
    else begin
      let jobs = Stream.sweep_jobs ~seed:c.seed ~nproc:c.nproc i in
      let o = Child.run c.bin [ "sweep"; "--json"; "--jobs"; string_of_int jobs ] in
      loop (i + 1) ((jobs, o) :: acc)
    end
  in
  let n, runs = loop 0 [] in
  let elapsed = now () -. t0 in
  let wall j = ms (List.filter_map (fun (jobs, o) -> if jobs = j then Some o.Child.wall_s else None) runs) in
  let par = wall c.nproc and serial = wall 1 in
  let failed =
    List.length
      (List.filter (fun (_, o) -> o.Child.code <> 0 || not (Reference.sweep_matches o.Child.out)) runs)
  in
  let rss_kb = List.fold_left (fun a (_, o) -> max a o.Child.rss_kb) 0 runs in
  { metrics =
      generic ~typical:Stats.iqm ~setup:setup_s ~primary:serial
        ~primary_tail:(sweep_tail serial) ~secondary:par ~throughput:(float_of_int n /. elapsed) ~rss_kb;
    details =
      [ m "sweep_s" (Stats.median par /. 1e3) "s";
        m "sweep_serial_s" (Stats.median serial /. 1e3) "s";
        m "sweep_iqr_share" (Stats.spread par) "ratio";
        m "sweep_serial_iqr_share" (Stats.spread serial) "ratio";
        m "sweep_jobs" (float_of_int c.nproc) "count";
        m "sweep_samples" (float_of_int n) "count";
        error_rate ~attempted:n ~failed ];
    attempted = n;
    failed }

(* ---- serve_mix --------------------------------------------------------- *)

type reply =
  | Answer of Serve.Client.answer
  | Explained of Persist.Json.t
  | Failed of string

type served = { req : Stream.serve_req; latency_s : float; reply : reply }

let ask client (r : Stream.serve_req) =
  match r with
  | Stream.New k | Stream.Repeat k -> (
    match Serve.Client.optimize client (Reference.query k) with
    | Ok a -> Answer a
    | Error e -> Failed e)
  | Stream.Explain k -> (
    match Serve.Client.explain client (Reference.query k) with
    | Ok j -> Explained j
    | Error e -> Failed e)

let reply_ok (s : served) =
  let k = Stream.serve_key s.req in
  match s.reply with
  | Answer a ->
    let expected = Reference.checksum k in
    a.Serve.Client.checksum = expected
    && Opt.Exhaustive.checksum [ a.Serve.Client.result ] = expected
  | Explained j -> Persist.Json.string_field j "checksum" = Some (Reference.checksum k)
  | Failed _ -> false

let rec connect ~deadline socket_path =
  match Serve.Client.connect ~socket_path () with
  | Ok c -> c
  | Error e ->
    if now () > deadline then failwith ("serve daemon did not start: " ^ e);
    Thread.delay 0.002;
    connect ~deadline socket_path

type daemon = { pid : int; socket : string }

let warm_up client =
  List.map
    (fun k ->
      let req = Stream.New k in
      let t0 = now () in
      let reply = ask client req in
      { req; latency_s = now () -. t0; reply })
    Stream.serve_warmup

(* Ask the daemon to drain, then reap it: (exit code, peak RSS in KiB). *)
let stop_daemon d =
  (match Serve.Client.connect ~socket_path:d.socket () with
   | Ok cl ->
     ignore (Serve.Client.shutdown cl);
     Serve.Client.close cl
   | Error _ -> (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ()));
  Child.wait4 d.pid

(* Run [f d warm] against a fresh daemon that has answered the warm-up
   keys ([warm] holds those replies, for checking).  The daemon is
   stopped and reaped however [f] ends. *)
let with_daemon c ~name f =
  let socket = Filename.concat c.work (name ^ ".sock") in
  let pid =
    Child.spawn ~log:(Filename.concat c.work (name ^ ".log")) c.bin
      [ "serve"; "--socket"; socket; "--jobs"; "1"; "--flight-dir"; c.work ]
  in
  let d = { pid; socket } in
  match
    let client = connect ~deadline:(now () +. 30.0) socket in
    let warm = warm_up client in
    Serve.Client.close client;
    f d warm
  with
  | v -> (v, stop_daemon d)
  | exception e ->
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Child.wait4 pid);
    raise e

(* Closed loop: [conns] connections, each sending its next request only
   after the previous answer; requests are dealt in stream order.
   [around] wraps each request (the traced run puts spans there). *)
let closed_loop ?(around = fun ~track:_ ~req:_ _ f -> f ()) ~conns d reqs =
  let clients = List.init conns (fun _ -> connect ~deadline:(now () +. 10.0) d.socket) in
  let n = Array.length reqs in
  let results = Array.make n None in
  let next = Atomic.make 0 in
  let worker (track, client) =
    let rec go () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let r = reqs.(i) in
        let t0 = now () in
        let reply = around ~track ~req:i r (fun () -> ask client r) in
        results.(i) <- Some { req = r; latency_s = now () -. t0; reply };
        go ()
      end
    in
    go ()
  in
  let t0 = now () in
  let threads = List.mapi (fun i cl -> Thread.create worker (i, cl)) clients in
  List.iter Thread.join threads;
  let elapsed = now () -. t0 in
  List.iter Serve.Client.close clients;
  (Array.to_list (Array.map Option.get results), elapsed)

type pass = {
  setup_s : float;        (* spawn until the warm-up is answered *)
  warm : served list;
  served : served list;   (* the timed requests *)
  elapsed : float;
  exit_code : int;        (* the daemon's, after draining *)
  rss_kb : int;
}

(* One pass: a fresh daemon, warmed up, then one serve-mix stream until
   its new keys run out. *)
let serve_pass c ~conns p =
  let t0 = now () in
  let (setup_s, warm, served, elapsed), (exit_code, rss_kb) =
    with_daemon c ~name:(Printf.sprintf "serve%d" p) (fun d warm ->
        let setup_s = now () -. t0 in
        let served, elapsed =
          closed_loop ~conns d (Stream.serve_pass ~seed:c.seed ~pass:p ~conns)
        in
        (setup_s, warm, served, elapsed))
  in
  { setup_s; warm; served; elapsed; exit_code; rss_kb }

let serve_mix c =
  let conns = c.nproc in
  let rec go p acc =
    if p > 0 && List.fold_left (fun a r -> a +. r.elapsed) 0.0 acc >= c.seconds then acc
    else go (p + 1) (serve_pass c ~conns p :: acc)
  in
  let runs = go 0 [] in
  let timed = List.concat_map (fun r -> r.served) runs in
  let checked = List.concat_map (fun r -> r.warm) runs @ timed in
  let lat f = ms (List.filter_map (fun s -> if f s.req then Some s.latency_s else None) timed) in
  let news = lat (function Stream.New _ -> true | _ -> false) in
  let repeats = lat (function Stream.Repeat _ -> true | _ -> false) in
  let explains = lat (function Stream.Explain _ -> true | _ -> false) in
  let elapsed = List.fold_left (fun a r -> a +. r.elapsed) 0.0 runs in
  let rps = float_of_int (List.length timed) /. elapsed in
  let rss_kb = List.fold_left (fun a r -> max a r.rss_kb) 0 runs in
  let failed =
    List.length (List.filter (fun s -> not (reply_ok s)) checked)
    + List.length (List.filter (fun r -> r.exit_code <> 0) runs)
  in
  let attempted = List.length checked + List.length runs in
  { metrics =
      generic ~typical:Stats.mean ~setup:(Stats.mean (List.map (fun r -> r.setup_s) runs))
        ~primary:news ~primary_tail:(tail_exn ~p:90.0 news)
        ~secondary:repeats ~throughput:rps ~rss_kb;
    details =
      [ m "serve_repeat_p50_us" (Stats.median repeats *. 1e3) "us";
        m "serve_repeat_p90_us" (tail_exn ~p:90.0 repeats *. 1e3) "us";
        m "serve_new_p50_ms" (Stats.median news) "ms";
        m "serve_new_p90_ms" (tail_exn ~p:90.0 news) "ms";
        m "serve_explain_p50_ms" (Stats.median explains) "ms";
        m "serve_new_iqr_share" (Stats.spread news) "ratio";
        m "serve_repeat_iqr_share" (Stats.spread repeats) "ratio";
        m "serve_rps" rps "1/s";
        m "serve_peak_rss_mb" (float_of_int rss_kb /. 1024.0) "MB";
        m "serve_passes" (float_of_int (List.length runs)) "count";
        error_rate ~attempted ~failed ];
    attempted;
    failed }

let run c = function
  | "cli_optimize" -> cli_optimize c
  | "table4_sweep" -> table4_sweep c
  | "serve_mix" -> serve_mix c
  | w -> invalid_arg ("unknown workload " ^ w)
