(* Tests for the benchmark's own helpers: what a reported percentile
   means, the quartile spread, span self time, and the seeded request
   streams. *)

open Perfbench_lib

let floats n = List.init n (fun i -> float_of_int (i + 1))

let test_tail_needs_ten_beyond () =
  (match Stats.tail ~p:90.0 (floats 100) with
   | Ok v -> Alcotest.(check (float 0.0)) "p90 of 1..100" 90.0 v
   | Error e -> Alcotest.fail e);
  (match Stats.tail ~p:90.0 (floats 99) with
   | Ok v -> Alcotest.failf "p90 of 99 samples reported as %g" v
   | Error _ -> ());
  (match Stats.tail ~p:50.0 (floats 19) with
   | Ok _ -> Alcotest.fail "p50 of 19 samples has only 9 beyond it"
   | Error _ -> ());
  Alcotest.(check int) "p90 needs 100" 100 (Stats.samples_needed ~p:90.0);
  Alcotest.(check int) "p50 needs 20" 20 (Stats.samples_needed ~p:50.0);
  Alcotest.(check int) "p60 needs 25" 25 (Stats.samples_needed ~p:60.0);
  (match Stats.tail_mean ~p:60.0 (floats 25) with
   | Ok v -> Alcotest.(check (float 1e-12)) "mean of 16..25" 20.5 v
   | Error e -> Alcotest.fail e);
  (match Stats.tail_mean ~p:60.0 (floats 24) with
   | Ok v -> Alcotest.failf "tail mean of 24 samples reported as %g" v
   | Error _ -> ());
  List.iter
    (fun p ->
      let n = Stats.samples_needed ~p in
      Alcotest.(check bool)
        (Printf.sprintf "p%g: %d samples leave ten beyond" p n)
        true
        (Stats.beyond ~p n >= Stats.min_beyond))
    [ 50.0; 75.0; 90.0; 99.0 ]

let test_median () =
  Alcotest.(check (float 0.0)) "mean" 3.0 (Stats.mean [ 5.0; 1.0; 3.0 ]);
  Alcotest.(check (float 0.0)) "iqm of 1..8" 4.5 (Stats.iqm (floats 8));
  Alcotest.(check (float 0.0)) "iqm drops a spike" 2.5 (Stats.iqm [ 100.0; 3.0; 1.0; 2.0 ]);
  Alcotest.(check (float 0.0)) "iqm of three" 2.0 (Stats.iqm [ 3.0; 1.0; 2.0 ]);
  Alcotest.(check (float 0.0)) "odd" 3.0 (Stats.median [ 5.0; 1.0; 3.0 ]);
  Alcotest.(check (float 0.0)) "even" 2.5 (Stats.median [ 4.0; 1.0; 3.0; 2.0 ])

(* Expected values are Python's statistics.quantiles(xs, n=4) for
   xs = range(1, 11), [1, 2, 4, 8, 16] and [2, 1]. *)
let test_quartiles () =
  let check name expected xs =
    Alcotest.(check (list (float 1e-12))) name expected (Stats.quartiles xs)
  in
  check "1..10" [ 2.75; 5.5; 8.25 ] (floats 10);
  check "powers" [ 1.5; 4.0; 12.0 ] [ 1.0; 2.0; 4.0; 8.0; 16.0 ];
  check "two" [ 0.75; 1.5; 2.25 ] [ 2.0; 1.0 ];
  Alcotest.(check (float 1e-12)) "spread" 1.0 (Stats.spread (floats 10))

let span ?parent id name start stop =
  { Span.id; name; start; stop; parent; req = 0; track = 0 }

let self_of spans id =
  snd (List.find (fun ((s : Span.span), _) -> s.Span.id = id) (Span.self_times spans))

let test_self_time () =
  (* root 0..10 with adjacent children 1..3 and 3..6, the second holding
     a grandchild 4..5, and a child that overlaps the first. *)
  let spans =
    [ span 0 "request" 0.0 10.0;
      span ~parent:0 1 "a" 1.0 3.0;
      span ~parent:0 2 "b" 3.0 6.0;
      span ~parent:2 3 "c" 4.0 5.0;
      span ~parent:0 4 "d" 2.0 2.5 ]
  in
  Alcotest.(check (float 1e-12)) "root" 5.0 (self_of spans 0);
  Alcotest.(check (float 1e-12)) "adjacent a" 2.0 (self_of spans 1);
  Alcotest.(check (float 1e-12)) "nested b" 2.0 (self_of spans 2);
  Alcotest.(check (float 1e-12)) "leaf c" 1.0 (self_of spans 3);
  Alcotest.(check (float 1e-12)) "unattributed" 0.5
    (Span.unattributed_share ~root:"request" spans);
  (* A child that pokes out of its parent is clipped to it. *)
  let spans = [ span 0 "request" 0.0 4.0; span ~parent:0 1 "a" 3.0 6.0 ] in
  Alcotest.(check (float 1e-12)) "clipped" 3.0 (self_of spans 0)

let test_recorder () =
  let t = Span.create () in
  let v =
    Span.within t ~req:7 "request" (fun root ->
        Span.within t ~parent:root ~req:7 "layer" (fun _ -> 42))
  in
  Alcotest.(check int) "value" 42 v;
  match Span.spans t with
  | [ r; l ] ->
    Alcotest.(check string) "root first" "request" r.Span.name;
    Alcotest.(check (option int)) "parent" (Some r.Span.id) l.Span.parent;
    Alcotest.(check int) "request id" 7 l.Span.req;
    let json = Span.to_chrome (Span.spans t) in
    Alcotest.(check bool) "chrome events" true
      (String.length json > 0 && String.sub json 0 18 = "{\"displayTimeUnit\"")
  | l -> Alcotest.failf "%d spans" (List.length l)

let serve_string ~seed ~pass =
  Stream.to_string Stream.serve_req_to_string (Stream.serve_pass ~seed ~pass ~conns:2)

let test_streams_seeded () =
  let cli seed =
    let plan = Stream.cli_plan ~seed in
    Stream.to_string
      (fun i ->
        let c, k = Stream.cli_request plan i in
        (match c with Stream.Cold -> "cold " | Stream.Cached -> "cached ")
        ^ Stream.key_to_string k)
      (Array.init 80 Fun.id)
  in
  Alcotest.(check string) "cli same seed" (cli 1) (cli 1);
  Alcotest.(check bool) "cli other seed" true (cli 1 <> cli 2);
  Alcotest.(check string) "serve same seed" (serve_string ~seed:1 ~pass:0)
    (serve_string ~seed:1 ~pass:0);
  Alcotest.(check bool) "serve other seed" true
    (serve_string ~seed:1 ~pass:0 <> serve_string ~seed:2 ~pass:0);
  Alcotest.(check bool) "serve other pass" true
    (serve_string ~seed:1 ~pass:0 <> serve_string ~seed:1 ~pass:1);
  let sweep seed = List.init 6 (Stream.sweep_jobs ~seed ~nproc:4) in
  List.iter
    (fun seed ->
      let s = sweep seed in
      Alcotest.(check int) "sweeps alternate" 3
        (List.length (List.filter (( = ) 1) s)))
    [ 1; 2; 3; 4 ]

let test_cli_classes () =
  let plan = Stream.cli_plan ~seed:5 in
  let all = Array.append plan.Stream.cold plan.Stream.cached in
  Alcotest.(check int) "40 keys" 40 (Array.length all);
  Alcotest.(check int) "distinct" 40
    (List.length (List.sort_uniq compare (Array.to_list all)));
  let first = List.init 8 (fun i -> Stream.cli_request plan i) in
  Alcotest.(check (list bool)) "interleaved"
    [ true; false; false; false; true; false; false; false ]
    (List.map (fun (c, _) -> c = Stream.Cold) first);
  Alcotest.(check bool) "cached keys cycle in order" true
    (List.filter_map (fun (c, k) -> if c = Stream.Cached then Some k else None) first
     = Array.to_list (Array.sub plan.Stream.cached 0 6));
  (* Every (capacity, config) is once in each class. *)
  let pairs a =
    List.sort compare
      (Array.to_list
         (Array.map (fun k -> (k.Stream.cap_bytes, k.Stream.flavor, k.Stream.method_)) a))
  in
  Alcotest.(check bool) "same mix" true (pairs plan.Stream.cold = pairs plan.Stream.cached);
  Alcotest.(check int) "20 pairs" 20 (List.length (List.sort_uniq compare (pairs plan.Stream.cold)))

(* Every repeat and explain must name a key among the last 128 distinct
   keys answered (warm-ups, then new keys [conns] requests old), and
   every request must ask the exhaustive engine. *)
let test_serve_window () =
  let conns = 2 in
  List.iter
    (fun seed ->
      let reqs = Stream.serve_pass ~seed ~pass:0 ~conns in
      let news = ref 0 and repeats = ref 0 in
      Array.iteri
        (fun i r ->
          let k = Stream.serve_key r in
          Alcotest.(check string) "engine" "exhaustive" k.Stream.engine;
          match r with
          | Stream.New _ -> incr news
          | Stream.Repeat k | Stream.Explain k ->
            incr repeats;
            let answered =
              Stream.serve_warmup
              @ List.filter_map
                  (fun j ->
                    match reqs.(j) with Stream.New k -> Some k | _ -> None)
                  (List.init (max 0 (i - conns + 1)) Fun.id)
            in
            let n = List.length answered in
            let window = List.filteri (fun j _ -> j >= n - Stream.repeat_window) answered in
            if not (List.mem k window) then
              Alcotest.failf "seed %d request %d repeats %s outside the window" seed i
                (Stream.key_to_string k))
        reqs;
      Alcotest.(check int) "every new key once" (Array.length Stream.serve_new_keys) !news;
      let share = float_of_int !news /. float_of_int (Array.length reqs) in
      Alcotest.(check bool) (Printf.sprintf "new share %.3f" share) true
        (share > 0.22 && share < 0.28))
    [ 1; 2; 3 ]

let () =
  Alcotest.run "perfbench"
    [ ( "stats",
        [ Alcotest.test_case "tail has ten beyond" `Quick test_tail_needs_ten_beyond;
          Alcotest.test_case "mean, iqm and median" `Quick test_median;
          Alcotest.test_case "quartiles" `Quick test_quartiles ] );
      ( "spans",
        [ Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "recorder" `Quick test_recorder ] );
      ( "streams",
        [ Alcotest.test_case "seeded" `Quick test_streams_seeded;
          Alcotest.test_case "cli classes" `Quick test_cli_classes;
          Alcotest.test_case "serve window" `Quick test_serve_window ] ) ]
