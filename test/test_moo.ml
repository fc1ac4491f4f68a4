(* Multi-objective search stack: QCheck properties for the NSGA-II
   machinery (Moo) and the hypervolume indicator, oracle-differential
   tests gating NSGA-II against the exhaustive search on reduced
   Table-4 spaces, and backfill tests pinning that routing the engines
   through Opt.Strategy changes nothing — down to the full-sweep winner
   checksum. *)

open Testutil

let to_alco = QCheck_alcotest.to_alcotest

let env_hvt = Array_model.Array_eval.make_env ~cell_flavor:Finfet.Library.Hvt ()
let levels_hvt = Opt.Yield.solve ~flavor:Finfet.Library.Hvt ()

(* ----- Moo: sorting and crowding over raw point sets ----- *)

(* Coordinates drawn from a coarse grid so duplicates and ties are
   common — the regime where a sloppy sort or a non-canonical crowding
   formulation breaks. *)
let points_gen =
  QCheck.make
    ~print:(fun pts ->
      String.concat ";"
        (List.map
           (fun p -> Printf.sprintf "(%g,%g)" p.(0) p.(1))
           (Array.to_list pts)))
    QCheck.Gen.(
      let coord = map (fun k -> float_of_int k /. 8.0) (int_bound 16) in
      let point = map (fun (x, y) -> [| x; y |]) (pair coord coord) in
      map Array.of_list (list_size (int_range 1 24) point))

let prop_sort_consistent_with_dominates =
  QCheck.Test.make ~name:"nondominated sort ranks agree with dominance"
    ~count:300 points_gen (fun pts ->
      let rank = Opt.Moo.fast_nondominated_sort pts in
      let n = Array.length pts in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if Opt.Moo.dominates pts.(i) pts.(j) && rank.(i) >= rank.(j) then
            ok := false
        done;
        (* Rank 0 must be exactly the non-dominated set. *)
        let dominated =
          Array.exists (fun q -> Opt.Moo.dominates q pts.(i)) pts
        in
        if (rank.(i) = 0) = dominated then ok := false
      done;
      !ok)

let prop_moo_dominates_matches_pareto =
  (* The raw-vector dominance must agree with the candidate-level
     Pareto.dominates through Pareto.objectives.  Driven with real
     evaluated candidates so the vectors carry genuine float noise. *)
  QCheck.Test.make ~name:"Moo.dominates agrees with Pareto.dominates"
    ~count:40
    QCheck.(pair small_nat small_nat)
    (fun (i, j) ->
      let _, all =
        Opt.Exhaustive.search_all ~space:Opt.Space.reduced ~levels:levels_hvt
          ~env:env_hvt ~capacity_bits:(1024 * 8) ~method_:Opt.Space.M2 ()
      in
      let arr = Array.of_list all in
      let a = arr.(i mod Array.length arr)
      and b = arr.(j mod Array.length arr) in
      Bool.equal (Opt.Pareto.dominates a b)
        (Opt.Moo.dominates (Opt.Pareto.objectives a) (Opt.Pareto.objectives b)))

let prop_crowding_permutation_invariant =
  QCheck.Test.make ~name:"crowding distance is permutation-invariant"
    ~count:300
    QCheck.(pair points_gen (int_bound 1_000_000))
    (fun (pts, seed) ->
      let n = Array.length pts in
      let members = Array.init n (fun i -> i) in
      (* Fisher-Yates with a deterministic stream. *)
      let rng = Numerics.Rng.create ~seed in
      let perm = Array.copy members in
      for i = n - 1 downto 1 do
        let j = Numerics.Rng.int_below rng (i + 1) in
        let t = perm.(i) in
        perm.(i) <- perm.(j);
        perm.(j) <- t
      done;
      let base = Opt.Moo.crowding_distance pts members in
      let shuffled = Opt.Moo.crowding_distance pts perm in
      (* Align: shuffled.(k) is the crowding of point perm.(k). *)
      let ok = ref true in
      Array.iteri
        (fun k p ->
          if not (Float.equal shuffled.(k) base.(p)) then ok := false)
        perm;
      !ok)

(* ----- hypervolume ----- *)

let prop_hv2_matches_grid =
  (* Exact sweep vs a midpoint-grid estimate of the dominated region:
     the grid resolves the staircase to ~1 cell per boundary step, so
     2% relative (plus a small absolute floor for tiny volumes) covers
     the discretization error. *)
  QCheck.Test.make ~name:"hv2 matches a brute-force grid estimate" ~count:60
    QCheck.(
      list_of_size (Gen.int_range 1 12)
        (pair (float_range 0.0 1.0) (float_range 0.0 1.0)))
    (fun pts ->
      let ref_ = (1.05, 1.05) in
      let exact = Opt.Hypervolume.hv2 ~ref_ pts in
      let n = 400 in
      let rx, ry = ref_ in
      let cell = rx /. float_of_int n *. (ry /. float_of_int n) in
      let count = ref 0 in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          let x = (float_of_int i +. 0.5) *. rx /. float_of_int n in
          let y = (float_of_int j +. 0.5) *. ry /. float_of_int n in
          if List.exists (fun (px, py) -> px <= x && py <= y) pts then
            incr count
        done
      done;
      let estimate = float_of_int !count *. cell in
      abs_float (exact -. estimate)
      <= (0.02 *. Float.max exact estimate) +. 2e-2)

let hypervolume_tests =
  [ case "hv2 of one corner point is the full box" (fun () ->
        check_close ~tol:1e-12 "unit box" 1.0
          (Opt.Hypervolume.hv2 ~ref_:(1.0, 1.0) [ (0.0, 0.0) ]));
    case "hv2 ignores dominated and out-of-box points" (fun () ->
        let front = [ (0.2, 0.8); (0.5, 0.5); (0.8, 0.2) ] in
        let noise = [ (0.6, 0.6); (1.5, 0.1); (0.1, 2.0) ] in
        check_close ~tol:1e-12 "noise-free"
          (Opt.Hypervolume.hv2 ~ref_:(1.0, 1.0) front)
          (Opt.Hypervolume.hv2 ~ref_:(1.0, 1.0) (front @ noise)));
    case "hv3 of one corner point is the full box" (fun () ->
        check_close ~tol:1e-12 "unit cube" 1.0
          (Opt.Hypervolume.hv3 ~ref_:(1.0, 1.0, 1.0) [ (0.0, 0.0, 0.0) ]));
    case "hv3 of two staircase points sums the slices" (fun () ->
        (* (0,.5,0) and (.5,0,0) against (1,1,1): two half-slabs of
           volume .5 overlapping in a quarter-slab: 0.5 + 0.5 - 0.25. *)
        check_close ~tol:1e-12 "staircase" 0.75
          (Opt.Hypervolume.hv3 ~ref_:(1.0, 1.0, 1.0)
             [ (0.0, 0.5, 0.0); (0.5, 0.0, 0.0) ]));
    case "ratio of a front against itself is 1" (fun () ->
        let front = [ (0.2, 0.8); (0.5, 0.5); (0.8, 0.2) ] in
        check_close ~tol:1e-12 "self ratio" 1.0
          (Opt.Hypervolume.ratio ~truth:front front))
  ]

(* ----- oracle differential: NSGA-II vs exhaustive ----- *)

let pairs_of cs =
  List.map (fun c -> let o = Opt.Pareto.objectives c in (o.(0), o.(1))) cs

let show_front label cs =
  Printf.sprintf "%s front (%d points):\n%s" label (List.length cs)
    (String.concat "\n"
       (List.map
          (fun (d, e) -> Printf.sprintf "  d=%.6e  e=%.6e" d e)
          (pairs_of cs)))

let oracle_case name search_front =
  case name (fun () ->
      List.iter
        (fun capacity_bits ->
          let oracle, all =
            Opt.Exhaustive.search_all ~space:Opt.Space.reduced
              ~levels:levels_hvt ~env:env_hvt ~capacity_bits
              ~method_:Opt.Space.M2 ()
          in
          let truth = Opt.Pareto.front all in
          let res, front =
            search_front ~capacity_bits
          in
          (* Winner regret must be exactly zero: same score bits. *)
          if
            not
              (Float.equal res.Opt.Exhaustive.best.Opt.Exhaustive.score
                 oracle.Opt.Exhaustive.best.Opt.Exhaustive.score)
          then
            Alcotest.failf
              "%s at %dB: winner regret %.3e (heuristic %.17e vs oracle \
               %.17e)\n%s\n%s"
              name (capacity_bits / 8)
              (res.Opt.Exhaustive.best.Opt.Exhaustive.score
              -. oracle.Opt.Exhaustive.best.Opt.Exhaustive.score)
              res.Opt.Exhaustive.best.Opt.Exhaustive.score
              oracle.Opt.Exhaustive.best.Opt.Exhaustive.score
              (show_front "oracle" truth)
              (show_front "heuristic" front);
          (* The heuristic must not out-search the budget: it sees a
             strict subset of what the oracle decided. *)
          Alcotest.(check bool)
            (Printf.sprintf "%dB: evaluated within oracle's considered"
               (capacity_bits / 8))
            true
            (res.Opt.Exhaustive.evaluated
            <= oracle.Opt.Exhaustive.considered);
          let hv = Opt.Hypervolume.ratio ~truth:(pairs_of truth) (pairs_of front) in
          if hv < 0.99 then
            Alcotest.failf "%s at %dB: hypervolume ratio %.4f < 0.99\n%s\n%s"
              name (capacity_bits / 8) hv
              (show_front "oracle" truth)
              (show_front "heuristic" front))
        [ 128 * 8; 1024 * 8; 4 * 1024 * 8 ])

let oracle_tests =
  [ oracle_case "nsga2 recovers the exhaustive winner" (fun ~capacity_bits ->
        Opt.Nsga2.search_front ~space:Opt.Space.reduced ~levels:levels_hvt
          ~env:env_hvt ~capacity_bits ~method_:Opt.Space.M2 ())
  ]

(* ----- determinism across job counts ----- *)

let prop_nsga2_bit_identical_across_jobs =
  QCheck.Test.make ~name:"same-seed nsga2 is bit-identical at 1/2/4 jobs"
    ~count:6
    QCheck.(int_bound 10_000)
    (fun seed ->
      let sums =
        List.map
          (fun jobs ->
            let pool = Runtime.Pool.create ~jobs () in
            let res =
              Opt.Nsga2.search ~space:Opt.Space.reduced ~levels:levels_hvt
                ~pool ~pop:8 ~generations:6 ~seed ~env:env_hvt
                ~capacity_bits:(1024 * 8) ~method_:Opt.Space.M2 ()
            in
            Runtime.Pool.shutdown pool;
            Opt.Exhaustive.checksum [ res ])
          [ 1; 2; 4 ]
      in
      match sums with
      | [ a; b; c ] -> String.equal a b && String.equal b c
      | _ -> false)

(* ----- backfill: the Strategy refactor changed nothing ----- *)

(* The strongest available anchor: the full paper sweep driven through
   [Strategy.run Exhaustive] must still produce the winner checksum
   committed in BENCH_kernel.json (and pinned by test_properties via
   the direct [Exhaustive.search] path). *)
let full_sweep_checksum = "67fd83cd67998ac0"

let test_strategy_exhaustive_full_sweep () =
  let env_of =
    let lvt = Array_model.Array_eval.make_env ~cell_flavor:Finfet.Library.Lvt () in
    function Finfet.Library.Lvt -> lvt | Finfet.Library.Hvt -> env_hvt
  in
  let levels_of =
    let lvt = Opt.Yield.solve ~flavor:Finfet.Library.Lvt () in
    function Finfet.Library.Lvt -> lvt | Finfet.Library.Hvt -> levels_hvt
  in
  let sweep jobs =
    let pool = Runtime.Pool.create ~jobs () in
    let results =
      List.concat_map
        (fun capacity_bits ->
          List.map
            (fun (c : Sram_edp.Framework.config) ->
              Opt.Strategy.run Opt.Strategy.Exhaustive ~kernel:`Staged ~pool
                ~levels:(levels_of c.Sram_edp.Framework.flavor)
                ~env:(env_of c.Sram_edp.Framework.flavor) ~capacity_bits
                ~method_:c.Sram_edp.Framework.method_ ())
            Sram_edp.Framework.all_configs)
        Sram_edp.Framework.paper_capacities
    in
    Runtime.Pool.shutdown pool;
    Opt.Exhaustive.checksum results
  in
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "Strategy-dispatched full-sweep checksum at %d jobs"
           jobs)
        full_sweep_checksum (sweep jobs))
    [ 1; 2; 4 ]

let test_strategy_matches_direct_calls () =
  let capacity_bits = 1024 * 8 and method_ = Opt.Space.M2 in
  let space = Opt.Space.reduced and env = env_hvt in
  let via =
    Opt.Strategy.run Opt.Strategy.Nsga2 ~space ~levels:levels_hvt ~rng_seed:7
      ~env ~capacity_bits ~method_ ()
  in
  let direct =
    Opt.Nsga2.search ~space ~levels:levels_hvt ~seed:7 ~env ~capacity_bits
      ~method_ ()
  in
  Alcotest.(check string) "nsga2 via Strategy = direct call"
    (Opt.Exhaustive.checksum [ direct ])
    (Opt.Exhaustive.checksum [ via ])

(* ----- the --method / wire grammar ----- *)

let strategy_grammar_tests =
  [ case "parse_method accepts pins, strategies and both" (fun () ->
        let check_parse s expected =
          Alcotest.(check bool)
            (Printf.sprintf "parse %S" s)
            true
            (Opt.Strategy.parse_method s = expected)
        in
        check_parse "m1" (Some (Some Opt.Space.M1, None));
        check_parse "M2" (Some (Some Opt.Space.M2, None));
        check_parse "nsga2" (Some (None, Some Opt.Strategy.Nsga2));
        check_parse "  Exhaustive " (Some (None, Some Opt.Strategy.Exhaustive));
        check_parse "m1:nsga2"
          (Some (Some Opt.Space.M1, Some Opt.Strategy.Nsga2));
        check_parse "local" None;
        check_parse "anneal" None;
        check_parse "m2:anneal" None;
        check_parse " SURROGATE " None;
        check_parse "bogus" None;
        check_parse "m3:nsga2" None;
        check_parse "m1:bogus" None);
    case "strategy names round-trip through of_name" (fun () ->
        List.iter
          (fun st ->
            match Opt.Strategy.of_name (Opt.Strategy.name st) with
            | Some st' when st' = st -> ()
            | _ ->
              Alcotest.failf "round-trip failed for %s" (Opt.Strategy.name st))
          Opt.Strategy.all)
  ]

let () =
  Alcotest.run "moo"
    [ ( "moo-primitives",
        List.map to_alco
          [ prop_sort_consistent_with_dominates;
            prop_moo_dominates_matches_pareto;
            prop_crowding_permutation_invariant ] );
      ("hypervolume", hypervolume_tests @ [ to_alco prop_hv2_matches_grid ]);
      ("oracle", oracle_tests);
      ( "determinism",
        List.map to_alco
          [ prop_nsga2_bit_identical_across_jobs ] );
      ( "strategy-backfill",
        [ slow_case "exhaustive via Strategy reproduces the full-sweep \
                     checksum"
            test_strategy_exhaustive_full_sweep;
          case "nsga2 via Strategy matches the direct call"
            test_strategy_matches_direct_calls ] );
      ("strategy-grammar", strategy_grammar_tests)
    ]
