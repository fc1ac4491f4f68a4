(* Seeded request streams for the three workloads.

   Everything the program is asked is derived here from the workload
   seed, with a private SplitMix64 generator so a stream never depends on
   the standard library's [Random] implementation: the same seed gives a
   byte-identical stream ([to_string]) on every build. *)

module Rng = struct
  type t = { mutable s : int64 }

  let make seed = { s = Int64.of_int seed }

  let next t =
    t.s <- Int64.add t.s 0x9E3779B97F4A7C15L;
    let z = t.s in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  (* Uniform in [0, bound). *)
  let int t bound =
    Int64.to_int (Int64.unsigned_rem (next t) (Int64.of_int bound))

  (* Uniform in [0, 1) with 53 random bits. *)
  let float t =
    Int64.to_float (Int64.shift_right_logical (next t) 11) /. 9007199254740992.0

  let shuffle t a =
    let a = Array.copy a in
    for i = Array.length a - 1 downto 1 do
      let j = int t (i + 1) in
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x
    done;
    a
end

type flavor = Lvt | Hvt
type method_ = M1 | M2
type objective = Edp | Ed2 | Energy | Delay
type accounting = Strict | Physical

type key = {
  cap_bytes : int;
  flavor : flavor;
  method_ : method_;
  objective : objective;
  accounting : accounting;
  w : int;
  engine : string;  (* search engine; every workload asks "exhaustive" *)
}

let flavor_name = function Lvt -> "lvt" | Hvt -> "hvt"
let method_name = function M1 -> "m1" | M2 -> "m2"

let objective_name = function
  | Edp -> "edp" | Ed2 -> "ed2" | Energy -> "energy" | Delay -> "delay"

let accounting_name = function Strict -> "strict" | Physical -> "physical"

let key_to_string k =
  Printf.sprintf "%dB/%s/%s/%s/%s/w%d/%s" k.cap_bytes (flavor_name k.flavor)
    (method_name k.method_) (objective_name k.objective)
    (accounting_name k.accounting) k.w k.engine

let key ?(objective = Edp) ?(w = 64) ~cap_bytes ~flavor ~method_ ~accounting () =
  { cap_bytes; flavor; method_; objective; accounting; w; engine = "exhaustive" }

(* The paper's four configurations, in the framework's order. *)
let configs = [ (Lvt, M1); (Hvt, M1); (Lvt, M2); (Hvt, M2) ]

let table4_capacities = [ 128; 256; 1024; 4096; 16384 ]

let product xs ys = List.concat_map (fun x -> List.map (fun y -> (x, y)) ys) xs

(* ---- cli_optimize ---------------------------------------------------- *)

type cli_class = Cold | Cached

type cli_plan = { cold : key array; cached : key array }

(* Each (capacity, config) sends one accounting to the cold class and the
   other to the cached class, the seed choosing which; each class is then
   in seeded order.  Both classes hold every capacity and config once, so
   a seed changes the order, never the mix. *)
let cli_plan ~seed =
  let rng = Rng.make seed in
  let pairs =
    List.map
      (fun (cap_bytes, (flavor, method_)) ->
        let k accounting = key ~cap_bytes ~flavor ~method_ ~accounting () in
        if Rng.int rng 2 = 0 then (k Strict, k Physical) else (k Physical, k Strict))
      (product table4_capacities configs)
  in
  { cold = Rng.shuffle rng (Array.of_list (List.map fst pairs));
    cached = Rng.shuffle rng (Array.of_list (List.map snd pairs)) }

(* Cached requests are cheap (process start plus a disk read), so each
   cold request is followed by three of them: the cached tail then rests
   on as many samples as it needs to be steady. *)
let cached_per_cold = 3

(* Request [i]: the classes interleave, each cycling through its keys. *)
let cli_request plan i =
  let cycle = i / (cached_per_cold + 1) and slot = i mod (cached_per_cold + 1) in
  if slot = 0 then (Cold, plan.cold.(cycle mod Array.length plan.cold))
  else
    let j = (cycle * cached_per_cold) + slot - 1 in
    (Cached, plan.cached.(j mod Array.length plan.cached))

(* ---- table4_sweep ---------------------------------------------------- *)

(* Sweep [i]'s --jobs: alternating 1 and [nproc], the seed picking which
   comes first. *)
let sweep_jobs ~seed ~nproc i =
  let first_parallel = Rng.int (Rng.make seed) 2 = 0 in
  if (i mod 2 = 0) = first_parallel then nproc else 1

(* ---- serve_mix ------------------------------------------------------- *)

type serve_req = New of key | Repeat of key | Explain of key

let serve_key = function New k | Repeat k | Explain k -> k

(* One optimize per (flavor x accounting) before the timed phase. *)
let serve_warmup =
  List.map
    (fun (flavor, accounting) ->
      key ~cap_bytes:4096 ~flavor ~method_:M2 ~accounting ())
    (product [ Lvt; Hvt ] [ Strict; Physical ])

let serve_capacities = [ 128; 256; 512; 1024; 2048; 4096; 8192; 16384 ]
let serve_objectives = [ Edp; Ed2; Energy; Delay ]
let serve_widths = [ 16; 32; 64; 128 ]

(* 8 capacities x 4 configs x 4 objectives x 2 accountings x 4 widths,
   less the warm-up keys (already answered before the first new key). *)
let serve_new_keys =
  List.concat_map
    (fun cap_bytes ->
      List.concat_map
        (fun (flavor, method_) ->
          List.concat_map
            (fun objective ->
              List.concat_map
                (fun accounting ->
                  List.map
                    (fun w ->
                      key ~objective ~w ~cap_bytes ~flavor ~method_ ~accounting ())
                    serve_widths)
                [ Strict; Physical ])
            serve_objectives)
        configs)
    serve_capacities
  |> List.filter (fun k -> not (List.mem k serve_warmup))
  |> Array.of_list

let repeat_window = 128
let repeat_share = 0.70
let new_share = 0.25

(* One pass of the serve mix: ~70% repeats, ~25% new keys, ~5% explain
   calls, until the new keys run out.  Repeats and explains draw
   uniformly from the last [repeat_window] distinct keys answered: the
   warm-up keys, then each new key once it is [conns] requests old (so
   with [conns] connections in a closed loop it has been answered). *)
let serve_pass ~seed ~pass ~conns =
  let rng = Rng.make ((seed * 1_000_003) + pass) in
  let pool = Rng.shuffle rng serve_new_keys in
  let window = Array.make repeat_window (List.hd serve_warmup) in
  let filled = ref 0 and head = ref 0 in
  let push k =
    window.(!head) <- k;
    head := (!head + 1) mod repeat_window;
    filled := min repeat_window (!filled + 1)
  in
  List.iter push serve_warmup;
  let pending = Queue.create () in
  let out = ref [] in
  let next_new = ref 0 in
  let i = ref 0 in
  let finished = ref false in
  while not !finished do
    while (not (Queue.is_empty pending)) && fst (Queue.peek pending) <= !i - conns do
      push (snd (Queue.pop pending))
    done;
    let pick () = window.(Rng.int rng !filled) in
    let u = Rng.float rng in
    if u < repeat_share then out := Repeat (pick ()) :: !out
    else if u < repeat_share +. new_share then begin
      if !next_new >= Array.length pool then finished := true
      else begin
        let k = pool.(!next_new) in
        incr next_new;
        Queue.push (!i, k) pending;
        out := New k :: !out
      end
    end
    else out := Explain (pick ()) :: !out;
    if not !finished then incr i
  done;
  Array.of_list (List.rev !out)

let serve_req_to_string = function
  | New k -> "new " ^ key_to_string k
  | Repeat k -> "repeat " ^ key_to_string k
  | Explain k -> "explain " ^ key_to_string k

let to_string to_line xs =
  String.concat "\n" (Array.to_list (Array.map to_line xs)) ^ "\n"
