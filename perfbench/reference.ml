(* In-process reference answers.  Every answer the benchmark receives
   from the optimizer binary or daemon is compared with the one
   [Framework.optimize] computes here, in the benchmark's own process. *)

open Perfbench_lib

(* The full-sweep winner checksum the repository pins (tests and
   ROADMAP): a sweep that does not reproduce it is wrong, not slow. *)
let sweep_checksum = "67fd83cd67998ac0"

(* Set by --corrupt-reference: every reference checksum is altered, so
   every answer must be counted as a mismatch and the run must fail. *)
let corrupt = ref false

let tamper c = if !corrupt then "corrupted-" ^ c else c

let flavor = function Stream.Lvt -> Finfet.Library.Lvt | Stream.Hvt -> Finfet.Library.Hvt
let method_ = function Stream.M1 -> Opt.Space.M1 | Stream.M2 -> Opt.Space.M2

let objective = function
  | Stream.Edp -> Opt.Objective.Energy_delay_product
  | Stream.Ed2 -> Opt.Objective.Energy_delay_squared
  | Stream.Energy -> Opt.Objective.Energy_only
  | Stream.Delay -> Opt.Objective.Delay_only

let accounting = function
  | Stream.Strict -> Array_model.Array_eval.Paper_strict
  | Stream.Physical -> Array_model.Array_eval.Physical

let config (k : Stream.key) =
  { Sram_edp.Framework.flavor = flavor k.Stream.flavor; method_ = method_ k.Stream.method_ }

let optimize (k : Stream.key) =
  Sram_edp.Framework.optimize ~objective:(objective k.Stream.objective)
    ~accounting:(accounting k.Stream.accounting) ~w:k.Stream.w
    ~capacity_bits:(k.Stream.cap_bytes * 8) ~config:(config k) ()

let checksums : (string, string) Hashtbl.t = Hashtbl.create 64

let checksum k =
  let id = Stream.key_to_string k in
  match Hashtbl.find_opt checksums id with
  | Some c -> c
  | None ->
    let c = tamper (Opt.Exhaustive.checksum [ (optimize k).Sram_edp.Framework.result ]) in
    Hashtbl.replace checksums id c;
    c

let query (k : Stream.key) =
  { Serve.Protocol.default_query with
    Serve.Protocol.capacity_bits = k.Stream.cap_bytes * 8;
    flavor = flavor k.Stream.flavor;
    method_ = method_ k.Stream.method_;
    strategy = Opt.Strategy.Exhaustive;
    objective = objective k.Stream.objective;
    accounting = accounting k.Stream.accounting;
    w = k.Stream.w }

(* [sram_opt optimize] arguments for a key (the CLI asks the default
   objective and word width, which every CLI key uses). *)
let cli_args (k : Stream.key) =
  [ "optimize"; "--json"; "-c"; Printf.sprintf "%dB" k.Stream.cap_bytes;
    "-f"; Stream.flavor_name k.Stream.flavor; "-m"; Stream.method_name k.Stream.method_;
    "--accounting"; Stream.accounting_name k.Stream.accounting ]

let same_float a b =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b) || (a = 0.0 && b = 0.0)

(* The reference Table 4: [Framework.sweep_capacities]' 20 designs as the
   rows [sram_opt sweep --json] prints, and whether their checksum is the
   pinned one. *)
let sweep_rows =
  lazy
    (let results =
       Sram_edp.Framework.sweep_capacities ~capacities:Sram_edp.Framework.paper_capacities
         ~configs:Sram_edp.Framework.all_configs ()
     in
     let sum =
       Opt.Exhaustive.checksum (List.map (fun o -> o.Sram_edp.Framework.result) results)
     in
     (tamper sum = sweep_checksum, Sram_edp.Experiments.design_table ()))

(* Does one [sweep --json] output carry exactly the reference designs,
   bit for bit? *)
let sweep_matches out =
  let pinned, rows = Lazy.force sweep_rows in
  let module J = Persist.Json in
  let row_ok (r : Sram_edp.Experiments.design_row) j =
    let i name v = J.int_field j name = Some v in
    let f name v = match J.float_field j name with Some x -> same_float x v | None -> false in
    i "capacity_bits" r.capacity_bits
    && J.string_field j "config" = Some (Sram_edp.Framework.config_name r.config)
    && i "nr" r.nr && i "nc" r.nc && i "n_pre" r.n_pre && i "n_wr" r.n_wr
    && f "vddc_v" r.vddc && f "vssc_v" r.vssc && f "vwl_v" r.vwl
    && f "d_array_s" r.d_array && f "e_total_j" r.e_total && f "edp_js" r.edp
    && f "d_bl_read_s" r.d_bl_read
  in
  pinned
  &&
  match J.of_string out with
  | Ok j -> (
    match Option.bind (J.member "designs" j) J.to_list with
    | Some designs ->
      List.length designs = List.length rows && List.for_all2 row_ok rows designs
    | None -> false)
  | Error _ -> false
