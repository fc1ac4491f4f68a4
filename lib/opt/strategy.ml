(* One name, one signature, two engines.

   Everything above lib/opt — {!Framework.optimize}, the CLI's
   [optimize --method], the serve [optimize] endpoint — dispatches on
   this module instead of hard-coding the exhaustive engine.  Each
   engine keeps its own richer entry point (populations, kernels);
   [run] forwards the common knobs and leaves the rest at the engine
   defaults, so driving an engine through the dispatch is
   observationally identical to calling it directly (the backfill
   tests pin this: the full-sweep checksum 67fd83cd67998ac0 must
   reproduce through [run Exhaustive]). *)

type t =
  | Exhaustive
  | Nsga2

let all = [ Exhaustive; Nsga2 ]

let name = function
  | Exhaustive -> "exhaustive"
  | Nsga2 -> "nsga2"

let of_name = function
  | "exhaustive" -> Some Exhaustive
  | "nsga2" -> Some Nsga2
  | _ -> None

let deterministic = function
  | Exhaustive -> true
  | Nsga2 -> false

(* The CLI's and the wire protocol's `method` grammar:
   "m1" / "m2" name a voltage-pin policy, a strategy name alone picks
   the search engine (pin policy unchanged), and "POLICY:STRATEGY"
   (e.g. "m1:nsga2") sets both. *)
let parse_method s =
  let s = String.lowercase_ascii (String.trim s) in
  let pin = function
    | "m1" -> Some Space.M1
    | "m2" -> Some Space.M2
    | _ -> None
  in
  match String.index_opt s ':' with
  | Some i ->
    let left = String.sub s 0 i in
    let right = String.sub s (i + 1) (String.length s - i - 1) in
    (match (pin left, of_name right) with
    | Some p, Some st -> Some (Some p, Some st)
    | _ -> None)
  | None -> (
    match pin s with
    | Some p -> Some (Some p, None)
    | None -> (
      match of_name s with
      | Some st -> Some (None, Some st)
      | None -> None))

let default_seed = 42

let run strategy ?space ?objective ?levels ?pool ?w ?kernel ?stage_ctx
    ?journal ?deadline ?budget ?(rng_seed = default_seed) ~env ~capacity_bits
    ~method_ () =
  match strategy with
  | Exhaustive ->
    Exhaustive.search ?space ?objective ?levels ?pool ?w ?kernel ?stage_ctx
      ?journal ?deadline ~env ~capacity_bits ~method_ ()
  | Nsga2 ->
    Nsga2.search ?space ?objective ?levels ?pool ?w ?budget ~seed:rng_seed
      ?deadline ~env ~capacity_bits ~method_ ()
