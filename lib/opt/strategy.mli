(** The common search-strategy interface.

    One dispatch point over the two engines, with the common knobs
    (space, objective, budget, deadline, [?rng_seed], [?journal]) in
    one signature.  {!Framework.optimize}, the CLI's
    [optimize --method] and the serve [optimize] endpoint all route
    through {!run}; driving an engine through it is observationally
    identical to calling the engine directly (the backfill tests pin
    the full-sweep checksum [67fd83cd67998ac0] through
    [run Exhaustive]).

    Engine-specific knobs (population sizes, kernels) stay on the
    engines' own entry points; [run] leaves them at their defaults. *)

type t =
  | Exhaustive    (** the bit-deterministic oracle (staged kernel) *)
  | Nsga2         (** crowded non-dominated GA + descent polish *)

val all : t list

val name : t -> string
(** "exhaustive" / "nsga2" — the CLI flag values and the wire
    protocol's spellings. *)

val of_name : string -> t option

val deterministic : t -> bool
(** True when the engine ignores [rng_seed] (exhaustive) — the
    framework cache normalizes the seed away for these so repeated
    queries hit. *)

val default_seed : int
(** 42, the CLI's [--seed] default. *)

val parse_method : string -> (Space.method_ option * t option) option
(** The [--method] / wire grammar: ["m1"]/["m2"] name a voltage-pin
    policy (strategy unchanged), a strategy name alone picks the
    engine (policy unchanged), ["POLICY:STRATEGY"] (e.g. ["m1:nsga2"])
    sets both.  [None] on anything else.  Case-insensitive. *)

val run :
  t ->
  ?space:Space.t ->
  ?objective:Objective.t ->
  ?levels:Yield.levels ->
  ?pool:Runtime.Pool.t ->
  ?w:int ->
  ?kernel:Exhaustive.kernel ->
  ?stage_ctx:Array_model.Array_eval.ctx ->
  ?journal:Persist.Checkpoint.t ->
  ?deadline:float ->
  ?budget:int ->
  ?rng_seed:int ->
  env:Array_model.Array_eval.env ->
  capacity_bits:int ->
  method_:Space.method_ ->
  unit ->
  Exhaustive.result
(** Run one engine with the common knobs.  Per-engine mapping:
    - [Exhaustive] honors everything except [budget]/[rng_seed]
      (it visits the whole space; there is nothing to randomize);
    - [Nsga2] honors everything except [kernel]/[stage_ctx]/[journal]
      (it evaluates through the batched scan kernel; its runs are
      cheap to recompute, so nothing is checkpointed).
    Both engines honor [deadline] and return the same
    {!Exhaustive.result} shape (golden-diffed by the backfill
    tests). *)
