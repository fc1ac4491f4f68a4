(** The search-engine name, with one engine.

    Every caller in this library, the framework, the CLI and the serve
    daemon calls {!Exhaustive.search} directly.  This module and the
    serve query's [strategy] field remain only because the frozen
    benchmark harness ([perfbench/]) names them; they go with the next
    change to that harness. *)

type t = Exhaustive  (** the bit-deterministic oracle (staged kernel) *)

val name : t -> string
(** ["exhaustive"] — the spelling in [optimize --json] and the serve
    optimize payload's ["strategy"] key. *)

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
  env:Array_model.Array_eval.env ->
  capacity_bits:int ->
  method_:Space.method_ ->
  unit ->
  Exhaustive.result
(** [run Exhaustive] is {!Exhaustive.search}. *)
