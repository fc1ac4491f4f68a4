(* Kept for the benchmark harness's sake; see the interface. *)

type t = Exhaustive

let name Exhaustive = "exhaustive"

let run Exhaustive = Exhaustive.search
