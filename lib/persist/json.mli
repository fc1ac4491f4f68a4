(** The one JSON tree of the code base: value type, compact and pretty
    emitters, and a strict parser.

    The CLI's [--json] outputs (built by [Sram_edp.Json_out]'s record
    converters), the serve wire protocol, the record log and the disk
    cache all build and print this tree; only the Chrome trace files
    of [Obs.Trace], which sits below this library, are written
    elsewhere.  Floats are printed with enough digits ([%.17g]) that
    [of_string (to_string v)] reproduces every finite IEEE double
    bit-for-bit — the property the resume protocol's
    bit-identical-winner guarantee rests on — and both renderings share
    that one float format. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (single-line) serialization.
    @raise Invalid_argument on non-finite floats, which have no JSON
    representation; encode them as [Null] explicitly if needed. *)

val to_string_pretty : ?indent:int -> t -> string
(** Multi-line rendering with the given indent width (default 2).
    Scalars render exactly as in {!to_string}.
    @raise Invalid_argument on non-finite floats, like {!to_string}. *)

val of_string : string -> (t, string) result
(** Strict parse of a complete JSON document. *)

(** {2 Accessors} — all total, returning [None] on shape mismatch. *)

val member : string -> t -> t option
val to_int : t -> int option
val to_float : t -> float option
(** [to_float] also accepts [Int] (JSON does not distinguish). *)

val to_string_opt : t -> string option
val to_bool : t -> bool option
val to_list : t -> t list option

val int_field : t -> string -> int option
val float_field : t -> string -> float option
val string_field : t -> string -> string option
