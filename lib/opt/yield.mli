(** Yield-driven assist-voltage selection.

    The paper pins V_DDC and V_WL at the minimum levels meeting the yield
    requirement (margins >= delta = 0.35 Vdd), because raising either only
    costs energy: V_DDC does not appear in the read delay and the cell
    write delay's contribution is negligible.  V_SSC is left free but
    bounded where RSNM starts degrading.  Voltages are snapped up to a
    10 mV grid, matching the paper's reported levels. *)

val voltage_grid : float
(** 10 mV. *)

val snap_up : float -> float
(** Round a voltage up to the next grid point (away from the constraint
    boundary). *)

type levels = {
  vddc_min : float;   (** minimum V_DDC with RSNM(vddc, vssc = 0) >= delta *)
  vwl_min : float;    (** minimum write-WL level with WM >= delta *)
  hsnm_nominal : float;  (** HSNM at nominal Vdd (must already exceed delta) *)
}

val levels_to_json : levels -> Persist.Json.t
val levels_of_json : Persist.Json.t -> levels option
(** The pins' one codec, shared by the [yield.solve] disk tier and
    {!Exhaustive.result_to_json}. [levels_of_json] is [None] on a
    missing or mistyped field. *)

val solve :
  ?delta:float ->
  ?points:int ->
  ?corner:Finfet.Corners.corner ->
  ?celsius:float ->
  flavor:Finfet.Library.flavor ->
  unit ->
  levels
(** Bisection over the monotone margin-vs-voltage curves.
    [delta] defaults to the technology rule (157.5 mV).

    [corner] / [celsius] solve the pins for a derated cell instead of the
    nominal one — the corner-aware flow the PVT signoff example motivates:
    a design that must write at the SF corner needs a higher V_WL than the
    nominal-corner optimum, and this is where it comes from.  Defaults:
    TT, 25 C. *)

val rsnm_at :
  ?points:int ->
  flavor:Finfet.Library.flavor ->
  vddc:float -> vssc:float -> unit -> float
(** RSNM at the given assist levels, used to validate V_SSC choices
    (the paper caps the negative-Gnd range at -240 mV where RSNM
    degrades).  Not memoized: nothing on the optimize path calls it. *)

val margins_ok :
  ?delta:float ->
  ?points:int ->
  flavor:Finfet.Library.flavor ->
  vddc:float -> vssc:float -> vwl:float ->
  unit ->
  bool
(** Full simplified constraint of Section 4:
    min(HSNM, RSNM, WM) >= delta for the given assist levels. *)
