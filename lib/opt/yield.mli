(** Yield-driven assist-voltage selection.

    The paper pins V_DDC and V_WL at the minimum levels meeting the yield
    requirement (margins >= delta = 0.35 Vdd), because raising either only
    costs energy: V_DDC does not appear in the read delay and the cell
    write delay's contribution is negligible.  V_SSC is left free but
    bounded where RSNM starts degrading.

    Each pin is the smallest level of a 10 mV grid that meets its rule,
    matching the paper's reported levels.  The grid starts at Vdd and
    ends at 800 mV for V_DDC and at 1.01 V for V_WL, whose probe at
    V_WL - delta then drives the WL above Vdd + 0.4 V.  The search
    bisects over grid indices, so a pin costs 5-6 probes per rule. *)

val voltage_grid : float
(** 10 mV. *)

type rule =
  | Read_snm    (** V_DDC: RSNM(vddc, vssc = 0) - delta >= 0 *)
  | Write_flip  (** V_WL: write-0 flips the cell at V_WL - delta *)

exception
  No_level of {
    flavor : Finfet.Library.flavor;
    corner : Finfet.Corners.corner;
    celsius : float;
    rule : rule;
  }
(** No level of [rule]'s grid meets it: the cell cannot be made to
    read (or write) with margin delta at this corner and temperature.
    LVT at 125 C is such a cell: its RSNM stays below delta up to
    800 mV. *)

val grid : rule -> float list
(** Every level [rule]'s search can probe or return, ascending, with the
    exact bits {!solve} returns: Vdd, then [float k *. voltage_grid]. *)

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
(** Each pin is the first passing level of {!grid}, found by
    bisection over grid indices on the invariant "f fails, p passes".
    f starts one index below Vdd and p at the top level; neither is
    probed, except that a search ending at the top probes it to confirm.
    So the search relies on each rule reading fail-then-pass along its
    grid: RSNM grows with V_DDC, and the access strength grows with V_WL.
    [test_properties] scans every level to check it.  At the SF corner
    some flip probes do not converge and read "holds" above passing
    levels there, so SF's V_WL depends on which probes the bisection takes.
    [delta] defaults to the technology rule (157.5 mV).

    Every probe bumps the telemetry counter [yield.pin_probes]; a flip
    probe whose DC solve did not converge also bumps
    [yield.flip_nonconverged].  A cold TT solve takes 11 probes for
    either flavor.

    @raise No_level when a rule still fails at its top level.

    [corner] / [celsius] solve the pins for a derated cell instead of the
    nominal one — the corner-aware flow the PVT signoff example motivates:
    a design that must write at the SF corner needs a higher V_WL than the
    nominal-corner optimum, and this is where it comes from.  Defaults:
    TT, 25 C. *)

val write_flip :
  ?corner:Finfet.Corners.corner ->
  flavor:Finfet.Library.flavor ->
  float -> Sram_cell.Margins.flip_probe
(** [write_flip ~flavor v]: the V_WL probe {!solve} applies, a write-0
    attempt at WL = [v] - delta (25 C).  The {!Write_flip} rule holds
    where it flips. *)

val rsnm_at :
  ?points:int ->
  ?corner:Finfet.Corners.corner ->
  flavor:Finfet.Library.flavor ->
  vddc:float -> vssc:float -> unit -> float
(** RSNM at the given assist levels (25 C; default corner TT), read
    through the same probe as {!solve}'s V_DDC pin, which holds where
    [rsnm_at ~vddc ~vssc:0.0 () >= delta].  Also validates V_SSC choices
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
