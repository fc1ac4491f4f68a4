type solution = {
  voltages : float array;
  source_currents : float array;
  converged : bool;
  iterations : int;
}

let gmin = 1e-12

(* Shared MNA assembly.  The unknown vector is
   [v_1 .. v_{n-1}; i_src_1 .. i_src_m].  [companions] replaces capacitors
   by (conductance, equivalent history voltage) pairs for transient steps;
   in pure DC capacitors are open.  Each solve compiles the netlist once:
   source waveforms are evaluated at the solve's time, and every source
   and FET knows its row and current-cache slot. *)
type companion = { g_eq : float; v_hist : float }

type element =
  | Resistor of { plus : int; minus : int; ohms : float }
  | Companion of { plus : int; minus : int; g_eq : float; v_hist : float }
  | Vsource of { plus : int; minus : int; row : int; volts : float }
  | Isource of { from_node : int; to_node : int; amps : float }
  | Fet of {
      params : Finfet.Device.params;
      nfin : int;
      gate : int;
      drain : int;
      source : int;
      slot : int;
    }

(* What one solve reuses across Newton iterations and source-stepping
   ramps.  [currents] caches each FET's current at the last pass's
   iterate [at], so a Jacobian pass at the point the line search just
   accepted takes its [i0] from there. *)
type workspace = {
  elements : element array;
  nodes : int;  (* non-ground *)
  res : float array;
  jac : Numerics.Matrix.t Lazy.t;  (* dense path only *)
  currents : float array;
  at : float array;
  mutable cached : bool;
}

let workspace ~at_time ~companions netlist =
  let n = Netlist.num_nodes netlist in
  let dim = n - 1 + Netlist.vsource_count netlist in
  let src_index = ref 0 and cap_index = ref 0 and fet_index = ref 0 in
  let elements =
    Netlist.elements netlist
    |> List.filter_map (function
         | Netlist.Resistor { plus; minus; ohms } -> Some (Resistor { plus; minus; ohms })
         | Netlist.Capacitor { plus; minus; _ } ->
           Option.map
             (fun comps ->
               let { g_eq; v_hist } = comps.(!cap_index) in
               incr cap_index;
               Companion { plus; minus; g_eq; v_hist })
             companions
         | Netlist.Vsource { plus; minus; volts } ->
           let row = n - 1 + !src_index in
           incr src_index;
           Some (Vsource { plus; minus; row; volts = Netlist.waveform_at volts at_time })
         | Netlist.Isource { from_node; to_node; amps } ->
           Some (Isource { from_node; to_node; amps })
         | Netlist.Fet { params; nfin; gate; drain; source } ->
           let slot = !fet_index in
           incr fet_index;
           Some (Fet { params; nfin; gate; drain; source; slot }))
    |> Array.of_list
  in
  { elements;
    nodes = n - 1;
    res = Array.make dim 0.0;
    jac = lazy (Numerics.Matrix.create ~rows:dim ~cols:dim);
    currents = Array.make !fet_index 0.0;
    at = Array.make dim 0.0;
    cached = false }

(* Where a pass puts its Jacobian stamps, if anywhere. *)
type stamps =
  | Residual_only
  | Dense of Numerics.Matrix.t
  | Sparse of Numerics.Sparse.Builder.t

let node_v x node = if node = 0 then 0.0 else x.(node - 1)

let kcl res node amount = if node <> 0 then res.(node - 1) <- res.(node - 1) +. amount

let add stamps row col g =
  match stamps with
  | Residual_only -> ()
  | Dense m ->
    let k = (row * m.Numerics.Matrix.ncols) + col in
    m.data.(k) <- m.data.(k) +. g
  | Sparse b -> Numerics.Sparse.Builder.add b row col g

let stamp_kcl stamps node col g = if node <> 0 && col >= 0 then add stamps (node - 1) col g

let stamp_conductance stamps plus minus g =
  stamp_kcl stamps plus (plus - 1) g;
  stamp_kcl stamps plus (minus - 1) (-.g);
  stamp_kcl stamps minus (minus - 1) g;
  stamp_kcl stamps minus (plus - 1) (-.g)

(* A FET current is a pure function of its terminal voltages' bits, so
   at bit-equal iterates the cached current is the recomputed one. *)
let same_bits a b =
  let rec go i = i < 0 || (Int64.bits_of_float a.(i) = Int64.bits_of_float b.(i) && go (i - 1)) in
  go (Array.length a - 1)

(* One pass: the KCL residual at [x] into [ws.res] and, unless
   [Residual_only], the Jacobian.  Each store gets its terms in the order
   separate passes would (gmin ties, then netlist order), so every sum
   rounds the same; a FET stamp's [i0] is its residual term's current. *)
let assemble ws ~stamps ~source_scale x =
  let res = ws.res and currents = ws.currents in
  Array.fill res 0 (Array.length res) 0.0;
  let jacobian =
    match stamps with
    | Residual_only -> false
    | Dense m -> Numerics.Matrix.fill m 0.0; true
    | Sparse _ -> true
  in
  let reuse = ws.cached && same_bits x ws.at in
  (* gmin keeps floating nodes well-posed *)
  for node = 1 to ws.nodes do
    kcl res node (gmin *. x.(node - 1));
    stamp_kcl stamps node (node - 1) gmin
  done;
  Array.iter
    (function
      | Resistor { plus; minus; ohms } ->
        let i = (node_v x plus -. node_v x minus) /. ohms in
        kcl res plus i;
        kcl res minus (-.i);
        if jacobian then stamp_conductance stamps plus minus (1.0 /. ohms)
      | Companion { plus; minus; g_eq; v_hist } ->
        let i = g_eq *. (node_v x plus -. node_v x minus -. v_hist) in
        kcl res plus i;
        kcl res minus (-.i);
        if jacobian then stamp_conductance stamps plus minus g_eq
      | Vsource { plus; minus; row; volts } ->
        let i = x.(row) in
        kcl res plus i;
        kcl res minus (-.i);
        res.(row) <- node_v x plus -. node_v x minus -. (source_scale *. volts);
        (* Branch current enters the KCL rows, and the source's constraint
           row pins the terminal difference. *)
        stamp_kcl stamps plus row 1.0;
        stamp_kcl stamps minus row (-1.0);
        if plus <> 0 then add stamps row (plus - 1) 1.0;
        if minus <> 0 then add stamps row (minus - 1) (-1.0)
      | Isource { from_node; to_node; amps } ->
        let i = source_scale *. amps in
        kcl res from_node i;
        kcl res to_node (-.i)
      | Fet { params; nfin; gate; drain; source; slot } ->
        let vg = node_v x gate and vd = node_v x drain and vs = node_v x source in
        let i0 =
          if reuse then currents.(slot)
          else Finfet.Device.drain_source_current params ~nfin ~vg ~vd ~vs
        in
        currents.(slot) <- i0;
        kcl res drain i0;
        kcl res source (-.i0);
        if jacobian then begin
          (* Local finite-difference transconductances. *)
          let h = 1e-7 in
          let gm =
            (Finfet.Device.drain_source_current params ~nfin ~vg:(vg +. h) ~vd ~vs -. i0) /. h
          in
          let gds =
            (Finfet.Device.drain_source_current params ~nfin ~vg ~vd:(vd +. h) ~vs -. i0) /. h
          in
          let gs =
            (Finfet.Device.drain_source_current params ~nfin ~vg ~vd ~vs:(vs +. h) -. i0) /. h
          in
          stamp_kcl stamps drain (gate - 1) gm;
          stamp_kcl stamps drain (drain - 1) gds;
          stamp_kcl stamps drain (source - 1) gs;
          stamp_kcl stamps source (gate - 1) (-.gm);
          stamp_kcl stamps source (drain - 1) (-.gds);
          stamp_kcl stamps source (source - 1) (-.gs)
        end)
    ws.elements;
  Array.blit x 0 ws.at 0 (Array.length x);
  ws.cached <- true

let sparse_dimension_threshold = 80

let sparse_jacobian ws ~source_scale x =
  let builder = Numerics.Sparse.Builder.create ~n:(Array.length ws.res) in
  assemble ws ~stamps:(Sparse builder) ~source_scale x;
  Numerics.Sparse.of_builder builder

let sparse_step ws ~source_scale x neg_f =
  (* Retry with growing diagonal regularization on singular systems, the
     sparse counterpart of the dense gmin stepping. *)
  let dim = Array.length neg_f in
  let base = sparse_jacobian ws ~source_scale x in
  let rec attempt extra_gmin =
    let jac =
      if extra_gmin = 0.0 then base
      else begin
        let b = Numerics.Sparse.Builder.create ~n:dim in
        Numerics.Sparse.iter base (fun i j v -> Numerics.Sparse.Builder.add b i j v);
        for i = 0 to dim - 1 do
          Numerics.Sparse.Builder.add b i i extra_gmin
        done;
        Numerics.Sparse.of_builder b
      end
    in
    match Numerics.Sparse_lu.solve jac neg_f with
    | dx -> dx
    | exception Numerics.Lu.Singular ->
      if extra_gmin > 1.0 then Array.make dim 0.0
      else attempt (if extra_gmin = 0.0 then 1e-12 else extra_gmin *. 100.0)
  in
  attempt 0.0

let solve_scaled ws ~source_scale ~x0 =
  let residual x =
    assemble ws ~stamps:Residual_only ~source_scale x;
    ws.res
  in
  if Array.length x0 >= sparse_dimension_threshold then
    Numerics.Newton.solve_custom ~tol:1e-12 ~max_iter:150 ~max_step:0.15 ~residual
      ~solve_step:(sparse_step ws ~source_scale)
      ~x0 ()
  else
    Numerics.Newton.solve ~tol:1e-12 ~max_iter:150 ~max_step:0.15 ~residual
      ~jacobian:(fun x ->
        let jac = Lazy.force ws.jac in
        assemble ws ~stamps:(Dense jac) ~source_scale x;
        jac)
      ~x0 ()

let unpack netlist (result : Numerics.Newton.result) ~iterations =
  let n = Netlist.num_nodes netlist in
  let voltages = Array.make n 0.0 in
  Array.blit result.Numerics.Newton.x 0 voltages 1 (n - 1);
  let source_currents =
    Array.sub result.Numerics.Newton.x (n - 1) (Netlist.vsource_count netlist)
  in
  { voltages; source_currents;
    converged = result.Numerics.Newton.converged;
    iterations }

let solve_with_companions ?x0 ?(at_time = 0.0) ~companions netlist =
  (match Netlist.validate netlist with
   | Ok () -> ()
   | Error msg -> invalid_arg ("Dc.operating_point: " ^ msg));
  let ws = workspace ~at_time ~companions netlist in
  let dim = Array.length ws.res in
  let solve_scaled = solve_scaled ws in
  let start = match x0 with Some v -> Array.copy v | None -> Array.make dim 0.0 in
  let direct = solve_scaled ~source_scale:1.0 ~x0:start in
  if direct.Numerics.Newton.converged then
    unpack netlist direct ~iterations:direct.Numerics.Newton.iterations
  else begin
    (* Source stepping: ramp every source from zero, warm-starting. *)
    let scales = [ 0.1; 0.2; 0.3; 0.4; 0.5; 0.6; 0.7; 0.8; 0.9; 1.0 ] in
    let x = ref (Array.make dim 0.0) in
    let total = ref direct.Numerics.Newton.iterations in
    let last = ref direct in
    List.iter
      (fun scale ->
        let r = solve_scaled ~source_scale:scale ~x0:!x in
        total := !total + r.Numerics.Newton.iterations;
        x := r.Numerics.Newton.x;
        last := r)
      scales;
    unpack netlist !last ~iterations:!total
  end

let operating_point ?x0 ?(at_time = 0.0) netlist =
  solve_with_companions ?x0 ~at_time ~companions:None netlist

let operating_point_companioned ?x0 ~at_time ~companions netlist =
  solve_with_companions ?x0 ~at_time ~companions:(Some companions) netlist

let solution_vector s =
  Array.append (Array.sub s.voltages 1 (Array.length s.voltages - 1)) s.source_currents

let small_signal_conductance netlist s =
  sparse_jacobian
    (workspace ~at_time:0.0 ~companions:None netlist)
    ~source_scale:1.0 (solution_vector s)

let sweep ~build ~points =
  let prev = ref None in
  Array.map
    (fun p ->
      let netlist = build p in
      let s = operating_point ?x0:!prev netlist in
      prev := Some (solution_vector s);
      s)
    points

let node_voltage s node = s.voltages.(node)
