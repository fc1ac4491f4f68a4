type result = {
  x : float array;
  converged : bool;
  iterations : int;
  residual : float;
}

let norm_inf v = Array.fold_left (fun acc x -> max acc (abs_float x)) 0.0 v

let solve_custom ?(tol = 1e-12) ?(max_iter = 200) ?(damping = 1.0)
    ?(max_step = 0.12) ~residual ~solve_step ~x0 () =
  let n = Array.length x0 in
  let x = Array.copy x0 in
  let base = Array.make n 0.0 and neg_f = Array.make n 0.0 in
  (* [f] is the residual at [x]: the accepted point of the previous line
     search, so every iterate is evaluated once. *)
  let rec iterate iter f fnorm =
    if fnorm < tol then { x; converged = true; iterations = iter; residual = fnorm }
    else if iter >= max_iter then
      { x; converged = false; iterations = iter; residual = fnorm }
    else begin
      for i = 0 to n - 1 do
        neg_f.(i) <- -.f.(i)
      done;
      let dx = solve_step x neg_f in
      (* Clamp each component to the trust region. *)
      for i = 0 to n - 1 do
        if dx.(i) > max_step then dx.(i) <- max_step
        else if dx.(i) < -.max_step then dx.(i) <- -.max_step
      done;
      (* Backtracking line search on the residual norm. *)
      Array.blit x 0 base 0 n;
      let rec backtrack scale tries =
        for i = 0 to n - 1 do
          x.(i) <- base.(i) +. (scale *. damping *. dx.(i))
        done;
        let f = residual x in
        let fnew = norm_inf f in
        if fnew < fnorm || tries >= 8 then iterate (iter + 1) f fnew
        else backtrack (scale *. 0.5) (tries + 1)
      in
      backtrack 1.0 0
    end
  in
  let f0 = residual x in
  iterate 0 f0 (norm_inf f0)

let solve ?tol ?max_iter ?damping ?max_step ~residual ~jacobian ~x0 () =
  let n = Array.length x0 in
  (* Factor buffers, shared by every iteration of this solve. *)
  let lu = lazy (Matrix.create ~rows:n ~cols:n) in
  let perm = Array.make n 0 and dx = Array.make n 0.0 in
  let solve_step x neg_f =
    let jac = jacobian x and lu = Lazy.force lu in
    (* Plain LU first; on singularity, add an increasing diagonal
       conductance (gmin stepping) until the system factors. *)
    let rec attempt gmin =
      Array.blit jac.Matrix.data 0 lu.Matrix.data 0 (n * n);
      if gmin > 0.0 then
        for i = 0 to n - 1 do
          Matrix.add_to lu i i gmin
        done;
      match Lu.factorize_in_place lu perm with
      | () -> Lu.solve_into lu perm neg_f dx
      | exception Lu.Singular ->
        if gmin > 1.0 then Array.fill dx 0 n 0.0
        else attempt (if gmin = 0.0 then 1e-12 else gmin *. 100.0)
    in
    attempt 0.0;
    dx
  in
  solve_custom ?tol ?max_iter ?damping ?max_step ~residual ~solve_step ~x0 ()

let solve_fd ?(tol = 1e-12) ?(max_iter = 200) ?(damping = 1.0) ?(max_step = 0.12)
    ?(eps = 1e-7) ~residual ~x0 () =
  let n = Array.length x0 in
  let jacobian x =
    let f0 = Array.copy (residual x) in
    let jac = Matrix.create ~rows:n ~cols:n in
    let xp = Array.copy x in
    for j = 0 to n - 1 do
      let h = eps *. max 1.0 (abs_float x.(j)) in
      xp.(j) <- x.(j) +. h;
      let fj = residual xp in
      xp.(j) <- x.(j);
      for i = 0 to n - 1 do
        Matrix.set jac i j ((fj.(i) -. f0.(i)) /. h)
      done
    done;
    jac
  in
  solve ~tol ~max_iter ~damping ~max_step ~residual ~jacobian ~x0 ()
