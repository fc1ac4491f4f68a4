exception Singular

type factors = { lu : Matrix.t; perm : int array }

let pivot_threshold = 1e-14

let factorize_in_place (m : Matrix.t) perm =
  let n = m.Matrix.nrows and a = m.Matrix.data in
  assert (m.Matrix.ncols = n && Array.length perm = n);
  for i = 0 to n - 1 do
    perm.(i) <- i
  done;
  for k = 0 to n - 1 do
    (* Partial pivoting: bring the largest remaining |entry| in column k up. *)
    let pivot_row = ref k in
    let pivot_val = ref (abs_float a.((k * n) + k)) in
    for i = k + 1 to n - 1 do
      let v = abs_float a.((i * n) + k) in
      if v > !pivot_val then begin
        pivot_val := v;
        pivot_row := i
      end
    done;
    if !pivot_val < pivot_threshold then raise Singular;
    let p = !pivot_row in
    if p <> k then begin
      for j = 0 to n - 1 do
        let tmp = a.((k * n) + j) in
        a.((k * n) + j) <- a.((p * n) + j);
        a.((p * n) + j) <- tmp
      done;
      let tmp = perm.(k) in
      perm.(k) <- perm.(p);
      perm.(p) <- tmp
    end;
    let pivot = a.((k * n) + k) in
    for i = k + 1 to n - 1 do
      let factor = a.((i * n) + k) /. pivot in
      a.((i * n) + k) <- factor;
      if factor <> 0.0 then
        for j = k + 1 to n - 1 do
          a.((i * n) + j) <- a.((i * n) + j) +. (-.factor *. a.((k * n) + j))
        done
    done
  done

let solve_into (lu : Matrix.t) perm b x =
  let n = lu.Matrix.nrows and a = lu.Matrix.data in
  assert (Array.length b = n && Array.length x = n);
  for i = 0 to n - 1 do
    x.(i) <- b.(perm.(i))
  done;
  (* Forward substitution with unit-lower L. *)
  for i = 1 to n - 1 do
    let acc = ref x.(i) in
    for j = 0 to i - 1 do
      acc := !acc -. (a.((i * n) + j) *. x.(j))
    done;
    x.(i) <- !acc
  done;
  (* Backward substitution with U. *)
  for i = n - 1 downto 0 do
    let acc = ref x.(i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (a.((i * n) + j) *. x.(j))
    done;
    x.(i) <- !acc /. a.((i * n) + i)
  done

let factorize m =
  let lu = Matrix.copy m in
  let perm = Array.make (Matrix.rows m) 0 in
  factorize_in_place lu perm;
  { lu; perm }

let solve_factored { lu; perm } b =
  let x = Array.make (Array.length b) 0.0 in
  solve_into lu perm b x;
  x

let solve m b = solve_factored (factorize m) b

let det { lu; perm } =
  let n = Matrix.rows lu in
  (* Sign of the permutation: count transpositions. *)
  let visited = Array.make n false in
  let sign = ref 1.0 in
  for i = 0 to n - 1 do
    if not visited.(i) then begin
      let len = ref 0 in
      let j = ref i in
      while not visited.(!j) do
        visited.(!j) <- true;
        j := perm.(!j);
        incr len
      done;
      if !len mod 2 = 0 then sign := -. !sign
    end
  done;
  let d = ref !sign in
  for i = 0 to n - 1 do
    d := !d *. Matrix.get lu i i
  done;
  !d

let solve_least_squares a b =
  let at = Matrix.transpose a in
  let ata = Matrix.mat_mul at a in
  let atb = Matrix.mat_vec at b in
  solve ata atb
