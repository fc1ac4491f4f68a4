module Builder = struct
  type t = {
    n : int;
    mutable is : int list;
    mutable js : int list;
    mutable xs : float list;
    mutable count : int;
  }

  let create ~n =
    assert (n > 0);
    { n; is = []; js = []; xs = []; count = 0 }

  let add b i j x =
    assert (i >= 0 && i < b.n && j >= 0 && j < b.n);
    if x <> 0.0 then begin
      b.is <- i :: b.is;
      b.js <- j :: b.js;
      b.xs <- x :: b.xs;
      b.count <- b.count + 1
    end
end

type t = {
  n : int;
  row_ptr : int array; (* length n+1 *)
  col_idx : int array; (* length nnz, sorted within each row *)
  values : float array;
}

let of_builder (b : Builder.t) =
  let n = b.Builder.n in
  let is = Array.of_list b.Builder.is in
  let js = Array.of_list b.Builder.js in
  let xs = Array.of_list b.Builder.xs in
  let m = Array.length is in
  (* Sort triplets by (row, col) using an index permutation. *)
  let order = Array.init m (fun k -> k) in
  Array.sort
    (fun a b ->
      let c = compare is.(a) is.(b) in
      if c <> 0 then c else compare js.(a) js.(b))
    order;
  (* Merge duplicates. *)
  let merged_i = ref [] and merged_j = ref [] and merged_x = ref [] in
  let count = ref 0 in
  let k = ref 0 in
  while !k < m do
    let i = is.(order.(!k)) and j = js.(order.(!k)) in
    let acc = ref 0.0 in
    while !k < m && is.(order.(!k)) = i && js.(order.(!k)) = j do
      acc := !acc +. xs.(order.(!k));
      incr k
    done;
    if !acc <> 0.0 then begin
      merged_i := i :: !merged_i;
      merged_j := j :: !merged_j;
      merged_x := !acc :: !merged_x;
      incr count
    end
  done;
  let nnz = !count in
  let mi = Array.of_list (List.rev !merged_i) in
  let mj = Array.of_list (List.rev !merged_j) in
  let mx = Array.of_list (List.rev !merged_x) in
  let row_ptr = Array.make (n + 1) 0 in
  Array.iter (fun i -> row_ptr.(i + 1) <- row_ptr.(i + 1) + 1) mi;
  for i = 0 to n - 1 do
    row_ptr.(i + 1) <- row_ptr.(i + 1) + row_ptr.(i)
  done;
  let col_idx = Array.make nnz 0 in
  let values = Array.make nnz 0.0 in
  let cursor = Array.copy row_ptr in
  for k = 0 to nnz - 1 do
    let i = mi.(k) in
    col_idx.(cursor.(i)) <- mj.(k);
    values.(cursor.(i)) <- mx.(k);
    cursor.(i) <- cursor.(i) + 1
  done;
  { n; row_ptr; col_idx; values }

let dim a = a.n
let nnz a = Array.length a.values

let mat_vec a v =
  assert (Array.length v = a.n);
  Array.init a.n (fun i ->
      let acc = ref 0.0 in
      for k = a.row_ptr.(i) to a.row_ptr.(i + 1) - 1 do
        acc := !acc +. (a.values.(k) *. v.(a.col_idx.(k)))
      done;
      !acc)

let get a i j =
  assert (i >= 0 && i < a.n && j >= 0 && j < a.n);
  let lo = ref a.row_ptr.(i) and hi = ref (a.row_ptr.(i + 1) - 1) in
  let result = ref 0.0 in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let c = a.col_idx.(mid) in
    if c = j then begin
      result := a.values.(mid);
      lo := !hi + 1
    end
    else if c < j then lo := mid + 1
    else hi := mid - 1
  done;
  !result

let iter a f =
  for i = 0 to a.n - 1 do
    for k = a.row_ptr.(i) to a.row_ptr.(i + 1) - 1 do
      f i a.col_idx.(k) a.values.(k)
    done
  done

let to_dense a =
  let m = Matrix.create ~rows:a.n ~cols:a.n in
  for i = 0 to a.n - 1 do
    for k = a.row_ptr.(i) to a.row_ptr.(i + 1) - 1 do
      Matrix.set m i a.col_idx.(k) a.values.(k)
    done
  done;
  m

let dot x y =
  let acc = ref 0.0 in
  for i = 0 to Array.length x - 1 do
    acc := !acc +. (x.(i) *. y.(i))
  done;
  !acc

let axpy alpha x y =
  (* y <- y + alpha x *)
  for i = 0 to Array.length x - 1 do
    y.(i) <- y.(i) +. (alpha *. x.(i))
  done

let norm2 x = sqrt (dot x x)

let residual_norm a ~x ~b =
  let ax = mat_vec a x in
  let r = Array.mapi (fun i bi -> bi -. ax.(i)) b in
  norm2 r

let cg ?(tol = 1e-10) ?(max_iter = 2000) a b =
  let n = a.n in
  let x = Array.make n 0.0 in
  let r = Array.copy b in
  let p = Array.copy b in
  let bnorm = max (norm2 b) 1e-300 in
  let rsold = ref (dot r r) in
  (try
     for _ = 1 to max_iter do
       if sqrt !rsold /. bnorm < tol then raise Exit;
       let ap = mat_vec a p in
       let alpha = !rsold /. dot p ap in
       axpy alpha p x;
       axpy (-.alpha) ap r;
       let rsnew = dot r r in
       let beta = rsnew /. !rsold in
       for i = 0 to n - 1 do
         p.(i) <- r.(i) +. (beta *. p.(i))
       done;
       rsold := rsnew
     done
   with Exit -> ());
  x

let bicgstab ?(tol = 1e-10) ?(max_iter = 2000) a b =
  let n = a.n in
  let x = Array.make n 0.0 in
  let r = Array.copy b in
  let r_hat = Array.copy b in
  let bnorm = max (norm2 b) 1e-300 in
  let rho = ref 1.0 and alpha = ref 1.0 and omega = ref 1.0 in
  let v = Array.make n 0.0 and p = Array.make n 0.0 in
  (try
     for _ = 1 to max_iter do
       if norm2 r /. bnorm < tol then raise Exit;
       let rho_new = dot r_hat r in
       if abs_float rho_new < 1e-300 then raise Exit;
       let beta = rho_new /. !rho *. (!alpha /. !omega) in
       rho := rho_new;
       for i = 0 to n - 1 do
         p.(i) <- r.(i) +. (beta *. (p.(i) -. (!omega *. v.(i))))
       done;
       let v' = mat_vec a p in
       Array.blit v' 0 v 0 n;
       alpha := !rho /. dot r_hat v;
       let s = Array.init n (fun i -> r.(i) -. (!alpha *. v.(i))) in
       if norm2 s /. bnorm < tol then begin
         axpy !alpha p x;
         raise Exit
       end;
       let t = mat_vec a s in
       let tt = dot t t in
       omega := if tt < 1e-300 then 0.0 else dot t s /. tt;
       for i = 0 to n - 1 do
         x.(i) <- x.(i) +. (!alpha *. p.(i)) +. (!omega *. s.(i));
         r.(i) <- s.(i) -. (!omega *. t.(i))
       done;
       if abs_float !omega < 1e-300 then raise Exit
     done
   with Exit -> ());
  x
