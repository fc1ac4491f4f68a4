(** Sparse matrices in triplet (builder) and CSR (solver) form.

    MNA matrices of SRAM peripheral netlists (decoder trees, long bitlines
    discretized into RC ladders) are large and very sparse; this module
    provides the storage plus iterative solvers so those systems never
    densify. *)

module Builder : sig
  type t
  (** Accumulating triplet store; duplicate (i,j) entries sum, matching MNA
      stamping semantics. *)

  val create : n:int -> t
  (** Square [n] x [n] builder. *)

  val add : t -> int -> int -> float -> unit
  (** [add b i j x] stamps [x] into entry (i,j). *)
end

type t
(** Compressed sparse row matrix. *)

val of_builder : Builder.t -> t
(** Compress, summing duplicates and dropping explicit zeros. *)

val dim : t -> int
val nnz : t -> int

val mat_vec : t -> float array -> float array

val get : t -> int -> int -> float
(** Entry lookup (binary search within the row); 0 where no entry stored. *)

val iter : t -> (int -> int -> float -> unit) -> unit
(** [iter a f] applies [f row col value] to every stored entry, row by
    row in column order. *)

val to_dense : t -> Matrix.t

val cg :
  ?tol:float -> ?max_iter:int -> t -> float array -> float array
(** Conjugate gradient for symmetric positive-definite systems (e.g. pure-RC
    networks).  [tol] is the relative residual target (default 1e-10).
    Returns the final iterate; convergence is checked by the caller via
    {!residual_norm} when in doubt. *)

val bicgstab :
  ?tol:float -> ?max_iter:int -> t -> float array -> float array
(** BiCGSTAB for general nonsymmetric systems (MNA with sources). *)

val residual_norm : t -> x:float array -> b:float array -> float
(** ||b - Ax||_2. *)
