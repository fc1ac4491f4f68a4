(** Dense LU factorization with partial pivoting, the workhorse behind the
    MNA DC solver and least-squares fits. *)

exception Singular
(** Raised when the matrix is numerically singular (pivot below threshold). *)

type factors
(** An LU factorization of a square matrix (with row-permutation record). *)

val factorize_in_place : Matrix.t -> int array -> unit
(** [factorize_in_place m perm]: {!factorize} into caller-owned buffers,
    overwriting [m] with its L\U factors and [perm] with the row order.
    @raise Singular as {!factorize} (leaving [m] partly eliminated). *)

val solve_into : Matrix.t -> int array -> float array -> float array -> unit
(** [solve_into lu perm b x] writes the solution for [b] into [x]. *)

val factorize : Matrix.t -> factors
(** @raise Singular on rank-deficient input.  Does not mutate the input. *)

val solve_factored : factors -> float array -> float array
(** Back-substitution against an existing factorization. *)

val solve : Matrix.t -> float array -> float array
(** One-shot [factorize] + [solve_factored]. *)

val det : factors -> float
(** Determinant from the factorization. *)

val solve_least_squares : Matrix.t -> float array -> float array
(** Minimum-norm solution of an overdetermined system via normal equations
    (A^T A x = A^T b).  Adequate for the small, well-conditioned fits used
    here (power-law current fits, polynomial delay fits). *)
