(** Dense linear algebra for the MNA solver.

    Circuits in this project have at most a dozen unknowns, so a dense
    LU factorization with partial pivoting is both the simplest and the
    fastest adequate tool.  Matrices are ordinary [float array array] in
    row-major order.  {!solve_in_place} works in caller-owned buffers, so
    a Newton loop that keeps its workspace allocates nothing per solve. *)

type mat = float array array
type vec = float array

exception Singular
(** Raised when a factorization or solve meets an (almost) singular
    matrix; the caller (e.g. the DC solver) treats this as a convergence
    failure and retries with continuation aids. *)

val make_mat : int -> mat
(** [make_mat n] is a fresh [n] x [n] zero matrix. *)

val copy_mat : mat -> mat
(** Deep copy. *)

val mat_vec : mat -> vec -> vec
(** [mat_vec a x] is the product [a * x]. *)

val residual_norm : mat -> vec -> vec -> float
(** [residual_norm a x b] is [||a x - b||_inf], used in solver sanity
    assertions. *)

val lu_solve : mat -> vec -> vec
(** [lu_solve a b] solves [a x = b] by LU with partial pivoting.
    [a] and [b] are not modified.  Raises {!Singular} when a pivot falls
    below a tiny absolute threshold. *)

val solve_in_place : mat -> vec -> perm:int array -> scratch:vec -> unit
(** [solve_in_place a b ~perm ~scratch] factorizes [a] in place (its rows
    are exchanged by pivoting) and overwrites [b] with the solution.
    [perm] and [scratch] are workspace of length [Array.length b]; their
    contents on entry are ignored.  The allocation-free solver behind
    {!lu_solve}.  Raises {!Singular} as {!lu_solve}. *)

val norm_inf : vec -> float
(** Maximum absolute entry. *)
