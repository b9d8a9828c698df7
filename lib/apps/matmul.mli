(** MATMUL — the paper's listing 1: multiply a 4x4 matrix with its
    transpose using 16 vector dot products and 4 merges.

    Because [(A A^T)_{ij} = row_i(A) . row_j(A)], accessing "the j-th
    vector of A as a column vector" (listing 1, line 16) reads row [j]
    of [A]: the specialized memory supports the transposed access
    pattern and no index nodes appear in the IR (paper Fig. 3).

    The resulting graph has |V| = 44, |E| = 68, |Cr.P| = 8 — exactly the
    properties reported in Table 3. *)

open Eit_dsl

type t = {
  ctx : Dsl.ctx;
  input : Dsl.matrix;
  result : Dsl.matrix;   (** rows of A * A^T *)
}

val build : ?a:float list list -> unit -> t
(** Defaults to the hard-coded input of listing 1
    ([[1;2;3;4] [2;3;4;5] [3;4;5;6] [4;5;6;7]]). *)

val build_complex : Eit.Cplx.t array array -> t

val build_matrix_form : ?a:float list list -> unit -> t
(** The same computation expressed with matrix operations instead of 16
    dot products: since [A A^T] is symmetric, its row [i] equals
    [A * row_i(A)], so four [m_vmul] nodes produce the result with no
    merges at all.  §4.2 notes that "different expressions may result in
    different graphs, which in turn may result in different schedules" —
    this is the comparison subject (see the [expressiveness] bench). *)

val graph : t -> Ir.t
val default_input : float list list

(** {1 Blocked k x k grids (future-work scale)} *)

type blocked = {
  bctx : Dsl.ctx;
  k : int;  (** blocks per side: the matrix is [4k x 4k] *)
  c_rows : Dsl.vector array array;
      (** [c_rows.(k * bi + bj)] holds the four rows of block
          C_{bi,bj} *)
}

val build_blocked : ?seed:int -> k:int -> unit -> blocked
(** [A A^T] for a [4k x 4k] matrix as a [k x k] grid of the 4x4
    primitives: each output block [C_{ij} = sum_b A_{ib} A_{jb}^T]
    costs [k] block products (16 [v_dotP] + 4 merges each) and
    [4 (k - 1)] [v_add].  [k = 1] is MATMUL's 20 ops; [k = 2] is
    blocked8 (176 ops), [k = 3] blocked12 (612), [k = 4] blocked16
    (1,472).  The input is drawn from a seeded LCG, row-major.
    @raise Invalid_argument if [k < 1]. *)

val build_blocked8 : ?seed:int -> unit -> blocked
(** [build_blocked ~k:2]: the paper's §5 "more complex applications"
    at the scale the 4-lane core natively supports.  Graph: ~270
    nodes, a scheduler stress test. *)

val blocked_reference : k:int -> seed:int -> Eit.Cplx.t array array
(** The [4k x 4k] product [A A^T] for the same deterministic input. *)

val blocked_rows : blocked -> Eit.Cplx.t array array
(** The traced result rows, assembled back into a [4k x 4k] matrix. *)
