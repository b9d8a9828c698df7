(** The embedded domain-specific language (paper §3.1, listing 1).

    The DSL mirrors the paper's Scala library in OCaml: programs are
    written against architecture-specific data types ({!scalar},
    {!vector}, {!matrix}); *running* a DSL program both evaluates it
    concretely (the paper's "debugging run") and traces it into the IR
    dataflow graph that the scheduler consumes.

    A {!matrix} is a bundle of four row vectors and creates no IR node by
    itself — matrix data is expanded into four vector data nodes
    (paper §3.2.1).  Matrix operations create one [matrix_op] node whose
    operands are the four row-vector nodes. *)

type ctx
type scalar
type vector
type matrix

val create : unit -> ctx

(** {1 Inputs and constants} *)

val vector_input : ctx -> ?name:string -> Eit.Cplx.t array -> vector
val vector_input_f : ctx -> ?name:string -> float list -> vector
val scalar_input : ctx -> ?name:string -> Eit.Cplx.t -> scalar
val scalar_input_f : ctx -> ?name:string -> float -> scalar
val matrix_input : ctx -> ?name:string -> Eit.Cplx.t array array -> matrix
val matrix_input_f : ctx -> ?name:string -> float list list -> matrix

val matrix_of_rows : vector -> vector -> vector -> vector -> matrix
(** Group four existing vectors into a matrix (no IR node). *)

val rows : matrix -> vector * vector * vector * vector
val row : matrix -> int -> vector

(** {1 Vector-core operations} *)

val v_add : ctx -> vector -> vector -> vector
val v_sub : ctx -> vector -> vector -> vector
val v_mul : ctx -> vector -> vector -> vector
val v_scale : ctx -> vector -> scalar -> vector
val v_mac : ctx -> vector -> vector -> vector -> vector
(** [v_mac ctx a b c = a + b .* c]. *)

val v_axpy : ctx -> vector -> scalar -> vector -> vector
(** [v_axpy ctx a s b = a + s * b]. *)

val v_naxpy : ctx -> vector -> scalar -> vector -> vector
(** [v_naxpy ctx a s b = a - s * b]. *)

val v_dotp : ctx -> vector -> vector -> scalar
(** Plain dot product (listing 1's [v_dotP]). *)

val v_doth : ctx -> vector -> vector -> scalar
(** Hermitian dot product [sum a_k conj(b_k)]. *)

val v_squsum : ctx -> vector -> scalar

(** {2 Standalone pre/post-processing operations}

    These occupy the vector pipeline on their own until the merge pass
    fuses them into a neighbouring core operation (paper Fig. 6). *)

val v_conj : ctx -> vector -> vector
val v_neg : ctx -> vector -> vector
val v_mask : ctx -> vector -> int -> vector
val v_sort : ctx -> vector -> vector
val v_abs : ctx -> vector -> vector

(** {1 Matrix operations} *)

val m_squsum : ctx -> matrix -> vector
val m_vmul : ctx -> matrix -> vector -> vector
val m_hvmul : ctx -> matrix -> vector -> vector

(** {1 Scalar accelerator operations} *)

val s_sqrt : ctx -> scalar -> scalar
val s_rsqrt : ctx -> scalar -> scalar
val s_inv : ctx -> scalar -> scalar
val s_div : ctx -> scalar -> scalar -> scalar
val s_mul : ctx -> scalar -> scalar -> scalar
val s_add : ctx -> scalar -> scalar -> scalar
val s_sub : ctx -> scalar -> scalar -> scalar
val s_cordic : ctx -> scalar -> scalar

(** {1 Index / merge} *)

val merge : ctx -> scalar -> scalar -> scalar -> scalar -> vector
val splat : ctx -> scalar -> vector
val index : ctx -> vector -> int -> scalar

(** {1 Outputs and results} *)

val mark_output : ctx -> vector -> unit
val mark_output_scalar : ctx -> scalar -> unit
(** Declare application outputs (recorded in the IR / used by codegen).
    Declaring none means "every sink data node is an output". *)

val scalar_value : scalar -> Eit.Cplx.t
val vector_value : vector -> Eit.Cplx.t array
(** Concrete values from the debugging evaluation. *)

val node_of_scalar : scalar -> int
val node_of_vector : vector -> int
(** IR data-node ids of the handles. *)

val graph : ctx -> Ir.t
(** Freeze the traced program into an IR graph.
    @raise Invalid_argument if the trace violates IR invariants. *)

val declared_outputs : ctx -> int list
(** Node ids passed to {!mark_output} / {!mark_output_scalar}. *)
