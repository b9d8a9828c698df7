(** Runtime values of the EIT data path: complex scalars, 4-element
    vectors and 4x4 matrices (a matrix is exactly four row vectors, as in
    the paper's DSL). *)

val vlen : int
(** Hardware vector length: 4. *)

type t =
  | Scalar of Cplx.t
  | Vector of Cplx.t array   (** length {!vlen} *)
  | Matrix of Cplx.t array array  (** {!vlen} rows of length {!vlen} *)

val scalar : Cplx.t -> t
val vector : Cplx.t array -> t
(** @raise Invalid_argument if the array length differs from {!vlen}. *)

val matrix : Cplx.t array array -> t
(** @raise Invalid_argument unless it is {!vlen} rows of {!vlen}. *)

val vector_of_list : Cplx.t list -> t
val vector_of_floats : float list -> t

val as_scalar : t -> Cplx.t
val as_vector : t -> Cplx.t array
val as_matrix : t -> Cplx.t array array
(** @raise Invalid_argument on kind mismatch. *)

val kind : t -> string
(** ["scalar"], ["vector"] or ["matrix"]. *)

val row : t -> int -> t
(** [row m i]: the [i]-th row of a matrix as a vector. *)

val col : t -> int -> t
(** [col m j]: the [j]-th column of a matrix as a vector. *)

val equal : ?eps:float -> t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
