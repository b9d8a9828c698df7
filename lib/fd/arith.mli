(** Primitive arithmetic constraints.

    Every [post_*] function registers one or more propagators in the
    store and runs them once immediately.  Bounds(Z) consistency unless
    stated otherwise. *)

open Store

val leq_offset : t -> var -> int -> var -> unit
(** [leq_offset s x c y] posts [x + c <= y]. *)

val lt : t -> var -> var -> unit
(** [lt s x y] posts [x < y]. *)

val eq_offset : t -> var -> int -> var -> unit
(** [eq_offset s x c y] posts [y = x + c]; domain consistent. *)

val neq : t -> var -> var -> unit
(** Disequality: prunes when either side becomes fixed. *)

val neq_offset : t -> var -> int -> var -> unit
(** [neq_offset s x c y] posts [x + c <> y]. *)

val neq_classes : t -> classes:int array -> var array -> unit
(** [neq_classes s ~classes xs] posts [xs.(i) <> xs.(j)] for every pair
    with [classes.(i) <> classes.(j)]: the pairwise {!neq}s, as one
    propagator that removes a newly fixed variable's value from every
    variable of another class.
    @raise Invalid_argument if the arrays differ in length. *)

val plus : t -> var -> var -> var -> unit
(** [plus s x y z] posts [z = x + y]. *)

val max_of : t -> ?offsets:int list -> var list -> var -> unit
(** [max_of s ~offsets xs m] posts [m = max_i (x_i + o_i)], where the
    [o_i] are [offsets] (all 0 when omitted).  [xs] must be non-empty.
    @raise Invalid_argument if [offsets] and [xs] differ in length. *)

val mod_const : t -> var -> int -> var -> unit
(** [mod_const s x c r] posts [r = x mod c] ([c > 0], [x >= 0]);
    domain consistent. *)

val linear_leq : t -> (int * var) list -> int -> unit
(** [linear_leq s terms k] posts [sum(c_i * x_i) <= k]. *)

val linear_eq : t -> (int * var) list -> int -> unit
(** [linear_eq s terms k] posts [sum(c_i * x_i) = k]. *)

val sum : t -> var list -> var -> unit
(** [sum s xs total] posts [total = sum(xs)]. *)
