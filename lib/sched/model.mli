(** The unified constraint model for scheduling with memory allocation
    (paper §3.3-3.4).

    One model instance owns a {!Fd.Store.t} with:
    - a start-time variable per op, and per vector datum when the
      memory part is on (see {!start}); eq. 1 precedences on edges,
      eq. 4 for the data;
    - Cumulative over the four vector lanes (eq. 2), the scalar
      accelerator and the index/merge unit;
    - pairwise start disequality for differently-configured vector ops
      (eq. 3);
    - the makespan objective variable (eq. 5);
    - per vector-datum: a slot variable channeled to line and page
      variables (eq. 6), the page=>line access implications for operands
      of one op (eq. 7) and for operands/results of potentially
      co-scheduled op pairs (eqs. 8-9), lifetime variables (eq. 10) and
      the Diff2 slot-reuse constraint (eq. 11);
    - Cumulatives for the memory ports: the write port, and the read
      port only where the lane Cumulative does not imply it (some
      reader is off the vector core, or reads more than
      [max_reads_per_cycle / n_lanes] vectors per lane; DESIGN.md §5). *)

open Eit_dsl

(** How the model reads a node's start cycle.  Every op has its own
    variable.  So has every datum a memory constraint reads as a
    variable: the vector data, when the memory part is on (Diff2,
    eq. 9's access rule, the write port and eq. 10 take plain
    variables).  Every other datum takes eq. 4 by substitution: a
    produced one starts when its producer completes, an input at 0, and
    neither costs a variable or a propagator. *)
type start =
  | Var of Fd.Store.var           (** the node's own start variable *)
  | Offset of Fd.Store.var * int  (** [Offset (s_p, lat_p)]: [s_p + lat_p] *)
  | Const of int                  (** a fixed cycle (an input datum) *)

type t = {
  store : Fd.Store.t;
  ir : Ir.t;
  arch : Eit.Arch.t;
  start : start array;              (** per node *)
  slot : (int * Fd.Store.var) list; (** per vector-data node *)
  life : (int * Fd.Store.var) list;
  makespan : Fd.Store.var;
  horizon : int;
}

val horizon_estimate : Ir.t -> Eit.Arch.t -> int
(** A safe upper bound on the optimal makespan: serialize everything. *)

val too_wide : Ir.t -> Eit.Arch.t -> string option
(** The first op that needs more vector lanes than [arch] has, named
    with its id and opcode, e.g. ["op 41 (m_hvmul) needs 4 lanes, the
    machine has 2"]; such a problem is infeasible. *)

val build :
  ?horizon:int -> ?deadline:Fd.Deadline.t -> ?memory:bool -> Ir.t -> Eit.Arch.t -> t
(** Construct the model and run root propagation.
    [memory] (default [true]) includes the slot-allocation part; turning
    it off reproduces a scheduling-only model (used as ablation and by
    the manual baseline).  A finite [deadline] installs a store poll, so
    even the root propagation sweep is interruptible.
    @raise Fd.Store.Fail if the root model is inconsistent, e.g. when
    {!too_wide} names an op.
    @raise Fd.Store.Interrupted if [deadline] expires during root
    propagation. *)

val phases : t -> Fd.Search.phase list
(** The paper's three search phases (§3.5): operation starts, then the
    data starts that are variables ([Var] in {!start}; eq. 4 fixes them
    once their producers are), then slots. *)

val extract : t -> Schedule.t
(** Snapshot the current (fully assigned) store into a schedule. *)
