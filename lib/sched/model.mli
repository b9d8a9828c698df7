(** The unified constraint model for scheduling with memory allocation
    (paper §3.3-3.4).

    One model instance owns a {!Fd.Store.t} with:
    - a start-time variable per op, and per vector datum when the
      memory part is on (see {!start}); eq. 1 precedences on edges,
      eq. 4 for the data;
    - Cumulative over the four vector lanes (eq. 2), the scalar
      accelerator and the index/merge unit;
    - start disequality for differently-configured vector ops (eq. 3),
      one {!Fd.Arith.neq_classes} over {!config_classes};
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
  tail : int array;  (** per node, {!Bounds.t}'s tail, for {!phases} *)
}

val horizon_estimate : Ir.t -> Eit.Arch.t -> int
(** A safe upper bound on the optimal makespan: serialize everything. *)

val too_wide : Ir.t -> Eit.Arch.t -> string option
(** The first op that needs more vector lanes than [arch] has, named
    with its id and opcode, e.g. ["op 41 (m_hvmul) needs 4 lanes, the
    machine has 2"]; such a problem is infeasible. *)

val build : ?deadline:Fd.Deadline.t -> ?memory:bool -> Ir.t -> Eit.Arch.t -> t
(** Construct the model and run root propagation, with every start in
    [[0, horizon_estimate]].
    [memory] (default [true]) includes the slot-allocation part; turning
    it off reproduces a scheduling-only model (used as ablation and by
    the manual baseline).  A finite [deadline] installs a store poll, so
    even the root propagation sweep is interruptible.
    @raise Fd.Store.Fail if the root model is inconsistent, e.g. when
    {!too_wide} names an op.
    @raise Fd.Store.Interrupted if [deadline] expires during root
    propagation. *)

(** {2 The parts §4.3's modulo model shares}

    {!build} posts eqs. 1-4 through these, in this order; {!Modulo}
    posts them over its own store, with the memory part off. *)

val post_timing :
  Fd.Store.t -> Ir.t -> Eit.Arch.t -> memory:bool -> horizon:int -> start array
(** The start variables, in [[0, horizon]] (see {!start}), eq. 4 and
    eq. 1's precedences. *)

val post_units :
  Fd.Store.t ->
  Ir.t ->
  Eit.Arch.t ->
  at:(int -> Fd.Store.var) ->
  duration:(Eit.Opcode.t -> int) ->
  unit
(** Eq. 2 and the serial units' capacities: one Cumulative per execution
    resource, op [i] issued at [at i] for [duration] of its opcode.  The
    flat model passes the start variables and {!Eit.Arch.duration}; the
    modulo model passes the residues [s mod II] and unit durations. *)

val config_classes : Ir.t -> int array * int array
(** The vector-core ops in node order, and each one's configuration
    class, numbered by first occurrence (equal iff
    {!Eit.Opcode.config_equal}).  Eq. 3 is {!Fd.Arith.neq_classes} over
    them. *)

val start_values : start array -> int array
(** Every node's start cycle in the store's current (fixed) state. *)

val phases : t -> Fd.Search.phase list
(** The paper's three search phases (§3.5): operation starts, then the
    data starts that are variables ([Var] in {!start}; eq. 4 fixes them
    once their producers are), then slots.  Phase 1 takes the op that
    can start earliest; among ops tied on that start, the one with the
    longest tail ({!Eit_dsl.Ir.heads_tails}, computed once by {!build}
    for {!Bounds}), then the lowest node id. *)

val extract : t -> Schedule.t
(** Snapshot the current (fully assigned) store into a schedule. *)
