(** Schedules with memory allocation: the output of the CP model
    (paper §3.3-3.4) and the input to code generation.

    A schedule assigns every IR node a start time and every vector data
    node a memory slot.  {!validate} re-checks all paper constraints
    from scratch, independently of the solver — precedences (eq. 1),
    lane capacity (eq. 2), configuration exclusivity (eq. 3), the data
    start rule (eq. 4), the page-line access rules (eqs. 7-9) and
    lifetime-disjoint slot reuse (eqs. 10-11). *)

open Eit_dsl

type t = {
  ir : Ir.t;
  arch : Eit.Arch.t;
  start : int array;            (** indexed by node id *)
  slot : (int * int) list;      (** vector-data node id -> slot *)
  makespan : int;               (** max over nodes of start + latency *)
}

val start_of : t -> int -> int

val node_latency : Ir.t -> Eit.Arch.t -> int -> int
(** 0 for data nodes, [Arch.latency] for ops. *)

val latency_of : t -> int -> int
(** [node_latency] of the schedule's graph and architecture. *)

val span : Ir.t -> Eit.Arch.t -> int array -> int
(** The latest op completion, [start.(i) + latency] over the ops: the
    makespan of a start array whose data start when produced (inputs at
    0), and one iteration's length in a periodic schedule. *)

val lifetime : t -> int -> int
(** Paper eq. 10 for a vector data node, extended by one cycle: the slot
    is held from the datum's start through the cycle of its last read
    (data without consumers live 1 cycle: written once, streamed out).
    The extension closes a write-after-read race the published formula
    permits; see DESIGN.md §5. *)

val slots_used : t -> int
(** Number of distinct slots referenced. *)

type violation = { where : string; msg : string }

val validate : t -> violation list
(** Empty iff the schedule satisfies every constraint of the paper's
    model.  Each violation names the constraint group it breaks.  A
    flat schedule is one iteration: eqs. 1-4 are {!check_timing} and
    {!check_issue} with [~ii:1 ~iterations:1]. *)

(** {2 Eqs. 1-4 for periodic schedules}

    §4.3's overlapped and modulo executions re-issue one iteration's
    start times every [ii] cycles.  Dependencies stay inside an
    iteration, so eqs. 1 and 4 are checked on the iteration's start
    array; the capacities and eq. 3 are checked on the issue stream of
    all iterations. *)

type issue = { cycle : int; iter : int; op : int }

val issues : Ir.t -> int array -> ii:int -> iterations:int -> issue list
(** The issue stream: iteration [iter] issues op [op] at
    [start.(op) + iter * ii].  Ops in node order, each op's iterations
    in ascending order. *)

val check_timing : Ir.t -> Eit.Arch.t -> int array -> violation list
(** Eq. 1 (every edge's source completes before its target starts) and
    eq. 4 (data start when produced, inputs at 0) on one iteration's
    start array, indexed by node id. *)

val check_issue :
  Ir.t -> Eit.Arch.t -> int array -> ii:int -> iterations:int -> violation list
(** Eq. 2 and the serial units' capacities (a ground cumulative per
    resource with [Arch.duration]), then eq. 3 (the vector-core issues
    of one cycle share a configuration, each conflicting pair of ops
    reported once), over {!issues}. *)

val is_valid : t -> bool

val pp_violation : Format.formatter -> violation -> unit
val pp : Format.formatter -> t -> unit
(** Cycle-by-cycle rendering. *)

val pp_gantt : Format.formatter -> t -> unit
(** ASCII Gantt chart: one row per execution resource, one column per
    cycle ([#] = issue, [=] = results still in flight, [.] = idle).
    Wide schedules are split into 80-column bands. *)

val pp_memory_map : Format.formatter -> t -> unit
(** ASCII slot-occupancy map: one row per used memory slot, one column
    per cycle ([#] = written, [=] = live, [.] = free) — the Fig. 7
    layout over time, showing the Diff2 reuse pattern. *)
