(** Periodic schedules: one iteration's start times re-issued every
    [ii] cycles (paper §4.3).

    §3's flat schedule is the one-iteration case ({!of_schedule}), and
    both of §4.3's ways to pipeline iterations produce this object.
    Overlapped execution (Table 2) issues bundle [k] of iteration [r]
    at [k * M + r]: start [M * k], II 1, M iterations.  A modulo kernel
    (Table 3) is its per-node start array initiated every II cycles.
    One checker ({!violations}, the flat validator's eqs. 1-4), one
    materializer ({!to_program}, which {!Codegen} is at one iteration)
    and one issue stream ({!issues}, which {!Analysis} reads) serve all
    three.

    Memory follows the paper's prescription: "memory allocation boils
    down to repeating the allocation of the original schedule for each
    iteration, with a certain offset".  A flat schedule keeps its own
    validated slots.  For overlapped and modulo execution the
    schedule's slot reuse does not survive rewritten issue times, so
    one {!Interval_alloc} colouring of the iteration's lifetimes is
    repeated at a whole-line stride: bank and page coordinates, and
    with them the legality structure of each cycle's accesses, repeat
    iteration to iteration.  Disjoint regions keep the check exact for
    a finite number of iterations.

    A finding the simulator surfaces (EXPERIMENTS.md): write-backs of
    units with different latencies (vector pipeline vs. merge) from
    different iterations can land in the same cycle and bank, breaking
    the one-write-per-bank rule that the CP model enforces within one
    iteration.  {!run_and_check} reports this as [access_clean = false]. *)

open Eit_dsl

type t = {
  ir : Ir.t;
  arch : Eit.Arch.t;
  start : int array;  (** one iteration's starts, indexed by node id *)
  slot : int array;   (** one iteration's slot per vector datum, by node
                          id; -1 elsewhere *)
  stride : int;       (** slots between iterations' copies: whole lines *)
  ii : int;           (** cycles between consecutive iterations *)
  iterations : int;
}

val of_schedule : Schedule.t -> t
(** A flat schedule as one iteration: its own starts and slots, II 1. *)

val of_overlap : Ir.t -> Eit.Arch.t -> Overlap.t -> t
(** Op starts [M * bundle], data at producer + latency, inputs at 0,
    II 1, M iterations.
    @raise Invalid_argument unless every op is in exactly one bundle. *)

val of_modulo : Ir.t -> Eit.Arch.t -> Modulo.result -> iterations:int -> t

val span : t -> int
(** One iteration's length: the latest op completion. *)

val issues : t -> Schedule.issue list
(** {!Schedule.issues} of every iteration. *)

val violations : t -> Schedule.violation list
(** {!Schedule.check_timing} on the start array, then
    {!Schedule.check_issue} over the iterations. *)

val lines_needed : t -> int
(** Memory lines that {!to_program} uses for all iterations. *)

type report = {
  program : Eit.Instr.program;
  checked_values : int;  (** op results compared, across iterations *)
  access_clean : bool;   (** executed under strict port checking *)
  completion : int;      (** write-back cycle of the last result *)
}

val to_program :
  ?stream:(int -> (int * Eit.Value.t) list) -> t -> Eit.Instr.program
(** [stream iter] supplies per-iteration input overrides (input node id
    -> value), so each iteration can process different data, the
    streaming regime the paper's kernels exist for.  Defaults to the
    trace inputs for every iteration.
    @raise Invalid_argument when [arch]'s memory cannot hold the last
    iteration's highest slot, a vector datum has no slot or a cycle
    oversubscribes a serial unit. *)

val simulate : t -> (report, string) result
(** Execute all iterations under strict port checking
    ({!Eit.Machine.run}) and compare every op result of every iteration
    with that iteration's reference evaluation.  The last write-back
    must come by [span + (iterations - 1) * ii] plus one vector latency.
    [Error] also carries {!to_program}'s refusals and port violations. *)

val run_and_check :
  ?stream:(int -> (int * Eit.Value.t) list) -> t -> (report, string) result
(** {!simulate}, honouring [stream]; on an error, the same check
    value-only ([access_clean = false]). *)
