(** Periodic schedules: one iteration's start times re-issued every
    [ii] cycles (paper §4.3).

    Both of §4.3's ways to pipeline iterations produce this object.
    Overlapped execution (Table 2) issues bundle [k] of iteration [r]
    at [k * M + r]: start [M * k], II 1, M iterations.  A modulo kernel
    (Table 3) is its per-node start array initiated every II cycles.
    One checker ({!violations}, the flat validator's eqs. 1-4) and one
    materializer ({!to_program}) serve both.

    Memory follows the paper's prescription: "memory allocation boils
    down to repeating the allocation of the original schedule for each
    iteration, with a certain offset".  One {!Interval_alloc} colouring
    of the iteration's lifetimes (the schedule's own slot reuse does not
    survive rewritten issue times) is repeated at a whole-line stride,
    so bank and page coordinates, and with them the legality structure
    of each cycle's accesses, repeat iteration to iteration.  Disjoint
    regions keep the check exact for a finite number of iterations.

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
  ii : int;           (** cycles between consecutive iterations *)
  iterations : int;
}

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
    @raise Invalid_argument when [arch]'s memory cannot hold the
    iterations ({!lines_needed}) or a cycle oversubscribes a serial
    unit. *)

val run_and_check :
  ?stream:(int -> (int * Eit.Value.t) list) -> t -> (report, string) result
(** Execute all iterations and compare every op result of every
    iteration with that iteration's reference evaluation (honouring
    [stream]).  Tries strict access checking first, then value-only
    checking ([access_clean = false]).  Either way the last write-back
    must come by [span + (iterations - 1) * ii] plus one vector
    latency. *)
