(** Overlapped execution — the architects' ad-hoc two-phase technique
    (paper §4.3, Table 2).

    Phase 1 orders the instructions (issue bundles) of a single
    iteration; phase 2 issues the k-th instruction of all M iterations
    in consecutive cycles before advancing to instruction k+1.  With M
    at least the pipeline depth, every data dependency's latency is
    masked: dependent instructions of one iteration are at least M
    cycles apart.

    Reconfigurations collapse to (almost) one per instruction: within a
    group of M copies the configuration never changes; it can only
    change between the last copy of instruction k and the first copy of
    instruction k+1.

    As a schedule, an overlap is periodic ({!Periodic.of_overlap}):
    instruction k starts at [k * M] and the M iterations follow one
    cycle apart. *)

type t = {
  bundles : (int * int list) list;
      (** ordered instruction bundles: (original cycle, op node ids) *)
  m : int;                 (** iterations overlapped *)
  n_instructions : int;    (** effective (non-nop) instructions N *)
  length : int;            (** total schedule length: N*M + drain *)
  drain : int;             (** pipeline drain after the last issue *)
  reconfigurations : int;  (** vector-core reconfigurations, whole run *)
  throughput : float;      (** iterations per clock cycle: M / length *)
}

val min_overlap : Schedule.t -> int
(** Smallest M that masks all latencies (the longest producer-consumer
    latency in the schedule). *)

val run : Schedule.t -> m:int -> t
(** @raise Invalid_argument if [m < min_overlap] (dependencies would be
    violated). *)

val of_bundles :
  Eit_dsl.Ir.t -> Eit.Arch.t -> int list list -> m:int -> t
(** Overlap an explicit ordered bundle sequence (used by the manual
    baseline, which has no latency-placed schedule).  Bundle order must
    respect dependencies; [m] must be at least the largest masked
    latency. *)

val issue_cycle : t -> instr:int -> iter:int -> int
(** Cycle at which iteration [iter]'s copy of instruction [instr]
    issues: [instr * m + iter]. *)

val pp : Format.formatter -> t -> unit
