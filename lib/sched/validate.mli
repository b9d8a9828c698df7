(** The independent schedule validator — the trust anchor of the
    degradation path.

    Whatever produced a result — the CP solver, the heuristic fallback,
    the overlapped-execution transform or the modulo scheduler — it is
    re-checked here from the IR and architecture description alone,
    before anything downstream (code generation, reporting) consumes
    it.  The checks share no code with the solvers: precedences with
    latencies, lane/unit capacities (ground cumulative), configuration
    exclusivity, memory slot ranges, lifetime-disjoint slot reuse and
    the page/line access rules.  Flat, overlapped and modulo schedules
    go through the same eq. 1-4 functions ({!Schedule.check_timing},
    {!Schedule.check_issue}).

    All entry points return a {!report} instead of raising, so a buggy
    or fault-injected solver can never push an invalid schedule past
    this point silently. *)

open Eit_dsl

type report = {
  subject : string;  (** what was validated: "schedule" / "overlap" / "modulo" *)
  violations : Schedule.violation list;
}

val pp_report : Format.formatter -> report -> unit

val schedule : ?memory:bool -> Schedule.t -> (unit, report) result
(** Full re-check of a flat schedule ({!Schedule.validate}).
    [memory = false] (for schedules produced without the allocation
    part of the model) skips the memory constraint groups, which such a
    schedule never promised to satisfy. *)

val overlap : Ir.t -> Eit.Arch.t -> Overlap.t -> (unit, report) result
(** Re-derive an overlapped execution's guarantees from its bundle list
    alone: every op in exactly one bundle, then eqs. 1-4
    ({!Periodic.violations}) over the M lock-step iterations of
    {!Periodic.of_overlap}, then the recorded instruction count, drain,
    length and reconfiguration figures ([where = "overlap"]). *)

val modulo : Ir.t -> Eit.Arch.t -> Modulo.result -> (unit, report) result
(** Eqs. 1-4 ({!Periodic.violations}) over a steady-state window of
    [ceil((span + max duration) / II) + 1] iterations, with each op's
    [Arch.duration]; then the kernel's cyclic reconfiguration count
    (from the residue configurations), [actual_ii], [throughput] and
    [span], recomputed from the IR and [arch] ([where = "modulo"]).
    Nothing is taken from the modulo scheduler but its result. *)
