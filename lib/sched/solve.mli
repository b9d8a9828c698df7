(** End-to-end scheduling with graceful degradation: build the model,
    run the (possibly parallel) branch & bound under a deadline, fall
    back to the heuristic list scheduler when the CP engine produced
    nothing usable, and re-check whatever came out with the independent
    validator ({!Validate}) before anyone downstream sees it.

    [run] never raises: every failure mode — deadline, root
    infeasibility, a crashing propagator, an invalid solver schedule —
    is reported through the typed {!status} / {!engine} / [validation]
    fields. *)

open Eit_dsl

type status = Fd.Search.status =
  | Optimal           (** proven shortest schedule *)
  | Feasible_timeout  (** budget/deadline hit; best schedule returned
                          (from the CP engine or the fallback) *)
  | Infeasible        (** proven: no schedule exists (e.g. too few
                          memory slots) — requires a crash-free run *)
  | Crashed           (** the engine failed (crash or invalid schedule)
                          {e and} the degradation path could not produce
                          a validated schedule *)

type engine =
  | Cp        (** the schedule came from the constraint solver *)
  | Fallback  (** the heuristic list scheduler rescued the run *)

type outcome = {
  status : status;
  engine : engine;
  schedule : Schedule.t option;
      (** invariant: [Some] implies [status] is [Optimal] or
          [Feasible_timeout]; always validated.
          [Feasible_timeout] with [None] is an honest timeout whose
          fallback also (legitimately) failed *)
  stats : Fd.Search.stats;
  crashes : Fd.Portfolio.worker_crash list;
      (** every isolated failure: portfolio workers by index, [0] for a
          sequential solve *)
  fallback_error : string option;
      (** why the heuristic fallback found no schedule (e.g. "no legal
          slot for datum 7"), when it ran and failed.  Not a crash:
          with no CP schedule either, the status is [Feasible_timeout]
          (or [Crashed] if the engine crashed) and the exit code 4 *)
  validation : (unit, Validate.report) result;
      (** the report of the last validation performed; [Error] only
          when an invalid schedule was produced and discarded *)
  from_cache : bool;
      (** the outcome was replayed from the solution cache: no search
          ran ([stats] is all-zero) and the schedule was re-validated
          on the way out *)
  validate_ms : float;
      (** total wall-clock spent in the independent validator for this
          request — normal, fallback and cache-hit re-validations all
          accumulate; [0.] when no schedule was produced *)
}

val run :
  ?budget:Fd.Search.budget ->
  ?deadline:Fd.Deadline.t ->
  ?memory:bool ->
  ?arch:Eit.Arch.t ->
  ?parallel:int ->
  ?chaos:Fd.Chaos.t ->
  ?chaos_base:int ->
  ?fallback:bool ->
  ?tid:int ->
  ?cache:Cache.t ->
  ?metrics:Obs.Metrics.registry ->
  Ir.t ->
  outcome
(** Defaults: 10-second time budget, no extra deadline, memory
    allocation on, {!Eit.Arch.default}, [parallel = 0]
    (sequential), no fault injection, fallback on, trace [tid] 0.

    The effective deadline is the earlier of [deadline] and the
    budget's time component; it is observed inside propagation sweeps
    (including root propagation), so the engine cannot overshoot it by
    one long fixpoint.  An effective deadline that is {e already}
    expired (equivalently, a zero time budget) goes straight to the
    degradation ladder without entering model build or search — the
    two spellings of "no search time" behave identically.

    [parallel >= 2] runs a cooperative portfolio of that many
    diversified search strategies on OCaml domains (see
    {!Fd.Portfolio}), each over an independently-built model, sharing
    one atomic incumbent bound; a crashing worker is isolated and
    recorded in [crashes].

    [chaos] instruments every store (sequential or portfolio) for fault
    injection — see {!Fd.Chaos}.  [chaos_base] offsets the
    instrumentation site ids (sequential solve = [chaos_base],
    portfolio worker [i] = [chaos_base + i]) so a serving layer can
    give every request attempt a disjoint fault-target range.

    [tid] is the Obs track the sched-phase spans (and a sequential
    search's events) are emitted on; a pool running several solves
    concurrently gives each worker its own [tid] so spans still nest
    per track.  (Portfolio workers keep their own 0-based tids.)

    [fallback = false] disables the heuristic rescue (for measuring the
    CP engine alone); a no-incumbent timeout then reports
    [Feasible_timeout] with no schedule.

    [cache] consults (and populates) a shared {!Cache.t} keyed on the
    canonical form of the problem ({!Cache.Key}): an identical request
    — up to alpha-renaming of node ids — replays the stored schedule
    with zero search work ([from_cache = true], all-zero [stats]),
    after re-validating it from scratch.  Only proven-optimal validated
    schedules and crash-free infeasibility proofs are stored; timeouts,
    fallback rescues, crashed runs and all chaos runs never populate
    the cache, and chaos runs do not consult it either.

    [metrics], when given and enabled, receives one observation per
    call into the [solve.nodes] / [solve.propagations] /
    [solve.time_ms] / [solve.validate_ms] histograms and bumps
    [solve.count] (cache replays are counted by the cache's own
    [cache.hits]).  Without it nothing is recorded. *)

val exit_code : outcome -> int
(** The process exit code contract (also used by [eitc schedule]):
    [0] optimal or CP-feasible, [2] fallback schedule (degraded),
    [3] infeasible, [4] crashed / no usable schedule. *)

val pp_status : Format.formatter -> status -> unit
val pp_engine : Format.formatter -> engine -> unit
