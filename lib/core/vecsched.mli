(** Vecsched — programming support for reconfigurable custom vector
    architectures.

    The top-level API: write a kernel in the DSL ({!Dsl}), compile it to
    the IR with the pipeline-fusion pass, schedule it with integrated
    memory allocation on the EIT architecture model, and (optionally)
    generate machine code and run it on the cycle-accurate simulator.

    {[
      let mm = Apps.Matmul.build () in
      let c = Vecsched.compile (Apps.Matmul.graph mm) in
      match Vecsched.schedule c with
      | { schedule = Some sch; _ } ->
        Format.printf "makespan: %d cycles@." sch.Sched.Schedule.makespan
      | _ -> ...
    ]}

    Underlying libraries, re-exported for convenience:
    {!module:Fd} (the finite-domain solver), {!module:Eit} (architecture
    model + simulator), {!module:Eit_dsl} (DSL + IR), {!module:Sched}
    (scheduler) and {!module:Apps} (the paper's kernels). *)

module Dsl = Eit_dsl.Dsl
module Ir = Eit_dsl.Ir
module Merge = Eit_dsl.Merge
module Stats = Eit_dsl.Stats
module Xml = Eit_dsl.Xml
module Dot = Eit_dsl.Dot
module Arch = Eit.Arch
module Opcode = Eit.Opcode
module Cplx = Eit.Cplx
module Value = Eit.Value
module Schedule = Sched.Schedule
module Solve = Sched.Solve
module Overlap = Sched.Overlap
module Modulo = Sched.Modulo
module Manual_baseline = Sched.Manual_baseline
module Codegen = Sched.Codegen
module Machine = Eit.Machine

type compiled = {
  raw : Ir.t;          (** the traced dataflow graph *)
  ir : Ir.t;           (** after the merge pass (scheduler input) *)
  fusions : int;
  stats : Stats.t;     (** of the merged graph *)
}

val compile : ?protect:int list -> Ir.t -> compiled
(** Run the merge pass and collect statistics. *)

val compile_dsl : Dsl.ctx -> compiled
(** [compile_dsl ctx] traces the context's graph, protecting its
    declared outputs from fusion. *)

val schedule :
  ?budget_ms:float ->
  ?deadline:Fd.Deadline.t ->
  ?memory:bool ->
  ?arch:Arch.t ->
  ?parallel:int ->
  ?cache:Cache.t ->
  compiled ->
  Solve.outcome
(** Schedule the merged graph (defaults: 10 s budget, no deadline,
    memory allocation on, {!Arch.default}, sequential).  [deadline] is
    an absolute wall-clock cut-off enforced down inside the propagation
    fixpoint; on expiry the outcome degrades gracefully (CP incumbent,
    else heuristic fallback) instead of overrunning.  [parallel >= 2]
    runs a cooperative portfolio of that many search strategies on
    OCaml domains.  [cache] consults/populates a shared solution cache,
    documented at {!Solve.run}. *)

val run_on_simulator : Schedule.t -> (unit, string) result
(** Code-generate and execute the schedule, checking every produced
    value against the IR reference evaluation. *)

val kernels : (string * (unit -> Ir.t)) list
(** The built-in kernels by name, each traced afresh (before the merge
    pass): matmul, qrd, qrd-sorted, arf, fir, corr, detect.  [eitc]'s
    kernel argument and the service's named requests read this list. *)

val version : string
