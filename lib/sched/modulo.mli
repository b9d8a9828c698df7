(** CP-based modulo scheduling (paper §4.3, Table 3).

    Modulo scheduling finds a schedule for one iteration that can be
    re-initiated every II cycles: resource use is constrained on the
    residues [s mod II].  The model for one II is the flat model's
    (§3): its start variables, eq. 4 and eq. 1 ({!Model.post_timing},
    memory part off, horizon critical path + 2 II), its three
    Cumulatives ({!Model.post_units}) over the residues, and eq. 3 as
    one {!Fd.Arith.neq_classes} over {!Model.config_classes} on the
    residues.

    The residue capacities assume unit issue durations: each op holds
    its unit for one residue, whatever {!Eit.Arch.duration} says.  On a
    machine whose ops hold a unit longer, a kernel may overload it;
    {!Validate.modulo}, which unrolls with [Arch.duration], rejects
    such a kernel.

    The kernels are DAGs (no feedback edges), so there is no
    recurrence-induced lower bound and [MinII = ResMII]; the vector
    core's bound also accounts for
    configuration exclusivity (eq. 3): operations with different
    configurations cannot share a residue cycle, so each configuration
    class [c] with [n_c] operations of [l_c] lanes needs
    [ceil(n_c * l_c / lanes)] residues.

    Two optimization modes, as in the paper:
    - {!solve_excluding}: find the minimum II ignoring reconfiguration
      costs, then count the kernel's (cyclic) reconfigurations in a
      post-processing step; the *actual* initiation interval is
      [II + reconfigurations] and throughput [1 / actual II];
    - {!solve_including}: minimize [II + reconfigurations] jointly; for
      each candidate II a branch & bound minimizes the reconfiguration
      count (a custom objective evaluated through the residue
      configuration sequence), and candidate IIs grow until they cannot
      beat the incumbent total.

    Memory allocation is excluded, as in the paper: with enough memory,
    the allocation of the original schedule repeats per iteration at an
    offset ({!Periodic.of_modulo} and {!Periodic.to_program}).
    {!Validate.modulo} re-checks a result from the IR and arch alone. *)

open Eit_dsl

type result = {
  ii : int;                 (** initiation interval of the kernel *)
  reconfigurations : int;   (** cyclic reconfigurations of the kernel *)
  actual_ii : int;          (** ii + reconfigurations *)
  throughput : float;       (** 1 / actual_ii *)
  start : int array;        (** per-node start times of one iteration *)
  span : int;               (** schedule length of one iteration *)
  time_ms : float;
  proven : bool;            (** optimality proven within the budget *)
}

val res_mii : Ir.t -> Eit.Arch.t -> int
(** The resource-constrained lower bound described above. *)

val solve_excluding :
  ?budget_ms:float -> ?arch:Eit.Arch.t -> Ir.t -> result option
(** Minimum-II modulo schedule with reconfigurations counted
    post-factum, the II sweep under one {!Fd.Deadline} of [budget_ms].
    [None] if even the first feasible II search timed out, or at once
    when an op is wider than the machine ({!Model.too_wide}). *)

val solve_including :
  ?budget_ms:float -> ?arch:Eit.Arch.t -> Ir.t -> result option
(** Minimize [II + reconfigurations], each candidate II's search cut at
    an eighth of [budget_ms] (at least 2 s) and the sweep at
    [budget_ms].  [None] if no II gave a kernel in time, or at once
    when an op is wider than the machine. *)

val pp : Format.formatter -> result -> unit
