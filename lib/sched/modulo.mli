(** CP-based modulo scheduling (paper §4.3, Table 3).

    Modulo scheduling finds a schedule for one iteration that can be
    re-initiated every II cycles: resource use is constrained on the
    residues [s mod II].  The kernels are DAGs (no feedback edges), so
    there is no recurrence-induced lower bound and
    [MinII = ResMII]; the vector core's bound also accounts for
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
    post-factum.  [None] if even the first feasible II search timed
    out. *)

val solve_including :
  ?budget_ms:float -> ?arch:Eit.Arch.t -> Ir.t -> result option
(** Minimize [II + reconfigurations]. *)

val pp : Format.formatter -> result -> unit
