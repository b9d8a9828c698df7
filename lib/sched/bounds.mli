(** Makespan lower bounds, used to certify schedule quality without an
    exhaustive optimality proof.

    Two families:
    - the {e critical path} (latency-weighted longest path, the paper's
      |Cr.P|) — dominant for dependency-bound kernels like QRD/ARF;
    - {e resource load}, the single-resource head-body-tail bound: for
      thresholds (h, t), the ops of one resource with head (longest
      latency path to their start) >= h and tail (latency plus longest
      path after them) >= t need some number of distinct issue cycles
      (for the vector core, per configuration class, since different
      configurations cannot share a cycle — eq. 3), all at h or later,
      and the last one still needs t: makespan >= h + issues - 1 + t.
      Dominant for contention-bound kernels like MATMUL. *)

open Eit_dsl

type t = {
  critical_path : int;
  vector_load : int;   (** load bound of the vector core, 0 if unused *)
  scalar_load : int;
  im_load : int;
  makespan : int;      (** the max of all bounds *)
  tail : int array;
      (** per node, its tail ({!Ir.heads_tails}): the critical path is
          the largest, and {!Model.phases} breaks start ties by it *)
}

val compute : Ir.t -> Eit.Arch.t -> t

val gap : t -> Schedule.t -> int
(** [makespan(schedule) - bound]; 0 certifies optimality even when the
    solver stopped at [Feasible]. *)

val pp : Format.formatter -> t -> unit
