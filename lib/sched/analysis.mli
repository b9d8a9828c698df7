(** Utilization and gap analysis of schedules.

    §4.2 motivates everything after Table 1 with utilization: the
    optimal one-iteration QRD schedule "includes a lot of gaps, mainly
    because of the data dependencies between vector operations ... the
    processor becomes heavily under-utilized".  This module quantifies
    that: per-resource busy cycles, utilization ratios, and the gap
    structure of the vector pipeline, for one-shot schedules and for the
    steady state of overlapped/modulo execution. *)

open Eit_dsl

type resource_report = {
  resource : Eit.Opcode.resource_class;
  busy_cycles : int;       (** cycles with at least one issue *)
  issue_slots_used : int;  (** lane-cycles actually consumed *)
  issue_slots_total : int; (** capacity x span *)
  utilization : float;     (** used / total *)
}

type gap = { gap_start : int; gap_length : int }

type t = {
  span : int;
  per_resource : resource_report list;
  vector_gaps : gap list;   (** idle stretches of the vector core *)
  longest_gap : int;
}

(** All three read one issue stream, {!Periodic.issues}. *)

val of_schedule : Schedule.t -> t
(** One iteration ({!Periodic.of_schedule}) over [makespan + 1] cycles. *)

val of_modulo : Ir.t -> Eit.Arch.t -> Modulo.result -> t
(** Steady-state analysis over one kernel window of [ii] cycles: one
    iteration's issues folded onto their residues, which is every
    overlapping iteration's share. *)

val of_overlap : Ir.t -> Eit.Arch.t -> Overlap.t -> t
(** Analysis of the overlapped schedule's issue stream
    ({!Periodic.of_overlap}), M iterations over the overlap's length:
    each instruction bundle occupies [m] consecutive cycles. *)

val vector_utilization : t -> float
(** Shorthand: utilization of the vector core (0 when it is unused). *)

val pp : Format.formatter -> t -> unit
