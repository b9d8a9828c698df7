(** Reconfiguration analysis of schedules (paper §4.3).

    A reconfiguration happens when the vector core's configuration in
    one effective cycle differs from the previous one; idle cycles hold
    the last configuration, and only the vector core counts (MATMUL's
    merges cause none). *)

val configs : Schedule.t -> Eit.Config.t list
(** Per-cycle vector-core configuration over the schedule's span. *)

val count : Schedule.t -> int
(** Linear reconfiguration count of a single-iteration schedule. *)

val lower_bound : Eit_dsl.Ir.t -> int
(** Minimum reconfigurations any cyclic schedule of this graph needs:
    the number of distinct vector-core configurations (0 when there are
    fewer than two). *)
