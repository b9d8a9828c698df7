(** A heuristic list scheduler with greedy memory allocation — the
    classic alternative to the paper's exact CP formulation (cf. the
    related-work contrast with resource-aware heuristic CGRA mapping
    [Dimitroulakos et al.]).

    Priority-based list scheduling: operations become ready when their
    operands' producers have completed; among ready operations the one
    with the longest remaining latency-weighted path (critical-path
    priority) issues first, bundling up to four identically-configured
    vector operations per cycle.  Slots are allocated greedily at write
    time with first-fit subject to the page/line access rules and
    released when the last reader has issued.

    Produces the same {!Schedule.t} as the CP solver, so the validator,
    code generator and simulator all apply — the bench compares quality
    (makespan, slots) and speed against the exact model. *)

open Eit_dsl

val run : ?arch:Eit.Arch.t -> Ir.t -> (Schedule.t, string) result
(** [Error] when the greedy allocator paints itself into a corner (no
    legal slot for a result) — the CP model's integrated allocation
    exists precisely because this can happen — or when an op needs more
    lanes than [arch] has ({!Model.too_wide}). *)
