(** Depth-first search with variable/value selection heuristics,
    branch & bound minimization, multi-phase variable ordering (paper
    §3.5) and node/time budgets.

    The engine keeps a backtrackable sparse set of possibly-unfixed
    variables per phase, so variable selection never rescans fixed
    variables, and domain-size / bounds queries used by the heuristics
    are O(1) (see {!Dom}). *)

open Store

(** Variable selection heuristic, evaluated incrementally inside the
    engine. *)
type var_select =
  | Input_order       (** first unfixed variable in list order *)
  | First_fail        (** smallest domain, ties by list order *)
  | Smallest_min      (** smallest domain minimum (list scheduling) *)
  | Most_constrained  (** smallest domain, ties by creation order *)

(** Value selection heuristic: picks the value to try first. *)
type val_select = var -> int

val input_order : var_select
val first_fail : var_select
val smallest_min : var_select
val most_constrained : var_select

val select_min : val_select

val select_mid : val_select
(** Closest value to the middle of the domain's range; computed by
    interval arithmetic, never by enumerating the domain. *)

(** One search phase: a set of decision variables with its heuristics.
    Phases are exhausted in order (paper §3.5 uses three). *)
type phase = { vars : var list; var_select : var_select; val_select : val_select }

val phase :
  ?var_select:var_select -> ?val_select:val_select -> var list -> phase
(** Defaults: {!first_fail} / {!select_min}. *)

type stats = {
  nodes : int;          (** decision nodes explored *)
  failures : int;       (** backtracks *)
  solutions : int;      (** solutions found (B&B counts improvements) *)
  propagations : int;   (** propagator executions during this search *)
  time_ms : float;      (** wall-clock search time *)
  optimal : bool;       (** search space exhausted (proof of optimality /
                            unsatisfiability) *)
}

val zero_stats : optimal:bool -> stats

type 'a outcome =
  | Solution of 'a * stats        (** with proof of optimality for B&B *)
  | Best of 'a * stats            (** budget hit; best-so-far returned *)
  | Unsat of stats
  | Timeout of stats              (** budget hit with no solution found *)

type budget = { max_nodes : int option; max_time_ms : float option }

val no_budget : budget
val node_budget : int -> budget
val time_budget : float -> budget

(** All searches also accept an absolute [?deadline] ({!Deadline.t}):
    it composes with the budget's [max_time_ms] by taking the earliest,
    is checked between search nodes, {e and} is polled inside the
    propagation fixpoint loop (via {!Store.set_poll}), so a single long
    sweep cannot overshoot it.

    When an {!Obs} sink is attached, every search wraps itself in a
    ["search"] span and emits [branch] / [fail] / [backtrack] /
    [solution] / [restart] instants (cat ["search"]) tagged with the
    caller's [?tid] (the portfolio passes each worker's index), so
    search trees can be replayed and diffed across workers.  With no
    sink attached the hooks are single-branch no-ops. *)

val solve :
  ?budget:budget ->
  ?deadline:Deadline.t ->
  ?tid:int ->
  Store.t ->
  phase list ->
  on_solution:(unit -> 'a) ->
  'a outcome
(** Find the first solution: assign all phase variables such that
    propagation succeeds, then call [on_solution] to snapshot it. *)

val minimize :
  ?budget:budget ->
  ?deadline:Deadline.t ->
  ?bound_get:(unit -> int option) ->
  ?bound_put:(int -> unit) ->
  ?tid:int ->
  Store.t ->
  phase list ->
  objective:var ->
  on_solution:(unit -> 'a) ->
  'a outcome
(** Branch & bound: every solution adds the constraint
    [objective <= value - 1] and search continues.  [Solution] means the
    last snapshot is proven optimal; [Best] means the budget expired
    first.

    [bound_get]/[bound_put] connect the search to an external incumbent
    (see {!Portfolio}): the effective bound is the minimum of the local
    and external bounds, re-read at every choice point, and improving
    solutions are published through [bound_put]. *)

val luby : int -> int
(** The Luby restart sequence (1-indexed): 1 1 2 1 1 2 4 ... *)

val minimize_restarts :
  ?base:int ->
  ?max_restarts:int ->
  ?budget:budget ->
  ?deadline:Deadline.t ->
  ?bound_get:(unit -> int option) ->
  ?bound_put:(int -> unit) ->
  ?tid:int ->
  Store.t ->
  phase list ->
  objective:var ->
  on_solution:(unit -> 'a) ->
  'a outcome
(** Branch & bound under a Luby restart policy: restart [i] runs with a
    node cap of [base * luby i], carrying the incumbent bound across
    restarts.  Useful against heavy-tailed search behaviour.  [Solution]
    is a proof of optimality, as in {!minimize}. *)

(** {1 Anytime interface}

    The typed-status layer for callers that must never see an
    exception: whatever happens — optimality proof, deadline, root
    infeasibility, or a crash in a propagator — the result is a status
    plus the best incumbent found before the event. *)

type status =
  | Optimal           (** incumbent present and proven optimal *)
  | Feasible_timeout  (** deadline/budget expired; incumbent is the best
                          found so far ([None] if none was found) *)
  | Infeasible        (** proven: no solution exists *)
  | Crashed           (** an exception escaped the engine; the incumbent
                          (if any) is the last solution found before *)

val pp_status : Format.formatter -> status -> unit

type 'a anytime = {
  a_status : status;
  incumbent : 'a option;
  a_stats : stats;       (** zeroed when the engine crashed *)
  crash : string option; (** printed exception, when [a_status = Crashed] *)
}

val minimize_anytime :
  ?budget:budget ->
  ?deadline:Deadline.t ->
  ?tid:int ->
  Store.t ->
  phase list ->
  objective:var ->
  on_solution:(unit -> 'a) ->
  'a anytime
(** {!minimize}, repackaged: never raises.  Incumbent snapshots are
    retained outside the engine, so even a mid-search crash returns the
    best solution found before it. *)
