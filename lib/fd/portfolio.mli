(** Parallel portfolio branch & bound on OCaml 5 domains.

    Runs several diversified search strategies concurrently, each over
    its own independently-built model (stores are not shared between
    domains).  Workers cooperate through a single atomic incumbent
    bound: every improving solution is published, and every worker
    re-reads the global bound at each choice point, pruning its tree
    with the best solution found anywhere.

    Guarantee: under a node budget, the returned bound is never worse
    than running the first strategy alone with the same budget —
    cooperative pruning only skips subtrees that cannot contain a
    strictly better solution.  (Under a wall-clock budget on an
    oversubscribed machine, time slicing can still cost nodes.)

    Crash isolation: a worker that raises mid-search (propagator bug,
    {!Chaos} injection) is contained to its own domain — its crash is
    recorded, the last incumbent it snapshotted is salvaged, and the
    remaining workers continue unaffected.  Optimality is claimed only
    when the surviving incumbent is at least as good as the best bound
    ever published, so a proof obtained by pruning against a crashed
    worker's (lost) better solution never mislabels a worse one. *)

type 'a task = {
  store : Store.t;
  phases : Search.phase list;
  objective : Store.var;
  snapshot : unit -> 'a;       (** called on each improving solution *)
  restarts : bool;             (** run under a Luby restart policy *)
}

type 'a strategy = unit -> 'a task
(** Evaluated inside the worker's domain; must build a fresh store.
    May raise {!Store.Fail} to signal root infeasibility. *)

type worker_crash = { worker : int; reason : string }

type 'a result = {
  incumbent : 'a option;
  r_status : Search.status;
  r_stats : Search.stats;
  crashes : worker_crash list;
}

val minimize_result :
  ?budget:Search.budget ->
  ?deadline:Deadline.t ->
  ?chaos:Chaos.t ->
  ?chaos_base:int ->
  ?workers:int ->
  'a strategy list ->
  'a result
(** The anytime portfolio: never raises.  Runs one worker per strategy
    (limited to the first [workers] strategies when given); each worker
    observes the budget and the absolute [deadline] cooperatively.

    Status semantics:
    - [Optimal]: some worker exhausted its search space and the
      returned incumbent matches the best published bound;
    - [Feasible_timeout]: an incumbent exists but optimality could not
      be (safely) claimed, or nothing was found before the deadline;
    - [Infeasible]: proven — requires that {e no} worker crashed;
    - [Crashed]: every worker crashed before finding a solution.

    [chaos] instruments every worker's store for fault injection;
    worker [i]'s instrumentation site is [chaos_base + i] (default
    base 0), so a caller serving many requests through one chaos
    instance can give each request a disjoint fault-target range.
    @raise Invalid_argument on an empty strategy list. *)
