(** Constraint store: finite-domain variables, trail-based state
    restoration and an event-based, prioritized propagation engine.

    A {!Store.t} owns a set of variables and propagators.  Domain updates
    go through {!update} (or the convenience wrappers below), which trail
    the old domain so that {!pop_level} can restore it, and schedule the
    watching propagators whose {!event} subscription matches the change.
    {!propagate} runs the queues to fixpoint, cheapest priority bucket
    first.

    Propagators are closures registered with {!post}; they prune domains
    and raise {!Fail} when they detect inconsistency.  A propagator that
    can prove it will never prune again may call {!entail} on itself
    (entailment is trailed, so it is undone on backtracking). *)

exception Fail of string
(** Raised when a domain becomes empty or a constraint is violated.  The
    payload names the responsible constraint (for debugging). *)

exception Interrupted of string
(** Raised by a cancellation poll (see {!set_poll}) to abandon the
    current propagation sweep cooperatively — e.g. a deadline expired.
    Unlike {!Fail} this is not a logical inconsistency: the search layer
    maps it to a timeout, not a dead branch. *)

type t
(** A constraint store. *)

type var
(** A finite-domain variable belonging to some store. *)

type propagator

(** {1 Store lifecycle} *)

val create : unit -> t

val propagator_count : t -> int

(** {1 Variables} *)

val new_var : ?name:string -> t -> Dom.t -> var
(** Fresh variable with the given initial domain.
    @raise Fail if the domain is empty. *)

val interval_var : ?name:string -> t -> int -> int -> var
(** [interval_var s lo hi] = [new_var s (Dom.interval lo hi)]. *)

val const : t -> int -> var
(** A variable fixed to the given value (cached per store). *)

val name : var -> string
val id : var -> int
val dom : var -> Dom.t
val vmin : var -> int
val vmax : var -> int
val is_fixed : var -> bool

val value : var -> int
(** The value of a fixed variable.
    @raise Invalid_argument if the variable is not fixed. *)

(** {1 Domain updates}

    All updates raise {!Fail} when they would empty a domain and
    otherwise trail + notify watchers.  They are no-ops when the domain
    is unchanged. *)

val update : t -> var -> Dom.t -> unit
(** Replace the domain by its intersection with the argument domain. *)

val assign : t -> var -> int -> unit
val remove_value : t -> var -> int -> unit
val remove_below : t -> var -> int -> unit
val remove_above : t -> var -> int -> unit

(** {1 Propagators} *)

type event =
  | On_change  (** wake on any domain narrowing (default) *)
  | On_bounds  (** wake only when the min or max moved (incl. fixing) *)
  | On_fix     (** wake only when the variable becomes a singleton *)
(** Wake-event taxonomy.  A bounds-consistent propagator (one whose
    pruning depends only on variable bounds) should subscribe with
    {!On_bounds}: interior hole removals then never re-run it. *)

val prio_arith : int
(** Priority 0: cheap arithmetic propagators (and Cumulative's
    timetable), run first. *)

val prio_channel : int
(** Priority 1: channeling and the conditional access rules. *)

val prio_global : int
(** Highest priority index: the expensive global Diff2, run only once
    the cheap queues are empty. *)

val post :
  ?name:string ->
  ?priority:int ->
  ?event:event ->
  t ->
  watches:var list ->
  (t -> unit) ->
  propagator
(** [post s ~watches f] registers propagator [f], subscribes it to every
    variable in [watches] with the given wake [event] (default
    {!On_change}) and scheduling [priority] (default {!prio_arith};
    clamped to the valid bucket range).  Running it once immediately is
    {e not} done — call {!schedule} or {!post_now} for that.  Returns the
    handle. *)

val post_now :
  ?name:string ->
  ?priority:int ->
  ?event:event ->
  t ->
  watches:var list ->
  (t -> unit) ->
  propagator
(** Like {!post} but also schedules the propagator for an immediate
    first run to establish initial consistency.
    @raise Fail on inconsistency. *)

val post_on :
  ?name:string ->
  ?priority:int ->
  t ->
  watches:(event * var) list ->
  (t -> unit) ->
  propagator
(** Like {!post} but with a per-variable wake event, so e.g. a guard
    variable can subscribe with {!On_fix} while the consequent variables
    subscribe with {!On_change}. *)

val post_now_on :
  ?name:string ->
  ?priority:int ->
  t ->
  watches:(event * var) list ->
  (t -> unit) ->
  propagator
(** {!post_on} + an immediate first run, like {!post_now}. *)

(** {2 Indexed propagators}

    A global constraint over many variables usually needs to know
    {e which} of them changed, not only that one did: rescanning every
    argument on every run costs more than the pruning it finds.  An
    indexed propagator subscribes with [(event, var, i)] triples.  When
    [var] changes by [event], the store {e advises} it: index [i] is
    marked pending, in O(1) and without allocating, and the propagator
    is queued.  A run pops the pending indices with {!next_index} and
    re-checks only what they name (Gecode calls such subscriptions
    advisors).

    - An index is pending at most once; a run pops each pending index
      and drains the indices its own prunes add (they are marked
      pending without re-queueing the running propagator).
    - Pending indices are dropped at {!pop_level}: the changes that
      advised them are undone.  State a run must keep across levels
      lives in reversible cells ({!write}).
    - {!reschedule_all} re-advises every indexed subscription, so a
      full sweep re-checks every index.
    - An entailed propagator is not advised either. *)

val post_indexed :
  ?name:string ->
  ?priority:int ->
  t ->
  size:int ->
  watches:(event * var * int) list ->
  (t -> unit) ->
  propagator
(** [post_indexed s ~size ~watches f] registers the indexed propagator
    [f] with index range [\[0, size)] and subscribes it to every
    [(event, var, i)] in [watches].  Every subscription is advised
    once and the propagator is queued, so the first {!propagate}
    checks every index.  A variable may carry several indices.
    @raise Invalid_argument if an index is outside [\[0, size)]. *)

val post_advised :
  ?name:string ->
  ?priority:int ->
  t ->
  size:int ->
  watches:(event * var * int) list ->
  (t -> unit) ->
  propagator
(** [post_advised s ~size ~watches f] is {!post_indexed} whose
    propagator is {e also} a plain watcher: every [(event, var, i)]
    subscribes it to [var] as {!post_on} would with [(event, var)], and
    advises index [i].  Waking, and with it the queue position, is the
    plain watcher's: the store wakes watchers before it advises, so
    the propagator is queued where {!post_on} would queue it, and its
    own prunes re-queue it as they re-queue any watcher.  The advisors
    only record which indices changed, for {!next_index}.  Use it
    instead of {!post_indexed} when a propagator that knows which
    arguments changed must keep the wake order of a plain watcher
    (Cumulative: a pure indexed run order changes the propagation
    counts).  Every subscription is advised once and the propagator is
    queued, as with {!post_indexed}.
    @raise Invalid_argument if an index is outside [\[0, size)]. *)

val next_index : t -> int
(** [next_index s] pops one pending index of the propagator being
    executed, or returns [-1] when none is pending (always [-1] outside
    an execution).  A run loops on it until [-1]. *)

val schedule : t -> propagator -> unit
(** Put a propagator in the queue (idempotent while queued). *)

val entail : t -> propagator -> unit
(** Mark the propagator as entailed: it is neither woken, advised nor
    run again in this subtree, and costs one test per domain change of
    its variables.  The flag is trailed — {!pop_level} past the
    entailment point clears it.  The propagator stays on its watcher
    lists, so entailing and backtracking cost no list surgery and the
    wake order stays the posting order.  Only sound when the
    constraint is satisfied by {e every} remaining assignment of its
    variables (it can never prune nor fail again in this subtree). *)

val entail_now : t -> unit
(** [entail_now s] entails the propagator currently being executed by
    {!propagate} (no-op outside a propagator execution).  The common way
    for a propagator body to report its own entailment. *)

val set_entail : t -> bool -> unit
(** Disable ([false]) or re-enable ([true]) entailment: when disabled,
    {!entail} and {!entail_now} are no-ops.  Tests use this to check
    that the fixpoint with entailment-removal equals the one without. *)

val generation : t -> int
(** Backtrack generation: bumped by every {!pop_level}.  Two equal
    readings certify that no backtrack happened in between, i.e. all
    domains have only narrowed — the validity condition for caches kept
    by incremental propagators that rebuild after a backtrack.  State
    that should survive a backtrack instead lives in reversible cells
    ({!write}). *)

val write : t -> int array -> int -> int -> unit
(** [write s a i v] sets [a.(i) <- v] reversibly: {!pop_level} restores
    the value the slot held when the matching {!push_level} was made.
    At level 0 the write is not trailed and persists.  An undo record is
    three words in fixed-size chunks the store adds as the trail deepens
    and reuses after a backtrack, so a write allocates nothing except
    when it opens a new chunk, and writing the value a slot already
    holds records nothing.  Incremental propagators keep their
    cross-run state in such slots (Cumulative's timetable), so a
    backtrack restores it instead of forcing a rebuild.  The array must
    outlive every level the write can be undone from. *)

val propagate : t -> unit
(** Run the priority queues to fixpoint, cheapest bucket first.
    @raise Fail on inconsistency.
    @raise Interrupted if the store's cancellation poll does. *)

val set_poll : t -> (unit -> unit) option -> unit
(** Install (or clear) the cancellation poll: a closure run every few
    dozen fixpoint iterations {e inside} {!propagate}, so even a single
    long sweep observes a deadline.  The poll signals cancellation by
    raising {!Interrupted}; it is called at a point where no pending
    wake-up can be lost, so a store whose sweep was interrupted can
    resume propagation later. *)

val poll_of : t -> (unit -> unit) option
(** The currently installed poll (to save/restore around a search). *)

val set_hook : t -> (t -> string -> unit) option -> unit
(** Install (or clear) the execution hook: a closure run immediately
    before every propagator execution, receiving the store and the
    propagator's name.  Used for fault injection ({!Chaos}) and
    tracing.  An exception from the hook aborts the sweep like a
    crashing propagator would — the engine's recovery path, not the
    hook mechanism, is responsible for containing it. *)

val reschedule_all : t -> unit
(** Schedule every registered propagator, ignoring wake events, and
    re-advise every indexed subscription.  A subsequent {!propagate}
    re-establishes the fixpoint from scratch; tests use this to verify
    that event filtering loses no pruning. *)

(** {1 Search support} *)

val push_level : t -> unit
(** Open a new choice point. *)

val pop_level : t -> unit
(** Undo all updates since the matching {!push_level}. *)

val level : t -> int

(** {1 Introspection} *)

val propagation_steps : t -> int
(** Number of propagator executions so far (for statistics). *)

(** {1 Profiling}

    Wake, run and prune counters are always maintained (plain int
    increments, no observable cost); execution {e timing} is opt-in via
    {!set_timed} because clocking every propagator execution is not
    free.  The search/portfolio layers turn timing on automatically
    when an {!Obs} sink is attached. *)

type profile = {
  pr_name : string;     (** propagator class (the [?name] given to [post]) *)
  pr_count : int;       (** propagator instances of this class *)
  pr_runs : int;        (** executions *)
  pr_wakes : int;       (** queue insertions (false->queued transitions) *)
  pr_prunes : int;      (** domain changes committed while executing *)
  pr_entails : int;     (** entailment reports (flag settings; each
                            is undone on backtracking past it) *)
  pr_time_ms : float;   (** cumulative execution time; 0 unless timed *)
}

val profile : t -> profile list
(** Per-class profile, most cumulative time (then most runs) first. *)

val set_timed : t -> bool -> unit
(** Enable/disable per-execution timing (default off). *)

val timed : t -> bool

val emit_profile : ?tid:int -> t -> unit
(** Emit one {!Obs.profile_row} per propagator class (no-op when no
    sink is attached).  [tid] tags the rows with a portfolio worker
    id. *)
