(** Absolute deadlines for cooperative cancellation.

    A deadline is a point on the process clock; [none] never expires.
    Deadlines compose by taking the earliest, so a caller-imposed
    deadline and a local time budget combine into one cancellation
    point that every layer (search nodes, the propagation fixpoint
    loop, portfolio workers) polls cooperatively.

    The clock is {!Unix.gettimeofday} — the same clock the search
    statistics use.  Deadlines are absolute, so they survive being
    passed across domains and are immune to per-layer re-anchoring
    (a worker that starts late does not get extra time).

    {2 Switches}

    A deadline may carry a {!switch}: a shared, domain-safe cell that
    an external supervisor can {!cancel} at any time, turning the next
    [expired] poll into a cancellation point even when the time bound
    has not been reached.  Every [expired] poll on a switched deadline
    also stamps the switch with the poll time, so the switch doubles as
    a progress heartbeat: {!idle_ms} tells a watchdog how long the
    computation has gone without reaching any cooperative poll site —
    the signature of a wedged propagator.  Reading the switch directly
    ({!cancelled}, {!idle_ms}) never stamps the heartbeat; only the
    engine-side [expired] polls do. *)

type t
(** An absolute deadline, in milliseconds on the process clock,
    optionally carrying a cancellation switch. *)

val none : t
(** Never expires (unless a switch is attached and cancelled). *)

val after_ms : float -> t
(** [after_ms ms] expires [ms] milliseconds from now.  [ms <= 0]
    yields a deadline that is already expired. *)

val earliest : t -> t -> t
(** The tighter of two deadlines.  At most one switch survives:
    the first argument's, if it has one. *)

val of_time_budget : float option -> t
(** [of_time_budget (Some ms)] = [after_ms ms]; [None] = {!none}. *)

val is_finite : t -> bool
(** Whether the deadline can ever expire — a finite time bound {e or}
    an attached switch.  The engine installs its cooperative polls
    exactly when this is [true]. *)

val expired : t -> bool
(** Has the deadline passed, or its switch been cancelled?
    Constant-time; safe to poll from hot loops (one clock read).
    On a switched deadline, every call stamps the heartbeat. *)

val remaining_ms : t -> float option
(** Milliseconds left, or [None] for an infinite time bound (even if a
    switch is attached).  May be negative. *)

(** {1 Switches} *)

type switch
(** A cancellation + heartbeat cell, shareable across domains. *)

val switch : unit -> switch
(** A fresh switch; the heartbeat starts at creation time. *)

val with_switch : t -> switch -> t
(** Attach a switch to a deadline (replacing any previous one). *)

val cancel : switch -> unit
(** Trip the switch: every deadline carrying it reports {!expired}
    from now on.  Idempotent. *)

val cancelled : switch -> bool
(** Has the switch been cancelled?  Never stamps the heartbeat — safe
    for watchdogs and for fault-injection escape predicates that must
    not masquerade as progress. *)

val beat : switch -> unit
(** Stamp the heartbeat manually (e.g. when a worker picks a request
    up, before the engine's own polls start). *)

val idle_ms : switch -> float
(** Milliseconds since the last heartbeat ({!beat} or an [expired]
    poll on a deadline carrying this switch). *)

val pp : Format.formatter -> t -> unit
