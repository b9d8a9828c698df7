(** Fault injection for the solver — a seeded chaos harness.

    Chaos instruments a store's propagation engine (via
    {!Store.set_hook}).  Each instrumented store is one {e site},
    numbered by the caller: a sequential solve is its [chaos_base], a
    portfolio worker adds its index, and the service numbers attempt
    [k] of request [seq] as [seq*8 + k].  What happens at a site is a
    pure function of (seed, site), never of how domains interleave or
    how fast the host is:

    - {b crash}: the site's Nth propagator execution raises {!Injected}
      instead of running — the non-[Fail] exception a buggy propagator
      or a dying worker would produce;
    - {b wedge}: the site's Nth execution {e spins}, reaching no
      cooperative poll site, until the escape predicate fires (see
      {!with_escape}; a serving layer points it at the request's
      cancellation switch) or [wedge_max_ms] elapses — then unwinds
      with {!Injected}.  This is the fault a progress watchdog exists
      for;
    - {b delays} and {b spurious wakes}, drawn per execution from a
      stream seeded by (seed, site): an execution sleeps [delay_ms], or
      every propagator is re-scheduled for no reason, checking that
      fixpoints are insensitive to over-waking.

    A site has at most one crash or wedge, given by {!plan}: the one
    named in [crash_at] or [wedge_at], else — for a [crash_prob] share
    of the sites — a crash at an execution in 1..{!crash_window}.
    Tests compute the expected outcome of every attempt from {!plan}.

    A single [t] may instrument several stores concurrently (one per
    portfolio worker or pool domain); the fault log is mutex-protected. *)

exception Injected of string
(** The injected crash.  Deliberately {e not} {!Store.Fail}: the engine
    must treat it as a failure of the machinery, never as a proof that a
    branch is dead. *)

type t

type fault = {
  site : int;    (** the instrumentation site the fault hit *)
  what : string; (** human-readable description of the injected fault *)
}

type action = Crash | Wedge

val crash_window : int
(** Drawn crashes fire at an execution in [1..crash_window] (64).  Every
    built-in kernel's solve runs more executions (CORR, the fewest, runs
    259), so a crash planned on one of them is always reached. *)

val create :
  ?crash_prob:float ->
  ?delay_prob:float ->
  ?delay_ms:float ->
  ?spurious_prob:float ->
  ?crash_at:(int * int) list ->
  ?wedge_at:(int * int) list ->
  ?wedge_max_ms:float ->
  seed:int ->
  unit ->
  t
(** [crash_prob] (default [0.]) is the share of sites that crash;
    [delay_prob] and [spurious_prob] (default [0.]) are per-execution
    probabilities, and [delay_ms] (default [0.2]) is the length of one
    delay.  [crash_at] and [wedge_at] (default none) name
    [(site, execution)] pairs, executions counted from 1; a wedge spins
    for at most [wedge_max_ms] (default [10_000.]).  Raises
    [Invalid_argument] if a site is named twice. *)

val plan : t -> int -> (action * int) option
(** [plan t site] is the crash or wedge planned at [site] and the
    execution it fires at, or [None] for a healthy site. *)

val with_escape : t -> (unit -> bool) -> t
(** A shallow copy whose wedge loops poll the given escape predicate
    (default: never).  The fault log and its lock are shared with the
    original, so per-request escapes still produce one fault history.
    The predicate runs on the wedged domain and must not itself poll a
    switched {!Deadline.t} (that would stamp the heartbeat the watchdog
    is watching); use {!Deadline.cancelled}. *)

val instrument : t -> site:int -> Store.t -> unit
(** Install the fault-injection hook on a store, as instrumentation
    site [site]. *)

val faults : t -> fault list
(** Every fault injected so far, oldest first.  Thread-safe. *)
