(** A bounded LRU solution cache for solve outcomes, shared across
    requests (and across worker domains: every operation takes one
    internal mutex).

    Payloads live in {e canonical index space} (see {!Key.canon}): a
    hit from a graph that is isomorphic — but not identical — to the
    one that populated the entry is replayed through the requesting
    graph's own canonical permutation by {!Sched.Solve.run}.

    Only results that are deadline-independent facts about the problem
    are ever stored: proven-optimal validated schedules and genuine
    infeasibility proofs.  Timeouts, crashes and fallback schedules
    never populate the cache (the poisoned-entry property tested in
    [test/t_cache.ml] and [test/t_serve.ml]). *)

module Key = Key

type payload =
  | Schedule of {
      start : int array;        (** canonical index -> start cycle *)
      slot : (int * int) list;  (** canonical index -> memory slot *)
      makespan : int;
    }  (** a proven-optimal, validated schedule *)
  | Infeasible  (** a proof that no schedule exists *)

type t

type stats = { hits : int; misses : int; evictions : int; stores : int }

val create : ?metrics:Obs.Metrics.registry -> capacity:int -> unit -> t
(** [capacity <= 0] disables storage: every lookup misses, nothing is
    retained.  The cache counts into the [cache.hits] / [cache.misses]
    / [cache.evictions] / [cache.stores] counters of [metrics]
    (default: a private registry) — the parameter chooses where counts
    are stored, not what is counted. *)

val capacity : t -> int

val find : t -> Key.t -> payload option
(** Bumps the entry to most-recently-used; counts a hit or a miss and
    emits a [cache.hit]/[cache.miss] instant when an {!Obs} sink is
    attached. *)

val store : t -> Key.t -> payload -> unit
(** Insert (or refresh) at most-recently-used, counted as a store;
    evicts the least-recently-used entry beyond [capacity] (counted,
    and emitted as a [cache.evict] instant). *)

val remove : t -> Key.t -> unit
(** Drop an entry — used when a cached schedule fails re-validation on
    hit (a corrupt persisted file, a changed validator). *)

val length : t -> int

val stats : t -> stats
(** The cache's four counters, read from its registry. *)

(** {1 Persistence}

    A printable JSON snapshot, so a CLI invocation can carry its cache
    across processes ([eitc schedule --cache-file]).  Entries are
    written most-recent-first and reloaded preserving recency; a
    reload counts neither stores nor evictions, so a loaded cache
    starts with all counters at zero.  [load] needs only the
    [entries] list and ignores any other member (files written by
    older versions also carry a [hints] list). *)

val save : t -> string -> unit
val load : capacity:int -> string -> (t, string) result
