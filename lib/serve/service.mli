(** The batch scheduling service: a long-lived, resilient front end to
    the solver stack.

    Requests (a named built-in kernel or an imported XML graph, plus
    per-request architecture / budget / deadline options) are admitted
    through a bounded queue ({!Serve.Queue} — overload is shed as a
    typed {!Overloaded} reply, never queued unboundedly), executed on a
    fixed pool of worker domains ({!Serve.Pool}) that run sequential
    {!Sched.Solve} solves, and answered with a typed
    {!response}.  The contract: {e every} submitted request gets
    exactly one response, in bounded time, and no request can take the
    service (or another request) down.

    Resilience machinery, per request:

    - an absolute deadline covering queue wait {e and} solving; a
      request that expires while still queued is failed fast by the
      watchdog without occupying a worker;
    - a cancellation switch ({!Fd.Deadline.switch}) threaded into the
      solver's cooperative polls, doubling as a progress heartbeat;
    - retry with jittered exponential backoff for [Crashed] attempts
      (bounded by the attempt budget {e and} the remaining deadline);
    - a final heuristic-fallback rescue when no attempt produced a
      schedule (unless the instance is proven infeasible);
    - a watchdog domain that declares a worker {e wedged} when its
      in-flight request makes no poll progress within the grace window,
      answers the request ({!Wedged}), and revives the slot with a
      fresh domain (the wedged one is quarantined as a zombie until it
      escapes on its own).

    Observability: admissions, sheds, expiries, retries and wedges are
    emitted as [Obs] instants (cat ["serve"]) tagged with the request
    id; each execution is wrapped in a [request:<id>] span on the
    worker's own track (tid [1000 + slot]). *)

type workload =
  | Kernel of string    (** a built-in kernel, e.g. ["qrd"] *)
  | Xml_text of string  (** an exported XML graph, inline *)
  | Xml_file of string  (** an exported XML graph, by path *)

type request = {
  id : string;
  workload : workload;
  slots : int option;        (** restrict memory slots *)
  preset : string option;    (** architecture preset name *)
  budget_ms : float option;  (** per-attempt solver budget *)
  deadline_ms : float option;
      (** end-to-end deadline, measured from submission — queue wait
          counts against it *)
  retries : int option;      (** max retries for crashed attempts *)
}

val request :
  ?slots:int ->
  ?preset:string ->
  ?budget_ms:float ->
  ?deadline_ms:float ->
  ?retries:int ->
  id:string ->
  workload ->
  request

type solved = {
  st : Sched.Solve.status;
  eng : Sched.Solve.engine;
  makespan : int option;
  nodes : int;
  failures : int;
  propagations : int;
  solve_ms : float;   (** wall time spent solving (all attempts) *)
  validate_ms : float;(** wall time in the independent validator (final
                          outcome, incl. cache-hit re-validation) *)
  crashes : int;      (** isolated worker crashes across attempts *)
  cached : bool;      (** replayed from the service's solution cache:
                          no search ran, stats are all-zero *)
}

type reply =
  | Solved of solved
  | Overloaded        (** shed at admission: queue full or closed *)
  | Expired           (** deadline passed while still queued *)
  | Wedged of string  (** watchdog: no solver progress within grace *)
  | Invalid of string (** malformed request: XML parse error, unknown
                          kernel / preset — the request's fault,
                          reported per-request, never fatal *)

type response = {
  r_id : string;
  reply : reply;
  attempts : int;   (** solve attempts executed (0 when never run) *)
  wait_ms : float;  (** admission -> pickup (or terminal verdict) *)
  total_ms : float; (** admission -> response *)
  worker : int;     (** pool slot that ran it; [-1] when none did *)
}

type config = {
  pool : int;               (** worker domains (default 4) *)
  queue : int;              (** admission queue capacity (default 64) *)
  default_budget_ms : float;(** per-attempt budget when the request
                                carries none (default 10s) *)
  grace_ms : float;         (** watchdog: max ms without poll progress
                                before a worker counts as wedged
                                (default 2s) *)
  watchdog_tick_ms : float; (** watchdog scan period (default 25ms) *)
  max_retries : int;        (** default retry allowance (default 1) *)
  backoff_base_ms : float;  (** first backoff step (default 25ms);
                                doubles per retry, plus jitter *)
  seed : int;               (** jitter RNG seed (deterministic per
                                request sequence number) *)
  chaos : Fd.Chaos.t option;(** fault injection for every attempt *)
  cache_capacity : int;     (** shared solution-cache entries; [0]
                                (default) disables the cache entirely,
                                keeping served solves byte-identical to
                                direct {!Sched.Solve.run} calls *)
  metrics : Obs.Metrics.registry option;
      (** the live-metrics registry the service feeds — its request,
          cache and flight counters and its latency/SLO instruments.
          [None] (default) creates a private registry whose histograms
          and SLO windows are {e disabled} (one atomic load per record,
          {!health}'s latency/SLO aggregates read as zero) while its
          counters still count.  Pass an enabled registry
          ([Obs.Metrics.create ()]) to turn the aggregates on, as
          [eitc serve] does. *)
  flight_dir : string option;
      (** tail-based flight recorder: when set, every request records
          its full event stream into a preallocated per-worker ring
          ({!Obs.Flight}), and the completion path keeps anomalies
          (error / expired / wedged / crashed / retried), any request
          whose solve took at least the live [serve.solve_ms] p99 (once
          64 requests have completed; the ring holds the execution, not
          the queue wait), and a 1-in-[tail_keep] slice of healthy
          traffic — each as a
          self-contained JSONL black box under this directory, read
          back by [eitc postmortem].  [None] (default) disables
          recording entirely. *)
  flight_buf : int;
      (** per-worker ring capacity in events (default 4096); a dump
          holds at most this many, cut mid-span if the request
          overflowed it. *)
  tail_keep : int;
      (** keep 1-in-N {e healthy} completions as a baseline slice
          (deterministic, by admission sequence); [0] (default) keeps
          only anomalies and tail-latency outliers. *)
}

val default_config : config

type t
type ticket

val create : ?config:config -> unit -> t
(** Compiles every built-in kernel up front and spawns the pool and
    the watchdog. *)

val submit : ?on_complete:(response -> unit) -> t -> request -> ticket
(** Never blocks.  Overload answers the ticket immediately with
    {!Overloaded}.  [on_complete] fires exactly once, on whichever
    domain resolves the request. *)

val await : ticket -> response
(** Block until the response is available. *)

val peek : ticket -> response option

(** A view over the service's registry ({!metrics}): every counter
    field reads an [Obs.Metrics] counter, so [health], the [stats]
    wire reply, snapshots and Prometheus print the same numbers.
    Counters count even with [metrics = None]. *)
type health = {
  alive : int;       (** live current-generation workers *)
  queue_depth : int;
  revived : int;     (** worker revivals performed *)
  zombies : int;     (** superseded workers not yet joined *)
  submitted : int;   (** [serve.submitted] *)
  completed : int;   (** responses delivered (all kinds): the sum of the
                         [serve.status.<status>] counters *)
  shed : int;        (** [serve.status.rejected_overload] *)
  expired : int;     (** [serve.status.expired] *)
  wedged : int;      (** [serve.status.wedged] *)
  retries : int;     (** retry attempts performed: [serve.retries] *)
  fallbacks : int;   (** responses rescued by the heuristic fallback:
                         [serve.fallbacks] *)
  invalid : int;     (** [serve.status.error] *)
  cache_hits : int;      (** [cache.hits] (0 when the cache is disabled;
                             likewise [cache.misses] / [cache.evictions]) *)
  cache_misses : int;
  cache_evictions : int;
  flight_kept : int;     (** [flight.kept]: completions whose trace was
                             retained (0 when the flight recorder is
                             off); [flight_kept + flight_dropped =
                             completed] *)
  flight_dropped : int;  (** [flight.dropped]: completions reset without
                             serialization *)
  flight_dumped : int;   (** [flight.dumped]: black-box files written
                             under [flight_dir] *)
  lat_total : Obs.Metrics.hstats;
      (** end-to-end latency distribution (admission -> response, all
          reply kinds) — quantiles carry the histogram's relative-error
          bound *)
  lat_queue : Obs.Metrics.hstats;  (** admission -> pickup *)
  lat_solve : Obs.Metrics.hstats;  (** solver wall time (solved only) *)
  slo : Obs.Metrics.slo_stats;
      (** rolling-window error rate and deadline hit rate *)
}

val health : t -> health

val metrics : t -> Obs.Metrics.registry
(** The registry this service feeds ([config.metrics], or the private
    one created at {!create}) — for {!Obs.Metrics.exporter_start},
    snapshots, or checking {!health}'s quantiles against ground truth. *)

val flight_dump_all : t -> reason:string -> string option
(** The daemon-fatal black box: dump every live flight ring (plus the
    service's counters and config) as one file under [flight_dir] —
    what [eitc serve] writes when an exception is about to take the
    process down.  [None] when the flight recorder is off or the write
    failed. *)

val shutdown : t -> unit
(** Graceful: close admission, drain queued requests, join workers
    (the watchdog keeps running until they are done, so a wedge during
    drain is still caught), then the watchdog and any zombies.
    Idempotent. *)

val status_string : response -> string
(** ["optimal"], ["feasible_timeout"], ["infeasible"], ["crashed"],
    ["rejected_overload"], ["expired"], ["wedged"] or ["error"]. *)

val exit_code : response -> int
(** Per-response exit-code contract, extending {!Sched.Solve.exit_code}:
    [0] optimal / CP-feasible, [2] fallback schedule, [3] infeasible,
    [4] crashed or wedged, [5] shed on overload, [6] expired in queue,
    [7] invalid request. *)

val pp_reply : Format.formatter -> reply -> unit
