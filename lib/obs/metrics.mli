(** Live runtime telemetry: a domain-safe registry of counters, gauges,
    log-linear quantile histograms and rolling-window SLO trackers,
    cheap enough to leave on in production.

    This is the {e always-on} counterpart to the event-sink layer in
    {!Obs}: sinks record everything that happened (full traces, offline
    analysis); a [Metrics.registry] keeps a few kilobytes of live
    aggregates — request latency quantiles, error rates, work-per-solve
    distributions — that a scraper, the [stats] wire request or the
    periodic {!exporter} can read at any time while the service runs.

    Concurrency: every instrument may be updated from any OCaml 5
    domain.  Counters and gauges are single atomics; histograms and SLO
    windows take a per-instrument mutex (a handful of writes per
    request, never inside the solver's hot loop).  Increments are never
    lost: concurrent updates from N domains sum exactly.

    Counters and gauges always count.  Each registry carries an enabled
    flag that gates only the instruments that lock — histograms, SLO
    windows and exemplars: with it off, each of those records is one
    atomic load.  A counter increment is one fetch-and-add, enabled or
    not.  No record operation allocates (pinned by the t_obs
    zero-allocation test). *)

type registry

val create : ?enabled:bool -> unit -> registry
(** A fresh, empty registry ([enabled] defaults to [true]). *)

val set_enabled : registry -> bool -> unit
(** Turn the locking instruments (histograms, SLO windows, exemplars)
    on or off; counters and gauges are unaffected. *)

val is_enabled : registry -> bool

val reset : registry -> unit
(** Drop every instrument.  Existing instrument handles keep working
    but are no longer reachable from snapshots. *)

(** {1 Counters and gauges} *)

type counter

val counter : registry -> string -> counter
(** Find-or-create the named monotonic counter.  Raises
    [Invalid_argument] if the name is already a different kind of
    instrument. *)

val incr : ?by:int -> counter -> unit
(** One fetch-and-add, whether or not the registry is enabled. *)

val counter_value : counter -> int

type gauge

val gauge : registry -> string -> gauge

val set_gauge : gauge -> float -> unit
(** One atomic store, whether or not the registry is enabled. *)

val gauge_value : gauge -> float

(** {1 Histograms}

    Log-linear HDR-style: each power of two is split into [2^sig_bits]
    linear sub-buckets, so any recorded value is represented by its
    bucket midpoint with relative error at most [2^-(sig_bits+1)]
    ({!relative_error}) — quantiles without retaining samples, in
    O(occupied buckets) memory.  Values [<= 0] land in a dedicated
    zero bucket represented exactly as [0.]. *)

type histogram

val histogram : ?sig_bits:int -> registry -> string -> histogram
(** Find-or-create.  [sig_bits] (default 7, i.e. relative error
    1/256 < 0.4%) is fixed at creation; a later lookup ignores it. *)

val observe : histogram -> float -> unit

val relative_error : histogram -> float
(** The guaranteed bound: [2. ** -. (sig_bits + 1)].  For any recorded
    value [v > 0], the representative value of its bucket differs from
    [v] by at most [relative_error h *. v]; quantile estimates are
    representative values of the bucket holding the requested rank, so
    they carry the same bound relative to the exact sorted-sample
    quantile of identical rank. *)

val quantile : histogram -> float -> float
(** [quantile h q] for [q] in [0;1]: the representative value of the
    bucket containing the [ceil (q * count)]-th smallest recorded
    value ([0.] when empty). *)

type hstats = {
  count : int;
  sum : float;
  vmin : float;  (** exact (not bucketed); [0.] when empty *)
  vmax : float;  (** exact; [0.] when empty *)
  mean : float;
  p50 : float;
  p90 : float;
  p95 : float;
  p99 : float;
  p999 : float;
}

val hstats : histogram -> hstats
(** One consistent snapshot (single lock acquisition). *)

val exemplar : histogram -> float -> string -> unit
(** [exemplar h v trace] links an observed value to a trace reference
    (e.g. a flight-dump file name), so snapshots can answer "show me a
    trace behind this distribution".  Kept newest-first, capped at 8;
    a no-op on a disabled registry.  Exemplars annotate — they do not
    contribute to counts or quantiles; pair with {!observe}. *)

val exemplars : histogram -> (float * string) list
(** The current exemplar trail, newest first. *)

val merge_into : into:histogram -> histogram -> unit
(** Add [src]'s buckets, count, sum and min/max into [into] — e.g. to
    combine per-domain histograms.  Both histograms must use the same
    [sig_bits] (raises [Invalid_argument] otherwise).  The source is
    left unchanged. *)

(** {1 Rolling-window SLO tracker} *)

type slo

val slo : ?window:int -> registry -> string -> slo
(** Find-or-create a tracker over the last [window] (default 512)
    outcomes. *)

val slo_record : slo -> ok:bool -> deadline_met:bool -> unit

type slo_stats = {
  window : int;
  seen : int;   (** outcomes currently in the window *)
  total : int;  (** lifetime outcomes recorded *)
  ok : int;     (** in-window outcomes with [ok = true] *)
  met : int;    (** in-window outcomes with [deadline_met = true] *)
  error_rate : float;         (** [1 - ok/seen] ([0.] when empty) *)
  deadline_hit_rate : float;  (** [met/seen] ([1.] when empty) *)
}

val slo_stats : slo -> slo_stats

(** {1 Snapshots and export} *)

val snapshot_json : ?ts:float -> registry -> Obs_json.t
(** The whole registry as one JSON object: [ts_unix], then
    [counters] / [gauges] / [histograms] (with quantiles and the
    relative-error bound, plus an ["exemplars"] array when any are
    linked) / [slo], each sorted by instrument name.  [ts] defaults to
    [Unix.gettimeofday ()]. *)

val prometheus : registry -> string
(** Prometheus text exposition: counters and gauges as single samples,
    histograms as summaries ([name{quantile="0.99"} v] plus [_sum] /
    [_count] / [_min] / [_max]), SLO trackers as two gauges.
    Instrument names are sanitized ([a-zA-Z0-9_] only). *)

type exporter

val exporter_start :
  ?interval_ms:float -> ?prom_path:string -> path:string -> registry -> exporter
(** Spawn a background domain that appends one {!snapshot_json} line to
    [path] (JSONL) every [interval_ms] (default 1000) and, when
    [prom_path] is given, rewrites it with {!prometheus} on the same
    cadence. *)

val exporter_stop : exporter -> unit
(** Stop the domain and flush one final snapshot, so even a session
    shorter than [interval_ms] leaves a complete snapshot behind.
    Idempotent. *)
