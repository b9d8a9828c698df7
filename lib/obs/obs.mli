(** Unified tracing & metrics layer (zero external dependencies).

    The solver, scheduler and simulator emit structured {!event}s;
    pluggable sinks ({!Chrome}, {!Jsonl}, {!Flight}, {!Analyze}) consume
    them.  One reader, {!Analyze}, folds both the live stream and
    recorded traces into a summary; {!Check} is that fold failing on
    its first defect.  With no
    sink attached every helper is a near-free branch: {!enabled} is one
    atomic load and nothing is allocated (see [test/t_obs.ml], which
    asserts zero minor-heap allocation on the disabled path).

    Events may be emitted concurrently from several OCaml 5 domains
    (portfolio workers); dispatch is serialized by a global mutex, and
    the [tid] field keeps per-worker tracks apart.

    Hot call sites must guard argument construction themselves:

    {[
      if Obs.enabled () then
        Obs.instant ~cat:"search" ~tid ~args:[ ("var", Obs.S name) ] "branch"
    ]} *)

type value = Obs_event.value = I of int | F of float | S of string | B of bool

type ph = Obs_event.ph =
  | Begin      (** span opening (Chrome ["B"]) *)
  | End        (** span closing (Chrome ["E"]) *)
  | Instant    (** point event (Chrome ["i"]) *)
  | Counter    (** gauge sample; args are the series (Chrome ["C"]) *)
  | Complete of float  (** self-contained span with duration in us (Chrome ["X"]) *)
  | Meta       (** track metadata — thread/process names (Chrome ["M"]) *)

type event = Obs_event.event = {
  name : string;
  cat : string;   (** category: "sched", "search", "store", "machine", ... *)
  ts_us : float;  (** microseconds since the trace epoch (first attach) *)
  tid : int;      (** worker id / machine unit track *)
  ph : ph;
  args : (string * value) list;
}

type sink

val make_sink : ?close:(unit -> unit) -> (event -> unit) -> sink
(** A custom sink; [close] runs when the sink is detached. *)

(** {1 Sink registry} *)

type handle

val attach : sink -> handle
(** Register a sink.  The first attach (re)sets the trace epoch. *)

val detach : handle -> unit
(** Unregister and close.  Unknown handles are ignored. *)

val with_sink : sink -> (unit -> 'a) -> 'a
(** [attach], run, [detach] (exception-safe). *)

val enabled : unit -> bool
(** Whether at least one sink is attached — the hot-path guard, a
    single atomic load. *)

val now_us : unit -> float
(** Microseconds since the trace epoch. *)

(** {1 Emission} *)

val emit : event -> unit
(** Dispatch to every attached sink (under the global mutex).  Callers
    normally use the helpers below, which skip construction when no
    sink is attached. *)

val span_begin : ?cat:string -> ?tid:int -> ?args:(string * value) list -> string -> unit
val span_end : ?cat:string -> ?tid:int -> ?args:(string * value) list -> string -> unit

val span :
  ?cat:string -> ?tid:int -> ?args:(string * value) list ->
  string -> (unit -> 'a) -> 'a
(** Wrap a computation in a Begin/End pair; the span is closed (without
    [args]) even when the computation raises. *)

val instant : ?cat:string -> ?tid:int -> ?args:(string * value) list -> string -> unit

val counter : ?cat:string -> ?tid:int -> ?ts_us:float -> string -> (string * value) list -> unit
(** Gauge sample; [ts_us] overrides the wall clock (the simulator uses
    cycle numbers as timestamps). *)

val complete :
  ?cat:string -> ?tid:int -> ?args:(string * value) list ->
  ts_us:float -> dur_us:float -> string -> unit

val thread_name : ?cat:string -> ?tid:int -> string -> unit
(** Label the (pid, tid) track this is emitted on (pid derives from
    [cat] as usual).  The Chrome sink writes a ph:["M"] metadata record
    so Perfetto shows e.g. "worker-2"; {!Analyze} reads it back to
    label reports. *)

val profile_row :
  ?tid:int -> ?entails:int -> name:string -> runs:int -> wakes:int ->
  prunes:int -> time_ms:float -> unit -> unit
(** One per-propagator profile row (cat ["propagator"]); {!Analyze}
    merges rows with the same name across workers.  [entails] counts
    entailment reports (default 0). *)

val cat_propagator : string

(** {1 JSON} *)

module Json : sig
  type t = Obs_json.t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  val parse : string -> (t, string) result
  val parse_file : string -> (t, string) result
  val member : string -> t -> t option
  val to_string : t -> string
  val escape : string -> string
  val float_str : float -> string
end

module Check : sig
  val trace_json : ?lenient:bool -> Json.t -> (int, string) result
  (** Structural validation of a Chrome trace: {!Analyze.of_json}
      failing on the first defect it records (every event an object
      with string [name]/[ph] and numeric [ts], Begin/End pairs
      LIFO-nested per [(pid, tid)], no end before its begin, no span
      left open, complete events carrying a non-negative [dur]).
      Returns the event count.

      [lenient] (default [false]) tolerates the two defects of a
      {e truncated} trace — ends whose begin fell off the front (a
      flight-recorder ring overwrote it) and spans still open at the
      cut — while misnesting, backwards ends and malformed events
      stay errors.  Flight dumps and other ring-cut traces validate
      under [~lenient:true]. *)

  val trace_file : ?lenient:bool -> string -> (int, string) result
  (** Validate a trace file, read as {!Analyze.of_file} reads it. *)
end

(** {1 Sinks} *)

module Chrome : sig
  val sink : ?other_data:(string * value) list -> path:string -> unit -> sink
  (** Buffers events; on detach writes a [{"traceEvents": [...]}] file
      loadable in [about://tracing] / Perfetto.  Solver events live on
      pid 1 (wall-clock us), machine events on pid 2 (1 us = 1 cycle).
      Process/thread-name metadata for the static tracks is emitted up
      front; [other_data] fields (kernel, slots, mode, ...) land in the
      file's top-level ["otherData"] object together with the
      wall-clock start, and {!Analyze} reads them back to label
      reports. *)
end

module Jsonl : sig
  val sink : path:string -> sink
  (** Streams one JSON object per line. *)
end

(** {1 Trace analytics}

    The read side, one incremental fold over events: a live sink
    ([eitc --metrics], [bench profile]), a Chrome trace or a flight
    dump ([eitc trace-report], [trace-diff], [postmortem],
    [trace-check]).  It rebuilds the span forest per track, tallies
    instants, merges propagator rows, keeps counter series and records
    every defect it meets.  From its summary: inclusive/exclusive
    times, FlameGraph collapsed-stack lines, the critical path, machine
    utilization from the pid-2 cycle timeline, and a structural diff of
    two traces. *)

module Analyze : sig
  type node = {
    n_name : string;
    n_cat : string;
    n_ts : float;    (** start: us on pid 1, cycles on pid 2 *)
    n_incl : float;  (** inclusive duration *)
    n_excl : float;  (** exclusive = inclusive − Σ children, clamped ≥ 0 *)
    n_children : node list;  (** in emission order *)
  }

  type track = {
    tr_pid : int;
    tr_tid : int;
    tr_label : string;  (** from process/thread-name metadata, e.g. "solver/main" *)
    tr_roots : node list;
  }

  type profile = {
    a_runs : int;
    a_wakes : int;
    a_prunes : int;
    a_entails : int;
    a_time_ms : float;
    a_rows : int;  (** per-worker rows merged in *)
  }

  type machine = {
    mc_cycles : int;            (** timeline horizon in cycles *)
    mc_busy_lane_cycles : int;  (** Σ over cycles of busy lanes *)
    mc_peak_lanes : int;
    mc_avg_lanes : float;
    mc_lane_util : float;       (** busy-lane-cycles / (cycles × peak), % *)
    mc_unit_busy : (string * int) list;  (** functional unit → busy cycles *)
    mc_read_hist : (int * int) list;     (** reads/cycle → #cycles *)
    mc_write_hist : (int * int) list;
    mc_peak_reads : int;
    mc_peak_accesses : int;     (** max reads+writes in any one cycle *)
  }

  type defect_kind =
    | Malformed   (** not an object, a missing or mistyped member, an
                      unknown [ph], an [X] without a non-negative [dur];
                      the event is skipped *)
    | Misnested   (** an end while another span is innermost on its
                      track; it closes the innermost open span of its
                      own name, if any *)
    | Backwards   (** an end before its begin; the span gets length 0 *)
    | Orphan_end  (** an end with no span open on its track; dropped *)
    | Left_open   (** spans open at the end; closed at their track's
                      last timestamp *)

  type defect = {
    de_event : int;  (** index of the event that shows it *)
    de_kind : defect_kind;
    de_msg : string;  (** the checker's message, e.g. ["event 2: end of
                          \"a\" while \"b\" is open (misnested)"] *)
  }

  type summary = {
    sm_other : (string * Json.t) list;  (** the trace's [otherData] labels *)
    sm_tracks : track list;             (** sorted by (pid, tid) *)
    sm_span_stats : ((string * string) * (int * float)) list;
        (** (track label, span name) → (count, total inclusive us),
            all nesting depths, largest total first *)
    sm_profiles : (string * profile) list;
        (** propagator rows merged by name, most time (then most runs)
            first *)
    sm_counts : (string * int) list;  (** instant tallies, most frequent first *)
    sm_gauges : (string * (float * float)) list;
        (** counter series → (last, max), sorted by key; the key is
            ["name.arg"], or ["name"] for an arg called ["value"] *)
    sm_machine : machine option;  (** [None] when the trace has no pid-2 timeline *)
    sm_defects : defect list;     (** in stream order *)
    sm_events : int;
  }

  type t
  (** The fold: what every reader needs, kept as events arrive. *)

  val create : unit -> t

  val sink : t -> sink
  (** The fold as a live sink: [Obs.attach (Obs.Analyze.sink a)].  It
      is first fed the static track names the {!Chrome} sink writes,
      so a live summary and the summary of a Chrome file written in
      the same run agree. *)

  val summary : t -> summary
  (** What was folded so far (the fold is left as it is); [sm_other]
      is empty. *)

  val of_json : Json.t -> (summary, string) result
  (** Fold a Chrome trace (an object with ["traceEvents"], or a bare
      array of events), decoding each event once with the decoder the
      flight recorder's dumps share.  [Error] only when the container
      is not a trace; defects in the events land in [sm_defects]. *)

  val of_file : string -> (summary, string) result
  (** A single Chrome-JSON document (from [--trace]) or JSONL (a
      flight-recorder black box — its ["flight": true] metadata first
      line is skipped). *)

  val label : summary -> string
  (** "kernel=qrd mode=sequential slots=64" from [otherData]; [""] when
      the trace carries no labels. *)

  val folded : summary -> (string * float) list
  (** Collapsed stacks: ["track;span;child" → exclusive us], merged
      over identical stacks, first-seen order.  Semicolons inside frame
      names are replaced by commas. *)

  val write_folded : string -> summary -> unit
  (** One ["a;b;c <int>"] line per stack — flamegraph.pl / speedscope
      input.  Values are rounded exclusive us, clamped ≥ 0. *)

  val critical_path : summary -> node list
  (** Heaviest-child chain from the largest sched-phase root on the
      solver's main track (pid 1, tid 0); [[]] if that track is absent. *)

  val root_inclusive : summary -> float option
  (** Inclusive time of the critical path's root, us. *)

  (** {2 Trace diff} *)

  type span_delta = {
    sd_key : string * string;  (** (track label, span name) *)
    sd_count_b : int;
    sd_count_a : int;
    sd_total_b : float;  (** us *)
    sd_total_a : float;
  }

  type profile_delta = {
    pd_name : string;
    pd_before : profile option;
    pd_after : profile option;
  }

  type count_delta = { cd_name : string; cd_before : int; cd_after : int }

  type diff = {
    df_label_b : string;
    df_label_a : string;
    df_spans : span_delta list;        (** matched by (track, name) *)
    df_new : (string * string) list;   (** spans present only in [after] *)
    df_gone : (string * string) list;  (** spans present only in [before] *)
    df_profiles : profile_delta list;  (** union of propagator names *)
    df_counts : count_delta list;      (** union of instant names *)
  }

  val diff : summary -> summary -> diff

  val regressions : ?threshold:float -> diff -> string list
  (** Watched-metric regressions past [threshold] percent (default 10):
      total and per-propagator run counts, and the search [branch] /
      [fail] tallies — the deterministic work counters.  Wall-clock
      time never gates (noisy in CI).  A trace diffed against itself
      yields [[]]. *)

  (** {2 Printing} *)

  val pp_report : ?utilization:bool -> Format.formatter -> summary -> unit
  val pp_utilization : Format.formatter -> machine -> unit
  val pp_diff : Format.formatter -> diff -> unit
end

(** {1 Live metrics}

    The always-on side: counters, gauges, quantile histograms and SLO
    windows that stay live while the process runs, scraped via the
    service's [stats] wire request, the periodic exporter or
    [eitc metrics-report] — as opposed to the post-hoc event sinks
    above.  See {!Metrics} (metrics.mli) for the full story. *)

module Metrics = Metrics

(** {1 Flight recorder}

    Tail-based trace retention: {!Flight.sink} records every event
    into preallocated per-track ring buffers; the request-completion
    path calls {!Flight.retain} (dump the ring as a JSONL black box —
    errors, wedges, tail-latency outliers) or {!Flight.drop} (reset it
    without serializing anything).  The kept / dropped / dumped tallies
    are the [flight.*] counters of the registry passed to
    {!Flight.create}.  The read side ({!Flight.load_dump},
    {!Flight.trace_of_dump}) feeds dumps back through {!Analyze} for
    [eitc postmortem].  See flight.mli for the full story. *)

module Flight : sig
  type t

  type stats = Flight.stats = { kept : int; dropped : int; dumped : int }

  val create :
    ?metrics:Metrics.registry -> ?capacity:int -> ?dir:string -> unit -> t

  val sink : t -> sink
  (** The recorder as an ordinary sink: [Obs.attach (Obs.Flight.sink fl)]. *)

  val record : t -> event -> unit
  val start : t -> tid:int -> unit
  val drop : t -> tid:int -> unit

  val retain :
    t ->
    tid:int ->
    reason:string ->
    id:string ->
    meta:(string * Json.t) list ->
    string option

  val dump_all :
    t -> reason:string -> meta:(string * Json.t) list -> string option

  val stats : t -> stats

  type dump = Flight.dump = {
    d_path : string;
    d_meta : (string * Json.t) list;
    d_events : Json.t list;
    d_skipped : int;
  }

  val load_dump : string -> (dump, string) result
  val dump_files : string -> string list
  val trace_of_dump : dump -> Json.t
end
