(** Tail-based flight recorder: record every event cheaply into
    preallocated per-track ring buffers, decide retention at request
    {e completion}, and dump the interesting rings as self-contained
    JSONL black boxes.

    The keep/drop decision is made at completion time, when the
    request's status, latency and attempt history are known — not at
    admission, when nothing is.  A dropped request never serializes a
    byte; a retained one costs one file write of at most [capacity]
    events.  The tallies live in a {!Metrics} registry as the
    [flight.kept] / [flight.dropped] / [flight.dumped] counters;
    {!stats} reads them back.

    Users normally reach this module as [Obs.Flight], which adds the
    [sink] glue tying a recorder into the Obs dispatch path.

    Concurrency: safe from any domain.  [record] is serialized by the
    Obs sink mutex; [retain]/[drop]/[dump_all] may race it from a
    completing domain (the watchdog dumps a wedged worker's ring while
    that worker is still emitting), so the recorder locks internally.
    File writes happen on a snapshot, outside the lock. *)

type t

type stats = {
  kept : int;     (** completions whose ring was retained *)
  dropped : int;  (** completions whose ring was reset unserialized *)
  dumped : int;   (** black-box files actually written *)
}

val create :
  ?metrics:Metrics.registry -> ?capacity:int -> ?dir:string -> unit -> t
(** A recorder with per-track rings of [capacity] events (default
    4096, min 1).  [dir] is where black boxes land — it is created if
    missing; without it, retention still counts and resets rings but
    writes nothing (and {!retain} returns [None]).  [metrics] is the
    registry that holds the [flight.*] counters (default: a private
    one); it chooses where counts are stored, not what is counted. *)

val record : t -> Obs_event.event -> unit
(** Append to the ring of the event's [tid], overwriting the oldest
    event when full.  No allocation beyond first touch of a track. *)

val start : t -> tid:int -> unit
(** Reset track [tid]'s ring at request start, so a later dump holds
    only this request's events. *)

val drop : t -> tid:int -> unit
(** The request completed uninterestingly: reset the ring, count a
    drop, serialize nothing. *)

val retain :
  t ->
  tid:int ->
  reason:string ->
  id:string ->
  meta:(string * Obs_json.t) list ->
  string option
(** Snapshot and reset track [tid]'s ring and write it as a black box
    [flight-<n>-<id>-<reason>.jsonl] under the recorder's directory:
    line 1 a metadata object (marked ["flight"], with [id], [reason],
    event/overflow counts and [meta]), then one Jsonl-shaped event per
    line.  Returns the file path, or [None] when the recorder has no
    directory or the write failed.  An unknown [tid] (a request that
    never reached a worker) writes a metadata-only dump. *)

val dump_all :
  t -> reason:string -> meta:(string * Obs_json.t) list -> string option
(** The daemon-fatal black box: every live ring, merged in timestamp
    order, as one dump with id ["daemon"].  Rings are left intact. *)

val stats : t -> stats
(** The recorder's [flight.*] counters. *)

(** {1 Reading dumps back} *)

type dump = {
  d_path : string;
  d_meta : (string * Obs_json.t) list;  (** the metadata line's fields *)
  d_events : Obs_json.t list;           (** one object per event line *)
  d_skipped : int;  (** unparseable event lines, e.g. cut by a crash *)
}

val load_dump : string -> (dump, string) result
(** Parse a black box.  Tolerant of truncated trailing event lines
    (counted in [d_skipped]); errors only when the file is missing,
    empty, or its first line is not a flight metadata object. *)

val dump_files : string -> string list
(** The [flight-*.jsonl] files under a directory, sorted; [[]] when
    the directory cannot be read. *)

val trace_of_dump : dump -> Obs_json.t
(** Rebuild a Chrome-shaped [{"traceEvents": ...; "otherData": ...}]
    value from a dump, ready for [Obs.Analyze.of_json] — the metadata
    fields become [otherData], so reports are headed by request id and
    retention reason.  Dumps cut mid-span analyze fine: [Analyze]
    reads past unmatched ends and unclosed spans, listing them as
    defects. *)
