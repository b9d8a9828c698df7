(* Unified tracing & metrics layer.

   Zero external dependencies (stdlib + unix).  The rest of the stack
   emits structured events through this module; pluggable sinks turn
   them into a JSONL event log, a Chrome trace_event file (loadable in
   about://tracing or https://ui.perfetto.dev), a flight recorder's
   rings, or a live [Analyze] summary (span forest, instant counts,
   propagator profiles, counter series).

   Performance contract: with no sink attached, {!enabled} is a single
   atomic load and every helper returns before allocating anything.
   Hot paths (the solver's propagation loop) must guard their own
   argument construction with [if Obs.enabled () then ...] — the
   helpers' laziness only covers what happens inside this module.

   Concurrency: events may arrive from several OCaml 5 domains (the
   portfolio's workers).  One global mutex serializes sink dispatch;
   sinks therefore need no locking of their own.  Events carry a [tid]
   (worker id / machine unit) so per-thread tracks survive the
   serialization. *)

(* The event types live in their own unit (Obs_event) so the flight
   recorder can store raw events without a cycle through this module;
   the manifest equations keep [Obs.event] and [Obs_event.event]
   interchangeable. *)
type value = Obs_event.value = I of int | F of float | S of string | B of bool

type ph = Obs_event.ph =
  | Begin
  | End
  | Instant
  | Counter
  | Complete of float  (* duration in microseconds *)
  | Meta  (* track metadata (Chrome "M"): thread/process names *)

type event = Obs_event.event = {
  name : string;
  cat : string;
  ts_us : float;
  tid : int;
  ph : ph;
  args : (string * value) list;
}

type sink = { on_event : event -> unit; on_close : unit -> unit }

let make_sink ?(close = fun () -> ()) f = { on_event = f; on_close = close }

(* ------------------------------------------------------------------ *)
(* Global sink registry                                                *)

type handle = int

let mutex = Mutex.create ()
let sinks : (handle * sink) list ref = ref []
let next_handle = ref 0
let live = Atomic.make false
let epoch = ref 0.
let enabled () = Atomic.get live

let now_us () = (Unix.gettimeofday () -. !epoch) *. 1e6

let attach sink =
  Mutex.lock mutex;
  if !sinks = [] then epoch := Unix.gettimeofday ();
  let h = !next_handle in
  next_handle := h + 1;
  sinks := (h, sink) :: !sinks;
  Atomic.set live true;
  Mutex.unlock mutex;
  h

let detach h =
  Mutex.lock mutex;
  let closing = List.assoc_opt h !sinks in
  sinks := List.filter (fun (h', _) -> h' <> h) !sinks;
  if !sinks = [] then Atomic.set live false;
  Mutex.unlock mutex;
  (* run the sink's close outside the lock: it may do I/O *)
  match closing with Some s -> s.on_close () | None -> ()

let with_sink sink f =
  let h = attach sink in
  Fun.protect ~finally:(fun () -> detach h) f

let emit ev =
  Mutex.lock mutex;
  List.iter (fun (_, s) -> s.on_event ev) !sinks;
  Mutex.unlock mutex

(* ------------------------------------------------------------------ *)
(* Emission helpers (no-ops, allocation-free, when no sink is attached) *)

let span_begin ?(cat = "") ?(tid = 0) ?(args = []) name =
  if enabled () then
    emit { name; cat; ts_us = now_us (); tid; ph = Begin; args }

let span_end ?(cat = "") ?(tid = 0) ?(args = []) name =
  if enabled () then
    emit { name; cat; ts_us = now_us (); tid; ph = End; args }

let span ?cat ?tid ?args name f =
  if enabled () then begin
    span_begin ?cat ?tid name;
    match f () with
    | x ->
      span_end ?cat ?tid ?args name;
      x
    | exception e ->
      span_end ?cat ?tid name;
      raise e
  end
  else f ()

let instant ?(cat = "") ?(tid = 0) ?(args = []) name =
  if enabled () then
    emit { name; cat; ts_us = now_us (); tid; ph = Instant; args }

let counter ?(cat = "") ?(tid = 0) ?ts_us name args =
  if enabled () then
    let ts_us = match ts_us with Some t -> t | None -> now_us () in
    emit { name; cat; ts_us; tid; ph = Counter; args }

let complete ?(cat = "") ?(tid = 0) ?(args = []) ~ts_us ~dur_us name =
  if enabled () then
    emit { name; cat; ts_us; tid; ph = Complete dur_us; args }

(* Track naming: a [thread_name] metadata event labels the (pid, tid)
   track it is emitted on.  The Chrome sink turns it into a ph:"M"
   record so Perfetto shows "worker-2" instead of a bare tid; [Analyze]
   reads it back to label reports. *)
let thread_name ?(cat = "") ?(tid = 0) label =
  if enabled () then
    emit
      {
        name = "thread_name";
        cat;
        ts_us = 0.;
        tid;
        ph = Meta;
        args = [ ("name", S label) ];
      }

(* Per-propagator profile rows: a dedicated shape so [Analyze] can
   merge them across portfolio workers without string conventions
   leaking into call sites. *)
let cat_propagator = Obs_event.cat_propagator

let profile_row ?(tid = 0) ?(entails = 0) ~name ~runs ~wakes ~prunes ~time_ms
    () =
  if enabled () then
    emit
      {
        name;
        cat = cat_propagator;
        ts_us = now_us ();
        tid;
        ph = Instant;
        args =
          [ ("runs", I runs); ("wakes", I wakes); ("prunes", I prunes);
            ("entails", I entails); ("time_ms", F time_ms) ];
      }

(* ------------------------------------------------------------------ *)
(* JSON lives in its own unit (Obs_json) so the read side ([Analyze])
   can share it without a cycle through this module. *)

module Json = Obs_json

let args_json = Obs_event.args_json

(* The static track names every trace starts with: the solver's main
   thread on pid 1 and the machine's functional units on pid 2 (the
   pid derives from [cat], as everywhere).  Portfolio workers announce
   themselves with {!thread_name} when they start.  The Chrome sink
   writes these first, and a live [Analyze] sink is fed them first, so
   live and recorded summaries label their tracks alike. *)
let track_names =
  let meta cat tid name label =
    { name; cat; ts_us = 0.; tid; ph = Meta; args = [ ("name", S label) ] }
  in
  [
    meta "" 0 "process_name" "solver";
    meta "machine" 0 "process_name" "eit-machine (1us = 1 cycle)";
    meta "" 0 "thread_name" "main";
    meta "machine" 0 "thread_name" "vector-core";
    meta "machine" 1 "thread_name" "scalar-accel";
    meta "machine" 2 "thread_name" "index-merge";
  ]

(* ------------------------------------------------------------------ *)
(* Chrome trace_event sink                                             *)

module Chrome = struct
  (* Events go on two Perfetto "processes" (Obs_event.pid_of_cat): pid
     1 is the solver stack, pid 2 the simulated machine.  Metadata
     records (ph "M") carry no timestamp. *)
  let event_json ev =
    let pid = Obs_event.pid_of_cat ev.cat in
    match ev.ph with
    | Meta ->
      Printf.sprintf
        "{\"name\":\"%s\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"args\":%s}"
        (Json.escape ev.name) pid ev.tid (args_json ev.args)
    | _ ->
      let ph, extra =
        match ev.ph with
        | Begin -> ("B", "")
        | End -> ("E", "")
        | Instant -> ("i", ",\"s\":\"t\"")
        | Counter -> ("C", "")
        | Complete dur -> ("X", Printf.sprintf ",\"dur\":%s" (Json.float_str dur))
        | Meta -> assert false
      in
      Printf.sprintf
        "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%s\",\"ts\":%s,\"pid\":%d,\"tid\":%d%s,\"args\":%s}"
        (Json.escape ev.name)
        (Json.escape (if ev.cat = "" then "default" else ev.cat))
        ph
        (Json.float_str ev.ts_us)
        pid ev.tid extra (args_json ev.args)

  let sink ?(other_data = []) ~path () =
    let started = Unix.gettimeofday () in
    let buf = Buffer.create 4096 in
    Buffer.add_string buf (String.concat ",\n" (List.map event_json track_names));
    let on_event ev =
      Buffer.add_string buf ",\n";
      Buffer.add_string buf (event_json ev)
    in
    let close () =
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc "{\"traceEvents\":[\n";
          Out_channel.output_string oc (Buffer.contents buf);
          Out_channel.output_string oc "\n],\"displayTimeUnit\":\"ms\"";
          (* [Analyze] and `trace-diff` read these labels back to head
             their reports; the wall-clock start anchors the us-epoch. *)
          Out_channel.output_string oc
            (Printf.sprintf ",\"otherData\":%s"
               (args_json (other_data @ [ ("started_unix", F started) ])));
          Out_channel.output_string oc "}\n")
    in
    make_sink ~close on_event
end

(* ------------------------------------------------------------------ *)
(* JSONL sink: one event object per line, streamed                     *)

module Jsonl = struct
  (* The line shape is shared with flight dumps (Obs_event.jsonl_line):
     one event object per line, pid derived from cat by the readers. *)
  let sink ~path =
    let oc = Out_channel.open_bin path in
    let on_event ev =
      Out_channel.output_string oc (Obs_event.jsonl_line ev);
      Out_channel.output_char oc '\n'
    in
    make_sink ~close:(fun () -> Out_channel.close oc) on_event
end

(* ------------------------------------------------------------------ *)
(* Trace analytics: one fold over live and recorded events.  Lives in
   its own unit; re-exported here with the glue that feeds it from the
   dispatch path, so users write [Obs.attach (Obs.Analyze.sink a)]. *)

module Analyze = struct
  include Analyze

  let sink t =
    List.iter (add t) track_names;
    make_sink (add t)
end

(* ------------------------------------------------------------------ *)
(* Trace validation: shared by `eitc trace-check` and the test suite   *)

module Check = struct
  (* A trace is structurally valid when [Analyze] meets no defect in
     it.  [lenient] tolerates exactly the two defects a *truncated*
     trace exhibits — a flight-recorder ring keeps a contiguous suffix
     of the event stream, so a cut can orphan an end (its begin
     overwritten) or leave a span open (the dump happened mid-span), but
     can never manufacture misnesting: any span opened inside the window
     closes inside it before an outer orphaned end arrives.
     Misnesting, backwards ends and malformed events therefore stay
     errors even under [lenient]. *)
  let verdict ?(lenient = false) (s : Analyze.summary) =
    let tolerated (d : Analyze.defect) =
      lenient && (d.de_kind = Orphan_end || d.de_kind = Left_open)
    in
    match List.find_opt (fun d -> not (tolerated d)) s.sm_defects with
    | Some d -> Error d.de_msg
    | None -> Ok s.sm_events

  let trace_json ?lenient j = Result.bind (Analyze.of_json j) (verdict ?lenient)

  let trace_file ?lenient path =
    Result.bind (Analyze.of_file path) (verdict ?lenient)
end

(* Live metrics registry (counters / gauges / histograms / SLO), the
   always-on counterpart to the sinks above; re-exported like
   [Analyze] so users write [Obs.Metrics.histogram]. *)
module Metrics = Metrics

(* Tail-based flight recorder (ring-buffer sink + black-box dumps);
   re-exported with the glue that ties a recorder into the dispatch
   path, so users write [Obs.attach (Obs.Flight.sink fl)]. *)
module Flight = struct
  include Flight

  let sink t = make_sink (record t)
end
