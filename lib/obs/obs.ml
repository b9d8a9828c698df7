(* Unified tracing & metrics layer.

   Zero external dependencies (stdlib + unix).  The rest of the stack
   emits structured events through this module; pluggable sinks turn
   them into a JSONL event log, a Chrome trace_event file (loadable in
   about://tracing or https://ui.perfetto.dev), or an in-memory
   aggregate (per-propagator profiles, span statistics, counters).

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

(* Per-propagator profile rows: a dedicated shape so the aggregator can
   merge them across portfolio workers without string conventions
   leaking into call sites. *)
let cat_propagator = "propagator"

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

(* ------------------------------------------------------------------ *)
(* Chrome trace_event sink                                             *)

module Chrome = struct
  (* Events go on two Perfetto "processes": pid 1 is the solver stack
     (wall-clock timestamps), pid 2 the simulated machine (cycle
     timestamps) — the scales must not share a track. *)
  let pid_of_cat = function "machine" -> 2 | _ -> 1

  (* Metadata records (ph "M") carry no timestamp. *)
  let meta_json ~pid ~tid name args =
    Printf.sprintf
      "{\"name\":\"%s\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"args\":%s}"
      (Json.escape name) pid tid (args_json args)

  let event_json ev =
    match ev.ph with
    | Meta -> meta_json ~pid:(pid_of_cat ev.cat) ~tid:ev.tid ev.name ev.args
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
        (pid_of_cat ev.cat) ev.tid extra (args_json ev.args)

  (* Track names Perfetto shows instead of bare pid/tid numbers: the
     solver's main thread on pid 1 and the machine's functional units on
     pid 2 are static; portfolio workers announce themselves with
     {!thread_name} when they start. *)
  let metadata =
    [
      meta_json ~pid:1 ~tid:0 "process_name" [ ("name", S "solver") ];
      meta_json ~pid:2 ~tid:0 "process_name"
        [ ("name", S "eit-machine (1us = 1 cycle)") ];
      meta_json ~pid:1 ~tid:0 "thread_name" [ ("name", S "main") ];
      meta_json ~pid:2 ~tid:0 "thread_name" [ ("name", S "vector-core") ];
      meta_json ~pid:2 ~tid:1 "thread_name" [ ("name", S "scalar-accel") ];
      meta_json ~pid:2 ~tid:2 "thread_name" [ ("name", S "index-merge") ];
    ]

  let sink ?(other_data = []) ~path () =
    let started = Unix.gettimeofday () in
    let buf = Buffer.create 4096 in
    List.iter
      (fun m ->
        Buffer.add_string buf m;
        Buffer.add_string buf ",\n")
      metadata;
    let first = ref true in
    let on_event ev =
      if !first then first := false else Buffer.add_string buf ",\n";
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
(* Trace validation: shared by `eitc trace-check` and the test suite   *)

module Check = struct
  (* A trace is structurally valid when every event is an object with a
     string name and phase, Begin/End pairs nest LIFO per (pid, tid)
     with non-decreasing timestamps, and no span is left open.

     [lenient] relaxes exactly the two defects a *truncated* trace
     exhibits — a flight-recorder ring keeps a contiguous suffix of the
     event stream, so a cut can orphan an end (its begin overwritten)
     or leave a span open (the dump happened mid-span), but can never
     manufacture misnesting: any span opened inside the window closes
     inside it before an outer orphaned end arrives.  Misnesting,
     backwards timestamps and malformed events therefore stay errors
     even under [lenient]. *)
  let trace_json ?(lenient = false) (j : Json.t) : (int, string) result =
    let events =
      match j with
      | Json.Arr evs -> Ok evs
      | Json.Obj _ -> (
        match Json.member "traceEvents" j with
        | Some (Json.Arr evs) -> Ok evs
        | Some _ -> Error "\"traceEvents\" is not an array"
        | None -> Error "missing \"traceEvents\"")
      | _ -> Error "trace is neither an object nor an array"
    in
    match events with
    | Error _ as e -> e
    | Ok events -> (
      let stacks : (float * float, (string * float) list) Hashtbl.t =
        Hashtbl.create 8
      in
      let check_event i ev =
        let str k =
          match Json.member k ev with
          | Some (Json.Str s) -> Ok s
          | _ -> Error (Printf.sprintf "event %d: missing string %S" i k)
        in
        let num ?default k =
          match (Json.member k ev, default) with
          | Some (Json.Num f), _ -> Ok f
          | None, Some d -> Ok d
          | _ -> Error (Printf.sprintf "event %d: missing number %S" i k)
        in
        let ( let* ) = Result.bind in
        let* name = str "name" in
        let* ph = str "ph" in
        if ph = "M" then Ok () (* metadata carries no timestamp *)
        else
          let* ts = num "ts" in
          let* pid = num ~default:0. "pid" in
          let* tid = num ~default:0. "tid" in
          let key = (pid, tid) in
          let stack = Option.value ~default:[] (Hashtbl.find_opt stacks key) in
          match ph with
          | "B" ->
            Hashtbl.replace stacks key ((name, ts) :: stack);
            Ok ()
          | "E" -> (
            match stack with
            | [] ->
              if lenient then Ok ()
              else
                Error
                  (Printf.sprintf "event %d: end of %S with no open span" i name)
            | (open_name, open_ts) :: rest ->
              if open_name <> name then
                Error
                  (Printf.sprintf
                     "event %d: end of %S while %S is open (misnested)" i name
                     open_name)
              else if ts < open_ts then
                Error
                  (Printf.sprintf "event %d: span %S ends before it begins" i
                     name)
              else begin
                Hashtbl.replace stacks key rest;
                Ok ()
              end)
          | "X" -> (
            match Json.member "dur" ev with
            | Some (Json.Num d) when d >= 0. -> Ok ()
            | _ ->
              Error
                (Printf.sprintf "event %d: complete event without dur" i))
          | "i" | "C" -> Ok ()
          | other -> Error (Printf.sprintf "event %d: unknown ph %S" i other)
      in
      let rec go i = function
        | [] -> Ok ()
        | (Json.Obj _ as ev) :: rest -> (
          match check_event i ev with Ok () -> go (i + 1) rest | e -> e)
        | _ -> Error (Printf.sprintf "event %d: not an object" i)
      in
      match go 0 events with
      | Error _ as e -> e
      | Ok () ->
        let unclosed =
          Hashtbl.fold
            (fun _ stack acc -> acc + List.length stack)
            stacks 0
        in
        if unclosed > 0 && not lenient then
          Error (Printf.sprintf "%d span(s) left open" unclosed)
        else Ok (List.length events))

  (* A [--trace] file is one JSON document; a flight-recorder black
     box is JSONL — one event object per line behind a metadata first
     line tagged ["flight": true].  When the whole-file parse fails,
     retry line-by-line: if every non-blank line is a JSON object the
     file is JSONL and the event lines are validated (the flight
     metadata line is skipped — it is not a trace event); otherwise
     the original parse error stands. *)
  let trace_file ?lenient path =
    match Json.parse_file path with
    | Ok j -> trace_json ?lenient j
    | Error whole_err -> (
      match In_channel.with_open_bin path In_channel.input_all with
      | exception Sys_error e -> Error e
      | body ->
        let lines =
          List.filter
            (fun l -> String.trim l <> "")
            (String.split_on_char '\n' body)
        in
        let rec parse_lines acc i = function
          | [] -> Ok (List.rev acc)
          | l :: rest -> (
            match Json.parse l with
            | Ok (Json.Obj _ as j) ->
              let meta =
                i = 0 && Json.member "flight" j = Some (Json.Bool true)
              in
              parse_lines (if meta then acc else j :: acc) (i + 1) rest
            | Ok _ | Error _ -> Error whole_err)
        in
        (match parse_lines [] 0 lines with
        | Error e -> Error e
        | Ok events -> trace_json ?lenient (Json.Arr events)))
end

(* ------------------------------------------------------------------ *)
(* In-memory aggregator                                                *)

module Agg = struct
  type span_stat = { s_count : int; s_total_us : float }

  type prow = {
    p_runs : int;
    p_wakes : int;
    p_prunes : int;
    p_entails : int;
    p_time_ms : float;
    p_workers : int;
  }

  type t = {
    counts : (string, int) Hashtbl.t;           (* instants by name *)
    gauges : (string, float * float) Hashtbl.t; (* counter key -> last, max *)
    span_stats : (string, span_stat) Hashtbl.t;
    open_spans : (int * string, float list) Hashtbl.t; (* (tid,name) -> start stack *)
    prof : (string, prow) Hashtbl.t;
  }

  let create () =
    {
      counts = Hashtbl.create 32;
      gauges = Hashtbl.create 32;
      span_stats = Hashtbl.create 32;
      open_spans = Hashtbl.create 32;
      prof = Hashtbl.create 32;
    }

  let int_arg args k =
    match List.assoc_opt k args with
    | Some (I i) -> i
    | Some (F f) -> int_of_float f
    | _ -> 0

  let float_arg args k =
    match List.assoc_opt k args with
    | Some (F f) -> f
    | Some (I i) -> float_of_int i
    | _ -> 0.

  let on_event t ev =
    match ev.ph with
    | Instant when ev.cat = cat_propagator ->
      let row =
        {
          p_runs = int_arg ev.args "runs";
          p_wakes = int_arg ev.args "wakes";
          p_prunes = int_arg ev.args "prunes";
          p_entails = int_arg ev.args "entails";
          p_time_ms = float_arg ev.args "time_ms";
          p_workers = 1;
        }
      in
      let merged =
        match Hashtbl.find_opt t.prof ev.name with
        | None -> row
        | Some r ->
          {
            p_runs = r.p_runs + row.p_runs;
            p_wakes = r.p_wakes + row.p_wakes;
            p_prunes = r.p_prunes + row.p_prunes;
            p_entails = r.p_entails + row.p_entails;
            p_time_ms = r.p_time_ms +. row.p_time_ms;
            p_workers = r.p_workers + 1;
          }
      in
      Hashtbl.replace t.prof ev.name merged
    | Instant ->
      Hashtbl.replace t.counts ev.name
        (1 + Option.value ~default:0 (Hashtbl.find_opt t.counts ev.name))
    | Counter ->
      List.iter
        (fun (k, v) ->
          let f =
            match v with I i -> float_of_int i | F f -> f | _ -> 0.
          in
          let key = if k = "value" then ev.name else ev.name ^ "." ^ k in
          let _, mx =
            Option.value ~default:(f, f) (Hashtbl.find_opt t.gauges key)
          in
          Hashtbl.replace t.gauges key (f, Float.max mx f))
        ev.args
    | Begin ->
      let key = (ev.tid, ev.name) in
      let stack = Option.value ~default:[] (Hashtbl.find_opt t.open_spans key) in
      Hashtbl.replace t.open_spans key (ev.ts_us :: stack)
    | End -> (
      let key = (ev.tid, ev.name) in
      match Hashtbl.find_opt t.open_spans key with
      | Some (t0 :: rest) ->
        Hashtbl.replace t.open_spans key rest;
        let st =
          Option.value
            ~default:{ s_count = 0; s_total_us = 0. }
            (Hashtbl.find_opt t.span_stats ev.name)
        in
        Hashtbl.replace t.span_stats ev.name
          { s_count = st.s_count + 1; s_total_us = st.s_total_us +. (ev.ts_us -. t0) }
      | _ -> () (* unmatched end: drop *))
    | Complete dur ->
      let st =
        Option.value
          ~default:{ s_count = 0; s_total_us = 0. }
          (Hashtbl.find_opt t.span_stats ev.name)
      in
      Hashtbl.replace t.span_stats ev.name
        { s_count = st.s_count + 1; s_total_us = st.s_total_us +. dur }
    | Meta -> ()

  let sink t = make_sink (on_event t)

  let sorted_fold tbl cmp =
    List.sort cmp (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

  let counts t = sorted_fold t.counts (fun (_, a) (_, b) -> compare b a)

  let gauges t =
    sorted_fold t.gauges (fun (a, _) (b, _) -> compare (a : string) b)

  let spans t =
    sorted_fold t.span_stats (fun (_, a) (_, b) ->
        compare b.s_total_us a.s_total_us)

  let profiles t =
    sorted_fold t.prof (fun (_, a) (_, b) ->
        match compare b.p_time_ms a.p_time_ms with
        | 0 -> compare b.p_runs a.p_runs
        | c -> c)
end

(* ------------------------------------------------------------------ *)
(* Trace analytics: span forests, flame graphs, utilization, diffing.
   Lives in its own unit; re-exported here so users write
   [Obs.Analyze.of_file]. *)

module Analyze = Analyze

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
