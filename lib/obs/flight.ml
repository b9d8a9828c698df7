(* Tail-based flight recorder.

   Deciding *before* a request runs whether its trace is kept means
   the traces that survive are almost never the ones behind an
   incident.  The flight recorder decides afterwards: every event is
   recorded cheaply into a preallocated per-track ring buffer (no
   serialization, no I/O, one short lock), and the *completion* path
   decides what to do with the ring — dump it as a self-contained JSONL
   black box (an error, a wedge, a tail-latency outlier, a 1-in-N
   healthy slice), or reset it without ever having serialized a byte.
   The kept / dropped / dumped tallies are [flight.*] counters in a
   [Metrics] registry, so the service's health view, its snapshots and
   Prometheus read one store.

   Rings are keyed by event [tid] (the service runs one request per
   worker track at a time, tid = 1000 + slot), each a fixed-capacity
   overwrite-oldest array.  A dump can therefore cut a request
   mid-span: [Obs.Analyze] reads past unmatched ends and unclosed
   spans (listing them as defects), and [Obs.Check ~lenient] tolerates
   exactly those two.

   Concurrency: [record] is called from the Obs dispatch path (already
   serialized by the global sink mutex), but [retain] / [drop] /
   [dump_all] arrive from whichever domain completes the request — the
   watchdog can dump a wedged worker's ring while the wedged domain is
   still emitting into it — so the recorder carries its own mutex.
   File writes happen outside the lock, on a snapshot.

   Dump format: line 1 is a metadata object (marked ["flight"], with
   the request id, retention reason and whatever the caller adds —
   status, chaos site ids, solver stats, config); every following line
   is one event in the Jsonl sink shape. *)

module E = Obs_event
module J = Obs_json

type ring = {
  buf : E.event array;
  mutable len : int;    (* live events, <= capacity *)
  mutable pos : int;    (* next write index *)
  mutable total : int;  (* recorded since last reset; total - len overflowed *)
}

type stats = { kept : int; dropped : int; dumped : int }

type t = {
  m : Mutex.t;
  capacity : int;
  dir : string option;
  rings : (int, ring) Hashtbl.t;
  c_kept : Metrics.counter;
  c_dropped : Metrics.counter;
  c_dumped : Metrics.counter;
  mutable n_seq : int;  (* dump-file uniquifier *)
}

let hole =
  { E.name = ""; cat = ""; ts_us = 0.; tid = 0; ph = E.Instant; args = [] }

let rec mkdir_p path =
  if path <> "" && path <> "." && path <> "/" && not (Sys.file_exists path)
  then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let create ?(metrics = Metrics.create ()) ?(capacity = 4096) ?dir () =
  Option.iter mkdir_p dir;
  {
    m = Mutex.create ();
    capacity = max 1 capacity;
    dir;
    rings = Hashtbl.create 8;
    c_kept = Metrics.counter metrics "flight.kept";
    c_dropped = Metrics.counter metrics "flight.dropped";
    c_dumped = Metrics.counter metrics "flight.dumped";
    n_seq = 0;
  }

let record t (ev : E.event) =
  Mutex.lock t.m;
  let r =
    match Hashtbl.find_opt t.rings ev.E.tid with
    | Some r -> r
    | None ->
      let r = { buf = Array.make t.capacity hole; len = 0; pos = 0; total = 0 } in
      Hashtbl.add t.rings ev.E.tid r;
      r
  in
  r.buf.(r.pos) <- ev;
  r.pos <- (r.pos + 1) mod t.capacity;
  if r.len < t.capacity then r.len <- r.len + 1;
  r.total <- r.total + 1;
  Mutex.unlock t.m

let reset r =
  r.len <- 0;
  r.pos <- 0;
  r.total <- 0

let start t ~tid =
  Mutex.lock t.m;
  (match Hashtbl.find_opt t.rings tid with Some r -> reset r | None -> ());
  Mutex.unlock t.m

let drop t ~tid =
  Mutex.lock t.m;
  (match Hashtbl.find_opt t.rings tid with Some r -> reset r | None -> ());
  Mutex.unlock t.m;
  Metrics.incr t.c_dropped

(* Oldest-to-newest snapshot; caller holds the lock. *)
let snapshot_locked t r =
  let first = (r.pos - r.len + t.capacity) mod t.capacity in
  List.init r.len (fun i -> r.buf.((first + i) mod t.capacity))

let sanitize s =
  let s = if String.length s > 48 then String.sub s 0 48 else s in
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> c
      | _ -> '_')
    s

let write_dump t ~seq ~reason ~id ~meta ~overflow events =
  match t.dir with
  | None -> None
  | Some dir ->
    let path =
      Filename.concat dir
        (Printf.sprintf "flight-%04d-%s-%s.jsonl" seq (sanitize id)
           (sanitize reason))
    in
    let meta_line =
      J.to_string
        (J.Obj
           (("flight", J.Bool true)
           :: ("id", J.Str id)
           :: ("reason", J.Str reason)
           :: ("ts_unix", J.Num (Unix.gettimeofday ()))
           :: ("events", J.Num (float_of_int (List.length events)))
           :: ("overflow", J.Num (float_of_int overflow))
           :: meta))
    in
    (try
       Out_channel.with_open_bin path (fun oc ->
           Out_channel.output_string oc meta_line;
           Out_channel.output_char oc '\n';
           List.iter
             (fun ev ->
               Out_channel.output_string oc (E.jsonl_line ev);
               Out_channel.output_char oc '\n')
             events);
       Metrics.incr t.c_dumped;
       Some path
     with Sys_error _ -> None)

let retain t ~tid ~reason ~id ~meta =
  Mutex.lock t.m;
  let events, overflow =
    match Hashtbl.find_opt t.rings tid with
    | Some r ->
      let evs = snapshot_locked t r in
      let ov = r.total - r.len in
      reset r;
      (evs, ov)
    | None -> ([], 0)
  in
  let seq = t.n_seq in
  t.n_seq <- seq + 1;
  Mutex.unlock t.m;
  Metrics.incr t.c_kept;
  write_dump t ~seq ~reason ~id ~meta ~overflow events

(* One black box over every live ring — the daemon-fatal path, where
   no single request can be blamed.  Rings are left intact (the caller
   is about to die anyway). *)
let dump_all t ~reason ~meta =
  Mutex.lock t.m;
  let events =
    Hashtbl.fold (fun _ r acc -> snapshot_locked t r @ acc) t.rings []
  in
  let events =
    List.sort (fun a b -> compare a.E.ts_us b.E.ts_us) events
  in
  let seq = t.n_seq in
  t.n_seq <- seq + 1;
  Mutex.unlock t.m;
  Metrics.incr t.c_kept;
  write_dump t ~seq ~reason ~id:"daemon" ~meta ~overflow:0 events

let stats t =
  {
    kept = Metrics.counter_value t.c_kept;
    dropped = Metrics.counter_value t.c_dropped;
    dumped = Metrics.counter_value t.c_dumped;
  }

(* ------------------------------------------------------------------ *)
(* Read side: load dumps back for `eitc postmortem`.                   *)

type dump = {
  d_path : string;
  d_meta : (string * J.t) list;
  d_events : J.t list;
  d_skipped : int;  (* unparseable event lines (e.g. cut by a crash) *)
}

let load_dump path =
  match In_channel.with_open_bin path In_channel.input_lines with
  | exception Sys_error e -> Error e
  | [] -> Error (path ^ ": empty file")
  | first :: rest -> (
    match J.parse first with
    | Ok (J.Obj kvs) when List.mem_assoc "flight" kvs ->
      (* A crash mid-write can truncate the last event line; skip what
         does not parse instead of refusing the whole black box. *)
      let skipped = ref 0 in
      let events =
        List.filter_map
          (fun line ->
            if String.trim line = "" then None
            else
              match J.parse line with
              | Ok (J.Obj _ as j) -> Some j
              | Ok _ | Error _ ->
                Stdlib.incr skipped;
                None)
          rest
      in
      Ok { d_path = path; d_meta = kvs; d_events = events; d_skipped = !skipped }
    | Ok _ -> Error (path ^ ": not a flight dump (first line lacks \"flight\")")
    | Error e -> Error (path ^ ": " ^ e))

let dump_files dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
    Array.to_list names
    |> List.filter (fun n ->
           String.length n > 7
           && String.sub n 0 7 = "flight-"
           && Filename.check_suffix n ".jsonl")
    |> List.sort compare
    |> List.map (Filename.concat dir)

(* Rebuild a Chrome-shaped trace value [Obs.Analyze.of_json] accepts;
   the metadata line (minus the marker) becomes [otherData], so
   reports are headed by request id / reason / status. *)
let trace_of_dump d =
  let other = List.filter (fun (k, _) -> k <> "flight") d.d_meta in
  J.Obj [ ("traceEvents", J.Arr d.d_events); ("otherData", J.Obj other) ]
