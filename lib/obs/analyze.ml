(* Trace analytics: the read side of the observability layer.

   One incremental fold reads every event stream: a live [Obs] sink
   (the glue is in obs.ml), a Chrome trace from [--trace], or a flight
   recorder's black box.  It rebuilds the span forest per (pid, tid)
   track, tallies instants, merges propagator rows and keeps counter
   series, and it records each defect it meets — a malformed event, a
   misnested or backwards end, an orphan end, a span left open —
   instead of silently re-nesting the spans.  [Obs.Check] is this fold
   failing on its first defect.  From the summary the rest of this
   module computes inclusive/exclusive times, collapsed-stack lines
   (the FlameGraph/speedscope format), the critical path through the
   scheduler's phase spans, machine utilization from the pid-2 cycle
   timeline, and a structural diff of two traces — the last of which
   backs the `eitc trace-diff` CI regression gate. *)

module Json = Obs_json
module E = Obs_event

(* ------------------------------------------------------------------ *)
(* Data model                                                          *)

type node = {
  n_name : string;
  n_cat : string;
  n_ts : float;    (* start, us (pid 1) / cycles (pid 2) *)
  n_incl : float;  (* inclusive duration *)
  n_excl : float;  (* exclusive = inclusive - sum of children *)
  n_children : node list;  (* in emission order *)
}

type track = {
  tr_pid : int;
  tr_tid : int;
  tr_label : string;  (* "solver/main", "eit-machine/vector-core", ... *)
  tr_roots : node list;
}

type profile = {
  a_runs : int;
  a_wakes : int;
  a_prunes : int;
  a_entails : int;
  a_time_ms : float;
  a_rows : int;  (* per-worker rows merged in *)
}

type machine = {
  mc_cycles : int;           (* timeline horizon (cycles observed) *)
  mc_busy_lane_cycles : int; (* sum over cycles of busy lanes *)
  mc_peak_lanes : int;
  mc_avg_lanes : float;
  mc_lane_util : float;      (* busy-lane-cycles / (cycles * peak), % *)
  mc_unit_busy : (string * int) list;  (* functional unit -> busy cycles *)
  mc_read_hist : (int * int) list;     (* reads per cycle -> #cycles *)
  mc_write_hist : (int * int) list;
  mc_peak_reads : int;
  mc_peak_accesses : int;    (* max reads+writes in any one cycle *)
}

type defect_kind = Malformed | Misnested | Backwards | Orphan_end | Left_open

type defect = { de_event : int; de_kind : defect_kind; de_msg : string }

type summary = {
  sm_other : (string * Json.t) list;   (* otherData: kernel, slots, ... *)
  sm_tracks : track list;              (* sorted by (pid, tid) *)
  sm_span_stats : ((string * string) * (int * float)) list;
      (* (track label, span name) -> count, total inclusive us *)
  sm_profiles : (string * profile) list;  (* propagator rows, merged *)
  sm_counts : (string * int) list;        (* instant tallies *)
  sm_gauges : (string * (float * float)) list;  (* counter key -> last, max *)
  sm_machine : machine option;
  sm_defects : defect list;               (* in stream order *)
  sm_events : int;
}

let label_of other =
  let field k =
    match List.assoc_opt k other with
    | Some (Json.Str s) -> Some (Printf.sprintf "%s=%s" k s)
    | Some (Json.Num f) -> Some (Printf.sprintf "%s=%s" k (Json.float_str f))
    | _ -> None
  in
  String.concat " " (List.filter_map field [ "kernel"; "mode"; "slots"; "bench" ])

(* ------------------------------------------------------------------ *)
(* The fold                                                            *)

(* An open span: children collect reversed until its End. *)
type frame = {
  f_name : string;
  f_cat : string;
  f_ts : float;
  mutable f_children : node list;
}

type t = {
  stacks : (int * int, frame list) Hashtbl.t;  (* open spans, innermost first *)
  roots : (int * int, node list) Hashtbl.t;    (* closed top-level spans, newest first *)
  last_ts : (int * int, float) Hashtbl.t;
  procs : (int, string) Hashtbl.t;
  threads : (int * int, string) Hashtbl.t;
  counts : (string, int) Hashtbl.t;
  profiles : (string, profile) Hashtbl.t;
  gauges : (string, float * float) Hashtbl.t;
  (* the pid-2 machine timeline, keyed by cycle *)
  lanes : (int, int) Hashtbl.t;
  reads : (int, int) Hashtbl.t;
  writes : (int, int) Hashtbl.t;
  mutable events : int;
  mutable defects : defect list;  (* newest first *)
}

let create () =
  {
    stacks = Hashtbl.create 8;
    roots = Hashtbl.create 8;
    last_ts = Hashtbl.create 8;
    procs = Hashtbl.create 4;
    threads = Hashtbl.create 8;
    counts = Hashtbl.create 32;
    profiles = Hashtbl.create 16;
    gauges = Hashtbl.create 16;
    lanes = Hashtbl.create 64;
    reads = Hashtbl.create 64;
    writes = Hashtbl.create 64;
    events = 0;
    defects = [];
  }

(* Defects are numbered by the event that shows them. *)
let defect t kind msg =
  let msg = Printf.sprintf "event %d: %s" t.events msg in
  t.defects <- { de_event = t.events; de_kind = kind; de_msg = msg } :: t.defects

let node_of f ~children ~end_ts =
  let children = List.rev children in
  let incl = Float.max 0. (end_ts -. f.f_ts) in
  let child_sum = List.fold_left (fun a c -> a +. c.n_incl) 0. children in
  {
    n_name = f.f_name;
    n_cat = f.f_cat;
    n_ts = f.f_ts;
    n_incl = incl;
    n_excl = Float.max 0. (incl -. child_sum);
    n_children = children;
  }

let find tbl k ~default = Option.value ~default (Hashtbl.find_opt tbl k)
let stack t key = find t.stacks key ~default:[]

(* A closed span becomes the newest child of the innermost of [frames]
   (the spans open around it), or a root. *)
let attach t key frames n =
  match frames with
  | f :: _ -> f.f_children <- n :: f.f_children
  | [] -> Hashtbl.replace t.roots key (n :: find t.roots key ~default:[])

let arg args k =
  match List.assoc_opt k args with
  | Some (E.I i) -> Some (float_of_int i)
  | Some (E.F f) -> Some f
  | _ -> None

let num args k = Option.value ~default:0. (arg args k)

(* An End closes the innermost open span on its track.  When that span
   has another name the stream is misnested: the End closes the
   innermost open span of its own name, and the spans opened inside
   that one stay open and later close into its parent. *)
let close_span t key (ev : E.event) =
  match stack t key with
  | [] -> defect t Orphan_end (Printf.sprintf "end of %S with no open span" ev.name)
  | f :: rest when f.f_name = ev.name ->
    if ev.ts_us < f.f_ts then
      defect t Backwards (Printf.sprintf "span %S ends before it begins" ev.name);
    Hashtbl.replace t.stacks key rest;
    attach t key rest (node_of f ~children:f.f_children ~end_ts:ev.ts_us)
  | top :: _ as frames -> (
    defect t Misnested
      (Printf.sprintf "end of %S while %S is open (misnested)" ev.name top.f_name);
    let rec split inner = function
      | f :: outer when f.f_name = ev.name -> Some (List.rev inner, f, outer)
      | f :: outer -> split (f :: inner) outer
      | [] -> None
    in
    match split [] frames with
    | None -> ()
    | Some (inner, f, outer) ->
      Hashtbl.replace t.stacks key (inner @ outer);
      attach t key outer (node_of f ~children:f.f_children ~end_ts:ev.ts_us))

let step t ~pid (ev : E.event) =
  let key = (pid, ev.tid) in
  (* a track's last timestamp closes what is still open at the end *)
  let last =
    match ev.ph with
    | E.Meta -> None
    | E.Complete dur -> Some (ev.ts_us +. Float.max 0. dur)
    | _ -> Some ev.ts_us
  in
  Option.iter
    (fun ts ->
      Hashtbl.replace t.last_ts key (Float.max ts (find t.last_ts key ~default:ts)))
    last;
  match ev.ph with
  | E.Meta -> (
    match (ev.name, List.assoc_opt "name" ev.args) with
    | "process_name", Some (E.S label) -> Hashtbl.replace t.procs pid label
    | "thread_name", Some (E.S label) -> Hashtbl.replace t.threads key label
    | _ -> ())
  | E.Begin ->
    Hashtbl.replace t.stacks key
      ({ f_name = ev.name; f_cat = ev.cat; f_ts = ev.ts_us; f_children = [] }
      :: stack t key)
  | E.End -> close_span t key ev
  | E.Complete dur ->
    attach t key (stack t key)
      {
        n_name = ev.name;
        n_cat = ev.cat;
        n_ts = ev.ts_us;
        n_incl = dur;
        n_excl = dur;
        n_children = [];
      }
  | E.Instant when ev.cat = E.cat_propagator ->
    let g k = int_of_float (num ev.args k) in
    let p =
      find t.profiles ev.name
        ~default:
          { a_runs = 0; a_wakes = 0; a_prunes = 0; a_entails = 0;
            a_time_ms = 0.; a_rows = 0 }
    in
    Hashtbl.replace t.profiles ev.name
      {
        a_runs = p.a_runs + g "runs";
        a_wakes = p.a_wakes + g "wakes";
        a_prunes = p.a_prunes + g "prunes";
        a_entails = p.a_entails + g "entails";
        a_time_ms = p.a_time_ms +. num ev.args "time_ms";
        a_rows = p.a_rows + 1;
      }
  | E.Instant ->
    Hashtbl.replace t.counts ev.name (1 + find t.counts ev.name ~default:0)
  | E.Counter ->
    List.iter
      (fun (k, _) ->
        let v = num ev.args k in
        let key = if k = "value" then ev.name else ev.name ^ "." ^ k in
        let _, mx = find t.gauges key ~default:(v, v) in
        Hashtbl.replace t.gauges key (v, Float.max mx v))
      ev.args;
    if pid = 2 then begin
      let cycle = int_of_float ev.ts_us in
      let put tbl k =
        Option.iter (fun v -> Hashtbl.replace tbl cycle (int_of_float v)) (arg ev.args k)
      in
      match ev.name with
      | "lanes" -> put t.lanes "busy"
      | "bank-ports" ->
        put t.reads "reads";
        put t.writes "writes"
      | _ -> ()
    end

let add ?pid t (ev : E.event) =
  let pid = match pid with Some p -> p | None -> E.pid_of_cat ev.cat in
  step t ~pid ev;
  t.events <- t.events + 1

let add_json t j =
  match E.event_of_json j with
  | Ok (pid, ev) -> add ~pid t ev
  | Error msg ->
    defect t Malformed msg;
    t.events <- t.events + 1

(* ------------------------------------------------------------------ *)
(* Summary                                                             *)

let sorted_assoc tbl cmp =
  List.sort cmp (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* The summary of what was folded so far; the fold itself is left as
   it is.  Spans still open are closed at their track's last
   timestamp. *)
let summary t =
  let roots = Hashtbl.copy t.roots in
  let left_open = ref 0 in
  Hashtbl.iter
    (fun key frames ->
      let end_ts = find t.last_ts key ~default:0. in
      (* innermost first: each closed span is the newest child of the
         next one out *)
      let outermost =
        List.fold_left
          (fun inner f ->
            incr left_open;
            let children =
              match inner with Some n -> n :: f.f_children | None -> f.f_children
            in
            Some (node_of f ~children ~end_ts))
          None frames
      in
      Option.iter
        (fun n -> Hashtbl.replace roots key (n :: find roots key ~default:[]))
        outermost)
    t.stacks;
  let defects =
    List.rev t.defects
    @
    if !left_open = 0 then []
    else
      [
        {
          de_event = t.events;
          de_kind = Left_open;
          de_msg = Printf.sprintf "%d span(s) left open" !left_open;
        };
      ]
  in
  let label_for (pid, tid) =
    let proc =
      match Hashtbl.find_opt t.procs pid with
      | Some p -> (
        (* "eit-machine (1us = 1 cycle)" -> "eit-machine" *)
        match String.index_opt p ' ' with
        | Some i -> String.sub p 0 i
        | None -> p)
      | None -> Printf.sprintf "pid%d" pid
    in
    let thr =
      match Hashtbl.find_opt t.threads (pid, tid) with
      | Some t -> t
      | None -> Printf.sprintf "tid%d" tid
    in
    proc ^ "/" ^ thr
  in
  let tracks =
    List.map
      (fun ((pid, tid) as key, rs) ->
        { tr_pid = pid; tr_tid = tid; tr_label = label_for key; tr_roots = List.rev rs })
      (sorted_assoc roots (fun (a, _) (b, _) -> compare a b))
  in
  (* span statistics per (track label, name), all nesting depths *)
  let span_stats : (string * string, int * float) Hashtbl.t =
    Hashtbl.create 32
  in
  List.iter
    (fun tr ->
      let rec walk n =
        let k = (tr.tr_label, n.n_name) in
        let c, tot = find span_stats k ~default:(0, 0.) in
        Hashtbl.replace span_stats k (c + 1, tot +. n.n_incl);
        List.iter walk n.n_children
      in
      List.iter walk tr.tr_roots)
    tracks;
  let machine =
    let series tbl = Hashtbl.fold (fun c v acc -> (c, v) :: acc) tbl [] in
    let lane_s = series t.lanes and read_s = series t.reads
    and write_s = series t.writes in
    let unit_intervals =
      List.concat_map
        (fun tr ->
          if tr.tr_pid <> 2 then []
          else List.map (fun n -> (tr.tr_label, n.n_ts, n.n_incl)) tr.tr_roots)
        tracks
    in
    if lane_s = [] && read_s = [] && unit_intervals = [] then None
    else begin
      let horizon =
        List.fold_left
          (fun acc (c, _) -> max acc c)
          (List.fold_left
             (fun acc (_, ts, d) -> max acc (int_of_float (ts +. d) - 1))
             (-1) unit_intervals)
          (lane_s @ read_s @ write_s)
      in
      let cycles = horizon + 1 in
      let busy = List.fold_left (fun a (_, v) -> a + v) 0 lane_s in
      let peak = List.fold_left (fun a (_, v) -> max a v) 0 lane_s in
      let hist s =
        let h = Hashtbl.create 8 in
        List.iter (fun (_, v) -> Hashtbl.replace h v (1 + find h v ~default:0)) s;
        sorted_assoc h compare
      in
      (* busy cycles per functional unit: union of issue intervals *)
      let unit_busy =
        let by_unit = Hashtbl.create 4 in
        List.iter
          (fun (u, ts, d) ->
            Hashtbl.replace by_unit u
              ((ts, ts +. Float.max 1. d) :: find by_unit u ~default:[]))
          unit_intervals;
        Hashtbl.fold
          (fun u ivs acc ->
            let covered, _ =
              List.fold_left
                (fun (cov, last) (s, e) ->
                  if e <= last then (cov, last)
                  else (cov +. (e -. Float.max s last), Float.max last e))
                (0., neg_infinity) (List.sort compare ivs)
            in
            (u, int_of_float covered) :: acc)
          by_unit []
        |> List.sort compare
      in
      let peak_reads = List.fold_left (fun a (_, r) -> max a r) 0 read_s in
      let peak_accesses =
        List.fold_left
          (fun acc (c, r) ->
            max acc (r + Option.value ~default:0 (List.assoc_opt c write_s)))
          (List.fold_left (fun a (_, w) -> max a w) 0 write_s)
          read_s
      in
      Some
        {
          mc_cycles = cycles;
          mc_busy_lane_cycles = busy;
          mc_peak_lanes = peak;
          mc_avg_lanes =
            (if cycles = 0 then 0. else float_of_int busy /. float_of_int cycles);
          mc_lane_util =
            (if cycles = 0 || peak = 0 then 0.
             else
               100. *. float_of_int busy
               /. (float_of_int cycles *. float_of_int peak));
          mc_unit_busy = unit_busy;
          mc_read_hist = hist read_s;
          mc_write_hist = hist write_s;
          mc_peak_reads = peak_reads;
          mc_peak_accesses = peak_accesses;
        }
    end
  in
  {
    sm_other = [];
    sm_tracks = tracks;
    sm_span_stats =
      sorted_assoc span_stats (fun (_, (_, a)) (_, (_, b)) -> compare b a);
    sm_profiles =
      sorted_assoc t.profiles (fun (_, a) (_, b) ->
          match compare b.a_time_ms a.a_time_ms with
          | 0 -> compare b.a_runs a.a_runs
          | c -> c);
    sm_counts = sorted_assoc t.counts (fun (_, a) (_, b) -> compare b a);
    sm_gauges = sorted_assoc t.gauges (fun (a, _) (b, _) -> compare (a : string) b);
    sm_machine = machine;
    sm_defects = defects;
    sm_events = t.events;
  }

(* ------------------------------------------------------------------ *)
(* Recorded traces                                                     *)

let of_json (j : Json.t) : (summary, string) result =
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
  Result.map
    (fun events ->
      let t = create () in
      List.iter (add_json t) events;
      let other =
        match Json.member "otherData" j with
        | Some (Json.Obj fields) -> fields
        | _ -> []
      in
      { (summary t) with sm_other = other })
    events

(* A [--trace] file is one JSON document; a flight-recorder black box
   is JSONL — one event object per line behind a metadata first line
   tagged ["flight": true].  When the whole-file parse fails, retry
   line by line: if every non-blank line is a JSON object the file is
   JSONL and its event lines are read (the flight metadata line is not
   a trace event); otherwise the original parse error stands. *)
let of_file path =
  match Json.parse_file path with
  | Ok j -> of_json j
  | Error whole_err -> (
    match In_channel.with_open_bin path In_channel.input_lines with
    | exception Sys_error e -> Error e
    | lines ->
      let rec events ~first acc = function
        | [] -> Ok (List.rev acc)
        | l :: rest when String.trim l = "" -> events ~first acc rest
        | l :: rest -> (
          match Json.parse l with
          | Ok (Json.Obj _ as j) ->
            let meta = first && Json.member "flight" j = Some (Json.Bool true) in
            events ~first:false (if meta then acc else j :: acc) rest
          | Ok _ | Error _ -> Error whole_err)
      in
      Result.bind (events ~first:true [] lines) (fun evs -> of_json (Json.Arr evs)))

let label s = label_of s.sm_other

(* ------------------------------------------------------------------ *)
(* Folded stacks (FlameGraph / speedscope collapsed format)            *)

let sanitize_frame name =
  String.map (function ';' -> ',' | c -> c) (if name = "" then "?" else name)

let folded s =
  let tbl : (string, float) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  let add key v =
    if not (Hashtbl.mem tbl key) then order := key :: !order;
    Hashtbl.replace tbl key
      (v +. Option.value ~default:0. (Hashtbl.find_opt tbl key))
  in
  List.iter
    (fun tr ->
      let rec walk prefix n =
        let stack = prefix ^ ";" ^ sanitize_frame n.n_name in
        add stack n.n_excl;
        List.iter (walk stack) n.n_children
      in
      List.iter (walk (sanitize_frame tr.tr_label)) tr.tr_roots)
    s.sm_tracks;
  List.rev_map (fun k -> (k, Hashtbl.find tbl k)) !order

let write_folded path s =
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun (stack, self_us) ->
          let v = max 0 (int_of_float (Float.round self_us)) in
          Out_channel.output_string oc
            (Printf.sprintf "%s %d\n" stack v))
        (folded s))

(* ------------------------------------------------------------------ *)
(* Critical path through the scheduler's phase spans                   *)

let critical_path s =
  match
    List.find_opt (fun tr -> tr.tr_pid = 1 && tr.tr_tid = 0) s.sm_tracks
  with
  | None -> []
  | Some tr ->
    let sched_roots =
      match List.filter (fun n -> n.n_cat = "sched") tr.tr_roots with
      | [] -> tr.tr_roots
      | r -> r
    in
    let heaviest =
      List.fold_left
        (fun best n ->
          match best with
          | Some b when b.n_incl >= n.n_incl -> best
          | _ -> Some n)
        None
    in
    let rec down acc n =
      let acc = n :: acc in
      match heaviest n.n_children with
      | None -> List.rev acc
      | Some c -> down acc c
    in
    (match heaviest sched_roots with None -> [] | Some r -> down [] r)

(* The heaviest sched-phase root: its inclusive time is the number the
   report table leads with. *)
let root_inclusive s =
  match critical_path s with [] -> None | n :: _ -> Some n.n_incl

(* ------------------------------------------------------------------ *)
(* Trace diff                                                          *)

type span_delta = {
  sd_key : string * string;  (* track label, span name *)
  sd_count_b : int;
  sd_count_a : int;
  sd_total_b : float;  (* us *)
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
  df_spans : span_delta list;   (* matched by (track, name) *)
  df_new : (string * string) list;   (* in after only *)
  df_gone : (string * string) list;  (* in before only *)
  df_profiles : profile_delta list;
  df_counts : count_delta list;
}

let diff before after =
  let matched =
    List.filter_map
      (fun (k, (cb, tb)) ->
        match List.assoc_opt k after.sm_span_stats with
        | Some (ca, ta) ->
          Some
            {
              sd_key = k;
              sd_count_b = cb;
              sd_count_a = ca;
              sd_total_b = tb;
              sd_total_a = ta;
            }
        | None -> None)
      before.sm_span_stats
  in
  let only l r =
    List.filter_map
      (fun (k, _) -> if List.mem_assoc k r then None else Some k)
      l
  in
  let prof_names =
    List.sort_uniq compare
      (List.map fst before.sm_profiles @ List.map fst after.sm_profiles)
  in
  let count_names =
    List.sort_uniq compare
      (List.map fst before.sm_counts @ List.map fst after.sm_counts)
  in
  {
    df_label_b = label before;
    df_label_a = label after;
    df_spans = matched;
    df_new = only after.sm_span_stats before.sm_span_stats;
    df_gone = only before.sm_span_stats after.sm_span_stats;
    df_profiles =
      List.map
        (fun n ->
          {
            pd_name = n;
            pd_before = List.assoc_opt n before.sm_profiles;
            pd_after = List.assoc_opt n after.sm_profiles;
          })
        prof_names;
    df_counts =
      List.map
        (fun n ->
          {
            cd_name = n;
            cd_before = Option.value ~default:0 (List.assoc_opt n before.sm_counts);
            cd_after = Option.value ~default:0 (List.assoc_opt n after.sm_counts);
          })
        count_names;
  }

(* The regression gate.  Watched metrics are the *deterministic* work
   counters — propagator runs (total and per class) and search
   branch/fail tallies.  Wall-clock time is advisory only: it is noisy
   in CI, so it is printed but never gates. *)
let regressions ?(threshold = 10.) d =
  let out = ref [] in
  let flag name before after =
    if before > 0 && float_of_int after > float_of_int before *. (1. +. (threshold /. 100.))
    then
      out :=
        Printf.sprintf "%s: %d -> %d (+%.1f%% > %.0f%%)" name before after
          (100. *. (float_of_int (after - before) /. float_of_int before))
          threshold
        :: !out
  in
  let runs side =
    List.fold_left
      (fun acc p ->
        match p with Some p -> acc + p.a_runs | None -> acc)
      0 side
  in
  let before_total = runs (List.map (fun p -> p.pd_before) d.df_profiles) in
  let after_total = runs (List.map (fun p -> p.pd_after) d.df_profiles) in
  flag "propagations/total" before_total after_total;
  List.iter
    (fun p ->
      match (p.pd_before, p.pd_after) with
      | Some b, Some a -> flag ("propagations/" ^ p.pd_name) b.a_runs a.a_runs
      | _ -> ())
    d.df_profiles;
  List.iter
    (fun c ->
      if c.cd_name = "branch" || c.cd_name = "fail" then
        flag ("events/" ^ c.cd_name) c.cd_before c.cd_after)
    d.df_counts;
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Report printing                                                     *)

let pp_tree ppf tr =
  Format.fprintf ppf "track %s (pid %d, tid %d)@." tr.tr_label tr.tr_pid
    tr.tr_tid;
  Format.fprintf ppf "  %-36s %8s %12s %12s@." "span" "count" "incl (ms)"
    "excl (ms)";
  (* siblings with the same name are aggregated per level, so 160
     machine issues of the same opcode print as one row *)
  let rec level depth nodes =
    let seen = Hashtbl.create 8 in
    let groups =
      List.filter_map
        (fun n ->
          if Hashtbl.mem seen n.n_name then None
          else begin
            Hashtbl.add seen n.n_name ();
            Some
              (n.n_name, List.filter (fun m -> m.n_name = n.n_name) nodes)
          end)
        nodes
    in
    List.iter
      (fun (name, ns) ->
        let incl = List.fold_left (fun a n -> a +. n.n_incl) 0. ns in
        let excl = List.fold_left (fun a n -> a +. n.n_excl) 0. ns in
        let indent = String.make (2 * depth) ' ' in
        Format.fprintf ppf "  %-36s %8d %12.2f %12.2f@."
          (indent ^ name) (List.length ns) (incl /. 1000.) (excl /. 1000.);
        level (depth + 1) (List.concat_map (fun n -> n.n_children) ns))
      groups
  in
  level 0 tr.tr_roots

let pp_critical_path ppf s =
  match critical_path s with
  | [] -> ()
  | path ->
    Format.fprintf ppf "@.critical path (heaviest child chain):@.";
    List.iteri
      (fun i n ->
        Format.fprintf ppf "  %s%-30s %10.2f ms (self %.2f)@."
          (String.make (2 * i) ' ')
          n.n_name (n.n_incl /. 1000.) (n.n_excl /. 1000.))
      path

let pp_profiles ppf = function
  | [] -> ()
  | ps ->
    Format.fprintf ppf "@.%-22s %10s %10s %10s %12s@." "propagator" "runs"
      "wakes" "prunes" "time (ms)";
    List.iter
      (fun (n, p) ->
        Format.fprintf ppf "%-22s %10d %10d %10d %12.2f@." n p.a_runs
          p.a_wakes p.a_prunes p.a_time_ms)
      ps

let pp_utilization ppf m =
  Format.fprintf ppf "@.machine utilization (%d cycles)@." m.mc_cycles;
  Format.fprintf ppf "  vector lanes: avg %.2f busy, peak %d, utilization %.1f%%@."
    m.mc_avg_lanes m.mc_peak_lanes m.mc_lane_util;
  List.iter
    (fun (u, busy) ->
      Format.fprintf ppf "  %-28s busy %d/%d cycles (%.1f%%)@." u busy
        m.mc_cycles
        (if m.mc_cycles = 0 then 0.
         else 100. *. float_of_int busy /. float_of_int m.mc_cycles))
    m.mc_unit_busy;
  let hist title h peak =
    Format.fprintf ppf "  %s (peak %d):@." title peak;
    List.iter
      (fun (v, cnt) ->
        if v > 0 then Format.fprintf ppf "    %2d/cycle x %d cycles@." v cnt)
      h
  in
  hist "bank-port reads histogram" m.mc_read_hist m.mc_peak_reads;
  hist "bank-port writes histogram" m.mc_write_hist
    (List.fold_left (fun a (v, _) -> max a v) 0 m.mc_write_hist);
  Format.fprintf ppf "  peak simultaneous vector accesses: %d@."
    m.mc_peak_accesses

let pp_report ?(utilization = false) ppf s =
  (match label s with
  | "" -> ()
  | l -> Format.fprintf ppf "labels: %s@." l);
  Format.fprintf ppf "%d events, %d tracks@." s.sm_events
    (List.length s.sm_tracks);
  (match s.sm_defects with
  | [] -> ()
  | ds ->
    Format.fprintf ppf "%d defect(s); the spans below are nested as read:@."
      (List.length ds);
    List.iter (fun d -> Format.fprintf ppf "  %s@." d.de_msg) ds);
  List.iter
    (fun tr -> if tr.tr_roots <> [] then pp_tree ppf tr)
    s.sm_tracks;
  pp_critical_path ppf s;
  pp_profiles ppf s.sm_profiles;
  (match s.sm_counts with
  | [] -> ()
  | cs ->
    Format.fprintf ppf "@.%-24s %8s@." "event" "count";
    List.iter (fun (n, c) -> Format.fprintf ppf "%-24s %8d@." n c) cs);
  if utilization then
    match s.sm_machine with
    | Some m -> pp_utilization ppf m
    | None ->
      Format.fprintf ppf
        "@.no machine timeline in this trace (simulate with --trace)@."

let pct b a =
  if b = 0. then if a = 0. then 0. else infinity
  else 100. *. ((a -. b) /. b)

let pp_diff ppf d =
  Format.fprintf ppf "before: %s@.after:  %s@."
    (if d.df_label_b = "" then "(unlabelled)" else d.df_label_b)
    (if d.df_label_a = "" then "(unlabelled)" else d.df_label_a);
  (match
     List.filter
       (fun p -> p.pd_before <> None || p.pd_after <> None)
       d.df_profiles
   with
  | [] -> ()
  | ps ->
    Format.fprintf ppf "@.%-22s %12s %12s %9s %12s %12s@." "propagator"
      "runs (b)" "runs (a)" "delta%" "time_ms (b)" "time_ms (a)";
    List.iter
      (fun p ->
        let rb = match p.pd_before with Some p -> p.a_runs | None -> 0 in
        let ra = match p.pd_after with Some p -> p.a_runs | None -> 0 in
        let tb = match p.pd_before with Some p -> p.a_time_ms | None -> 0. in
        let ta = match p.pd_after with Some p -> p.a_time_ms | None -> 0. in
        Format.fprintf ppf "%-22s %12d %12d %+8.1f%% %12.2f %12.2f@."
          p.pd_name rb ra
          (pct (float_of_int rb) (float_of_int ra))
          tb ta)
      ps);
  (match List.filter (fun c -> c.cd_before <> c.cd_after) d.df_counts with
  | [] -> ()
  | cs ->
    Format.fprintf ppf "@.%-24s %10s %10s %9s@." "event" "before" "after"
      "delta%";
    List.iter
      (fun c ->
        Format.fprintf ppf "%-24s %10d %10d %+8.1f%%@." c.cd_name c.cd_before
          c.cd_after
          (pct (float_of_int c.cd_before) (float_of_int c.cd_after)))
      cs);
  let changed =
    List.filter
      (fun sd ->
        sd.sd_count_b <> sd.sd_count_a
        || Float.abs (sd.sd_total_a -. sd.sd_total_b) >= 1.)
      d.df_spans
  in
  (match changed with
  | [] -> ()
  | sds ->
    Format.fprintf ppf "@.%-44s %7s %7s %12s %12s@." "span (track/name)"
      "cnt (b)" "cnt (a)" "ms (b)" "ms (a)";
    List.iter
      (fun sd ->
        let lbl, name = sd.sd_key in
        Format.fprintf ppf "%-44s %7d %7d %12.2f %12.2f@."
          (lbl ^ "/" ^ name) sd.sd_count_b sd.sd_count_a
          (sd.sd_total_b /. 1000.) (sd.sd_total_a /. 1000.))
      sds);
  let names side = List.map (fun (l, n) -> l ^ "/" ^ n) side in
  (match d.df_new with
  | [] -> ()
  | l -> Format.fprintf ppf "@.new spans: %s@." (String.concat ", " (names l)));
  match d.df_gone with
  | [] -> ()
  | l -> Format.fprintf ppf "vanished spans: %s@." (String.concat ", " (names l))
