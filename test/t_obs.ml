(* Observability layer: trace well-formedness, live summary/store
   agreement, and the zero-allocation disabled path. *)

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

(* ------------------------------------------------------------------ *)
(* JSON: parser/serializer round-trip including escapes                *)

let test_json_roundtrip () =
  let open Obs.Json in
  let src = {|{"a": [1, 2.5, -3, "xé\n\"q\"", true, false, null], "b": {}}|} in
  match parse src with
  | Error e -> Alcotest.fail e
  | Ok j -> (
    (match member "a" j with
    | Some (Arr [ Num 1.; Num 2.5; Num -3.; Str s; Bool true; Bool false; Null ]) ->
      Alcotest.(check string) "unicode escape" "x\xc3\xa9\n\"q\"" s
    | _ -> Alcotest.fail "unexpected shape for a");
    (* serializing and reparsing is the identity *)
    match parse (to_string j) with
    | Ok j' -> Alcotest.(check bool) "roundtrip" true (j = j')
    | Error e -> Alcotest.fail e)

let test_json_rejects () =
  List.iter
    (fun src ->
      match Obs.Json.parse src with
      | Ok _ -> Alcotest.failf "accepted invalid JSON %S" src
      | Error _ -> ())
    [ "{"; "[1,]"; "{\"a\" 1}"; "nul"; "\"unterminated"; "1 2" ]

(* A word that is not a literal is named as found, whichever literal
   its first letter suggests. *)
let test_json_names_bad_literal () =
  List.iter
    (fun (src, msg) ->
      match Obs.Json.parse src with
      | Ok _ -> Alcotest.failf "accepted %S" src
      | Error e -> Alcotest.(check string) src msg e)
    [
      ("notes: solver runs\n", {|invalid literal "notes" at byte 0|});
      ("todo", {|invalid literal "todo" at byte 0|});
      ("  falsehood", {|invalid literal "falsehood" at byte 2|});
      ("[true, nul]", {|invalid literal "nul" at byte 7|});
      ("nullnullnullnullnullnullnull", {|invalid literal "nullnullnullnullnullnull" at byte 0|});
    ]

(* ------------------------------------------------------------------ *)
(* Chrome trace of a real solve: parses, spans balanced and present    *)

let solve_with_trace path kernel =
  let g = (Eit_dsl.Merge.run kernel).Eit_dsl.Merge.graph in
  Obs.with_sink
    (Obs.Chrome.sink ~other_data:[ ("kernel", Obs.S "test") ] ~path ())
    (fun () -> Sched.Solve.run ~budget:(Fd.Search.time_budget 10_000.) g)

let test_trace_wellformed () =
  let path = tmp "t_obs_trace.json" in
  let o = solve_with_trace path (Apps.Matmul.graph (Apps.Matmul.build ())) in
  Alcotest.(check bool) "solved" true (o.Sched.Solve.schedule <> None);
  (match Obs.Check.trace_file path with
  | Ok n -> Alcotest.(check bool) "has events" true (n > 0)
  | Error e -> Alcotest.fail e);
  (* the phase spans and solution events the trace must cover *)
  match Obs.Json.parse_file path with
  | Error e -> Alcotest.fail e
  | Ok j ->
    let events =
      match Obs.Json.member "traceEvents" j with
      | Some (Obs.Json.Arr evs) -> evs
      | _ -> Alcotest.fail "no traceEvents"
    in
    let with_ph ph name =
      List.exists
        (fun ev ->
          Obs.Json.member "ph" ev = Some (Obs.Json.Str ph)
          && Obs.Json.member "name" ev = Some (Obs.Json.Str name))
        events
    in
    List.iter
      (fun name ->
        Alcotest.(check bool) ("span " ^ name) true (with_ph "B" name))
      [ "model-build"; "cp-search"; "search"; "validate" ];
    let objectives =
      List.filter_map
        (fun ev ->
          if Obs.Json.member "name" ev = Some (Obs.Json.Str "solution") then
            Option.bind (Obs.Json.member "args" ev) (Obs.Json.member "objective")
          else None)
        events
    in
    (* B&B objectives improve monotonically down to the optimum *)
    Alcotest.(check bool) "has solutions" true (objectives <> []);
    (match List.rev objectives with
    | Obs.Json.Num last :: _ ->
      Alcotest.(check int) "optimum" 11 (int_of_float last)
    | _ -> Alcotest.fail "no final objective");
    (* a run that emits nothing still writes a valid trace: the track
       names alone *)
    Obs.with_sink (Obs.Chrome.sink ~path ()) (fun () -> ());
    (match Obs.Check.trace_file path with
    | Ok n -> Alcotest.(check int) "empty run: track names only" 6 n
    | Error e -> Alcotest.failf "empty run: %s" e);
    Sys.remove path

(* Nesting violations are detected, not just absence of crashes. *)
let test_check_catches_misnesting () =
  let bad =
    {|{"traceEvents": [
        {"name": "a", "ph": "B", "ts": 0, "pid": 1, "tid": 0},
        {"name": "b", "ph": "E", "ts": 1, "pid": 1, "tid": 0}]}|}
  in
  (match Obs.Json.parse bad with
  | Ok j -> (
    match Obs.Check.trace_json j with
    | Ok _ -> Alcotest.fail "misnested trace accepted"
    | Error _ -> ())
  | Error e -> Alcotest.fail e);
  let unclosed =
    {|{"traceEvents": [{"name": "a", "ph": "B", "ts": 0}]}|}
  in
  match Obs.Json.parse unclosed with
  | Ok j -> (
    match Obs.Check.trace_json j with
    | Ok _ -> Alcotest.fail "unclosed span accepted"
    | Error _ -> ())
  | Error e -> Alcotest.fail e

(* Machine timeline: simulate a scheduled kernel under a sink and check
   the per-cycle lane/port counters and per-issue spans appear. *)
let test_machine_timeline () =
  let g =
    (Eit_dsl.Merge.run (Apps.Matmul.graph (Apps.Matmul.build ())))
      .Eit_dsl.Merge.graph
  in
  let o = Sched.Solve.run ~budget:(Fd.Search.time_budget 10_000.) g in
  let sch = Option.get o.Sched.Solve.schedule in
  let p = Sched.Codegen.program sch in
  let live = Obs.Analyze.create () in
  Obs.with_sink (Obs.Analyze.sink live) (fun () -> ignore (Eit.Machine.run p));
  let gauges = (Obs.Analyze.summary live).Obs.Analyze.sm_gauges in
  let has k = List.mem_assoc k gauges in
  Alcotest.(check bool) "lane gauge" true (has "lanes.busy");
  Alcotest.(check bool) "read-port gauge" true (has "bank-ports.reads");
  Alcotest.(check bool) "write-port gauge" true (has "bank-ports.writes");
  (* the read-port ceiling of the architecture is respected *)
  let _, max_reads = List.assoc "bank-ports.reads" gauges in
  Alcotest.(check bool) "reads within ports" true
    (int_of_float max_reads <= Eit.Arch.default.Eit.Arch.max_reads_per_cycle)

(* ------------------------------------------------------------------ *)
(* Live summary vs Store.profile: run counts must agree exactly        *)

let test_profile_rows_match_store () =
  let open Fd in
  let s = Store.create () in
  let vars = List.init 6 (fun _ -> Store.interval_var s 0 5) in
  Arith.neq_classes s ~classes:(Array.init 6 Fun.id) (Array.of_list vars);
  let obj = Store.interval_var s 0 30 in
  Arith.max_of s vars obj;
  let live = Obs.Analyze.create () in
  (Obs.with_sink (Obs.Analyze.sink live) @@ fun () ->
   match
     Search.minimize s [ Search.phase vars ] ~objective:obj
       ~on_solution:(fun () -> ())
   with
   | Search.Solution _ -> ()
   | _ -> Alcotest.fail "expected optimum");
  (* profile rows reach the sink via emit_profile in the search-owning
     layer; here the store is driven directly, so emit explicitly *)
  Obs.with_sink (Obs.Analyze.sink live) (fun () -> Store.emit_profile s);
  let sm = Obs.Analyze.summary live in
  let store_rows = Store.profile s in
  Alcotest.(check int) "same classes" (List.length store_rows)
    (List.length sm.Obs.Analyze.sm_profiles);
  List.iter
    (fun (r : Store.profile) ->
      match List.assoc_opt r.pr_name sm.Obs.Analyze.sm_profiles with
      | Some p ->
        Alcotest.(check int) ("runs " ^ r.pr_name) r.pr_runs p.Obs.Analyze.a_runs;
        Alcotest.(check int) ("entails " ^ r.pr_name) r.pr_entails
          p.Obs.Analyze.a_entails;
        Alcotest.(check int) ("one row " ^ r.pr_name) 1 p.Obs.Analyze.a_rows
      | None -> Alcotest.failf "class %s missing from the summary" r.pr_name)
    store_rows;
  (* search events were counted too *)
  Alcotest.(check bool) "branches counted" true
    (match List.assoc_opt "branch" sm.Obs.Analyze.sm_counts with
    | Some n -> n > 0
    | None -> false)

(* Store.profile invariants: wakes >= runs (every execution was queued
   first), prune attribution only while running. *)
let test_profile_invariants () =
  let open Fd in
  let s = Store.create () in
  let x = Store.interval_var s 0 9 and y = Store.interval_var s 0 9 in
  Arith.plus s x y (Store.const s 9);
  Arith.leq_offset s x 0 y;
  ignore (Search.solve s [ Search.phase [ x; y ] ] ~on_solution:(fun () -> ()));
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (p.Store.pr_name ^ " wakes>=runs")
        true
        (p.Store.pr_wakes >= p.Store.pr_runs);
      Alcotest.(check bool)
        (p.Store.pr_name ^ " counters non-negative")
        true
        (p.Store.pr_runs >= 0 && p.Store.pr_prunes >= 0);
      (* timing stays zero unless opted in *)
      Alcotest.(check (float 0.))
        (p.Store.pr_name ^ " untimed")
        0. p.Store.pr_time_ms)
    (Store.profile s)

(* ------------------------------------------------------------------ *)
(* Disabled path: no sink attached => no allocation at all             *)

let test_disabled_no_alloc () =
  Alcotest.(check bool) "no sink attached" false (Obs.enabled ());
  (* metrics instruments on a disabled registry allocate nothing *)
  let module M = Obs.Metrics in
  let reg = M.create ~enabled:false () in
  let mc = M.counter reg "x" in
  let mh = M.histogram reg "y" in
  let mg = M.gauge reg "z" in
  let ms = M.slo reg "w" in
  (* warm up so the closures/externals are resolved *)
  Obs.instant "warm";
  Obs.span_begin "warm";
  Obs.span_end "warm";
  Obs.counter "warm" [];
  Obs.complete ~ts_us:0. ~dur_us:0. "warm";
  M.incr mc;
  M.observe mh 1.;
  M.set_gauge mg 1.;
  M.slo_record ms ~ok:true ~deadline_met:true;
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Obs.instant "x";
    Obs.span_begin "x";
    Obs.span_end "x";
    Obs.counter "x" [];
    Obs.complete ~ts_us:0. ~dur_us:0. "x";
    Obs.profile_row ~name:"x" ~runs:0 ~wakes:0 ~prunes:0 ~time_ms:0. ();
    M.incr mc;
    M.observe mh 1.;
    M.set_gauge mg 1.;
    M.slo_record ms ~ok:true ~deadline_met:true
  done;
  let w1 = Gc.minor_words () in
  Alcotest.(check (float 0.)) "zero words allocated" 0. (w1 -. w0);
  (* counters ignore the flag: 1 warm-up + 10k loop increments *)
  Alcotest.(check int) "counter counts on a disabled registry" 10_001
    (M.counter_value mc)

(* span is exception-safe: the End event is emitted on raise, so the
   trace stays balanced. *)
let test_span_exception_safe () =
  let live = Obs.Analyze.create () in
  (try
     Obs.with_sink (Obs.Analyze.sink live) (fun () ->
         Obs.span "outer" (fun () ->
             Obs.span "inner" (fun () -> failwith "boom")))
   with Failure _ -> ());
  let sm = Obs.Analyze.summary live in
  Alcotest.(check int) "no defects" 0 (List.length sm.Obs.Analyze.sm_defects);
  List.iter
    (fun name ->
      match List.assoc_opt ("solver/main", name) sm.Obs.Analyze.sm_span_stats with
      | Some (count, _) -> Alcotest.(check int) (name ^ " closed") 1 count
      | None -> Alcotest.failf "span %s not recorded" name)
    [ "outer"; "inner" ]

(* Jsonl sink: every emitted line is one parseable JSON object. *)
let test_jsonl_lines () =
  let path = tmp "t_obs_events.jsonl" in
  Obs.with_sink (Obs.Jsonl.sink ~path) (fun () ->
      Obs.instant ~args:[ ("k", Obs.S "v\"q") ] "a";
      Obs.counter "g" [ ("value", Obs.I 3) ];
      Obs.span "s" (fun () -> ()));
  let ic = open_in path in
  let lines = ref 0 in
  (try
     while true do
       let line = input_line ic in
       incr lines;
       match Obs.Json.parse line with
       | Ok (Obs.Json.Obj _) -> ()
       | Ok _ -> Alcotest.failf "line %d is not an object" !lines
       | Error e -> Alcotest.failf "line %d: %s" !lines e
     done
   with End_of_file -> ());
  close_in ic;
  Alcotest.(check int) "four events" 4 !lines;
  Sys.remove path

let suite =
  [
    Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json rejects invalid" `Quick test_json_rejects;
    Alcotest.test_case "json names a bad literal" `Quick test_json_names_bad_literal;
    Alcotest.test_case "trace well-formed + spans" `Quick test_trace_wellformed;
    Alcotest.test_case "checker catches misnesting" `Quick
      test_check_catches_misnesting;
    Alcotest.test_case "machine timeline gauges" `Quick test_machine_timeline;
    Alcotest.test_case "profile rows agree with Store.profile" `Quick
      test_profile_rows_match_store;
    Alcotest.test_case "profile invariants" `Quick test_profile_invariants;
    Alcotest.test_case "disabled path allocates nothing" `Quick
      test_disabled_no_alloc;
    Alcotest.test_case "span exception-safe" `Quick test_span_exception_safe;
    Alcotest.test_case "jsonl lines parse" `Quick test_jsonl_lines;
  ]
