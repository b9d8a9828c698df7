(* Obs.Analyze: span-forest reconstruction, folded stacks, utilization,
   trace diff / regression gate, live = recorded, defects — plus a
   QCheck round-trip for the JSON layer both sides share. *)

module J = Obs.Json
module A = Obs.Analyze

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

(* --------------------- JSON round-trip (QCheck) ---------------------- *)

(* Finite floats only (the serializer maps non-finite to 0); cover
   integers, decimals and awkward precision cases. *)
let gen_num =
  QCheck2.Gen.(
    oneof
      [
        map float_of_int (int_range (-1_000_000) 1_000_000);
        float_bound_inclusive 1e9;
        map
          (fun (a, b) -> float_of_int a /. (10. ** float_of_int b))
          (pair (int_range (-10_000) 10_000) (int_bound 6));
        oneofl [ 0.; -0.; 0.1; 1e-7; 3.141592653589793; 1e15; 1e22 ];
      ])

let gen_str =
  QCheck2.Gen.(
    oneof
      [
        string_size ~gen:printable (int_bound 12);
        (* escapes and raw high bytes *)
        oneofl [ "a\"b"; "back\\slash"; "tab\tnl\n"; "\001ctrl"; "caf\xc3\xa9" ];
      ])

let gen_json =
  QCheck2.Gen.(
    sized_size (int_bound 3) @@ fix (fun self n ->
        let leaf =
          oneof
            [
              return J.Null;
              map (fun b -> J.Bool b) bool;
              map (fun f -> J.Num f) gen_num;
              map (fun s -> J.Str s) gen_str;
            ]
        in
        if n = 0 then leaf
        else
          frequency
            [
              (2, leaf);
              ( 2,
                map (fun l -> J.Arr l) (list_size (int_bound 4) (self (n - 1)))
              );
              ( 2,
                map
                  (fun l -> J.Obj l)
                  (list_size (int_bound 4) (pair gen_str (self (n - 1)))) );
            ]))

(* Object round-trip goes through assoc lists: duplicate keys survive
   serialization, so equality is plain structural equality. *)
let json_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"parse (to_string t) = Ok t" ~count:500 gen_json
       (fun t -> J.parse (J.to_string t) = Ok t))

(* --------------------- hand-built span forest ------------------------ *)

let obj fields = J.Obj fields

let span_ev ph name ts =
  obj
    [
      ("name", J.Str name); ("cat", J.Str "sched"); ("ph", J.Str ph);
      ("ts", J.Num ts); ("pid", J.Num 1.); ("tid", J.Num 0.);
      ("args", J.Obj []);
    ]

let trace ?(other = []) evs =
  obj [ ("traceEvents", J.Arr evs); ("otherData", J.Obj other) ]

(* a[0..100] containing b[10..30] and X x[40..45]:
   incl a=100 b=20 x=5; excl a=75. *)
let hand_trace () =
  trace
    ~other:[ ("kernel", J.Str "hand"); ("mode", J.Str "sequential") ]
    [
      span_ev "B" "a" 0.;
      span_ev "B" "b" 10.;
      span_ev "E" "b" 30.;
      obj
        [
          ("name", J.Str "x"); ("cat", J.Str "sched"); ("ph", J.Str "X");
          ("ts", J.Num 40.); ("dur", J.Num 5.); ("pid", J.Num 1.);
          ("tid", J.Num 0.); ("args", J.Obj []);
        ];
      span_ev "E" "a" 100.;
    ]

let summary_of_exn j =
  match A.of_json j with Ok s -> s | Error e -> Alcotest.fail e

let test_incl_excl () =
  let s = summary_of_exn (hand_trace ()) in
  let tr =
    match s.A.sm_tracks with [ t ] -> t | _ -> Alcotest.fail "one track"
  in
  let a =
    match tr.A.tr_roots with [ a ] -> a | _ -> Alcotest.fail "one root"
  in
  Alcotest.(check string) "root name" "a" a.A.n_name;
  Alcotest.(check (float 1e-9)) "a incl" 100. a.A.n_incl;
  Alcotest.(check (float 1e-9)) "a excl" 75. a.A.n_excl;
  (match a.A.n_children with
  | [ b; x ] ->
    Alcotest.(check string) "child order" "b" b.A.n_name;
    Alcotest.(check (float 1e-9)) "b incl" 20. b.A.n_incl;
    Alcotest.(check (float 1e-9)) "b excl" 20. b.A.n_excl;
    Alcotest.(check (float 1e-9)) "x incl" 5. x.A.n_incl
  | _ -> Alcotest.fail "two children");
  Alcotest.(check string) "otherData label" "kernel=hand mode=sequential"
    (A.label s);
  match A.critical_path s with
  | [ r; c ] ->
    Alcotest.(check string) "critical root" "a" r.A.n_name;
    Alcotest.(check string) "critical child" "b" c.A.n_name
  | p -> Alcotest.failf "critical path length %d" (List.length p)

(* An unclosed span is closed at the track's last timestamp instead of
   being dropped (Analyze is lenient where Check is strict). *)
let test_unclosed_lenient () =
  let s =
    summary_of_exn (trace [ span_ev "B" "a" 0.; span_ev "B" "b" 10. ])
  in
  let tr = List.hd s.A.sm_tracks in
  let a = List.hd tr.A.tr_roots in
  Alcotest.(check (float 1e-9)) "a closed at last ts" 10. a.A.n_incl

(* --------------------- folded stacks --------------------------------- *)

let test_folded () =
  let s = summary_of_exn (hand_trace ()) in
  let path = tmp "t_analyze.folded" in
  A.write_folded path s;
  let lines =
    In_channel.with_open_bin path In_channel.input_lines
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "three stacks" 3 (List.length lines);
  (* collapsed-stack grammar: "frame(;frame)* <int >= 0>"; the label
     frame of an unnamed pid-1 track is "pid1/tid0" *)
  List.iter
    (fun line ->
      match String.rindex_opt line ' ' with
      | None -> Alcotest.failf "no value in %S" line
      | Some i ->
        let stack = String.sub line 0 i in
        let v = String.sub line (i + 1) (String.length line - i - 1) in
        (match int_of_string_opt v with
        | Some n -> Alcotest.(check bool) "value >= 0" true (n >= 0)
        | None -> Alcotest.failf "non-integer value %S in %S" v line);
        Alcotest.(check bool) "frames non-empty" true
          (List.for_all
             (fun f -> String.length f > 0)
             (String.split_on_char ';' stack)))
    lines;
  let assoc = A.folded s in
  Alcotest.(check (float 1e-9)) "a excl" 75.
    (List.assoc "pid1/tid0;a" assoc);
  Alcotest.(check (float 1e-9)) "a;b excl" 20.
    (List.assoc "pid1/tid0;a;b" assoc)

(* --------------------- utilization ----------------------------------- *)

let machine_ev name ts args =
  obj
    ([
       ("name", J.Str name); ("cat", J.Str "machine"); ("ph", J.Str "C");
       ("ts", J.Num ts); ("pid", J.Num 2.); ("tid", J.Num 0.);
     ]
    @ [ ("args", J.Obj args) ])

(* Synthetic 2-lane timeline over 4 cycles: busy 2,2,1,0 -> 5 busy
   lane-cycles, util 5/(4*2) = 62.5%; peak accesses = max(r+w) = 3. *)
let test_utilization () =
  let evs =
    [
      machine_ev "lanes" 0. [ ("busy", J.Num 2.) ];
      machine_ev "lanes" 1. [ ("busy", J.Num 2.) ];
      machine_ev "lanes" 2. [ ("busy", J.Num 1.) ];
      machine_ev "lanes" 3. [ ("busy", J.Num 0.) ];
      machine_ev "bank-ports" 0. [ ("reads", J.Num 2.); ("writes", J.Num 1.) ];
      machine_ev "bank-ports" 1. [ ("reads", J.Num 1.); ("writes", J.Num 0.) ];
      obj
        [
          ("name", J.Str "vmul"); ("cat", J.Str "machine"); ("ph", J.Str "X");
          ("ts", J.Num 0.); ("dur", J.Num 2.); ("pid", J.Num 2.);
          ("tid", J.Num 0.); ("args", J.Obj []);
        ];
    ]
  in
  let s = summary_of_exn (trace evs) in
  match s.A.sm_machine with
  | None -> Alcotest.fail "expected machine stats"
  | Some m ->
    Alcotest.(check int) "cycles" 4 m.A.mc_cycles;
    Alcotest.(check int) "busy lane-cycles" 5 m.A.mc_busy_lane_cycles;
    Alcotest.(check int) "peak lanes" 2 m.A.mc_peak_lanes;
    Alcotest.(check (float 1e-9)) "avg lanes" 1.25 m.A.mc_avg_lanes;
    Alcotest.(check (float 1e-9)) "lane util %" 62.5 m.A.mc_lane_util;
    Alcotest.(check int) "peak accesses" 3 m.A.mc_peak_accesses;
    Alcotest.(check int) "peak reads" 2 m.A.mc_peak_reads;
    Alcotest.(check (list (pair int int))) "read histogram"
      [ (1, 1); (2, 1) ] m.A.mc_read_hist;
    (match m.A.mc_unit_busy with
    | [ (_, busy) ] -> Alcotest.(check int) "unit busy cycles" 2 busy
    | l -> Alcotest.failf "unit count %d" (List.length l))

(* --------------------- diff + regression gate ------------------------ *)

let prof_ev name runs =
  obj
    [
      ("name", J.Str name); ("cat", J.Str "propagator"); ("ph", J.Str "i");
      ("ts", J.Num 0.); ("pid", J.Num 1.); ("tid", J.Num 0.);
      ( "args",
        J.Obj
          [
            ("runs", J.Num (float_of_int runs)); ("wakes", J.Num 0.);
            ("prunes", J.Num 0.); ("time_ms", J.Num 0.);
          ] );
    ]

let instant_ev name =
  obj
    [
      ("name", J.Str name); ("cat", J.Str "search"); ("ph", J.Str "i");
      ("ts", J.Num 1.); ("pid", J.Num 1.); ("tid", J.Num 0.);
      ("args", J.Obj []);
    ]

let test_diff_gate () =
  let base = trace [ prof_ev "arith" 100; prof_ev "diff2" 40; instant_ev "branch" ] in
  let self = A.diff (summary_of_exn base) (summary_of_exn base) in
  Alcotest.(check (list string)) "self-diff has no regressions" []
    (A.regressions ~threshold:1. self);
  (* doctored: arith +50% runs must trip the 10% gate *)
  let doctored = trace [ prof_ev "arith" 150; prof_ev "diff2" 40; instant_ev "branch" ] in
  let d = A.diff (summary_of_exn base) (summary_of_exn doctored) in
  let rs = A.regressions d in
  Alcotest.(check bool) "doctored +50% flagged" true
    (List.exists
       (fun r ->
         let has sub =
           let n = String.length sub in
           let rec go i =
             i + n <= String.length r && (String.sub r i n = sub || go (i + 1))
           in
           go 0
         in
         has "propagations/arith")
       rs);
  (* totals are watched too *)
  Alcotest.(check bool) "total flagged" true
    (List.exists
       (fun r -> String.length r >= 19 && String.sub r 0 19 = "propagations/total:")
       rs);
  (* a shrinking counter never gates *)
  let improved = trace [ prof_ev "arith" 50; prof_ev "diff2" 40; instant_ev "branch" ] in
  Alcotest.(check (list string)) "improvement passes" []
    (A.regressions (A.diff (summary_of_exn base) (summary_of_exn improved)))

let test_diff_structure () =
  let b =
    trace [ span_ev "B" "a" 0.; span_ev "E" "a" 10. ]
  in
  let a =
    trace
      [
        span_ev "B" "a" 0.; span_ev "E" "a" 30.;
        span_ev "B" "c" 30.; span_ev "E" "c" 40.;
      ]
  in
  let d = A.diff (summary_of_exn b) (summary_of_exn a) in
  (match d.A.df_spans with
  | [ sd ] ->
    Alcotest.(check (float 1e-9)) "before total" 10. sd.A.sd_total_b;
    Alcotest.(check (float 1e-9)) "after total" 30. sd.A.sd_total_a
  | l -> Alcotest.failf "matched spans %d" (List.length l));
  Alcotest.(check int) "one new span" 1 (List.length d.A.df_new);
  Alcotest.(check int) "no vanished spans" 0 (List.length d.A.df_gone)

(* ------------------ real trace: live = recorded ---------------------- *)

(* One reader: for a traced QRD solve, the live summary and the summary
   of the Chrome file written in the same run agree — span counts,
   propagator rows and instant counts exactly, the root's inclusive
   time within 1%. *)
let test_live_matches_file () =
  let path = tmp "t_analyze_qrd.json" in
  let g =
    (Eit_dsl.Merge.run (Apps.Qrd.graph (Apps.Qrd.build ())))
      .Eit_dsl.Merge.graph
  in
  let live = A.create () in
  let h_chrome = Obs.attach (Obs.Chrome.sink ~path ()) in
  let h_live = Obs.attach (A.sink live) in
  let o = Sched.Solve.run ~budget:(Fd.Search.time_budget 10_000.) g in
  Obs.detach h_live;
  Obs.detach h_chrome;
  Alcotest.(check bool) "solved" true (o.Sched.Solve.schedule <> None);
  let s =
    match A.of_file path with Ok s -> s | Error e -> Alcotest.fail e
  in
  let l = A.summary live in
  Alcotest.(check int) "no defects" 0
    (List.length s.A.sm_defects + List.length l.A.sm_defects);
  Alcotest.(check int) "events" s.A.sm_events l.A.sm_events;
  let counts sm =
    List.sort compare (List.map (fun (k, (c, _)) -> (k, c)) sm.A.sm_span_stats)
  in
  Alcotest.(check (list (pair (pair string string) int))) "span counts"
    (counts s) (counts l);
  let rows sm =
    List.sort compare
      (List.map
         (fun (n, p) ->
           (n, A.[ p.a_runs; p.a_wakes; p.a_prunes; p.a_entails; p.a_rows ]))
         sm.A.sm_profiles)
  in
  Alcotest.(check bool) "has propagator rows" true (l.A.sm_profiles <> []);
  Alcotest.(check (list (pair string (list int)))) "propagator rows" (rows s)
    (rows l);
  Alcotest.(check (list (pair string int))) "instant counts"
    (List.sort compare s.A.sm_counts) (List.sort compare l.A.sm_counts);
  let root sm =
    match A.root_inclusive sm with
    | Some r -> r
    | None -> Alcotest.fail "no critical path"
  in
  Alcotest.(check bool)
    (Printf.sprintf "file %.1f us vs live %.1f us within 1%%" (root s) (root l))
    true
    (Float.abs (root s -. root l) <= 0.01 *. root l);
  (* and the real folded output obeys the grammar *)
  let fpath = tmp "t_analyze_qrd.folded" in
  A.write_folded fpath s;
  List.iter
    (fun line ->
      if line <> "" then
        match String.rindex_opt line ' ' with
        | None -> Alcotest.failf "no value in %S" line
        | Some i -> (
          match
            int_of_string_opt
              (String.sub line (i + 1) (String.length line - i - 1))
          with
          | Some n when n >= 0 -> ()
          | _ -> Alcotest.failf "bad value in %S" line))
    (In_channel.with_open_bin fpath In_channel.input_lines)

(* --------------------- defects -------------------------------------- *)

(* The stream B a, B b, E a, E b: one misnested end.  The reader keeps
   going (a and b close at their own ends, 2 us each) and names the
   defect in the report; Check rejects the stream on it. *)
let test_misnested_defect () =
  let j =
    trace
      [
        span_ev "B" "a" 1.; span_ev "B" "b" 2.; span_ev "E" "a" 3.;
        span_ev "E" "b" 4.;
      ]
  in
  let msg = {|event 2: end of "a" while "b" is open (misnested)|} in
  let s = summary_of_exn j in
  (match s.A.sm_defects with
  | [ d ] ->
    Alcotest.(check int) "event index" 2 d.A.de_event;
    Alcotest.(check bool) "kind" true (d.A.de_kind = A.Misnested);
    Alcotest.(check string) "message" msg d.A.de_msg
  | ds -> Alcotest.failf "%d defects" (List.length ds));
  List.iter
    (fun name ->
      Alcotest.(check (option (pair int (float 1e-9)))) (name ^ " = 2 us")
        (Some (1, 2.))
        (List.assoc_opt ("pid1/tid0", name) s.A.sm_span_stats))
    [ "a"; "b" ];
  let report = Format.asprintf "%a" (A.pp_report ~utilization:false) s in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "report names the defect" true (contains report msg);
  Alcotest.(check (result int string)) "check rejects it" (Error msg)
    (Obs.Check.trace_json j)

let suite =
  [
    json_roundtrip;
    Alcotest.test_case "inclusive/exclusive times" `Quick test_incl_excl;
    Alcotest.test_case "unclosed span closed at last ts" `Quick
      test_unclosed_lenient;
    Alcotest.test_case "folded stacks grammar + values" `Quick test_folded;
    Alcotest.test_case "synthetic 2-lane utilization" `Quick test_utilization;
    Alcotest.test_case "diff regression gate" `Quick test_diff_gate;
    Alcotest.test_case "diff structure (new/changed spans)" `Quick
      test_diff_structure;
    Alcotest.test_case "live summary = Chrome file summary" `Quick
      test_live_matches_file;
    Alcotest.test_case "misnested end: one defect, named" `Quick
      test_misnested_defect;
  ]
