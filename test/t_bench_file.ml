(* BENCH_solver.json's one reader and one writer: the committed report
   survives a read and a rewrite byte for byte, a malformed row is an
   error that names the row (never a row dropped from `bench compare`'s
   gate), and members other than the runs and profiles are ignored. *)

module B = Vecsched_core.Bench_file
module J = Obs.Json

(* The suite runs in _build/default/test, next to the copy of the
   committed report that the test stanza depends on. *)
let committed = "../BENCH_solver.json"
let committed_text () = In_channel.with_open_bin committed In_channel.input_all

let committed_json () =
  match J.parse (committed_text ()) with
  | Ok j -> j
  | Error e -> Alcotest.failf "committed report is not JSON: %s" e

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* Fail on the first line where [got] differs from the committed file. *)
let check_committed what got =
  let want = String.split_on_char '\n' (committed_text ())
  and got = String.split_on_char '\n' got in
  let rec go i = function
    | w :: ws, g :: gs when w = g -> go (i + 1) (ws, gs)
    | [], [] -> ()
    | w, g ->
      let first = function l :: _ -> l | [] -> "(end of file)" in
      Alcotest.failf "%s: line %d is\n  %s\nnot\n  %s" what i (first g)
        (first w)
  in
  go 1 (want, got)

let with_temp_file f =
  let path = Filename.temp_file "bench_file" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let test_round_trip () =
  match B.read committed with
  | Error e -> Alcotest.failf "committed report does not read: %s" e
  | Ok t ->
    Alcotest.(check bool) "runs and profiles read" true
      (t.B.runs <> [] && t.B.profiles <> []);
    with_temp_file (fun path ->
        B.write path t;
        check_committed "rewritten file"
          (In_channel.with_open_bin path In_channel.input_all))

(* Edit the members of the element of [section] whose [key] is [name]. *)
let edit_in section key name f fields =
  List.map
    (fun (k, v) ->
      match v with
      | J.Arr es when k = section ->
        ( k,
          J.Arr
            (List.map
               (function
                 | J.Obj m when List.assoc_opt key m = Some (J.Str name) ->
                   J.Obj (f m)
                 | e -> e)
               es) )
      | _ -> (k, v))
    fields

let edited f =
  match committed_json () with
  | J.Obj top -> J.Obj (f top)
  | _ -> Alcotest.fail "committed report is not an object"

let blocked8_run f = edited (edit_in "runs" "kernel" "BLOCKED8" f)
let set k v = List.map (fun (k', v') -> if k' = k then (k', v) else (k', v'))
let drop k = List.filter (fun (k', _) -> k' <> k)

(* The first propagator row of BLOCKED8's profile. *)
let blocked8_prow f =
  edited
    (edit_in "propagator_profiles" "kernel" "BLOCKED8" (fun m ->
         List.map
           (fun (k, v) ->
             match v with
             | J.Arr (J.Obj r :: rest) when k = "rows" ->
               (k, J.Arr (J.Obj (f r) :: rest))
             | _ -> (k, v))
           m))

let test_malformed_rows () =
  let expect_error what doc needles =
    match B.of_json doc with
    | Ok _ -> Alcotest.failf "%s: read as a report" what
    | Error e ->
      List.iter
        (fun n ->
          if not (contains e n) then
            Alcotest.failf "%s: error %S does not mention %S" what e n)
        needles
  in
  expect_error "slots as a string"
    (blocked8_run (fun m ->
         set "slots" (J.Str "64") (set "propagations" (J.Num 1.) m)))
    [ "runs["; "BLOCKED8"; "\"slots\"" ];
  expect_error "nodes missing" (blocked8_run (drop "nodes"))
    [ "BLOCKED8"; "\"nodes\"" ];
  expect_error "fractional count"
    (blocked8_run (set "propagations" (J.Num 1.5)))
    [ "BLOCKED8"; "\"propagations\"" ];
  expect_error "minor_words null"
    (blocked8_run (set "minor_words" J.Null))
    [ "BLOCKED8"; "\"minor_words\"" ];
  expect_error "profile without optimal"
    (edited (edit_in "propagator_profiles" "kernel" "BLOCKED8" (drop "optimal")))
    [ "propagator_profiles["; "BLOCKED8"; "\"optimal\"" ];
  let name =
    match B.of_json (committed_json ()) with
    | Ok t ->
      (List.hd
         (List.find (fun p -> p.B.p_kernel = "BLOCKED8") t.B.profiles).B.p_rows)
        .B.pr_name
    | Error e -> Alcotest.fail e
  in
  expect_error "propagator runs as a string"
    (blocked8_prow (set "runs" (J.Str "x")))
    [ "BLOCKED8"; "rows[0] (" ^ name ^ ")"; "\"runs\"" ];
  expect_error "ocaml_version missing" (edited (drop "ocaml_version"))
    [ "\"ocaml_version\"" ];
  expect_error "runs not an array"
    (edited (set "runs" (J.Obj [])))
    [ "\"runs\"" ];
  expect_error "not an object" (J.Arr []) [ "\"ocaml_version\"" ]

(* makespan, fallback_makespan and node_budget are null when there is
   nothing to report; node_budget is left out of a profile instead. *)
let test_optional_counts () =
  match
    B.of_json
      (blocked8_run (fun m ->
           drop "node_budget"
             (set "makespan" J.Null (set "fallback_makespan" J.Null m))))
  with
  | Error e -> Alcotest.failf "null counts rejected: %s" e
  | Ok t ->
    let r = List.find (fun r -> r.B.r_kernel = "BLOCKED8") t.B.runs in
    Alcotest.(check (option int)) "makespan" None r.B.r_makespan;
    Alcotest.(check (option int)) "fallback_makespan" None r.B.r_fallback;
    Alcotest.(check (option int)) "node_budget" None r.B.r_node_budget;
    let p = List.find (fun p -> p.B.p_kernel = "QRD") t.B.profiles in
    Alcotest.(check (option int)) "profile without node_budget" None
      p.B.p_node_budget

(* Sections that earlier versions of the report carried load, and a
   rewrite drops them. *)
let test_other_members_ignored () =
  let doc =
    edited (fun top ->
        top
        @ [
            ("service", J.Obj [ ("p50_ms", J.Num 461.) ]);
            ("cache", J.Obj [ ("hit_rate", J.Num 0.97) ]);
            ("metrics", J.Obj [ ("p99_hist_ms", J.Num 2.) ]);
          ])
  in
  match B.of_json doc with
  | Error e -> Alcotest.failf "extra members rejected: %s" e
  | Ok t -> check_committed "rewrite without them" (B.to_string t)

let test_unreadable_files () =
  with_temp_file (fun path ->
      Out_channel.with_open_bin path (fun oc ->
          output_string oc "notes, not a report\n");
      Alcotest.(check bool) "text file" true (Result.is_error (B.read path)));
  Alcotest.(check bool) "missing file" true
    (Result.is_error (B.read "no-such-dir/BENCH_solver.json"))

let suite =
  [
    Alcotest.test_case "committed report round-trips" `Quick test_round_trip;
    Alcotest.test_case "malformed row names the row" `Quick test_malformed_rows;
    Alcotest.test_case "null counts stay optional" `Quick test_optional_counts;
    Alcotest.test_case "other members are ignored" `Quick
      test_other_members_ignored;
    Alcotest.test_case "unreadable files are errors" `Quick
      test_unreadable_files;
  ]
