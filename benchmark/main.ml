(* The repository benchmark.

     main.exe run [--workload W] [--seed N] [--seconds S] [--trace 0|1]
                  [--chrome FILE] [--repeat N] [--out FILE] [--smoke]
     main.exe compare A.json B.json

   A single run (one workload, one seed, no result file) happens in this
   process and ends with a one-line JSON result.  Anything more runs
   each workload run in a fresh child process, so set-up time and peak
   memory are per run.  See README.md. *)

module Json = Obs.Json

let run_workload name ~smoke ~seconds ~tr ~seed =
  let setups = if smoke then 1 else 5 in
  match name with
  | "compile-seq" ->
    Compile.run ~kernels:[ "qrd"; "arf"; "matmul"; "blocked8" ] ~seconds ~setups ~tr ~seed
      ~portfolio_rounds:(if smoke then 1 else 8)
  | "serve-mix" -> Serve_load.run Serve_load.mix_spec ~seconds ~setups ~tr ~seed
  | "serve-repeat" -> Serve_load.run Serve_load.repeat_spec ~seconds ~setups ~tr ~seed
  | w -> invalid_arg ("unknown workload " ^ w)

let num f = Json.Num (if Float.is_finite f then f else 0.)
let int i = Json.Num (float_of_int i)
let str s = Json.Str s
let member k j = Option.value (Json.member k j) ~default:Json.Null
let to_num = function Json.Num f -> f | _ -> nan
let to_str = function Json.Str s -> s | _ -> ""

let read_json path =
  match Json.parse_file path with
  | Ok j -> j
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)

(* ------------------------------------------------------------------ *)
(* One run, in this process *)

let single ~workload ~seed ~seconds ~trace ~smoke ~chrome =
  let tr = Span.create ~on:trace (Quant.table ()) in
  let r = run_workload workload ~smoke ~seconds ~tr ~seed in
  let e2e = Run.end_to_end r in
  let layers = Run.per_layer r (List.map fst Catalog.per_layer) in
  (* the smoke run checks every metric, so it reports both sets *)
  let shown = if smoke then e2e @ layers else if trace then layers else e2e in
  let unit_of n = List.assoc n (Catalog.end_to_end @ Catalog.per_layer) in
  List.iter (fun (n, v) -> Printf.printf "%-34s %16.4f %s\n" n v (unit_of n)) shown;
  if trace && not smoke then begin
    let path =
      match chrome with
      | Some p -> p
      | None ->
        if not (Sys.file_exists "benchmark-traces") then Sys.mkdir "benchmark-traces" 0o755;
        Printf.sprintf "benchmark-traces/%s-seed%d.json" workload seed
    in
    Span.write_chrome tr path;
    Printf.printf "chrome trace: %s\n" path
  end;
  let info =
    Json.Obj
      [
        ("workload", str workload);
        ("seed", int seed);
        ("valid", Json.Bool r.valid);
        ("samples", Json.Obj (List.map (fun (k, v) -> (k, int v)) (Run.sample_counts r)));
      ]
  in
  Printf.printf "run-info: %s\n" (Json.to_string info);
  let result =
    Json.Obj
      [
        ("correct", Json.Bool (r.wrong = 0));
        ("attempted", int (Run.attempted r));
        ("failed", int (Run.failed r));
        ( "metrics",
          Json.Obj
            (List.map
               (fun (n, v) -> (n, Json.Obj [ ("value", num v); ("unit", str (unit_of n)) ]))
               shown) );
      ]
  in
  print_endline (Json.to_string result);
  if r.wrong = 0 then 0 else 1

(* ------------------------------------------------------------------ *)
(* Several runs, each in a child process *)

let nproc () =
  let count_ranges s =
    List.fold_left
      (fun acc r ->
        match String.split_on_char '-' (String.trim r) with
        | [ a; b ] -> acc + int_of_string b - int_of_string a + 1
        | [ a ] when a <> "" -> acc + 1
        | _ -> acc)
      0 (String.split_on_char ',' s)
  in
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> 0
  | s ->
    List.find_map
      (fun l -> Scanf.sscanf_opt l "Cpus_allowed_list: %s" count_ranges)
      (String.split_on_char '\n' s)
    |> Option.value ~default:0

let git_commit () =
  let read p = try Some (String.trim (In_channel.with_open_text p In_channel.input_all)) with Sys_error _ -> None in
  match read ".git/HEAD" with
  | Some h when String.starts_with ~prefix:"ref: " h ->
    let r = String.sub h 5 (String.length h - 5) in
    (match read (".git/" ^ r) with
    | Some c -> c
    | None ->
      Option.bind (read ".git/packed-refs") (fun p ->
          List.find_map
            (fun l ->
              match String.split_on_char ' ' l with
              | [ c; n ] when n = r -> Some c
              | _ -> None)
            (String.split_on_char '\n' p))
      |> Option.value ~default:"unknown")
  | Some c -> c
  | None -> "unknown"

let child args =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: "run" :: args)) in
  let rec lines acc =
    match In_channel.input_line ic with Some l -> lines (l :: acc) | None -> List.rev acc
  in
  let out = lines [] in
  let code = match Unix.close_process_in ic with Unix.WEXITED c -> c | _ -> 255 in
  (out, code)

let prefixed p l =
  if String.starts_with ~prefix:p l then
    Some (String.sub l (String.length p) (String.length l - String.length p))
  else None

(* [--smoke]: every metric BENCHMARK.json names comes out with its unit,
   and the catalog names no metric BENCHMARK.json lacks. *)
let smoke_check bench ~workload metrics =
  let declared key =
    match member key bench with
    | Json.Arr l -> List.map (fun m -> (to_str (member "name" m), to_str (member "unit" m))) l
    | _ -> []
  in
  let want = declared "end_to_end" @ declared "per_layer" in
  let got =
    match metrics with
    | Json.Obj l -> List.map (fun (n, m) -> (n, to_str (member "unit" m))) l
    | _ -> []
  in
  let missing = List.filter (fun m -> not (List.mem m got)) want in
  let extra = List.filter (fun m -> not (List.mem m want)) got in
  List.iter (fun (n, u) -> Printf.printf "SMOKE %s: %s [%s] not emitted\n" workload n u) missing;
  List.iter (fun (n, u) -> Printf.printf "SMOKE %s: %s [%s] not in BENCHMARK.json\n" workload n u) extra;
  missing = [] && extra = []

let many ~workloads ~seed ~seconds ~trace ~smoke ~repeat ~out =
  let bench = if smoke then read_json "BENCHMARK.json" else Json.Null in
  let ok = ref true in
  let runs =
    List.concat_map
      (fun workload ->
        List.init repeat (fun i ->
            let seed = seed + i in
            let args =
              [ "--workload"; workload; "--seed"; string_of_int seed; "--seconds";
                Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0") ]
              @ if smoke then [ "--smoke" ] else []
            in
            let lines, code = child args in
            let info = ref Json.Null and result = ref Json.Null in
            List.iter
              (fun l ->
                match prefixed "run-info: " l with
                | Some j -> info := Result.value (Json.parse j) ~default:Json.Null
                | None ->
                  if String.starts_with ~prefix:"{\"correct\"" l then
                    result := Result.value (Json.parse l) ~default:Json.Null
                  else if not smoke then Printf.printf "[%s seed %d] %s\n%!" workload seed l)
              lines;
            let correct = member "correct" !result = Json.Bool true in
            let smoke_ok = (not smoke) || smoke_check bench ~workload (member "metrics" !result) in
            if code <> 0 || not (correct && smoke_ok) then ok := false;
            Printf.printf "%s seed %d: exit %d, correct %b, attempted %g, failed %g\n%!" workload
              seed code correct
              (to_num (member "attempted" !result))
              (to_num (member "failed" !result));
            Json.Obj
              [
                ("workload", str workload);
                ("seed", int seed);
                ("exit", int code);
                ("correct", Json.Bool correct);
                ("attempted", member "attempted" !result);
                ("failed", member "failed" !result);
                ("valid", member "valid" !info);
                ("samples", member "samples" !info);
                ("metrics", member "metrics" !result);
              ]))
      workloads
  in
  (if smoke then
     let names key =
       match member key bench with
       | Json.Arr l -> List.map (fun w -> to_str (member "name" w)) l
       | _ -> []
     in
     if names "workloads" <> Catalog.workloads then begin
       print_endline "SMOKE: BENCHMARK.json workloads differ from the benchmark's";
       ok := false
     end);
  Option.iter
    (fun path ->
      let meta =
        Json.Obj
          [
            ("nproc", int (nproc ()));
            ("recommended_domain_count", int (Domain.recommended_domain_count ()));
            ("ocaml", str Sys.ocaml_version);
            ("commit", str (git_commit ()));
            ("seconds", num seconds);
            ("trace", Json.Bool trace);
            ("first_seed", int seed);
            ("repeat", int repeat);
          ]
      in
      Out_channel.with_open_text path (fun oc ->
          output_string oc (Json.to_string (Json.Obj [ ("meta", meta); ("runs", Json.Arr runs) ]));
          output_char oc '\n');
      Printf.printf "wrote %s\n" path)
    out;
  if !ok then 0 else 1

(* ------------------------------------------------------------------ *)
(* compare A.json B.json *)

let compare_files a b =
  let bench = read_json "BENCHMARK.json" in
  (* incorrect runs and runs whose load generator fell behind are left out *)
  let runs path =
    let all = match member "runs" (read_json path) with Json.Arr l -> l | _ -> [] in
    let kept =
      List.filter
        (fun r -> member "correct" r = Json.Bool true && member "valid" r <> Json.Bool false)
        all
    in
    Printf.printf "%s: %d runs, %d left out as incorrect or invalid\n" path (List.length kept)
      (List.length all - List.length kept);
    kept
  in
  let ra = runs a in
  let rb = runs b in
  let values rs workload metric =
    List.filter_map
      (fun r ->
        if to_str (member "workload" r) <> workload then None
        else
          match member metric (member "metrics" r) with
          | Json.Null -> None
          | m -> Some (to_num (member "value" m)))
      rs
  in
  let worse = ref 0 in
  Printf.printf "%-18s %-24s %26s %26s %8s %13s %6s  %s\n" "workload" "metric" "A median [q1,q3]"
    "B median [q1,q3]" "change" "spread A/B" "bound" "verdict";
  List.iter
    (fun w ->
      let workload = to_str (member "name" w) in
      List.iter
        (fun m ->
          let metric = to_str (member "name" m) in
          let lower = member "better" m = Json.Str "lower" in
          let bound = to_num (member "bound" m) in
          let va = values ra workload metric and vb = values rb workload metric in
          if va <> [] && vb <> [] then begin
            let q1a, ma, q3a = Quant.quartiles va and q1b, mb, q3b = Quant.quartiles vb in
            let rel x = if ma = 0. then 0. else x /. Float.abs ma in
            let spread q1 q3 med = if med = 0. then 0. else (q3 -. q1) /. Float.abs med in
            let sa = spread q1a q3a ma and sb = spread q1b q3b mb in
            let change = rel (mb -. ma) in
            let worse_by = if lower then change else -.change in
            let better x y = if lower then x < y else x > y in
            let all_better =
              List.for_all (fun b -> List.for_all (fun a -> better b a) va) vb
            in
            let verdict =
              if worse_by > bound then if Float.max sa sb > bound then "unresolved" else "WORSE"
              else if Float.max sa sb > bound && not all_better then "unresolved"
              else "ok"
            in
            if verdict = "WORSE" then incr worse;
            Printf.printf "%-18s %-24s %10.4g [%6.4g,%6.4g] %10.4g [%6.4g,%6.4g] %+7.1f%% %5.1f%%/%5.1f%% %5.1f%%  %s\n"
              workload metric ma q1a q3a mb q1b q3b (100. *. change) (100. *. sa) (100. *. sb)
              (100. *. bound) verdict
          end)
        (match member "end_to_end" bench with Json.Arr l -> l | _ -> []))
    (match member "workloads" bench with Json.Arr l -> l | _ -> []);
  Printf.printf "%d metric(s) worse than their bound\n" !worse;
  if !worse = 0 then 0 else 1

(* ------------------------------------------------------------------ *)

let usage =
  "usage: main.exe run [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--chrome FILE]\n\
  \                    [--repeat N] [--out FILE] [--smoke]\n\
  \       main.exe compare A.json B.json"

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 30. and trace = ref 0 in
  let chrome = ref None and repeat = ref 1 and out = ref None and smoke = ref false in
  let files = ref [] in
  let specs =
    [
      ("--workload", Arg.String (fun w -> workload := Some w), "W one of the workloads (default: all)");
      ("--seed", Arg.Set_int seed, "N input seed (default 1; repeats use N, N+1, ...)");
      ("--seconds", Arg.Set_float seconds, "S measured time per run (default 30)");
      ("--trace", Arg.Set_int trace, "0|1 1: traced run, per-layer metrics");
      ("--chrome", Arg.String (fun f -> chrome := Some f), "FILE Chrome trace of a traced run");
      ("--repeat", Arg.Set_int repeat, "N runs per workload, seeds N apart (default 1)");
      ("--out", Arg.String (fun f -> out := Some f), "FILE write every run's result here");
      ("--smoke", Arg.Set smoke, " 2-second traced runs of every workload, checked against BENCHMARK.json");
    ]
  in
  let fail msg =
    prerr_endline msg;
    prerr_endline usage;
    exit 2
  in
  let parse () =
    try Arg.parse_argv ~current:(ref 1) Sys.argv specs (fun f -> files := f :: !files) usage
    with Arg.Bad m | Arg.Help m -> fail m
  in
  let code =
    match Array.to_list Sys.argv with
    | _ :: "compare" :: _ -> (
      parse ();
      match List.rev !files with [ a; b ] -> compare_files a b | _ -> fail "compare needs two files")
    | _ :: "run" :: _ -> (
      parse ();
      if !files <> [] then fail "run takes no positional arguments";
      (match !workload with
      | Some w when not (List.mem w Catalog.workloads) ->
        fail ("unknown workload " ^ w ^ " (known: " ^ String.concat ", " Catalog.workloads ^ ")")
      | _ -> ());
      let trace = !trace = 1 || !smoke in
      let seconds = if !smoke then 2. else !seconds in
      match !workload with
      | Some workload when !repeat = 1 && !out = None ->
        single ~workload ~seed:!seed ~seconds ~trace ~smoke:!smoke ~chrome:!chrome
      | _ ->
        let workloads = match !workload with Some w -> [ w ] | None -> Catalog.workloads in
        many ~workloads ~seed:!seed ~seconds ~trace ~smoke:!smoke ~repeat:(max 1 !repeat) ~out:!out)
    | _ -> fail "expected a subcommand"
  in
  exit code
