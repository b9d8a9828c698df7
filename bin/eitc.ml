(* eitc — compiler driver for the EIT programming support toolchain.

   Subcommands:
     info      print graph statistics of a kernel (raw and merged)
     schedule  schedule a kernel with memory allocation
     simulate  schedule, code-generate and run on the simulator
     overlap   overlapped execution of M iterations (manual vs automated)
     modulo    modulo-schedule a kernel (with/without reconfigurations)
     export    emit the IR as XML or DOT *)

module Vecsched = Vecsched_core.Vecsched

open Cmdliner

let kernels = List.map fst Vecsched.kernels

let kernel_arg =
  let doc =
    Printf.sprintf "Kernel to process: %s." (String.concat ", " kernels)
  in
  Arg.(required & pos 0 (some (enum (List.map (fun k -> (k, k)) kernels))) None
       & info [] ~docv:"KERNEL" ~doc)

let budget_arg =
  let doc = "Solver budget in milliseconds." in
  Arg.(value & opt float 10_000. & info [ "budget" ] ~docv:"MS" ~doc)

let slots_arg =
  let doc = "Restrict the number of usable memory slots." in
  Arg.(value & opt (some int) None & info [ "slots" ] ~docv:"N" ~doc)

let preset_arg =
  let doc = "Architecture preset: eit, wide or mini." in
  Arg.(value
       & opt (enum (List.map (fun (n, a) -> (n, a)) Eit.Arch.presets))
           Eit.Arch.default
       & info [ "arch" ] ~docv:"PRESET" ~doc)

let arch_of preset = function
  | None -> preset
  | Some n -> Eit.Arch.with_slots preset n

let compile kernel =
  (Vecsched.compile ((List.assoc kernel Vecsched.kernels) ()), kernel)

(* ------------------------------------------------------------------ *)
(* Observability surface: `--trace FILE` attaches a Chrome trace_event
   sink (open the file in ui.perfetto.dev or about://tracing),
   `--metrics` attaches an in-memory aggregator and prints the summary
   tables afterwards.  With neither flag no sink is attached and the
   instrumented hot paths cost one atomic load each. *)

let trace_file_arg =
  Arg.(value
       & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:
             "Write a Chrome trace_event JSON file covering the solve (and \
              the simulation, for $(b,simulate)).  Load it in Perfetto or \
              about://tracing.")

let metrics_arg =
  Arg.(value & flag
       & info [ "metrics" ]
           ~doc:
             "Print aggregated metrics after the run: span totals, event \
              counts, gauge peaks and the per-propagator profile table.")

(* The four --metrics tables, from the live summary: spans by name
   over every track, instant counts, counter series, propagator rows. *)
let print_metrics (s : Obs.Analyze.summary) =
  let spans =
    List.fold_left
      (fun acc ((_, name), (c, tot)) ->
        let c0, t0 = Option.value ~default:(0, 0.) (List.assoc_opt name acc) in
        (name, (c0 + c, t0 +. tot)) :: List.remove_assoc name acc)
      [] s.sm_span_stats
    |> List.sort (fun (_, (_, a)) (_, (_, b)) -> compare b a)
  in
  if spans <> [] then begin
    Format.printf "@.%-24s %8s %14s@." "span" "count" "total (ms)";
    List.iter
      (fun (n, (c, tot)) -> Format.printf "%-24s %8d %14.2f@." n c (tot /. 1000.))
      spans
  end;
  if s.sm_counts <> [] then begin
    Format.printf "@.%-24s %8s@." "event" "count";
    List.iter (fun (n, c) -> Format.printf "%-24s %8d@." n c) s.sm_counts
  end;
  if s.sm_gauges <> [] then begin
    Format.printf "@.%-24s %10s %10s@." "gauge" "last" "max";
    List.iter
      (fun (n, (last, mx)) -> Format.printf "%-24s %10.0f %10.0f@." n last mx)
      s.sm_gauges
  end;
  if s.sm_profiles <> [] then begin
    Format.printf "@.%-22s %8s %8s %8s %8s %12s %8s@." "propagator" "runs"
      "wakes" "prunes" "entails" "time (ms)" "workers";
    List.iter
      (fun (n, (p : Obs.Analyze.profile)) ->
        Format.printf "%-22s %8d %8d %8d %8d %12.2f %8d@." n p.a_runs p.a_wakes
          p.a_prunes p.a_entails p.a_time_ms p.a_rows)
      s.sm_profiles
  end

(* Attach the requested sinks around [f], detach afterwards (flushing
   the trace file) and only then print the metrics tables, so they land
   after the run's own output. *)
let with_obs ?(other_data = []) ~trace ~metrics f =
  let chrome =
    Option.map
      (fun path -> Obs.attach (Obs.Chrome.sink ~other_data ~path ()))
      trace
  in
  let live =
    if metrics then begin
      let a = Obs.Analyze.create () in
      Some (a, Obs.attach (Obs.Analyze.sink a))
    end
    else None
  in
  let detach_all () =
    Option.iter Obs.detach chrome;
    Option.iter (fun (_, h) -> Obs.detach h) live
  in
  let r =
    match f () with
    | r -> r
    | exception e ->
      detach_all ();
      raise e
  in
  detach_all ();
  Option.iter (fun path -> Format.printf "wrote trace %s@." path) trace;
  Option.iter (fun (a, _) -> print_metrics (Obs.Analyze.summary a)) live;
  r

(* ------------------------------------------------------------------ *)

let info_cmd =
  let run kernel =
    let c, name = compile kernel in
    Format.printf "%s raw:    %a@." name Vecsched.Stats.pp
      (Vecsched.Stats.of_ir c.Vecsched.raw);
    Format.printf "%s merged: %a (%d fusions)@." name Vecsched.Stats.pp
      c.Vecsched.stats c.Vecsched.fusions;
    0
  in
  Cmd.v (Cmd.info "info" ~doc:"Print kernel graph statistics")
    Term.(const run $ kernel_arg)

(* The status line + exit-code contract (see README): 0 optimal or
   CP-feasible, 2 fallback schedule (degraded), 3 infeasible, 4 crashed
   with no usable schedule. *)
let report_outcome name arch o =
  let code = Sched.Solve.exit_code o in
  Format.printf "status: %a (engine=%a, exit %d)@." Sched.Solve.pp_status
    o.Sched.Solve.status Sched.Solve.pp_engine o.Sched.Solve.engine code;
  List.iter
    (fun c ->
      Format.printf "  crash: worker %d: %s@." c.Fd.Portfolio.worker
        c.Fd.Portfolio.reason)
    o.Sched.Solve.crashes;
  Option.iter (Format.printf "  fallback: %s@.") o.Sched.Solve.fallback_error;
  (match o.Sched.Solve.validation with
  | Ok () -> ()
  | Error r -> Format.printf "  validation: %a@." Sched.Validate.pp_report r);
  (match o.Sched.Solve.schedule with
  | Some sch ->
    Format.printf
      "%s: %a, makespan=%d cc, %d/%d slots used, %d nodes, %d fails, %d \
       props, %.0f ms@."
      name Sched.Solve.pp_status o.Sched.Solve.status
      sch.Sched.Schedule.makespan
      (Sched.Schedule.slots_used sch)
      (Eit.Arch.slots arch) o.stats.Fd.Search.nodes o.stats.Fd.Search.failures
      o.stats.Fd.Search.propagations o.stats.Fd.Search.time_ms
  | None ->
    Format.printf "%s: %a after %.0f ms@." name Sched.Solve.pp_status
      o.Sched.Solve.status o.stats.Fd.Search.time_ms);
  (o.Sched.Solve.schedule, code)

let deadline_arg =
  let doc =
    "Hard wall-clock deadline in milliseconds for the whole solve, enforced \
     inside the propagation fixpoint.  On expiry the best CP incumbent (or \
     the heuristic fallback) is returned instead of overrunning."
  in
  Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"MS" ~doc)

let deadline_of = function
  | None -> Fd.Deadline.none
  | Some ms -> Fd.Deadline.after_ms ms

(* Labels stamped into the trace's otherData so `trace-report` /
   `trace-diff` can head their output with what was actually run. *)
let run_labels ~name ~arch ~parallel =
  [
    ("kernel", Obs.S name);
    ( "mode",
      Obs.S
        (if parallel > 1 then Printf.sprintf "portfolio-%d" parallel
         else "sequential") );
    ("slots", Obs.I (Eit.Arch.slots arch));
  ]

let schedule_cmd =
  let run kernel budget deadline slots preset verbose parallel trace metrics
      cache_n cache_file =
    let c, name = compile kernel in
    let arch = arch_of preset slots in
    (* --cache-file without --cache still enables a (default-sized)
       cache: the file is the point of carrying one across runs.  A file
       that exists but does not load is not ours to replace: the run
       starts from an empty cache and never saves over it. *)
    let cache, save_to =
      if cache_n > 0 || cache_file <> None then begin
        let capacity = if cache_n > 0 then cache_n else 16 in
        match cache_file with
        | Some path when Sys.file_exists path -> (
          match Cache.load ~capacity path with
          | Ok cc -> (Some cc, cache_file)
          | Error msg ->
            Format.eprintf
              "warning: ignoring cache file %s: %s (not saving over it)@." path
              msg;
            (Some (Cache.create ~capacity ()), None))
        | _ -> (Some (Cache.create ~capacity ()), cache_file)
      end
      else (None, None)
    in
    let o =
      with_obs ~other_data:(run_labels ~name ~arch ~parallel) ~trace ~metrics
        (fun () ->
          Vecsched.schedule ~budget_ms:budget ~deadline:(deadline_of deadline)
            ~arch ~parallel ?cache c)
    in
    (match cache with
    | Some cc ->
      let s = Cache.stats cc in
      Format.printf "cache: %s (hits=%d misses=%d evictions=%d entries=%d)@."
        (if o.Sched.Solve.from_cache then "hit" else "miss")
        s.Cache.hits s.Cache.misses s.Cache.evictions (Cache.length cc);
      Option.iter (fun path -> Cache.save cc path) save_to
    | None -> ());
    match report_outcome name arch o with
    | Some sch, code ->
      if verbose then begin
        Format.printf "%a" Sched.Schedule.pp sch;
        Format.printf "%a" Sched.Schedule.pp_gantt sch
      end;
      code
    | None, code -> code
  in
  let verbose =
    Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Print the full schedule.")
  in
  let parallel =
    Arg.(value
         & opt int 0
         & info [ "j"; "parallel" ] ~docv:"N"
             ~doc:
               "Run a cooperative portfolio of $(docv) diversified search \
                strategies on separate cores (0 or 1 = sequential).")
  in
  let cache_arg =
    Arg.(value
         & opt int 0
         & info [ "cache" ] ~docv:"N"
             ~doc:
               "Consult an $(docv)-entry LRU solution cache keyed on the \
                canonical problem form; an identical request replays the \
                validated cached schedule with zero search work.  Pair with \
                $(b,--cache-file) to persist it across invocations.")
  in
  let cache_file_arg =
    Arg.(value
         & opt (some string) None
         & info [ "cache-file" ] ~docv:"PATH"
             ~doc:
               "Load the solution cache from $(docv) before solving (if it \
                exists) and save it back afterwards.  A $(docv) that exists \
                but is not a cache file is ignored with a warning and left \
                unchanged.")
  in
  Cmd.v
    (Cmd.info "schedule" ~doc:"Schedule a kernel with memory allocation")
    Term.(const run $ kernel_arg $ budget_arg $ deadline_arg $ slots_arg
          $ preset_arg $ verbose $ parallel $ trace_file_arg $ metrics_arg
          $ cache_arg $ cache_file_arg)

let heuristic_cmd =
  let run kernel slots preset =
    let c, name = compile kernel in
    let arch = arch_of preset slots in
    match Sched.Heuristic.run ~arch c.Vecsched.ir with
    | Ok sch ->
      Format.printf "%s (greedy): makespan=%d cc, %d/%d slots used, valid=%b@."
        name sch.Sched.Schedule.makespan
        (Sched.Schedule.slots_used sch)
        (Eit.Arch.slots arch)
        (Sched.Schedule.is_valid sch);
      0
    | Error e ->
      Format.printf "%s (greedy): failed -- %s@." name e;
      1
  in
  Cmd.v
    (Cmd.info "heuristic"
       ~doc:"Schedule with the greedy list scheduler instead of the CP model")
    Term.(const run $ kernel_arg $ slots_arg $ preset_arg)

let simulate_cmd =
  let run kernel budget slots preset print_trace trace metrics =
    let c, name = compile kernel in
    let arch = arch_of preset slots in
    with_obs ~other_data:(run_labels ~name ~arch ~parallel:0) ~trace ~metrics
      (fun () ->
        let o = Vecsched.schedule ~budget_ms:budget ~arch c in
        match report_outcome name arch o with
        | Some sch, _ -> (
          if print_trace then begin
            let p = Sched.Codegen.program sch in
            ignore
              (Eit.Machine.run
                 ~trace:(fun ev ->
                   Format.printf "%a@." Eit.Machine.pp_trace_event ev)
                 p)
          end;
          match Vecsched.run_on_simulator sch with
          | Ok () ->
            Format.printf
              "simulation: all %d operation results match the reference@."
              (List.length (Vecsched.Ir.op_nodes c.Vecsched.ir));
            0
          | Error e ->
            Format.printf "simulation FAILED: %s@." e;
            1)
        | None, code -> code)
  in
  let print_trace_arg =
    Arg.(value & flag & info [ "print-trace" ]
         ~doc:"Print the cycle-by-cycle execution trace as text.")
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Schedule, generate code and verify on the cycle-accurate simulator")
    Term.(const run $ kernel_arg $ budget_arg $ slots_arg $ preset_arg
          $ print_trace_arg $ trace_file_arg $ metrics_arg)

let overlap_cmd =
  let run kernel budget m =
    let c, name = compile kernel in
    let o = Vecsched.schedule ~budget_ms:budget c in
    match o.Sched.Solve.schedule with
    | Some sch ->
      Format.printf "%s automated: %a@." name Sched.Overlap.pp
        (Sched.Overlap.run sch ~m);
      Format.printf "%s manual:    %a@." name Sched.Overlap.pp
        (Sched.Manual_baseline.overlapped c.Vecsched.ir Eit.Arch.default ~m);
      0
    | None -> 1
  in
  let m_arg =
    Arg.(value & opt int 12 & info [ "m"; "iterations" ] ~docv:"M"
         ~doc:"Number of iterations to overlap.")
  in
  Cmd.v
    (Cmd.info "overlap" ~doc:"Overlapped execution of M iterations (Table 2)")
    Term.(const run $ kernel_arg $ budget_arg $ m_arg)

let modulo_cmd =
  let run kernel budget including =
    let c, name = compile kernel in
    let solve =
      if including then Sched.Modulo.solve_including else Sched.Modulo.solve_excluding
    in
    match solve ~budget_ms:budget c.Vecsched.ir with
    | Some r ->
      Format.printf "%s (%s reconfigurations): %a@." name
        (if including then "including" else "excluding")
        Sched.Modulo.pp r;
      (match Sched.Validate.modulo c.Vecsched.ir Eit.Arch.default r with
      | Ok () -> 0
      | Error rep ->
        Format.printf "kernel INVALID: %a@." Sched.Validate.pp_report rep;
        1)
    | None ->
      Format.printf "%s: no modulo schedule found within budget@." name;
      1
  in
  let including =
    Arg.(value & flag & info [ "include-reconfigurations" ]
         ~doc:"Optimize II + reconfigurations jointly.")
  in
  Cmd.v
    (Cmd.info "modulo" ~doc:"Modulo-schedule a kernel (Table 3)")
    Term.(const run $ kernel_arg $ budget_arg $ including)

let report_cmd =
  let run kernel budget =
    let c, name = compile kernel in
    let report = Sched.Report.build ~budget_ms:budget ~name c.Vecsched.ir in
    Format.printf "%a@." Sched.Report.pp report;
    0
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"Full kernel report: graph, bounds, schedule, Gantt, memory map,              utilization, pipelining")
    Term.(const run $ kernel_arg $ budget_arg)

let code_cmd =
  let run kernel budget =
    let c, name = compile kernel in
    let o = Vecsched.schedule ~budget_ms:budget c in
    match o.Sched.Solve.schedule with
    | Some sch -> (
      let p = Sched.Codegen.program sch in
      match Eit.Encode.encode_result p with
      | Error e ->
        Format.printf "encode error: %s@." e;
        4
      | Ok img -> (
        Format.printf "%s: %d words, %d pool constants, %d bytes@." name
          (Array.length img.Eit.Encode.words)
          (Array.length img.Eit.Encode.pool)
          (Eit.Encode.size_bytes img);
        Array.iter
          (fun w -> Format.printf "  %016Lx  %a@." w Eit.Encode.pp_word w)
          img.Eit.Encode.words;
        (* round-trip sanity *)
        match
          Eit.Encode.decode_result ~arch:p.Eit.Instr.arch
            ~inputs:p.Eit.Instr.inputs ~outputs:p.Eit.Instr.outputs img
        with
        | Error e ->
          Format.printf "decode error: %s@." e;
          4
        | Ok p' ->
          if p'.Eit.Instr.instrs = p.Eit.Instr.instrs then begin
            Format.printf "round-trip: OK@.";
            0
          end
          else begin
            Format.printf "round-trip: MISMATCH@.";
            1
          end))
    | None -> Sched.Solve.exit_code o
  in
  Cmd.v
    (Cmd.info "code"
       ~doc:"Emit the binary configuration-memory image (with disassembly)")
    Term.(const run $ kernel_arg $ budget_arg)

let asm_cmd =
  let run kernel budget out =
    let c, name = compile kernel in
    let o = Vecsched.schedule ~budget_ms:budget c in
    match o.Sched.Solve.schedule with
    | Some sch ->
      let p = Sched.Codegen.program sch in
      (match out with
      | Some path ->
        Eit.Asm.save path p;
        Format.printf "wrote %s@." path
      | None -> print_string (Eit.Asm.print p));
      ignore name;
      0
    | None -> 1
  in
  let out_arg =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
         ~doc:"Write to a file instead of stdout.")
  in
  Cmd.v
    (Cmd.info "asm" ~doc:"Emit the scheduled kernel as textual assembly")
    Term.(const run $ kernel_arg $ budget_arg $ out_arg)

let run_asm_cmd =
  let run path print_trace trace metrics =
    match Eit.Asm.load path with
    | Error e ->
      Format.printf "parse error: %s@." e;
      1
    | Ok p -> (
      match Eit.Instr.validate_structure p with
      | Error e ->
        Format.printf "invalid program: %s@." e;
        1
      | Ok () ->
        with_obs
          ~other_data:[ ("kernel", Obs.S path); ("mode", Obs.S "run-asm") ]
          ~trace ~metrics
          (fun () ->
            match
              Eit.Machine.run
                ~trace:(fun ev ->
                  if print_trace then
                    Format.printf "%a@." Eit.Machine.pp_trace_event ev)
                p
            with
            | result ->
              Format.printf "completed at cycle %d, %d reconfigurations@."
                result.Eit.Machine.cycles result.Eit.Machine.reconfigurations;
              List.iter
                (fun (node, v) ->
                  Format.printf "  n%d = %s@." node (Eit.Value.to_string v))
                (Eit.Machine.output_values result p);
              0
            | exception Eit.Machine.Sim_error e ->
              Format.printf "simulation error: %a@." Eit.Machine.pp_error e;
              1))
  in
  let path_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
         ~doc:"Assembly file to run.")
  in
  (* `--trace` used to be this text flag; it now means `--trace FILE`
     everywhere (Chrome JSON), and the text trace is `--print-trace`,
     matching `simulate`. *)
  let print_trace_arg =
    Arg.(value & flag & info [ "print-trace" ]
         ~doc:"Print the cycle-by-cycle execution trace as text.")
  in
  Cmd.v
    (Cmd.info "run-asm"
       ~doc:"Assemble, validate and simulate a hand-written program")
    Term.(const run $ path_arg $ print_trace_arg $ trace_file_arg $ metrics_arg)

(* Input-file failures (missing, unreadable, unparseable) exit 2 on
   every offline reader below, distinct from analysis verdicts (exit
   1), so scripts can tell "your trace regressed" from "you pointed me
   at nothing". *)
let input_error path msg =
  Format.eprintf "eitc: %s: %s@." path msg;
  2

let trace_check_cmd =
  let run path lenient =
    if not (Sys.file_exists path) then
      input_error path "no such file"
    else
      match Obs.Check.trace_file ~lenient path with
      | Ok n ->
        Format.printf "%s: OK (%d events, spans balanced)@." path n;
        0
      | Error e ->
        Format.printf "%s: INVALID -- %s@." path e;
        1
  in
  let path_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
         ~doc:"Chrome trace_event JSON file (from --trace) to validate.")
  in
  let lenient_arg =
    Arg.(value & flag
         & info [ "lenient" ]
             ~doc:
               "Tolerate truncation: unmatched End events and spans left \
                open at the end of the trace pass (a flight-recorder ring \
                dump is a suffix of the request's stream, so both are \
                expected there).  Misnested or time-reversed spans still \
                fail.")
  in
  Cmd.v
    (Cmd.info "trace-check"
       ~doc:
         "Validate a trace file emitted by --trace: JSON parses, every event \
          is well-formed, Begin/End spans nest per track")
    Term.(const run $ path_arg $ lenient_arg)

let import_cmd =
  let run path sched budget trace metrics =
    match Vecsched.Xml.load_file path with
    | Error e ->
      (* positioned, no backtrace: the parser is total *)
      Format.printf "%s: %a@." path Vecsched.Xml.pp_error e;
      1
    | Ok g ->
      Format.printf "%s: %a@." path Vecsched.Stats.pp (Vecsched.Stats.of_ir g);
      if sched then
        with_obs
          ~other_data:(run_labels ~name:path ~arch:Eit.Arch.default ~parallel:0)
          ~trace ~metrics
          (fun () ->
            let c = Vecsched.compile g in
            let o = Vecsched.schedule ~budget_ms:budget c in
            snd (report_outcome path Eit.Arch.default o))
      else 0
  in
  let path_arg =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
         ~doc:"XML graph file to import.")
  in
  let sched_arg =
    Arg.(value & flag & info [ "schedule" ]
         ~doc:"Also compile and schedule the imported graph.")
  in
  Cmd.v
    (Cmd.info "import"
       ~doc:"Parse an exported XML graph (reporting positioned errors)")
    Term.(const run $ path_arg $ sched_arg $ budget_arg $ trace_file_arg
          $ metrics_arg)

let trace_report_cmd =
  let run path flame utilization =
    match Obs.Analyze.of_file path with
    | Error e -> input_error path e
    | Ok s ->
      Obs.Analyze.pp_report ~utilization Format.std_formatter s;
      (match flame with
      | Some out ->
        Obs.Analyze.write_folded out s;
        Format.printf "@.wrote %s (flamegraph.pl / speedscope input)@." out
      | None -> ());
      0
  in
  let path_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
         ~doc:"Chrome trace_event JSON file (from --trace) to analyze.")
  in
  let flame_arg =
    Arg.(value & opt (some string) None
         & info [ "flame" ] ~docv:"OUT"
             ~doc:
               "Also write the span forest as collapsed stacks (one \
                $(i,a;b;c value) line per stack; feed to flamegraph.pl or \
                speedscope).")
  in
  let utilization_arg =
    Arg.(value & flag
         & info [ "utilization" ]
             ~doc:
               "Include machine utilization tables derived from the pid-2 \
                cycle timeline: lane busy %, per-functional-unit busy \
                cycles, bank-port pressure histograms, peak simultaneous \
                vector accesses.")
  in
  Cmd.v
    (Cmd.info "trace-report"
       ~doc:
         "Analyze a trace: span-tree table with inclusive/exclusive times, \
          critical path, propagator profiles, optional flame-graph export \
          and machine utilization")
    Term.(const run $ path_arg $ flame_arg $ utilization_arg)

let trace_diff_cmd =
  let run before after threshold =
    match (Obs.Analyze.of_file before, Obs.Analyze.of_file after) with
    | Error e, _ -> input_error before e
    | _, Error e -> input_error after e
    | Ok b, Ok a -> (
      let d = Obs.Analyze.diff b a in
      Obs.Analyze.pp_diff Format.std_formatter d;
      match Obs.Analyze.regressions ~threshold d with
      | [] ->
        Format.printf "@.no watched-metric regressions (threshold %.0f%%)@."
          threshold;
        0
      | rs ->
        List.iter (fun r -> Format.printf "@.REGRESSION %s" r) rs;
        Format.printf "@.";
        1)
  in
  let before_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"BEFORE"
         ~doc:"Baseline trace file.")
  in
  let after_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"AFTER"
         ~doc:"Candidate trace file.")
  in
  let threshold_arg =
    Arg.(value & opt float 10.
         & info [ "threshold" ] ~docv:"PCT"
             ~doc:
               "Fail (exit 1) when a watched metric — total or \
                per-propagator run counts, search branch/fail tallies — \
                grows by more than $(docv) percent.  Wall-clock time is \
                reported but never gates.")
  in
  Cmd.v
    (Cmd.info "trace-diff"
       ~doc:
         "Structurally diff two traces (spans matched by name and track, \
          propagator profiles, event tallies) and gate on watched-metric \
          regressions")
    Term.(const run $ before_arg $ after_arg $ threshold_arg)

(* `eitc serve` — the long-lived batch scheduling front end: one JSON
   request per stdin line, one JSON response per stdout line (see
   docs/SERVICE.md for the schema and the per-response exit-code
   contract).  Responses are written in completion order by whichever
   pool domain finishes, hence the stdout mutex.  The process itself
   exits 0 on clean EOF: per-request failures are data, not process
   failures. *)
let serve_cmd =
  let run pool queue budget grace retries backoff seed cache trace
      metrics metrics_file stats_interval logfile tail_keep flight_dir
      flight_buf chaos_wedge =
    with_obs ~other_data:[ ("mode", Obs.S "serve") ] ~trace ~metrics (fun () ->
        (* One live registry feeds the service instruments, the solver
           distributions and the exporter alike. *)
        let reg = Obs.Metrics.create () in
        (* `--chaos-wedge SEQ` wedges the first attempt of the SEQ-th
           admitted request (chaos site id = seq*8 + attempt), so the
           watchdog -> flight-dump -> postmortem pipeline can be
           exercised end to end by smoke.sh without a real hang. *)
        let chaos =
          Option.map
            (fun sq ->
              Fd.Chaos.create ~wedge_at:[ ((sq * 8) + 1, 1) ] ~seed ())
            chaos_wedge
        in
        let config =
          {
            Serve.Service.default_config with
            pool;
            queue;
            default_budget_ms = budget;
            grace_ms = grace;
            max_retries = retries;
            backoff_base_ms = backoff;
            seed;
            chaos;
            cache_capacity = cache;
            metrics = Some reg;
            flight_dir;
            flight_buf;
            tail_keep;
          }
        in
        let svc = Serve.Service.create ~config () in
        let exporter =
          Option.map
            (fun path ->
              Obs.Metrics.exporter_start ~interval_ms:stats_interval
                ~prom_path:(path ^ ".prom") ~path reg)
            metrics_file
        in
        let log_oc = Option.map open_out logfile in
        let out_m = Mutex.create () in
        let print line =
          Mutex.lock out_m;
          print_string line;
          print_newline ();
          flush stdout;
          Mutex.unlock out_m
        in
        let log r =
          match log_oc with
          | None -> ()
          | Some oc ->
            let line = Serve.Wire.log_line r in
            Mutex.lock out_m;
            output_string oc line;
            output_char oc '\n';
            flush oc;
            Mutex.unlock out_m
        in
        let rec loop n =
          match input_line stdin with
          | exception End_of_file -> ()
          | line ->
            (if String.trim line <> "" then
               let default_id = Printf.sprintf "line-%d" n in
               match Serve.Wire.parse_line ~default_id line with
               | Error msg -> print (Serve.Wire.error_line ~id:default_id msg)
               | Ok (Serve.Wire.Stats id) ->
                 (* answered inline — a health probe must not queue
                    behind solves *)
                 print (Serve.Wire.stats_line ~id (Serve.Service.health svc))
               | Ok (Serve.Wire.Request req) ->
                 ignore
                   (Serve.Service.submit svc req ~on_complete:(fun r ->
                        print (Serve.Wire.response_line r);
                        log r)));
            loop (n + 1)
        in
        (* The crash black box: if anything is about to take the daemon
           down, dump every live flight ring first so the postmortem
           starts from evidence, not from a bare backtrace. *)
        (try loop 1
         with e ->
           let bt = Printexc.get_raw_backtrace () in
           (match
              Serve.Service.flight_dump_all svc ~reason:"daemon-fatal"
            with
           | Some p ->
             Format.eprintf "eitc serve: fatal %s -- flight dump %s@."
               (Printexc.to_string e) p
           | None -> ());
           Printexc.raise_with_backtrace e bt);
        Serve.Service.shutdown svc;
        Option.iter Obs.Metrics.exporter_stop exporter;
        Option.iter close_out log_oc;
        0)
  in
  let pool_arg =
    Arg.(value & opt int 4
         & info [ "pool" ] ~docv:"N" ~doc:"Worker domains in the pool.")
  in
  let queue_arg =
    Arg.(value & opt int 64
         & info [ "queue" ] ~docv:"M"
             ~doc:
               "Admission queue capacity; further requests are shed with \
                status $(b,rejected_overload) instead of queueing unboundedly.")
  in
  let sbudget_arg =
    Arg.(value & opt float 10_000.
         & info [ "budget" ] ~docv:"MS"
             ~doc:"Default per-attempt solver budget for requests that carry \
                   none.")
  in
  let grace_arg =
    Arg.(value & opt float 2_000.
         & info [ "grace" ] ~docv:"MS"
             ~doc:
               "Watchdog grace window: a worker whose request makes no solver \
                progress for this long is declared wedged, its request \
                answered, and its slot revived.")
  in
  let retries_arg =
    Arg.(value & opt int 1
         & info [ "retries" ] ~docv:"K"
             ~doc:"Default retry allowance for crashed attempts.")
  in
  let backoff_arg =
    Arg.(value & opt float 25.
         & info [ "backoff" ] ~docv:"MS"
             ~doc:"First retry backoff step (doubles per retry, jittered).")
  in
  let seed_arg =
    Arg.(value & opt int 0
         & info [ "seed" ] ~docv:"S" ~doc:"Backoff-jitter RNG seed.")
  in
  let cache_arg =
    Arg.(value & opt int 0
         & info [ "cache" ] ~docv:"N"
             ~doc:
               "Share an $(docv)-entry LRU solution cache across requests; \
                repeated identical requests are answered from it (marked \
                $(b,cached) in the response).  0 disables caching.")
  in
  let metrics_file_arg =
    Arg.(value & opt (some string) None
         & info [ "metrics-file" ] ~docv:"FILE"
             ~doc:
               "Append one JSON metrics snapshot (latency quantiles, SLO \
                rates, solver work distributions) to $(docv) every \
                $(b,--stats-interval), and rewrite $(docv).prom in \
                Prometheus text format on the same cadence.  Read it back \
                with $(b,eitc metrics-report).")
  in
  let stats_interval_arg =
    Arg.(value & opt float 1_000.
         & info [ "stats-interval" ] ~docv:"MS"
             ~doc:"Snapshot export period for $(b,--metrics-file).")
  in
  let log_arg =
    Arg.(value & opt (some string) None
         & info [ "log" ] ~docv:"FILE"
             ~doc:
               "Append one structured JSON log record per completed request \
                (timestamp, id, status, attempts, queue-wait / solve / \
                validate / total latency) to $(docv).")
  in
  let flight_dir_arg =
    Arg.(value & opt (some string) None
         & info [ "flight-dir" ] ~docv:"DIR"
             ~doc:
               "Turn on the tail-based flight recorder: every request \
                records its full event stream into a preallocated \
                per-worker ring, and the completion path keeps anomalies \
                (error / expired / wedged / crashed / retried), any \
                request whose solve took at least the live solve-time p99 \
                (the ring holds the execution, not the queue wait), and a \
                $(b,--tail-keep) slice of healthy traffic -- each written \
                as a self-contained JSONL black box under $(docv), read \
                back with $(b,eitc postmortem).  Everything else is reset \
                without serializing a byte.")
  in
  let flight_buf_arg =
    Arg.(value & opt int 4096
         & info [ "flight-buf" ] ~docv:"EVENTS"
             ~doc:
               "Per-worker flight-ring capacity; a dump holds at most \
                $(docv) events, cut mid-span when the request overflowed \
                the ring (the dump records how many were overwritten).")
  in
  let tail_keep_arg =
    Arg.(value & opt int 0
         & info [ "tail-keep" ] ~docv:"N"
             ~doc:
               "With $(b,--flight-dir): also keep the trace of one in \
                $(docv) $(i,healthy) completions as a baseline slice \
                (deterministic, by admission sequence).  0 (default) \
                keeps only anomalies and tail-latency outliers.")
  in
  let chaos_wedge_arg =
    Arg.(value & opt (some int) None
         & info [ "chaos-wedge" ] ~docv:"SEQ"
             ~doc:
               "Debug fault injection: wedge the first solve attempt of \
                the $(docv)-th admitted request (0-based) until the \
                watchdog catches it -- exercises the wedge verdict, the \
                flight dump and $(b,eitc postmortem) end to end.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the batch scheduling service: line-delimited JSON requests on \
          stdin, one JSON response per request on stdout")
    Term.(const run $ pool_arg $ queue_arg $ sbudget_arg $ grace_arg
          $ retries_arg $ backoff_arg $ seed_arg $ cache_arg $ trace_file_arg
          $ metrics_arg $ metrics_file_arg $ stats_interval_arg $ log_arg
          $ tail_keep_arg $ flight_dir_arg $ flight_buf_arg $ chaos_wedge_arg)

(* `eitc metrics-report` — render the latest snapshot of a
   `--metrics-file` JSONL stream as the same kind of tables `--metrics`
   prints, without attaching to the live process. *)
let metrics_report_cmd =
  let read_last_line path =
    let ic = open_in path in
    let last = ref None in
    (try
       while true do
         let l = input_line ic in
         if String.trim l <> "" then last := Some l
       done
     with End_of_file -> ());
    close_in ic;
    !last
  in
  let run path =
    let module J = Obs.Json in
    match read_last_line path with
    | exception Sys_error m -> input_error path m
    | None -> input_error path "no snapshot lines"
    | Some line -> (
      match J.parse line with
      | Error e -> input_error path ("bad snapshot: " ^ e)
      | Ok j ->
        let obj name =
          match J.member name j with Some (J.Obj kvs) -> kvs | _ -> []
        in
        let numf = function J.Num f -> f | _ -> 0. in
        (match J.member "ts_unix" j with
        | Some (J.Num t) -> Format.printf "snapshot ts_unix=%.3f@." t
        | _ -> ());
        (match obj "counters" with
        | [] -> ()
        | kvs ->
          Format.printf "@.%-28s %12s@." "counter" "value";
          List.iter
            (fun (k, v) -> Format.printf "%-28s %12.0f@." k (numf v))
            kvs);
        (match obj "gauges" with
        | [] -> ()
        | kvs ->
          Format.printf "@.%-28s %12s@." "gauge" "value";
          List.iter
            (fun (k, v) -> Format.printf "%-28s %12.2f@." k (numf v))
            kvs);
        (match obj "histograms" with
        | [] -> ()
        | kvs ->
          Format.printf "@.%-24s %8s %10s %10s %10s %10s %10s@." "histogram"
            "count" "mean" "p50" "p95" "p99" "max";
          List.iter
            (fun (k, v) ->
              let f n =
                match J.member n v with Some (J.Num x) -> x | _ -> 0.
              in
              Format.printf "%-24s %8.0f %10.3f %10.3f %10.3f %10.3f %10.3f@."
                k (f "count") (f "mean") (f "p50") (f "p95") (f "p99")
                (f "max"))
            kvs;
          (* Exemplar trails: "show me a trace behind this bucket" —
             the flight-recorder dump (or request id) linked to recent
             retained observations of each histogram. *)
          List.iter
            (fun (k, v) ->
              match J.member "exemplars" v with
              | Some (J.Arr exs) when exs <> [] ->
                Format.printf "@.%s exemplars (newest first):@." k;
                List.iter
                  (fun ex ->
                    let value =
                      match J.member "value" ex with
                      | Some (J.Num x) -> x
                      | _ -> 0.
                    in
                    let trace =
                      match J.member "trace" ex with
                      | Some (J.Str s) -> s
                      | _ -> "?"
                    in
                    Format.printf "  %10.3f  %s@." value trace)
                  exs
              | _ -> ())
            kvs);
        (match obj "slo" with
        | [] -> ()
        | kvs ->
          Format.printf "@.%-24s %8s %8s %12s %14s@." "slo" "window" "seen"
            "error_rate" "deadline_hit";
          List.iter
            (fun (k, v) ->
              let f n =
                match J.member n v with Some (J.Num x) -> x | _ -> 0.
              in
              Format.printf "%-24s %8.0f %8.0f %12.4f %14.4f@." k (f "window")
                (f "seen") (f "error_rate")
                (f "deadline_hit_rate"))
            kvs);
        0)
  in
  let path_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"FILE"
             ~doc:"A JSONL metrics stream written by $(b,--metrics-file).")
  in
  Cmd.v
    (Cmd.info "metrics-report"
       ~doc:"Render the latest snapshot of a metrics JSONL stream")
    Term.(const run $ path_arg)

(* `eitc postmortem` — read flight-recorder black boxes back.  For each
   dump: its request metadata heading, then the retained trace
   reconstructed through the same analyzer as `trace-report`.  Span
   trees are partial by design — a ring dump is the *suffix* of the
   request's event stream, cut mid-span on overflow, and the request's
   own closing span end postdates retention — which is exactly why the
   analyzer tolerates truncation. *)
let postmortem_cmd =
  let run path =
    let module J = Obs.Json in
    if not (Sys.file_exists path) then input_error path "no such file or directory"
    else
      let files =
        if Sys.is_directory path then Obs.Flight.dump_files path else [ path ]
      in
      match files with
      | [] ->
        Format.eprintf "eitc: %s: no flight dumps (flight-*.jsonl)@." path;
        1
      | files ->
        let malformed = ref 0 and failed = ref 0 in
        List.iteri
          (fun i f ->
            if i > 0 then Format.printf "@.";
            match Obs.Flight.load_dump f with
            | Error e ->
              incr malformed;
              Format.eprintf "eitc: %s: %s@." f e
            | Ok d ->
              let meta = d.Obs.Flight.d_meta in
              let str n =
                match List.assoc_opt n meta with
                | Some (J.Str s) -> s
                | _ -> "?"
              in
              let numo n =
                match List.assoc_opt n meta with
                | Some (J.Num x) -> Some x
                | _ -> None
              in
              Format.printf "=== %s@." f;
              Format.printf "request %s: %s (%d events retained%s%s)@."
                (str "id") (str "reason")
                (List.length d.Obs.Flight.d_events)
                (match numo "overflow" with
                | Some o when o > 0. ->
                  Printf.sprintf ", %.0f overwritten in the ring" o
                | _ -> "")
                (if d.Obs.Flight.d_skipped > 0 then
                   Printf.sprintf ", %d unreadable lines skipped"
                     d.Obs.Flight.d_skipped
                 else "");
              List.iter
                (fun (k, v) ->
                  match k with
                  | "flight" | "id" | "reason" | "events" | "overflow" -> ()
                  | _ -> Format.printf "  %-12s %s@." k (J.to_string v))
                meta;
              (match Obs.Analyze.of_json (Obs.Flight.trace_of_dump d) with
              | Error e ->
                incr failed;
                Format.printf "analysis failed: %s@." e
              | Ok s -> Obs.Analyze.pp_report Format.std_formatter s))
          files;
        if !malformed > 0 then 2 else if !failed > 0 then 1 else 0
  in
  let path_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"FILE|DIR"
             ~doc:
               "One flight dump, or a directory of them (a \
                $(b,--flight-dir)); a directory reports every \
                $(i,flight-*.jsonl) inside, oldest first.")
  in
  Cmd.v
    (Cmd.info "postmortem"
       ~doc:
         "Reconstruct retained request traces from flight-recorder black \
          boxes: per-dump metadata (verdict, attempts, chaos sites, solver \
          stats, service config), span trees, critical path")
    Term.(const run $ path_arg)

let export_cmd =
  let run kernel fmt path merged =
    let c, _ = compile kernel in
    let g = if merged then c.Vecsched.ir else c.Vecsched.raw in
    (match fmt with
    | `Xml -> Vecsched.Xml.save path g
    | `Dot -> Vecsched.Dot.save path g);
    Format.printf "wrote %s@." path;
    0
  in
  let fmt_arg =
    Arg.(value & opt (enum [ ("xml", `Xml); ("dot", `Dot) ]) `Xml
         & info [ "format" ] ~docv:"FMT" ~doc:"Output format: xml or dot.")
  in
  let path_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"PATH"
         ~doc:"Output file.")
  in
  let merged_arg =
    Arg.(value & flag & info [ "merged" ] ~doc:"Export the post-fusion graph.")
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Export a kernel's IR as XML or DOT")
    Term.(const run $ kernel_arg $ fmt_arg $ path_arg $ merged_arg)

let () =
  let doc = "programming support for reconfigurable custom vector architectures" in
  let info = Cmd.info "eitc" ~version:Vecsched.version ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [ info_cmd; schedule_cmd; heuristic_cmd; simulate_cmd; overlap_cmd; modulo_cmd;
            code_cmd; report_cmd; asm_cmd; run_asm_cmd; export_cmd; import_cmd;
            serve_cmd; metrics_report_cmd; postmortem_cmd; trace_check_cmd;
            trace_report_cmd; trace_diff_cmd ]))
