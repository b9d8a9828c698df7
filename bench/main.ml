(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (§4) and, optionally, runs bechamel timing measurements.

     dune exec bench/main.exe            -- all tables and figures
     dune exec bench/main.exe table1     -- one experiment
     dune exec bench/main.exe bechamel   -- timing measurements

   Paper reference values are printed next to the measured ones; see
   EXPERIMENTS.md for the shape discussion. *)

module Vecsched = Vecsched_core.Vecsched
open Eit_dsl

let merged g = (Merge.run g).Merge.graph
let qrd () = merged (Apps.Qrd.graph (Apps.Qrd.build ()))
let qrd_sorted () = merged (Apps.Qrd.graph (Apps.Qrd.build ~sorted:true ()))
let arf () = merged (Apps.Arf.graph (Apps.Arf.build ()))
let matmul () = merged (Apps.Matmul.graph (Apps.Matmul.build ()))
let fir () = merged (Apps.Fir.graph (Apps.Fir.build ()))
let blocked8 () =
  merged (Dsl.graph (Apps.Matmul.build_blocked8 ()).Apps.Matmul.bctx)

let blocked12 () =
  merged (Dsl.graph (Apps.Matmul.build_blocked ~k:3 ()).Apps.Matmul.bctx)

(* blocked8 proves nothing within reach.  A node budget with no time
   limit keeps its long search reproducible, so its counters gate like
   a proof's (see [is_deterministic_row]).  blocked12 (612 ops) gets a
   shorter one: its first dive alone is longer than 300 nodes, so the
   row measures model build and propagation at scale. *)
let blocked8_nodes = 3_000
let blocked12_nodes = 300

(* The kernels whose propagator profiles are tracked, with their node
   budget ([None]: solved to a proof under a 10 s time budget). *)
let profile_kernels () =
  [
    ("QRD", qrd (), None);
    ("ARF", arf (), None);
    ("MATMUL", matmul (), None);
    ("BLOCKED8", blocked8 (), Some blocked8_nodes);
  ]

let line = String.make 78 '-'

let header title = Format.printf "@.%s@.%s@.%s@." line title line

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(int_of_float (p /. 100. *. float_of_int (n - 1) +. 0.5))

let set_member name v = function
  | Obs.Json.Obj kvs ->
    Obs.Json.Obj (List.filter (fun (k, _) -> k <> name) kvs @ [ (name, v) ])
  | _ -> Obs.Json.Obj [ (name, v) ]

(* Sections owned by other generators ("service" from `load`, "cache"
   from `cache`) are carried through verbatim by the solver-row writers
   (`perfjson`, `profile`) so no generator clobbers another, and
   `compare` ignores them entirely.  The shared list lives in
   {!Vecsched_core.Bench_sections} and is pinned by a unit test. *)
let existing_sections path =
  match Obs.Json.parse_file path with
  | Ok j -> Vecsched_core.Bench_sections.keep j
  | Error _ -> []

(* ------------------------------------------------------------------ *)
(* Graph properties (§4.2 text + Table 3 column 2)                     *)

let graphs () =
  header
    "Graph properties (paper: QRD (143,194,169) #v_data=49, ARF (88,128,56), \
     MATMUL (44,68,8))";
  List.iter
    (fun (name, g) -> Format.printf "%-8s %a@." name Stats.pp (Stats.of_ir g))
    [ ("QRD", qrd ()); ("QRD-sorted", qrd_sorted ()); ("ARF", arf ());
      ("MATMUL", matmul ()) ]

(* ------------------------------------------------------------------ *)
(* Table 1: scheduling one QRD iteration under memory sweeps           *)

let table1 () =
  header
    "Table 1: QRD with memory allocation (paper: length 173 cc at 64/32/16/10 \
     slots using 33/28/16/10; timeout at 9; no solution at 8)";
  Format.printf "%-18s %-10s %-12s %-10s %-10s@." "slots available" "status"
    "length (cc)" "slots used" "opt. time (ms)";
  let g = qrd () in
  List.iter
    (fun slots ->
      let arch = Vecsched.Arch.with_slots Vecsched.Arch.default slots in
      let o = Sched.Solve.run ~arch ~budget:(Fd.Search.time_budget 30_000.) g in
      match o.Sched.Solve.schedule with
      | Some sch ->
        Format.printf "%-18d %-10s %-12d %-10d %-10.0f@." slots
          (Format.asprintf "%a" Sched.Solve.pp_status o.Sched.Solve.status)
          sch.Sched.Schedule.makespan
          (Sched.Schedule.slots_used sch)
          o.Sched.Solve.stats.Fd.Search.time_ms
      | None ->
        Format.printf "%-18d %-10s %-12s %-10s %-10.0f@." slots
          (Format.asprintf "%a" Sched.Solve.pp_status o.Sched.Solve.status)
          "-" "-" o.Sched.Solve.stats.Fd.Search.time_ms)
    [ 64; 32; 16; 10; 9; 8; 7 ]

(* ------------------------------------------------------------------ *)
(* Table 2: overlapped execution, manual vs automated                  *)

let table2 () =
  header
    "Table 2: overlapping 12 QRD iterations (paper: manual 460 cc / 18 rec / \
     0.026 it/cc vs automated 540 cc / 24 rec / 0.022 it/cc)";
  let g = qrd () in
  let m = 12 in
  let o = Sched.Solve.run ~budget:(Fd.Search.time_budget 30_000.) g in
  let rows =
    [
      ("Manual", Sched.Manual_baseline.overlapped g Eit.Arch.default ~m);
      ( "Automated",
        match o.Sched.Solve.schedule with
        | Some sch -> Sched.Overlap.run sch ~m
        | None -> failwith "table2: QRD scheduling failed" );
    ]
  in
  Format.printf "%-12s %-14s %-16s %-10s %-18s %-20s@." "" "length (cc)"
    "# instructions" "# reconf." "# reconf./iter" "throughput (it/cc)";
  List.iter
    (fun (name, ov) ->
      Format.printf "%-12s %-14d %-16d %-10d %-18.2f %-20.3f@." name
        ov.Sched.Overlap.length ov.Sched.Overlap.n_instructions
        ov.Sched.Overlap.reconfigurations
        (float_of_int ov.Sched.Overlap.reconfigurations /. float_of_int m)
        ov.Sched.Overlap.throughput)
    rows

(* ------------------------------------------------------------------ *)
(* Table 3: modulo scheduling with/without reconfigurations            *)

let table3 ?(budget_excl = 60_000.) ?(budget_incl = 120_000.) () =
  header
    "Table 3: pipelining via modulo scheduling (paper: QRD 32->55 actual \
     (0.018) vs 46 (0.022); ARF 16->32 (0.031) vs 24 (0.042); MATMUL 4 (0.250) \
     both)";
  Format.printf "%-8s %-22s %-11s %-7s %-10s %-12s | %-8s %-12s %-10s@." "app"
    "(|V|,|E|,|Cr.P|)" "initial II" "# rec" "actual II" "thr (it/cc)" "II incl"
    "thr (it/cc)" "time (ms)";
  List.iter
    (fun (name, g) ->
      let s = Stats.of_ir g in
      let excl = Sched.Modulo.solve_excluding ~budget_ms:budget_excl g in
      let incl = Sched.Modulo.solve_including ~budget_ms:budget_incl g in
      let shape = Printf.sprintf "(%d, %d, %d)" s.Stats.v s.Stats.e s.Stats.crp in
      match (excl, incl) with
      | Some e, Some i ->
        (match Sched.Modulo.validate g Eit.Arch.default e with
        | Ok () -> ()
        | Error msg -> Format.printf "!! excl kernel invalid: %s@." msg);
        (match Sched.Modulo.validate g Eit.Arch.default i with
        | Ok () -> ()
        | Error msg -> Format.printf "!! incl kernel invalid: %s@." msg);
        Format.printf
          "%-8s %-22s %-11d %-7d %-10d %-12.3f | %-8d %-12.3f %-10.0f@." name
          shape e.Sched.Modulo.ii e.Sched.Modulo.reconfigurations
          e.Sched.Modulo.actual_ii e.Sched.Modulo.throughput
          i.Sched.Modulo.actual_ii i.Sched.Modulo.throughput
          i.Sched.Modulo.time_ms
      | _ -> Format.printf "%-8s %-22s timeout@." name shape)
    [ ("QRD", qrd ()); ("ARF", arf ()); ("MATMUL", matmul ()) ]

(* ------------------------------------------------------------------ *)
(* Fig. 3: the IR of listing 1                                         *)

let fig3 () =
  header "Fig. 3: intermediate representation of listing 1 (MATMUL)";
  let g = Apps.Matmul.graph (Apps.Matmul.build ()) in
  Format.printf "%a@." Stats.pp (Stats.of_ir g);
  Format.printf "categories:";
  List.iter
    (fun (c, n) -> if n > 0 then Format.printf " %s=%d" (Ir.category_name c) n)
    (Stats.of_ir g).Stats.by_category;
  Format.printf "@.";
  let dot_path = "matmul_ir.dot" and xml_path = "matmul_ir.xml" in
  Dot.save dot_path g;
  Xml.save xml_path g;
  Format.printf "wrote %s and %s (render with: dot -Tpdf %s)@." dot_path
    xml_path dot_path

(* ------------------------------------------------------------------ *)
(* Figs. 4/5: matrix op vs vector expansion                            *)

let fig45 () =
  header "Figs. 4/5: A.m_squsum as one matrix op vs four vector ops + merge";
  let rows = [ [1.;2.;3.;4.]; [2.;3.;4.;5.]; [5.;6.;7.;8.]; [0.;1.;0.;1.] ] in
  let mctx = Dsl.create () in
  let m = Dsl.matrix_input_f mctx rows in
  let mr = Dsl.m_squsum mctx m in
  let vctx = Dsl.create () in
  let mv = Dsl.matrix_input_f vctx rows in
  let parts = List.init 4 (fun i -> Dsl.v_squsum vctx (Dsl.row mv i)) in
  let vr =
    match parts with [ a; b; c; d ] -> Dsl.merge vctx a b c d | _ -> assert false
  in
  Format.printf "matrix form:  %a -> %s@." Stats.pp
    (Stats.of_ir (Dsl.graph mctx))
    (Eit.Value.to_string (Eit.Value.Vector (Dsl.vector_value mr)));
  Format.printf "vector form:  %a -> %s@." Stats.pp
    (Stats.of_ir (Dsl.graph vctx))
    (Eit.Value.to_string (Eit.Value.Vector (Dsl.vector_value vr)));
  Format.printf
    "the matrix form removes the merge node and shrinks the graph, as §3.2.2 \
     describes@."

(* ------------------------------------------------------------------ *)
(* Fig. 6: the two merge-pass patterns                                 *)

let fig6 () =
  header "Fig. 6: pipeline fusion examples";
  let ctx = Dsl.create () in
  let a = Dsl.vector_input_f ctx [ 1.; 2.; 3.; 4. ] in
  let b = Dsl.vector_input_f ctx [ 2.; 2.; 2.; 2. ] in
  let c = Dsl.v_conj ctx a in
  let _ = Dsl.v_dotp ctx c b in
  let g = Dsl.graph ctx in
  let r = Merge.run g in
  Format.printf "left  (conj -> v_dotP):      %d -> %d nodes (%d fusion)@."
    (Ir.size g) (Ir.size r.Merge.graph) r.Merge.fusions;
  let ctx = Dsl.create () in
  let m =
    Dsl.matrix_input_f ctx
      [ [1.;2.;3.;4.]; [4.;3.;2.;1.]; [1.;1.;1.;1.]; [2.;2.;2.;2.] ]
  in
  let s = Dsl.m_squsum ctx m in
  let _ = Dsl.v_sort ctx s in
  let g = Dsl.graph ctx in
  let r = Merge.run g in
  Format.printf "right (m_squsum -> sort):    %d -> %d nodes (%d fusion)@."
    (Ir.size g) (Ir.size r.Merge.graph) r.Merge.fusions;
  List.iter
    (fun i ->
      Format.printf "  fused node: %s@."
        (Eit.Opcode.name (Ir.opcode r.Merge.graph i)))
    (Ir.op_nodes r.Merge.graph)

(* ------------------------------------------------------------------ *)
(* Fig. 8: memory access legality                                      *)

let fig8 () =
  header "Fig. 8: simultaneous access (paper: only C is accessible in one cycle)";
  let arch = { Eit.Arch.default with Eit.Arch.lines = 3 } in
  let slot ~bank ~line = Eit.Mem.slot_of arch ~bank ~line in
  let cases =
    [
      ( "A",
        [ slot ~bank:0 ~line:0; slot ~bank:1 ~line:0;
          slot ~bank:0 ~line:1; slot ~bank:1 ~line:1 ] );
      ( "B",
        [ slot ~bank:8 ~line:0; slot ~bank:9 ~line:0;
          slot ~bank:10 ~line:0; slot ~bank:11 ~line:1 ] );
      ( "C",
        [ slot ~bank:4 ~line:2; slot ~bank:5 ~line:2;
          slot ~bank:12 ~line:1; slot ~bank:13 ~line:1 ] );
    ]
  in
  List.iter
    (fun (name, slots) ->
      match Eit.Mem.check_access arch ~reads:slots ~writes:[] with
      | [] -> Format.printf "matrix %s: 1-cycle access OK@." name
      | vs ->
        Format.printf "matrix %s: needs reconfiguration -- %a@." name
          (Format.pp_print_list
             ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ")
             Eit.Mem.pp_violation)
          vs)
    cases

(* ------------------------------------------------------------------ *)
(* Ablations: the design choices DESIGN.md calls out                   *)

(* A1: search heuristics (§3.5) — what the phase-1 variable selection
   buys on the QRD scheduling problem. *)
let ablation_heuristics () =
  header "Ablation A1: phase-1 variable selection heuristic (10 s budget each)";
  Format.printf "%-10s %-18s %-10s %-12s %-10s %-10s %-10s@." "kernel"
    "heuristic" "status" "makespan" "nodes" "failures" "time (ms)";
  List.iter (fun (kernel, g) ->
  List.iter
    (fun (name, var_select) ->
      let m = Sched.Model.build g Eit.Arch.default in
      let phases =
        match Sched.Model.phases m with
        | [ p1; p2; p3 ] -> [ { p1 with Fd.Search.var_select }; p2; p3 ]
        | other -> other
      in
      match
        Fd.Search.minimize
          ~budget:(Fd.Search.time_budget 10_000.)
          m.Sched.Model.store phases ~objective:m.Sched.Model.makespan
          ~on_solution:(fun () -> Sched.Model.extract m)
      with
      | Fd.Search.Solution (sch, st) | Fd.Search.Best (sch, st) ->
        Format.printf "%-10s %-18s %-10s %-12d %-10d %-10d %-10.0f@." kernel
          name
          (if st.Fd.Search.optimal then "optimal" else "best")
          sch.Sched.Schedule.makespan st.Fd.Search.nodes st.Fd.Search.failures
          st.Fd.Search.time_ms
      | Fd.Search.Unsat st | Fd.Search.Timeout st ->
        Format.printf "%-10s %-18s %-10s %-12s %-10d %-10d %-10.0f@." kernel
          name "none" "-" st.Fd.Search.nodes st.Fd.Search.failures
          st.Fd.Search.time_ms)
    [
      ("smallest_min", Fd.Search.smallest_min);
      ("first_fail", Fd.Search.first_fail);
      ("input_order", Fd.Search.input_order);
      ("most_constrained", Fd.Search.most_constrained);
    ])
    [ ("QRD", qrd ()); ("MATMUL", matmul ()) ]

(* A2: integrated memory allocation on/off — the cost of the paper's
   central modelling decision. *)
let ablation_memory () =
  header "Ablation A2: integrated memory allocation vs scheduling only";
  Format.printf "%-10s %-10s %-10s %-12s %-10s %-12s@." "kernel" "memory"
    "status" "makespan" "nodes" "time (ms)";
  List.iter
    (fun (name, g) ->
      List.iter
        (fun memory ->
          let o =
            Sched.Solve.run ~memory ~budget:(Fd.Search.time_budget 20_000.) g
          in
          match o.Sched.Solve.schedule with
          | Some sch ->
            Format.printf "%-10s %-10s %-10s %-12d %-10d %-12.0f@." name
              (if memory then "on" else "off")
              (Format.asprintf "%a" Sched.Solve.pp_status o.Sched.Solve.status)
              sch.Sched.Schedule.makespan o.Sched.Solve.stats.Fd.Search.nodes
              o.Sched.Solve.stats.Fd.Search.time_ms
          | None ->
            Format.printf "%-10s %-10s %-10s@." name
              (if memory then "on" else "off")
              (Format.asprintf "%a" Sched.Solve.pp_status o.Sched.Solve.status))
        [ true; false ])
    [ ("QRD", qrd ()); ("ARF", arf ()); ("MATMUL", matmul ()) ]

(* A3: merge pass on/off — Fig. 6's fusion on a fusion-heavy kernel. *)
let ablation_merge () =
  header "Ablation A3: pipeline fusion (Fig. 6) on the CORR kernel";
  let raw = Apps.Corr.graph (Apps.Corr.build ~hypotheses:8 ()) in
  let fused = merged raw in
  Format.printf "%-10s %-28s %-12s@." "" "graph" "makespan";
  List.iter
    (fun (name, g) ->
      let o = Sched.Solve.run ~budget:(Fd.Search.time_budget 20_000.) g in
      match o.Sched.Solve.schedule with
      | Some sch ->
        Format.printf "%-10s %-28s %-12d@." name
          (Format.asprintf "%a" Stats.pp (Stats.of_ir g))
          sch.Sched.Schedule.makespan
      | None -> Format.printf "%-10s %-28s (none)@." name
          (Format.asprintf "%a" Stats.pp (Stats.of_ir g)))
    [ ("raw", raw); ("fused", fused) ]

(* A4: architecture presets — the paper's future-work direction. *)
let archsweep () =
  header "Architecture sweep: the same kernels on eit / wide / mini presets";
  Format.printf "%-10s %-8s %-10s %-12s %-12s@." "kernel" "arch" "status"
    "makespan" "slots used";
  List.iter
    (fun (kname, g) ->
      List.iter
        (fun (aname, arch) ->
          let o = Sched.Solve.run ~arch ~budget:(Fd.Search.time_budget 20_000.) g in
          match o.Sched.Solve.schedule with
          | Some sch ->
            Format.printf "%-10s %-8s %-10s %-12d %-12d@." kname aname
              (Format.asprintf "%a" Sched.Solve.pp_status o.Sched.Solve.status)
              sch.Sched.Schedule.makespan
              (Sched.Schedule.slots_used sch)
          | None ->
            Format.printf "%-10s %-8s %-10s@." kname aname
              (Format.asprintf "%a" Sched.Solve.pp_status o.Sched.Solve.status))
        Eit.Arch.presets)
    [
      ("MATMUL", matmul ());
      ("ARF", arf ());
      ("FIR-8", merged (Apps.Fir.graph (Apps.Fir.build ~taps:8 ())));
      ("CORR-8", merged (Apps.Corr.graph (Apps.Corr.build ~hypotheses:8 ())));
    ]

(* §4.2 narrative: the optimal one-shot schedule is heavily
   under-utilized because of the 7-cycle dependency gaps; overlapping
   and modulo scheduling recover the utilization. *)
let utilization () =
  header
    "Utilization (§4.2-4.3): vector-core usage across execution regimes";
  Format.printf "%-8s %-12s %-14s %-12s %-12s@." "kernel" "regime"
    "vector util." "busy cycles" "longest gap";
  List.iter
    (fun (name, g) ->
      let o = Sched.Solve.run ~budget:(Fd.Search.time_budget 20_000.) g in
      match o.Sched.Solve.schedule with
      | None -> Format.printf "%-8s (no schedule)@." name
      | Some sch ->
        let report regime a =
          let vec =
            List.find
              (fun r -> r.Sched.Analysis.resource = Eit.Opcode.Vector_core)
              a.Sched.Analysis.per_resource
          in
          Format.printf "%-8s %-12s %-14.1f %-12s %-12d@." name regime
            (100. *. Sched.Analysis.vector_utilization a)
            (Printf.sprintf "%d/%d" vec.Sched.Analysis.busy_cycles
               a.Sched.Analysis.span)
            a.Sched.Analysis.longest_gap
        in
        report "one-shot" (Sched.Analysis.of_schedule sch);
        report "overlap-12"
          (Sched.Analysis.of_overlap g Eit.Arch.default
             (Sched.Overlap.run sch ~m:12));
        (match Sched.Modulo.solve_excluding ~budget_ms:30_000. g with
        | Some r -> report "modulo" (Sched.Analysis.of_modulo g Eit.Arch.default r)
        | None -> ()))
    [ ("QRD", qrd ()); ("ARF", arf ()); ("MATMUL", matmul ()) ]

(* Dynamic verification: §4.3's execution regimes actually executed on
   the simulator, every iteration's results compared to the reference. *)
let dynamic () =
  header
    "Dynamic verification: overlapped and modulo execution on the simulator";
  let big lines = { Eit.Arch.default with Eit.Arch.lines } in
  List.iter
    (fun (name, g, m, lines) ->
      let o = Sched.Solve.run ~budget:(Fd.Search.time_budget 20_000.) g in
      match o.Sched.Solve.schedule with
      | None -> Format.printf "%-8s (no schedule)@." name
      | Some sch -> (
        (match Sched.Overlap_sim.run_and_check ~arch:(big lines) sch ~m with
        | Ok r ->
          Format.printf
            "%-8s overlap M=%-3d %5d results verified, port-clean=%b@." name m
            r.Sched.Overlap_sim.checked_values r.Sched.Overlap_sim.access_clean
        | Error e -> Format.printf "%-8s overlap M=%d FAILED: %s@." name m e);
        match Sched.Modulo.solve_excluding ~budget_ms:30_000. g with
        | None -> ()
        | Some r -> (
          match
            Sched.Modulo_sim.run_and_check ~arch:(big (2 * lines)) g r
              ~iterations:4
          with
          | Ok rep ->
            Format.printf
              "%-8s modulo  N=4   %5d results verified, port-clean=%b, \
               completion=%d (= span+3*II: %b)@."
              name rep.Sched.Modulo_sim.checked_values
              rep.Sched.Modulo_sim.access_clean rep.Sched.Modulo_sim.completion
              (rep.Sched.Modulo_sim.completion
              = r.Sched.Modulo.span + (3 * r.Sched.Modulo.ii))
          | Error e -> Format.printf "%-8s modulo FAILED: %s@." name e)))
    [
      ("MATMUL", matmul (), 8, 16);
      ("ARF", arf (), 7, 32);
      ("QRD", qrd (), 12, 16);
    ]

(* §4.2: "There are many different ways to express the same algorithm in
   the DSL, and these different expressions may result in different
   graphs, which in turn may result in different schedules." *)
let expressiveness () =
  header "Expressiveness (§4.2): MATMUL as 16 dot products vs 4 matrix ops";
  Format.printf "%-22s %-30s %-10s %-10s %-14s@." "expression" "graph"
    "makespan" "modulo II" "thr (it/cc)";
  List.iter
    (fun (name, g) ->
      let g = merged g in
      let o = Sched.Solve.run ~budget:(Fd.Search.time_budget 15_000.) g in
      let mk =
        match o.Sched.Solve.schedule with
        | Some sch -> string_of_int sch.Sched.Schedule.makespan
        | None -> "-"
      in
      match Sched.Modulo.solve_excluding ~budget_ms:15_000. g with
      | Some r ->
        Format.printf "%-22s %-30s %-10s %-10d %-14.3f@." name
          (Format.asprintf "%a" Stats.pp (Stats.of_ir g))
          mk r.Sched.Modulo.actual_ii r.Sched.Modulo.throughput
      | None ->
        Format.printf "%-22s %-30s %-10s timeout@." name
          (Format.asprintf "%a" Stats.pp (Stats.of_ir g))
          mk)
    [
      ("16 x v_dotP + merges", Apps.Matmul.graph (Apps.Matmul.build ()));
      ("4 x m_vmul", Apps.Matmul.graph (Apps.Matmul.build_matrix_form ()));
    ]

(* A5: exact CP vs greedy list scheduling — why pay for a solver? *)
let ablation_exact_vs_greedy () =
  header "Ablation A5: exact CP model vs heuristic list scheduler";
  Format.printf "%-10s %-22s %-22s@." "kernel" "CP (makespan, ms)" "greedy (makespan, ms)";
  List.iter
    (fun (name, g) ->
      let t0 = Unix.gettimeofday () in
      let o = Sched.Solve.run ~budget:(Fd.Search.time_budget 20_000.) g in
      let cp_ms = (Unix.gettimeofday () -. t0) *. 1000. in
      let cp =
        match o.Sched.Solve.schedule with
        | Some sch -> Printf.sprintf "%d, %.0f ms" sch.Sched.Schedule.makespan cp_ms
        | None -> "-"
      in
      let t1 = Unix.gettimeofday () in
      let greedy =
        match Sched.Heuristic.run g with
        | Ok sch ->
          Printf.sprintf "%d, %.1f ms" sch.Sched.Schedule.makespan
            ((Unix.gettimeofday () -. t1) *. 1000.)
        | Error e -> "failed: " ^ e
      in
      Format.printf "%-10s %-22s %-22s@." name cp greedy)
    [
      ("QRD", qrd ()); ("ARF", arf ()); ("MATMUL", matmul ());
      ("DETECT", merged (Apps.Detect.graph (Apps.Detect.build ())));
    ];
  Format.printf
    "@.Greedy matches the optimum on these CP-dominated kernels; the exact      model earns its cost on proofs, tight memories (Table 1's cliff) and      reconfiguration co-optimization (Table 3).@."

let ablations () =
  ablation_heuristics ();
  ablation_memory ();
  ablation_merge ();
  archsweep ();
  expressiveness ();
  ablation_exact_vs_greedy ()

(* ------------------------------------------------------------------ *)
(* Bechamel timing: one measurement per table                          *)

let bechamel () =
  let open Bechamel in
  let test_table1 =
    Test.make ~name:"table1:schedule-qrd-64slots"
      (Staged.stage (fun () ->
           let g = qrd () in
           ignore (Sched.Solve.run ~budget:(Fd.Search.time_budget 5_000.) g)))
  in
  let test_table2 =
    Test.make ~name:"table2:overlap-qrd-m12"
      (Staged.stage (fun () ->
           let g = qrd () in
           ignore (Sched.Manual_baseline.overlapped g Eit.Arch.default ~m:12)))
  in
  let test_table3 =
    Test.make ~name:"table3:modulo-matmul"
      (Staged.stage (fun () ->
           ignore (Sched.Modulo.solve_excluding ~budget_ms:5_000. (matmul ()))))
  in
  let test_merge =
    Test.make ~name:"fig6:merge-pass-qrd"
      (Staged.stage (fun () ->
           ignore (Merge.run (Apps.Qrd.graph (Apps.Qrd.build ())))))
  in
  let test_sim =
    let g = matmul () in
    let sch =
      Option.get
        (Sched.Solve.run ~budget:(Fd.Search.time_budget 5_000.) g)
          .Sched.Solve.schedule
    in
    let p = Sched.Codegen.program sch in
    Test.make ~name:"simulator:matmul"
      (Staged.stage (fun () -> ignore (Eit.Machine.run p)))
  in
  let tests =
    Test.make_grouped ~name:"vecsched"
      [ test_table1; test_table2; test_table3; test_merge; test_sim ]
  in
  let benchmark test =
    let instances = Toolkit.Instance.[ monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:8 ~quota:(Time.second 2.0) ~kde:(Some 10) () in
    Benchmark.all cfg instances test
  in
  let analyze results =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    Analyze.all ols Toolkit.Instance.monotonic_clock results
  in
  let results = analyze (benchmark tests) in
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] -> Format.printf "%-36s %14.0f ns/run@." name est
      | _ -> Format.printf "%-36s (no estimate)@." name)
    results

(* ------------------------------------------------------------------ *)
(* Robustness: anytime degradation under shrinking budgets             *)

let fallback_makespan ?(arch = Vecsched.Arch.default) g =
  match Sched.Heuristic.run ~arch g with
  | Ok sch -> Some sch.Sched.Schedule.makespan
  | Error _ -> None

let robustness () =
  header
    "Robustness: CP vs heuristic fallback under deadline pressure (exit \
     contract: 0 CP schedule, 2 fallback, 3 infeasible, 4 none)";
  Format.printf "%-8s %-12s %-18s %-10s %-14s %-6s@." "kernel" "budget (ms)"
    "status" "engine" "makespan (cc)" "exit";
  let kernels = [ ("QRD", qrd); ("ARF", arf); ("MATMUL", matmul) ] in
  List.iter
    (fun (name, build) ->
      List.iter
        (fun budget_ms ->
          let o = Sched.Solve.run ~budget:(Fd.Search.time_budget budget_ms) (build ()) in
          Format.printf "%-8s %-12.0f %-18s %-10s %-14s %-6d@." name budget_ms
            (Format.asprintf "%a" Sched.Solve.pp_status o.Sched.Solve.status)
            (Format.asprintf "%a" Sched.Solve.pp_engine o.Sched.Solve.engine)
            (match o.Sched.Solve.schedule with
            | Some sch -> string_of_int sch.Sched.Schedule.makespan
            | None -> "-")
            (Sched.Solve.exit_code o))
        [ 0.; 1.; 10.; 30_000. ])
    kernels;
  (* Fault injection: kill one portfolio worker mid-search; the others
     still deliver (and usually prove) the incumbent. *)
  Format.printf "@.chaos: 4-worker portfolio on QRD, worker 0 killed after 200 \
                 propagator executions@.";
  let chaos = Fd.Chaos.create ~kill_workers:[ 0 ] ~kill_after:200 ~seed:42 () in
  let o =
    Sched.Solve.run ~budget:(Fd.Search.time_budget 30_000.) ~parallel:4 ~chaos
      (qrd ())
  in
  Format.printf "  status=%a engine=%a makespan=%s crashes=%d validated=%b@."
    Sched.Solve.pp_status o.Sched.Solve.status Sched.Solve.pp_engine
    o.Sched.Solve.engine
    (match o.Sched.Solve.schedule with
    | Some sch -> string_of_int sch.Sched.Schedule.makespan
    | None -> "-")
    (List.length o.Sched.Solve.crashes)
    (o.Sched.Solve.validation = Ok ())

(* ------------------------------------------------------------------ *)
(* Per-propagator hot-spot profiles: one sequential solve per kernel
   with an [Obs.Agg] sink attached (store timing is auto-enabled by the
   search when a sink is live).  These runs are separate from the
   timed regression rows so the <5% instrumentation overhead never
   pollutes the tracked time_ms numbers. *)

let profile_rows kernels =
  List.map
    (fun (kernel, g, nodes) ->
      let budget =
        match nodes with
        | Some n -> Fd.Search.node_budget n
        | None -> Fd.Search.time_budget 10_000.
      in
      let agg = Obs.Agg.create () in
      let optimal = ref false in
      Obs.with_sink (Obs.Agg.sink agg) (fun () ->
          let o = Sched.Solve.run ~budget g in
          optimal := o.Sched.Solve.stats.Fd.Search.optimal);
      (kernel, !optimal, nodes, Obs.Agg.profiles agg))
    kernels

let profile_json profiles =
  let open Obs.Json in
  Arr
    (List.map
       (fun (kernel, optimal, nodes, rows) ->
         Obj
           ([ ("kernel", Str kernel); ("optimal", Bool optimal) ]
           @ (match nodes with
             | Some n -> [ ("node_budget", Num (float_of_int n)) ]
             | None -> [])
           @ [
             ( "rows",
               Arr
                 (List.map
                    (fun (name, p) ->
                      Obj
                        [
                          ("name", Str name);
                          ("runs", Num (float_of_int p.Obs.Agg.p_runs));
                          ("wakes", Num (float_of_int p.Obs.Agg.p_wakes));
                          ("prunes", Num (float_of_int p.Obs.Agg.p_prunes));
                          ("entails", Num (float_of_int p.Obs.Agg.p_entails));
                          ("time_ms", Num p.Obs.Agg.p_time_ms);
                        ])
                    rows) );
             ]))
       profiles)

let print_profile_table profiles =
  List.iter
    (fun (kernel, _, _, rows) ->
      Format.printf "@.%s@.%-22s %8s %8s %8s %8s %12s@." kernel "propagator"
        "runs" "wakes" "prunes" "entails" "time (ms)";
      List.iter
        (fun (name, p) ->
          Format.printf "%-22s %8d %8d %8d %8d %12.2f@." name p.Obs.Agg.p_runs
            p.Obs.Agg.p_wakes p.Obs.Agg.p_prunes p.Obs.Agg.p_entails
            p.Obs.Agg.p_time_ms)
        rows)
    profiles

(* The `profile` subcommand: regenerate only the propagator_profiles
   section of BENCH_solver.json, keeping the regression rows already in
   the file (so a quick profile refresh needs no 30 s sweep). *)
let profile ?(path = "BENCH_solver.json") () =
  header (Printf.sprintf "Per-propagator hot-spot profiles -> %s" path);
  let profiles = profile_rows (profile_kernels ()) in
  print_profile_table profiles;
  let suite, version, runs =
    match Obs.Json.parse_file path with
    | Ok j ->
      ( (match Obs.Json.member "suite" j with
        | Some (Obs.Json.Str s) -> s
        | _ -> "vecsched-solver"),
        (* the kept rows' minor_words belong to the compiler that
           measured them *)
        Option.to_list
          (Option.map (fun v -> ("ocaml_version", v))
             (Obs.Json.member "ocaml_version" j)),
        match Obs.Json.member "runs" j with
        | Some (Obs.Json.Arr rs) -> rs
        | _ -> [] )
    | Error _ -> ("vecsched-solver", [], [])
  in
  let doc =
    Obs.Json.Obj
      ((("suite", Obs.Json.Str suite) :: version)
      @ [
          ("runs", Obs.Json.Arr runs);
          ("propagator_profiles", profile_json profiles);
        ]
      @ existing_sections path)
  in
  let oc = open_out path in
  output_string oc (Obs.Json.to_string doc);
  output_string oc "\n";
  close_out oc;
  Format.printf "@.wrote %d kernel profiles to %s (%d runs kept)@."
    (List.length profiles) path (List.length runs)

(* ------------------------------------------------------------------ *)
(* Service load generator: a replayable, seeded open-loop driver for
   the batch scheduling service (lib/serve).  Open-loop means arrivals
   follow the seeded exponential process regardless of completions, so
   an overloaded service sheds (visible in the shed rate) instead of
   silently slowing the generator down.  Results land in
   BENCH_solver.json under a "service" key, alongside (never
   replacing) the solver regression rows. *)

let load ?(path = "BENCH_solver.json") ?(requests = 200) ?(pool = 4)
    ?(queue = 64) ?(seed = 42) ?(chaos = false) ?(tail_keep = 0) ?flight_dir
    ?(flight_buf = 4096) () =
  header
    (Printf.sprintf
       "Service load: %d open-loop requests (mix qrd/arf/matmul/xml-import), \
        pool=%d queue=%d seed=%d chaos=%b%s"
       requests pool queue seed chaos
       (match flight_dir with
       | Some d ->
         Printf.sprintf " flight-dir=%s buf=%d tail-keep=%d" d flight_buf
           tail_keep
       | None -> ""));
  (* A survivable fault rate: the probabilities are per propagator
     execution, and a 40 ms attempt runs thousands of them, so even
     2e-5 crashes a visible minority of requests.  The point is a
     tail-retention-realistic mix — mostly healthy traffic with a
     scattering of crashed/retried anomalies — not the saturation soak
     (that lives in test/t_serve.ml with crash_prob 0.02). *)
  let chaos_t =
    if chaos then
      Some
        (Fd.Chaos.create ~crash_prob:1e-4 ~delay_prob:0.05 ~delay_ms:1. ~seed ())
    else None
  in
  let config =
    {
      Serve.Service.default_config with
      pool;
      queue;
      default_budget_ms = 40.;
      grace_ms = 300.;
      watchdog_tick_ms = 10.;
      seed;
      chaos = chaos_t;
      metrics = Some (Obs.Metrics.create ());
      tail_keep;
      flight_dir;
      flight_buf;
    }
  in
  let svc = Serve.Service.create ~config () in
  let fir_xml = Vecsched.Xml.to_string (fir ()) in
  let rng = Random.State.make [| seed; 0x10ad |] in
  let t0 = Unix.gettimeofday () in
  let tickets =
    List.init requests (fun i ->
        (* exponential inter-arrival, ~5 ms mean: about 2x the pool's
           service rate at the 40 ms budget, so shedding is exercised *)
        Unix.sleepf (-.0.005 *. log (1. -. Random.State.float rng 1.));
        let id = Printf.sprintf "r%03d" i in
        let workload =
          match i mod 4 with
          | 0 -> Serve.Service.Kernel "qrd"
          | 1 -> Serve.Service.Kernel "arf"
          | 2 -> Serve.Service.Kernel "matmul"
          | _ -> Serve.Service.Xml_text fir_xml
        in
        Serve.Service.submit svc
          (Serve.Service.request ~id ~budget_ms:40. ~deadline_ms:2_000. workload))
  in
  let responses = List.map Serve.Service.await tickets in
  let wall_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  (* shut down before reading health: joining the pool guarantees every
     completion's metrics observation has landed, so the histogram
     count below equals the response count exactly *)
  Serve.Service.shutdown svc;
  let h = Serve.Service.health svc in
  let lat =
    Array.of_list (List.map (fun r -> r.Serve.Service.total_ms) responses)
  in
  Array.sort compare lat;
  let statuses =
    List.sort_uniq compare (List.map Serve.Service.status_string responses)
  in
  let count s =
    List.length
      (List.filter (fun r -> Serve.Service.status_string r = s) responses)
  in
  let throughput = float_of_int requests /. (wall_ms /. 1000.) in
  Format.printf "%-24s %10.1f req/s@." "throughput" throughput;
  Format.printf "%-24s %10.1f / %.1f / %.1f ms@." "latency p50/p95/p99"
    (percentile lat 50.) (percentile lat 95.) (percentile lat 99.);
  List.iter (fun s -> Format.printf "%-24s %10d@." s (count s)) statuses;
  Format.printf "%-24s %10d@." "retries" h.Serve.Service.retries;
  Format.printf "%-24s %10d@." "fallback rescues" h.Serve.Service.fallbacks;
  Format.printf "%-24s %10d@." "workers revived" h.Serve.Service.revived;
  (* Tail retention: kept + dropped = completed exactly (the winner-only
     completion chokepoint settles every ring once), and the retained
     fraction is the number the 10%-volume acceptance bound watches. *)
  let retained_fraction =
    if h.Serve.Service.completed = 0 then 0.
    else
      float_of_int h.Serve.Service.flight_kept
      /. float_of_int h.Serve.Service.completed
  in
  if Option.is_some flight_dir then begin
    Format.printf "%-24s %10d kept / %d dropped / %d dumped@." "flight traces"
      h.Serve.Service.flight_kept h.Serve.Service.flight_dropped
      h.Serve.Service.flight_dumped;
    Format.printf "%-24s %10.1f %% of completions@." "retained fraction"
      (100. *. retained_fraction)
  end;
  (* Cross-check the live latency histogram against ground truth: the
     exact p99 of the full retained sample, computed with the
     histogram's own rank convention (the ceil(q*n)-th smallest), must
     agree within the histogram's stated relative-error bound. *)
  let ht = h.Serve.Service.lat_total in
  let n = Array.length lat in
  let exact q =
    if n = 0 then 0.
    else lat.(max 1 (min n (int_of_float (ceil (q *. float_of_int n)))) - 1)
  in
  let bound =
    Obs.Metrics.relative_error
      (Obs.Metrics.histogram (Serve.Service.metrics svc) "serve.total_ms")
  in
  let p99_exact = exact 0.99 in
  let p99_hist = ht.Obs.Metrics.p99 in
  let rel =
    if p99_exact > 0. then abs_float (p99_hist -. p99_exact) /. p99_exact
    else abs_float (p99_hist -. p99_exact)
  in
  let within = rel <= bound +. 1e-9 in
  Format.printf "%-24s %10.1f ms (exact %.1f; rel err %.5f <= %.5f: %s)@."
    "histogram p99" p99_hist p99_exact rel bound
    (if within then "OK" else "CROSS-CHECK FAILED");
  if ht.Obs.Metrics.count <> n then
    Format.printf "%-24s histogram count %d <> responses %d@." "WARNING"
      ht.Obs.Metrics.count n;
  Format.printf "%-24s %10.4f / %.4f@." "error / deadline-hit rate"
    h.Serve.Service.slo.Obs.Metrics.error_rate
    h.Serve.Service.slo.Obs.Metrics.deadline_hit_rate;
  let service_json =
    let num i = Obs.Json.Num (float_of_int i) in
    Obs.Json.Obj
      [
        ("requests", num requests);
        ("pool", num pool);
        ("queue", num queue);
        ("seed", num seed);
        ("chaos", Obs.Json.Bool chaos);
        ("wall_ms", Obs.Json.Num wall_ms);
        ("throughput_rps", Obs.Json.Num throughput);
        ("p50_ms", Obs.Json.Num (percentile lat 50.));
        ("p95_ms", Obs.Json.Num (percentile lat 95.));
        ("p99_ms", Obs.Json.Num (percentile lat 99.));
        ( "statuses",
          Obs.Json.Obj (List.map (fun s -> (s, num (count s))) statuses) );
        ("shed", num h.Serve.Service.shed);
        ("expired", num h.Serve.Service.expired);
        ("wedged", num h.Serve.Service.wedged);
        ("retries", num h.Serve.Service.retries);
        ("fallbacks", num h.Serve.Service.fallbacks);
        ("revived", num h.Serve.Service.revived);
        ("tail_keep", num tail_keep);
        ( "flight_dir",
          match flight_dir with
          | Some d -> Obs.Json.Str d
          | None -> Obs.Json.Null );
      ]
  in
  let metrics_json =
    Obs.Json.Obj
      [
        ("count", Obs.Json.Num (float_of_int ht.Obs.Metrics.count));
        ("p50_hist_ms", Obs.Json.Num ht.Obs.Metrics.p50);
        ("p99_exact_ms", Obs.Json.Num p99_exact);
        ("p99_hist_ms", Obs.Json.Num p99_hist);
        ("rel_err", Obs.Json.Num rel);
        ("rel_err_bound", Obs.Json.Num bound);
        ("within_bound", Obs.Json.Bool within);
        ( "error_rate",
          Obs.Json.Num h.Serve.Service.slo.Obs.Metrics.error_rate );
        ( "deadline_hit_rate",
          Obs.Json.Num h.Serve.Service.slo.Obs.Metrics.deadline_hit_rate );
        ("flight_kept", Obs.Json.Num (float_of_int h.Serve.Service.flight_kept));
        ( "flight_dropped",
          Obs.Json.Num (float_of_int h.Serve.Service.flight_dropped) );
        ( "flight_dumped",
          Obs.Json.Num (float_of_int h.Serve.Service.flight_dumped) );
        ("retained_fraction", Obs.Json.Num retained_fraction);
      ]
  in
  let doc =
    match Obs.Json.parse_file path with
    | Ok j -> set_member "metrics" metrics_json (set_member "service" service_json j)
    | Error _ ->
      Obs.Json.Obj
        [
          ("suite", Obs.Json.Str "vecsched-solver");
          ("runs", Obs.Json.Arr []);
          ("service", service_json);
          ("metrics", metrics_json);
        ]
  in
  let oc = open_out path in
  output_string oc (Obs.Json.to_string doc);
  output_string oc "\n";
  close_out oc;
  Format.printf "@.merged \"service\" + \"metrics\" sections into %s@." path

(* ------------------------------------------------------------------ *)
(* Solution-cache benchmark: hit rate under a repeat-heavy request mix
   through a cache-enabled service.  Results land in BENCH_solver.json
   under a "cache" key, which every other writer passes through
   (Vecsched_core.Bench_sections). *)

let cache_bench ?(path = "BENCH_solver.json") ?(requests = 120) ?(pool = 2)
    ?(seed = 42) () =
  header
    (Printf.sprintf
       "Solution cache: %d repeat-heavy requests (mix qrd/arf/matmul, \
        pool=%d, 64-entry cache)"
       requests pool);
  let config =
    {
      Serve.Service.default_config with
      pool;
      queue = max 64 requests;
      default_budget_ms = 10_000.;
      grace_ms = 300.;
      watchdog_tick_ms = 10.;
      seed;
      cache_capacity = 64;
    }
  in
  let svc = Serve.Service.create ~config () in
  let mix = [| "qrd"; "arf"; "qrd"; "matmul"; "qrd"; "arf" |] in
  let t0 = Unix.gettimeofday () in
  let tickets =
    List.init requests (fun i ->
        let id = Printf.sprintf "c%03d" i in
        Serve.Service.submit svc
          (Serve.Service.request ~id ~budget_ms:10_000. ~deadline_ms:120_000.
             (Serve.Service.Kernel mix.(i mod Array.length mix))))
  in
  let responses = List.map Serve.Service.await tickets in
  let wall_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  let h = Serve.Service.health svc in
  Serve.Service.shutdown svc;
  let cached_responses =
    List.length
      (List.filter
         (fun r ->
           match r.Serve.Service.reply with
           | Serve.Service.Solved s -> s.Serve.Service.cached
           | _ -> false)
         responses)
  in
  let lookups = h.Serve.Service.cache_hits + h.Serve.Service.cache_misses in
  let hit_rate =
    if lookups = 0 then 0.
    else float_of_int h.Serve.Service.cache_hits /. float_of_int lookups
  in
  Format.printf "%-24s %10d@." "requests" requests;
  Format.printf "%-24s %10d / %d@." "cache hits/misses"
    h.Serve.Service.cache_hits h.Serve.Service.cache_misses;
  Format.printf "%-24s %10.2f@." "hit rate" hit_rate;
  Format.printf "%-24s %10d@." "cached responses" cached_responses;
  Format.printf "%-24s %10.1f ms@." "wall" wall_ms;
  let cache_json =
    let num i = Obs.Json.Num (float_of_int i) in
    Obs.Json.Obj
      [
        ("requests", num requests);
        ("pool", num pool);
        ("hits", num h.Serve.Service.cache_hits);
        ("misses", num h.Serve.Service.cache_misses);
        ("evictions", num h.Serve.Service.cache_evictions);
        ("hit_rate", Obs.Json.Num hit_rate);
        ("cached_responses", num cached_responses);
        ("wall_ms", Obs.Json.Num wall_ms);
      ]
  in
  let doc =
    match Obs.Json.parse_file path with
    | Ok j -> set_member "cache" cache_json j
    | Error _ ->
      Obs.Json.Obj
        [
          ("suite", Obs.Json.Str "vecsched-solver");
          ("runs", Obs.Json.Arr []);
          ("cache", cache_json);
        ]
  in
  let oc = open_out path in
  output_string oc (Obs.Json.to_string doc);
  output_string oc "\n";
  close_out oc;
  Format.printf "@.merged \"cache\" section into %s@." path

(* ------------------------------------------------------------------ *)
(* ------------------------------------------------------------------ *)
(* `bench history`: one CSV row per invocation — commit, the kernels'
   sequential optima and deterministic propagation counts, the service
   latency quantiles, the histogram cross-check estimate and the cache
   hit rate, all read from BENCH_solver.json's sections — plus a
   regenerated Markdown trend table next to it, so drift across
   commits is visible at a glance. *)

let git_commit () =
  match Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" with
  | exception _ -> "unknown"
  | ic ->
    let line = try String.trim (input_line ic) with End_of_file -> "" in
    (match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ | (exception _) -> "unknown")

let history_columns =
  [ "commit"; "qrd_makespan"; "arf_makespan"; "matmul_makespan";
    "qrd_propagations"; "service_p50_ms"; "service_p95_ms";
    "service_p99_ms"; "hist_p99_ms"; "cache_hit_rate" ]

let history ?(path = "BENCH_solver.json") ?(csv = "bench_history.csv") () =
  let md = Filename.remove_extension csv ^ ".md" in
  header (Printf.sprintf "Bench history: %s -> %s + %s" path csv md);
  match Obs.Json.parse_file path with
  | Error e ->
    Format.printf "cannot read %s: %s (run `bench perfjson` / `bench load` \
                   first)@." path e;
    1
  | Ok j ->
    let module J = Obs.Json in
    let runs =
      match J.member "runs" j with Some (J.Arr rs) -> rs | _ -> []
    in
    (* the deterministic anchor rows: sequential, default 64 slots *)
    let runf kernel field =
      List.find_opt
        (fun r ->
          J.member "kernel" r = Some (J.Str kernel)
          && J.member "mode" r = Some (J.Str "sequential")
          && J.member "slots" r = Some (J.Num 64.))
        runs
      |> Option.map (J.member field)
      |> function Some (Some (J.Num f)) -> Some f | _ -> None
    in
    let sect name field =
      match J.member name j with
      | Some s -> (
        match J.member field s with Some (J.Num f) -> Some f | _ -> None)
      | None -> None
    in
    let cell = function
      | None -> ""
      | Some f ->
        if Float.is_integer f then Printf.sprintf "%.0f" f
        else Printf.sprintf "%.3f" f
    in
    let commit = git_commit () in
    let row =
      [
        commit;
        cell (runf "QRD" "makespan");
        cell (runf "ARF" "makespan");
        cell (runf "MATMUL" "makespan");
        cell (runf "QRD" "propagations");
        cell (sect "service" "p50_ms");
        cell (sect "service" "p95_ms");
        cell (sect "service" "p99_ms");
        cell (sect "metrics" "p99_hist_ms");
        cell (sect "cache" "hit_rate");
      ]
    in
    let fresh = not (Sys.file_exists csv) in
    let oc = open_out_gen [ Open_append; Open_creat ] 0o644 csv in
    if fresh then output_string oc (String.concat "," history_columns ^ "\n");
    output_string oc (String.concat "," row ^ "\n");
    close_out oc;
    (* regenerate the Markdown table from the whole CSV, latest last *)
    let lines =
      let ic = open_in csv in
      let acc = ref [] in
      (try
         while true do
           let l = input_line ic in
           if String.trim l <> "" then acc := l :: !acc
         done
       with End_of_file -> ());
      close_in ic;
      List.rev !acc
    in
    (match lines with
    | hd :: rows ->
      let cells l = String.split_on_char ',' l in
      let moc = open_out md in
      output_string moc "# Bench history\n\n";
      output_string moc
        "One row per `bench history` run; sections come from \
         `BENCH_solver.json` (`perfjson`, `load`, `cache`).\n\n";
      output_string moc ("| " ^ String.concat " | " (cells hd) ^ " |\n");
      output_string moc
        ("|" ^ String.concat "|" (List.map (fun _ -> "---") (cells hd))
        ^ "|\n");
      List.iter
        (fun l -> output_string moc ("| " ^ String.concat " | " (cells l) ^ " |\n"))
        rows;
      close_out moc
    | [] -> ());
    Format.printf "%-12s %s@." "commit" commit;
    List.iter2
      (fun k v -> if v <> "" then Format.printf "%-20s %s@." k v)
      (List.tl history_columns) (List.tl row);
    Format.printf "@.appended row to %s (%d total), wrote %s@." csv
      (List.length lines - 1) md;
    0

(* perfjson / compare: machine-readable solver metrics for regression
   tracking.  Both run the same in-memory suite; `perfjson` writes it
   to BENCH_solver.json, `compare` diffs it against the committed file
   and gates CI on deterministic-counter regressions. *)

type run_row = {
  r_kernel : string;
  r_mode : string;
  r_slots : int;
  r_status : string;
  r_engine : string;
  r_makespan : int option;
  r_fallback : int option;
  r_nodes : int;
  r_failures : int;
  r_propagations : int;
  r_time_ms : float;
  r_optimal : bool;
  r_minor_words : int option;
      (* minor-heap words the solve allocated in the calling domain;
         [None] only in a baseline written before the column existed *)
  r_node_budget : int option;  (* run under a node budget, no time limit *)
}

let row_key r = (r.r_kernel, r.r_mode, r.r_slots)

let run_row ~kernel ~mode ~slots ?(arch = Vecsched.Arch.default) ?node_budget
    ~g solve =
  let w0 = Gc.minor_words () in
  let o = solve () in
  let words = Gc.minor_words () -. w0 in
  let st = o.Sched.Solve.stats in
  {
    r_kernel = kernel;
    r_mode = mode;
    r_slots = slots;
    r_status = Format.asprintf "%a" Sched.Solve.pp_status o.Sched.Solve.status;
    r_engine = Format.asprintf "%a" Sched.Solve.pp_engine o.Sched.Solve.engine;
    r_makespan =
      Option.map
        (fun sch -> sch.Sched.Schedule.makespan)
        o.Sched.Solve.schedule;
    r_fallback = fallback_makespan ~arch g;
    r_nodes = st.Fd.Search.nodes;
    r_failures = st.Fd.Search.failures;
    r_propagations = st.Fd.Search.propagations;
    r_time_ms = st.Fd.Search.time_ms;
    r_optimal = st.Fd.Search.optimal;
    r_minor_words = Some (int_of_float words);
    r_node_budget = node_budget;
  }

(* The regression suite.  With a trace sink attached (bench --trace),
   every run gets its own named track ("QRD/sequential/64") so a whole
   sweep lands in one Perfetto-loadable file. *)
let suite_rows ?(budget = Fd.Search.time_budget 30_000.) () =
  let rows = ref [] in
  (* One row per (kernel, mode, slots): the Table-1 sweep and the
     per-kernel loop both produce (QRD, sequential, 64), which used to
     land in the file twice — the lazy run wins, the later duplicate is
     skipped. *)
  let seen = Hashtbl.create 16 in
  let idx = ref 0 in
  let add ~kernel ~mode ~slots mk_row =
    let key = (kernel, mode, slots) in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      let row =
        if Obs.enabled () then begin
          let tid = 100 + !idx in
          incr idx;
          let label = Printf.sprintf "%s/%s/%d" kernel mode slots in
          Obs.thread_name ~cat:"bench" ~tid label;
          Obs.span ~cat:"bench" ~tid label mk_row
        end
        else mk_row ()
      in
      rows := row :: !rows
    end
  in
  (* Table 1 sweep: the sequential engine across memory pressures. *)
  List.iter
    (fun slots ->
      let arch = Vecsched.Arch.with_slots Vecsched.Arch.default slots in
      let g = qrd () in
      add ~kernel:"QRD" ~mode:"sequential" ~slots (fun () ->
          run_row ~kernel:"QRD" ~mode:"sequential" ~slots ~arch ~g (fun () ->
              Sched.Solve.run ~arch ~budget g)))
    [ 64; 32; 16; 10; 9 ];
  (* Every kernel, sequential vs 4-worker portfolio, default arch. *)
  List.iter
    (fun (kernel, g) ->
      add ~kernel ~mode:"sequential" ~slots:64 (fun () ->
          run_row ~kernel ~mode:"sequential" ~slots:64 ~g (fun () ->
              Sched.Solve.run ~budget g));
      add ~kernel ~mode:"portfolio-4" ~slots:64 (fun () ->
          run_row ~kernel ~mode:"portfolio-4" ~slots:64 ~g (fun () ->
              Sched.Solve.run ~budget ~parallel:4 g));
      (* the degraded path, measured: what a 0 ms deadline delivers *)
      add ~kernel ~mode:"fallback" ~slots:64 (fun () ->
          run_row ~kernel ~mode:"fallback" ~slots:64 ~g (fun () ->
              Sched.Solve.run ~budget:(Fd.Search.time_budget 0.) g)))
    [ ("QRD", qrd ()); ("ARF", arf ()); ("MATMUL", matmul ()) ];
  (* long deterministic searches under node budgets: the proofs above
     all close early *)
  List.iter
    (fun (kernel, g, nodes) ->
      add ~kernel ~mode:"sequential" ~slots:64 (fun () ->
          let g = g () in
          run_row ~kernel ~mode:"sequential" ~slots:64 ~node_budget:nodes ~g
            (fun () -> Sched.Solve.run ~budget:(Fd.Search.node_budget nodes) g)))
    [ ("BLOCKED8", blocked8, blocked8_nodes); ("BLOCKED12", blocked12, blocked12_nodes) ];
  List.rev !rows

let row_json r =
  let opt = function Some m -> string_of_int m | None -> "null" in
  Printf.sprintf
    "    { \"kernel\": %S, \"mode\": %S, \"slots\": %d, \"status\": %S,\n\
    \      \"engine\": %S, \"makespan\": %s, \"fallback_makespan\": %s,\n\
    \      \"nodes\": %d, \"failures\": %d,\n\
    \      \"propagations\": %d, \"time_ms\": %.1f, \"optimal\": %b,\n\
    \      \"minor_words\": %s, \"node_budget\": %s }"
    r.r_kernel r.r_mode r.r_slots r.r_status r.r_engine (opt r.r_makespan)
    (opt r.r_fallback) r.r_nodes r.r_failures r.r_propagations r.r_time_ms
    r.r_optimal (opt r.r_minor_words) (opt r.r_node_budget)

let perfjson ?(path = "BENCH_solver.json") () =
  header (Printf.sprintf "Solver performance metrics -> %s" path);
  let rows = suite_rows () in
  (* The hot-spot table rides along in the same file (separate,
     instrumented runs -- see profile_rows). *)
  let profiles = profile_rows (profile_kernels ()) in
  (* keep sections written by other generators (`load`, `cache`) *)
  let sections = existing_sections path in
  let oc = open_out path in
  output_string oc
    (Printf.sprintf
       "{\n  \"suite\": \"vecsched-solver\",\n  \"ocaml_version\": %S,\n  \"runs\": [\n"
       Sys.ocaml_version);
  output_string oc (String.concat ",\n" (List.map row_json rows));
  output_string oc "\n  ],\n  \"propagator_profiles\": ";
  output_string oc (Obs.Json.to_string (profile_json profiles));
  List.iter
    (fun (name, sec) ->
      output_string oc (Printf.sprintf ",\n  %S: " name);
      output_string oc (Obs.Json.to_string sec))
    sections;
  output_string oc "\n}\n";
  close_out oc;
  Format.printf "wrote %d runs and %d kernel profiles to %s@."
    (List.length rows) (List.length profiles) path

let parse_baseline path : (run_row list, string) result =
  match Obs.Json.parse_file path with
  | Error e -> Error e
  | Ok j -> (
    match Obs.Json.member "runs" j with
    | Some (Obs.Json.Arr rs) ->
      Ok
        (List.filter_map
           (fun r ->
             let str k =
               match Obs.Json.member k r with
               | Some (Obs.Json.Str s) -> Some s
               | _ -> None
             in
             let num k =
               match Obs.Json.member k r with
               | Some (Obs.Json.Num f) -> Some f
               | _ -> None
             in
             let int ?(default = 0) k =
               match num k with Some f -> int_of_float f | None -> default
             in
             match (str "kernel", str "mode", num "slots") with
             | Some kernel, Some mode, Some slots ->
               Some
                 {
                   r_kernel = kernel;
                   r_mode = mode;
                   r_slots = int_of_float slots;
                   r_status = Option.value ~default:"" (str "status");
                   r_engine = Option.value ~default:"" (str "engine");
                   r_makespan = Option.map int_of_float (num "makespan");
                   r_fallback =
                     Option.map int_of_float (num "fallback_makespan");
                   r_nodes = int "nodes";
                   r_failures = int "failures";
                   r_propagations = int "propagations";
                   r_time_ms = Option.value ~default:0. (num "time_ms");
                   r_optimal =
                     (match Obs.Json.member "optimal" r with
                     | Some (Obs.Json.Bool b) -> b
                     | _ -> false);
                   r_minor_words = Option.map int_of_float (num "minor_words");
                   r_node_budget = Option.map int_of_float (num "node_budget");
                 }
             | _ -> None)
           rs)
    | _ -> Error "missing \"runs\" array")

(* The compiler the baseline's rows were measured on.  Allocation
   counts, unlike nodes and propagations, depend on the compiler and
   its stdlib, so [compare] gates minor_words only when this matches
   the running one. *)
let baseline_ocaml_version path =
  match Obs.Json.parse_file path with
  | Ok j -> (
    match Obs.Json.member "ocaml_version" j with
    | Some (Obs.Json.Str v) -> Some v
    | _ -> None)
  | Error _ -> None

(* Per-kernel propagator run counts from the baseline's
   propagator_profiles section: (kernel, deterministic, (name, runs)
   list).  A kernel is deterministic when it proved optimality or ran
   under a node budget.  Baselines written before the "optimal" field
   existed were all proved-optimal sequential runs, so a missing field
   defaults to [true]. *)
let parse_profile_baseline path :
    ((string * bool * (string * int) list) list, string) result =
  match Obs.Json.parse_file path with
  | Error e -> Error e
  | Ok j -> (
    match Obs.Json.member "propagator_profiles" j with
    | Some (Obs.Json.Arr ks) ->
      Ok
        (List.filter_map
           (fun k ->
             match Obs.Json.member "kernel" k with
             | Some (Obs.Json.Str kernel) ->
               let deterministic =
                 match
                   (Obs.Json.member "optimal" k, Obs.Json.member "node_budget" k)
                 with
                 | _, Some (Obs.Json.Num _) -> true
                 | Some (Obs.Json.Bool b), _ -> b
                 | _ -> true
               in
               let rows =
                 match Obs.Json.member "rows" k with
                 | Some (Obs.Json.Arr rs) ->
                   List.filter_map
                     (fun r ->
                       match
                         (Obs.Json.member "name" r, Obs.Json.member "runs" r)
                       with
                       | Some (Obs.Json.Str n), Some (Obs.Json.Num f) ->
                         Some (n, int_of_float f)
                       | _ -> None)
                     rs
                 | _ -> []
               in
               Some (kernel, deterministic, rows)
             | _ -> None)
           ks)
    | _ -> Error "missing \"propagator_profiles\"")

(* Only rows whose counters are reproducible can gate: portfolio rows
   race OCaml 5 domains (nodes/propagations vary run to run) and
   timeout rows stop on wall-clock, so both are advisory-only; a row
   that stops on a node budget (no time limit) is reproducible.  Time is
   always advisory — it's noisy in CI — and minor_words is advisory
   when the baseline was measured on another compiler.  A deterministic
   baseline row or profile kernel the fresh suite no longer produces is
   a regression: otherwise renaming a kernel would silently end its
   gating. *)
let gate_threshold = 25.

let is_deterministic_row b =
  (not (String.starts_with ~prefix:"portfolio" b.r_mode))
  && (b.r_optimal || b.r_node_budget <> None)

let compare_run ?(against = "BENCH_solver.json") () =
  header
    (Printf.sprintf
       "Regression compare vs %s (gate: propagations/nodes/minor_words \
        and per-propagator runs +%.0f%% on deterministic rows)"
       against gate_threshold);
  match parse_baseline against with
  | Error e ->
    Format.printf "cannot load baseline %s: %s@." against e;
    1
  | Ok base ->
    let fresh = suite_rows () in
    let pct b a =
      if b = 0 then if a = 0 then 0. else infinity
      else 100. *. float_of_int (a - b) /. float_of_int b
    in
    let regressions = ref [] in
    let regression fmt = Printf.ksprintf (fun r -> regressions := r :: !regressions) fmt in
    if List.exists (fun b -> b.r_minor_words = None) base then
      Format.printf
        "(baseline rows without minor_words: allocation gate skipped for \
         them)@.";
    let words_gated =
      match baseline_ocaml_version against with
      | Some v when v = Sys.ocaml_version -> true
      | v ->
        Format.printf
          "(baseline minor_words measured on %s, this is OCaml %s: \
           allocation gate advisory)@."
          (match v with Some v -> "OCaml " ^ v | None -> "an unrecorded compiler")
          Sys.ocaml_version;
        false
    in
    Format.printf
      "%-8s %-12s %6s | %10s %10s %7s | %8s %8s %7s | %11s %11s %7s | %8s \
       %8s@."
      "kernel" "mode" "slots" "props(b)" "props(a)" "d%" "nodes(b)"
      "nodes(a)" "d%" "words(b)" "words(a)" "d%" "ms(b)" "ms(a)";
    List.iter
      (fun b ->
        match List.find_opt (fun f -> row_key f = row_key b) fresh with
        | None ->
          Format.printf "%-8s %-12s %6d | row vanished from the suite@."
            b.r_kernel b.r_mode b.r_slots;
          if is_deterministic_row b then
            regression "%s/%s/%d deterministic row vanished" b.r_kernel
              b.r_mode b.r_slots
        | Some f ->
          let deterministic =
            is_deterministic_row b && is_deterministic_row f
          in
          let dp = pct b.r_propagations f.r_propagations in
          let dn = pct b.r_nodes f.r_nodes in
          let dw =
            match (b.r_minor_words, f.r_minor_words) with
            | Some bw, Some fw -> Some (pct bw fw)
            | _ -> None
          in
          let flag metric d =
            if deterministic && d > gate_threshold then
              regression "%s/%s/%d %s +%.1f%%" b.r_kernel b.r_mode b.r_slots
                metric d
          in
          flag "propagations" dp;
          flag "nodes" dn;
          if words_gated then Option.iter (flag "minor_words") dw;
          let words = function Some w -> string_of_int w | None -> "-" in
          Format.printf
            "%-8s %-12s %6d | %10d %10d %+6.1f%% | %8d %8d %+6.1f%% | %11s \
             %11s %7s | %8.1f %8.1f%s@."
            b.r_kernel b.r_mode b.r_slots b.r_propagations f.r_propagations dp
            b.r_nodes f.r_nodes dn (words b.r_minor_words)
            (words f.r_minor_words)
            (match dw with Some d -> Printf.sprintf "%+.1f%%" d | None -> "-")
            b.r_time_ms f.r_time_ms
            (if deterministic then "" else "  (advisory)"))
      base;
    List.iter
      (fun f ->
        if not (List.exists (fun b -> row_key b = row_key f) base) then
          Format.printf "%-8s %-12s %6d | new row (not in baseline)@."
            f.r_kernel f.r_mode f.r_slots)
      fresh;
    (* Per-propagator run counts: a retired propagator silently coming
       back to life (lost entailment, wake-event widening) shows up
       here long before it costs enough wall-clock to trip the row
       gate.  Sequential profile runs are deterministic whenever both
       sides proved optimality or ran under a node budget, so the same
       threshold gates them. *)
    (match parse_profile_baseline against with
    | Error e -> Format.printf "@.(no propagator-runs baseline: %s)@." e
    | Ok prof_base ->
      let prof_fresh = profile_rows (profile_kernels ()) in
      Format.printf "@.%-8s %-22s %10s %10s %8s@." "kernel" "propagator"
        "runs(b)" "runs(a)" "d%";
      List.iter
        (fun (kernel, b_det, b_rows) ->
          match
            List.find_opt (fun (k, _, _, _) -> k = kernel) prof_fresh
          with
          | None ->
            Format.printf "%-8s | kernel vanished from the profile suite@."
              kernel;
            if b_det then regression "%s deterministic profile kernel vanished" kernel
          | Some (_, f_opt, f_nodes, f_rows) ->
            let deterministic = b_det && (f_opt || f_nodes <> None) in
            List.iter
              (fun (name, b_runs) ->
                let f_runs =
                  match List.find_opt (fun (n, _) -> n = name) f_rows with
                  | Some (_, p) -> p.Obs.Agg.p_runs
                  | None -> 0
                in
                let d = pct b_runs f_runs in
                if deterministic && d > gate_threshold then
                  regression "%s propagator %s runs +%.1f%%" kernel name d;
                Format.printf "%-8s %-22s %10d %10d %+7.1f%%%s@." kernel name
                  b_runs f_runs d
                  (if deterministic then "" else "  (advisory)"))
              b_rows)
        prof_base);
    (match !regressions with
    | [] ->
      Format.printf "@.no solver-counter regressions vs %s@." against;
      0
    | rs ->
      List.iter (fun r -> Format.printf "@.REGRESSION %s" r) (List.rev rs);
      Format.printf "@.";
      1)

(* ------------------------------------------------------------------ *)

let all () =
  graphs ();
  fig3 ();
  fig45 ();
  fig6 ();
  fig8 ();
  table1 ();
  table2 ();
  table3 ();
  utilization ();
  dynamic ()

(* `--trace FILE` (any experiment: the whole sweep lands in one
   Perfetto-loadable trace, one named track per suite run) and
   `--against PATH` (for `compare`) are extracted before dispatch. *)
let extract_opt name args =
  let rec go = function
    | [] -> (None, [])
    | k :: v :: rest when k = name ->
      let found, kept = go rest in
      ((if found = None then Some v else found), kept)
    | x :: rest ->
      let found, kept = go rest in
      (found, x :: kept)
  in
  go args

let () =
  let trace, args = extract_opt "--trace" (List.tl (Array.to_list Sys.argv)) in
  let against, args = extract_opt "--against" args in
  let requests, args = extract_opt "--requests" args in
  let pool, args = extract_opt "--pool" args in
  let lqueue, args = extract_opt "--queue" args in
  let seed, args = extract_opt "--seed" args in
  let lpath, args = extract_opt "--path" args in
  let csv, args = extract_opt "--csv" args in
  let tail_keep, args = extract_opt "--tail-keep" args in
  let flight_dir, args = extract_opt "--flight-dir" args in
  let flight_buf, args = extract_opt "--flight-buf" args in
  let chaos = List.mem "--chaos" args in
  let args = List.filter (fun a -> a <> "--chaos") args in
  let iopt = Option.map int_of_string in
  let dispatch () =
    match args with
    | [] | [ "all" ] -> all (); 0
    | [ "graphs" ] -> graphs (); 0
    | [ "table1" ] -> table1 (); 0
    | [ "table2" ] -> table2 (); 0
    | [ "table3" ] -> table3 (); 0
    | [ "table3-quick" ] ->
      table3 ~budget_excl:10_000. ~budget_incl:20_000. ();
      0
    | [ "fig3" ] -> fig3 (); 0
    | [ "fig45" ] -> fig45 (); 0
    | [ "fig6" ] -> fig6 (); 0
    | [ "fig8" ] -> fig8 (); 0
    | [ "ablations" ] -> ablations (); 0
    | [ "utilization" ] -> utilization (); 0
    | [ "dynamic" ] -> dynamic (); 0
    | [ "archsweep" ] -> archsweep (); 0
    | [ "expressiveness" ] -> expressiveness (); 0
    | [ "bechamel" ] -> bechamel (); 0
    | [ "perfjson" ] -> perfjson ?path:lpath (); 0
    | [ "profile" ] -> profile ?path:lpath (); 0
    | [ "robustness" ] -> robustness (); 0
    | [ "load" ] ->
      load ?path:lpath ?requests:(iopt requests) ?pool:(iopt pool)
        ?queue:(iopt lqueue) ?seed:(iopt seed) ~chaos
        ?tail_keep:(iopt tail_keep) ?flight_dir ?flight_buf:(iopt flight_buf)
        ();
      0
    | [ "cache" ] ->
      cache_bench ?path:lpath ?requests:(iopt requests) ?pool:(iopt pool)
        ?seed:(iopt seed) ();
      0
    | [ "history" ] -> history ?path:lpath ?csv ()
    | [ "compare" ] -> compare_run ?against ()
    | other ->
      Format.eprintf
        "unknown experiment %s (use: graphs table1 table2 table3 fig3 fig45 \
         fig6 fig8 utilization dynamic ablations archsweep bechamel perfjson \
         profile compare robustness load cache history; options: --trace \
         FILE, --against PATH, --path FILE, --csv FILE, \
         --requests/--pool/--queue/--seed N, --chaos, --tail-keep N, \
         --flight-dir DIR, --flight-buf EVENTS)@."
        (String.concat " " other);
      exit 2
  in
  let code =
    match trace with
    | None -> dispatch ()
    | Some path ->
      let code =
        Obs.with_sink
          (Obs.Chrome.sink
             ~other_data:
               [ ("bench", Obs.S (String.concat " " ("bench" :: args))) ]
             ~path ())
          dispatch
      in
      Format.printf "wrote trace %s@." path;
      code
  in
  exit code
