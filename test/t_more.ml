(* Additional coverage: serialization of every kernel, solver status
   edges, reconfiguration counting on schedules, overlap analysis. *)

open Eit_dsl
open Eit

let merged g = (Merge.run g).Merge.graph

let all_kernels () =
  [
    ("matmul", Apps.Matmul.graph (Apps.Matmul.build ()));
    ("matmul-matrix", Apps.Matmul.graph (Apps.Matmul.build_matrix_form ()));
    ("qrd", Apps.Qrd.graph (Apps.Qrd.build ()));
    ("qrd-sorted", Apps.Qrd.graph (Apps.Qrd.build ~sorted:true ()));
    ("arf", Apps.Arf.graph (Apps.Arf.build ()));
    ("fir", Apps.Fir.graph (Apps.Fir.build ()));
    ("corr", Apps.Corr.graph (Apps.Corr.build ()));
    ("detect", Apps.Detect.graph (Apps.Detect.build ()));
  ]

let test_xml_roundtrip_all () =
  List.iter
    (fun (name, g) ->
      let g' = Xml.of_string (Xml.to_string g) in
      Alcotest.(check int) (name ^ " |V|") (Ir.size g) (Ir.size g');
      Alcotest.(check int) (name ^ " |E|") (Ir.edge_count g) (Ir.edge_count g');
      let v = List.sort compare (Ir.eval g) in
      let v' = List.sort compare (Ir.eval g') in
      Alcotest.(check bool) (name ^ " evals equal") true
        (List.for_all2 (fun (i, a) (j, b) -> i = j && Value.equal ~eps:1e-12 a b) v v'))
    (all_kernels ())

let test_validate_all () =
  List.iter
    (fun (name, g) ->
      Alcotest.(check bool) (name ^ " raw valid") true (Ir.validate g = Ok ());
      Alcotest.(check bool) (name ^ " merged valid") true
        (Ir.validate (merged g) = Ok ()))
    (all_kernels ())

let test_merge_preserves_eval_all () =
  List.iter
    (fun (name, g) ->
      let m = merged g in
      let sinks gr =
        List.filter_map
          (fun d -> if Ir.succs gr d = [] then Some (List.assoc d (Ir.eval gr)) else None)
          (Ir.data_nodes gr)
      in
      Alcotest.(check bool) (name ^ " outputs preserved") true
        (List.for_all2 (Value.equal ~eps:1e-9) (sinks g) (sinks m)))
    (all_kernels ())

(* ---------------- solver status edges ---------------- *)

let test_status_timeout_vs_best () =
  let g = merged (Apps.Matmul.graph (Apps.Matmul.build ())) in
  (* 1-node budget: CP finds nothing, the heuristic fallback rescues *)
  let o = Sched.Solve.run ~budget:(Fd.Search.node_budget 1) g in
  Alcotest.(check bool) "degraded to fallback" true
    (o.Sched.Solve.status = Sched.Solve.Feasible_timeout
    && o.Sched.Solve.engine = Sched.Solve.Fallback);
  Alcotest.(check bool) "fallback validated" true
    (match o.Sched.Solve.schedule with
    | Some sch -> Sched.Schedule.is_valid sch
    | None -> false);
  (* without the fallback, the same budget is an honest empty timeout *)
  let o = Sched.Solve.run ~budget:(Fd.Search.node_budget 1) ~fallback:false g in
  Alcotest.(check bool) "timeout, no schedule" true
    (o.Sched.Solve.status = Sched.Solve.Feasible_timeout
    && o.Sched.Solve.schedule = None);
  (* a budget large enough for a solution but not the proof *)
  let o = Sched.Solve.run ~budget:(Fd.Search.node_budget 2_000) g in
  Alcotest.(check bool) "feasible or optimal" true
    (match o.Sched.Solve.status with
    | Sched.Solve.Feasible_timeout | Sched.Solve.Optimal -> true
    | _ -> false);
  Alcotest.(check bool) "still validated" true
    (match o.Sched.Solve.schedule with
    | Some sch -> Sched.Schedule.is_valid sch
    | None -> false)

let test_unsat_at_tiny_memory () =
  (* matmul reads two distinct operands per dotp: 1 slot is unsat, and
     the greedy fallback cannot help either *)
  let g = merged (Apps.Matmul.graph (Apps.Matmul.build ())) in
  let arch = Arch.with_slots Arch.default 1 in
  let o = Sched.Solve.run ~arch ~budget:(Fd.Search.time_budget 5_000.) g in
  Alcotest.(check bool) "infeasible or empty timeout" true
    (match (o.Sched.Solve.status, o.Sched.Solve.schedule) with
    | Sched.Solve.Infeasible, None -> true
    | Sched.Solve.Feasible_timeout, None -> true
    | _ -> false)

(* ---------------- reconfiguration counting on schedules ------------ *)

let test_reconfig_counts () =
  let ctx = Dsl.create () in
  let a = Dsl.vector_input_f ctx [ 1.; 2.; 3.; 4. ] in
  (* two configuration classes force at least one switch *)
  let x = Dsl.v_add ctx a a in
  let y = Dsl.v_mul ctx a a in
  let _ = Dsl.v_add ctx x y in
  let g = Dsl.graph ctx in
  let o = Sched.Solve.run ~budget:(Fd.Search.time_budget 10_000.) g in
  let sch = Option.get o.Sched.Solve.schedule in
  Alcotest.(check bool) "at least 2 switches (add,mul,add)" true
    (Sched.Reconfig.count sch >= 2);
  Alcotest.(check int) "lower bound" 2 (Sched.Reconfig.lower_bound g)

let test_matmul_zero_reconfigs () =
  let g = merged (Apps.Matmul.graph (Apps.Matmul.build ())) in
  let o = Sched.Solve.run ~budget:(Fd.Search.time_budget 10_000.) g in
  let sch = Option.get o.Sched.Solve.schedule in
  Alcotest.(check int) "single config" 0 (Sched.Reconfig.count sch)

(* ---------------- overlap analysis ---------------- *)

let test_overlap_analysis () =
  let g = merged (Apps.Matmul.graph (Apps.Matmul.build ())) in
  let o = Sched.Solve.run ~budget:(Fd.Search.time_budget 10_000.) g in
  let sch = Option.get o.Sched.Solve.schedule in
  let ov = Sched.Overlap.run sch ~m:8 in
  let a = Sched.Analysis.of_overlap g Arch.default ov in
  Alcotest.(check int) "span" ov.Sched.Overlap.length a.Sched.Analysis.span;
  (* overlapped matmul: 16 dotp x 8 iterations on 4 lanes, plus merges *)
  let vec =
    List.find
      (fun r -> r.Sched.Analysis.resource = Opcode.Vector_core)
      a.Sched.Analysis.per_resource
  in
  Alcotest.(check int) "lane-cycles" (16 * 8) vec.Sched.Analysis.issue_slots_used

(* ---------------- Gantt / memory map rendering ---------------- *)

let test_renderings_nonempty () =
  let g = merged (Apps.Detect.graph (Apps.Detect.build ())) in
  let o = Sched.Solve.run ~budget:(Fd.Search.time_budget 10_000.) g in
  let sch = Option.get o.Sched.Solve.schedule in
  let gantt = Format.asprintf "%a" Sched.Schedule.pp_gantt sch in
  let map = Format.asprintf "%a" Sched.Schedule.pp_memory_map sch in
  Alcotest.(check bool) "gantt has issues" true (String.contains gantt '#');
  Alcotest.(check bool) "map has writes" true (String.contains map '#');
  (* every op appears exactly once as '#' in the gantt *)
  let hashes = String.fold_left (fun acc c -> if c = '#' then acc + 1 else acc) 0 gantt in
  Alcotest.(check int) "one # per op" (List.length (Ir.op_nodes g)) hashes

let suite =
  [
    Alcotest.test_case "xml round-trip all kernels" `Quick test_xml_roundtrip_all;
    Alcotest.test_case "validate all kernels" `Quick test_validate_all;
    Alcotest.test_case "merge preserves all outputs" `Quick test_merge_preserves_eval_all;
    Alcotest.test_case "timeout vs feasible" `Quick test_status_timeout_vs_best;
    Alcotest.test_case "unsat at 1 slot" `Quick test_unsat_at_tiny_memory;
    Alcotest.test_case "reconfig counts" `Quick test_reconfig_counts;
    Alcotest.test_case "matmul zero reconfigs" `Quick test_matmul_zero_reconfigs;
    Alcotest.test_case "overlap analysis" `Quick test_overlap_analysis;
    Alcotest.test_case "renderings" `Quick test_renderings_nonempty;
  ]

(* ---------------- blocked 8x8 matmul (future-work scale) ----------- *)

(* The traced result rows of a k x k grid equal the reference product. *)
let check_blocked_values ~k ~seed =
  let b = Apps.Matmul.build_blocked ~seed ~k () in
  let expect = Apps.Matmul.blocked_reference ~k ~seed in
  let got = Apps.Matmul.blocked_rows b in
  Alcotest.(check int) "rows" (4 * k) (Array.length got);
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j v ->
          Alcotest.(check (float 1e-6))
            (Printf.sprintf "C[%d][%d]" i j)
            expect.(i).(j).Cplx.re v.Cplx.re)
        row)
    got;
  b

let test_blocked8_values () = ignore (check_blocked_values ~k:2 ~seed:2)

(* Proven optimal at its lower bound (46 cycles, 456 nodes), then run
   on the simulator. *)
let test_blocked8_schedules_and_simulates () =
  let b = Apps.Matmul.build_blocked8 () in
  let g = merged (Dsl.graph b.Apps.Matmul.bctx) in
  Alcotest.(check bool) "stress-sized graph" true (Ir.size g > 200);
  let bound = (Sched.Bounds.compute g Arch.default).Sched.Bounds.makespan in
  Alcotest.(check int) "bound" 46 bound;
  let o = Sched.Solve.run ~budget:(Fd.Search.time_budget 30_000.) g in
  Alcotest.(check bool) "optimal" true (o.Sched.Solve.status = Sched.Solve.Optimal);
  match o.Sched.Solve.schedule with
  | Some sch -> (
    Alcotest.(check int) "makespan = bound" bound sch.Sched.Schedule.makespan;
    Alcotest.(check bool) "valid" true (Sched.Schedule.is_valid sch);
    match Sched.Codegen.run_and_check sch with
    | Ok () -> ()
    | Error e -> Alcotest.fail e)
  | None -> Alcotest.failf "no schedule (%s)"
      (Format.asprintf "%a" Sched.Solve.pp_status o.Sched.Solve.status)

(* k = 3: a 12x12 product from a 3x3 grid of blocks.  The traced rows
   are the reference product, and the port-aware greedy schedule at 128
   slots runs on the simulator to the same values. *)
let test_blocked12_simulates () =
  let b = check_blocked_values ~k:3 ~seed:3 in
  let g = merged (Dsl.graph b.Apps.Matmul.bctx) in
  let arch = { Eit.Arch.default with Eit.Arch.lines = 8 } in
  match Sched.Heuristic.run ~arch g with
  | Ok sch -> (
    Alcotest.(check bool) "valid" true (Sched.Schedule.is_valid sch);
    match Sched.Codegen.run_and_check sch with
    | Ok () -> ()
    | Error e -> Alcotest.fail e)
  | Error e -> Alcotest.failf "blocked12 greedy: %s" e

let suite =
  suite
  @ [
      Alcotest.test_case "blocked 8x8 values" `Quick test_blocked8_values;
      Alcotest.test_case "blocked 12x12 simulates" `Quick test_blocked12_simulates;
      Alcotest.test_case "blocked 8x8 schedules" `Slow test_blocked8_schedules_and_simulates;
    ]
