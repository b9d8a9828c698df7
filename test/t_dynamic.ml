(* Dynamic execution of the §4.3 regimes: overlapped and modulo
   schedules materialized as machine programs by [Sched.Periodic] and
   verified on the simulator, plus the utilization analysis and
   interval allocator. *)

open Eit_dsl
open Eit

let merged g = (Merge.run g).Merge.graph

let sched_of ?(budget = 20_000.) g =
  Option.get
    (Sched.Solve.run ~budget:(Fd.Search.time_budget budget) g).Sched.Solve.schedule

(* ---------------- Interval_alloc ---------------- *)

let test_interval_alloc_basic () =
  (* three nested intervals need three slots; disjoint ones reuse *)
  let a, n = Sched.Interval_alloc.color [ (0, 0, 10); (1, 2, 8); (2, 3, 5) ] in
  Alcotest.(check int) "nested: 3 slots" 3 n;
  Alcotest.(check bool) "all assigned" true
    (List.for_all (fun k -> Hashtbl.mem a k) [ 0; 1; 2 ]);
  let _, n2 = Sched.Interval_alloc.color [ (0, 0, 5); (1, 5, 9); (2, 9, 12) ] in
  Alcotest.(check int) "disjoint: 1 slot" 1 n2

let test_interval_alloc_property =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"coloring never overlaps" ~count:200
       QCheck2.Gen.(
         list_size (int_range 1 15) (pair (int_bound 20) (int_bound 10)))
       (fun raw ->
         let intervals =
           List.mapi (fun k (b, len) -> (k, b, b + len)) raw
         in
         let a, n = Sched.Interval_alloc.color intervals in
         (* no two same-slot intervals overlap *)
         List.for_all
           (fun (k1, b1, d1) ->
             List.for_all
               (fun (k2, b2, d2) ->
                 k1 = k2
                 || Hashtbl.find a k1 <> Hashtbl.find a k2
                 || max b1 b2 >= min (max d1 (b1 + 1)) (max d2 (b2 + 1)))
               intervals)
           intervals
         && n <= List.length intervals))

(* ---------------- Analysis ---------------- *)

let test_analysis_one_shot () =
  let g = merged (Apps.Qrd.graph (Apps.Qrd.build ())) in
  let sch = sched_of g in
  let a = Sched.Analysis.of_schedule sch in
  Alcotest.(check int) "span" (sch.Sched.Schedule.makespan + 1) a.Sched.Analysis.span;
  (* §4.2: the one-shot QRD schedule is heavily under-utilized *)
  Alcotest.(check bool) "under-utilized" true
    (Sched.Analysis.vector_utilization a < 0.25);
  Alcotest.(check bool) "has gaps" true (a.Sched.Analysis.longest_gap >= 7)

let test_analysis_modulo_improves () =
  let g = merged (Apps.Arf.graph (Apps.Arf.build ())) in
  let sch = sched_of g in
  let one_shot = Sched.Analysis.of_schedule sch in
  match Sched.Modulo.solve_excluding ~budget_ms:20_000. g with
  | Some r ->
    let steady = Sched.Analysis.of_modulo g Arch.default r in
    Alcotest.(check bool) "modulo utilization higher" true
      (Sched.Analysis.vector_utilization steady
      > Sched.Analysis.vector_utilization one_shot);
    Alcotest.(check int) "window = II" r.Sched.Modulo.ii steady.Sched.Analysis.span
  | None -> Alcotest.fail "modulo timeout"

let test_analysis_counts () =
  (* hand-made: 2 vector ops in one cycle over a 1-cycle... build chain *)
  let ctx = Dsl.create () in
  let a = Dsl.vector_input_f ctx [ 1.; 1.; 1.; 1. ] in
  let x = Dsl.v_add ctx a a in
  let _ = Dsl.v_mul ctx x x in
  let g = Dsl.graph ctx in
  let sch = sched_of g in
  let an = Sched.Analysis.of_schedule sch in
  let vec =
    List.find
      (fun r -> r.Sched.Analysis.resource = Opcode.Vector_core)
      an.Sched.Analysis.per_resource
  in
  Alcotest.(check int) "busy cycles" 2 vec.Sched.Analysis.busy_cycles;
  Alcotest.(check int) "lane-cycles" 2 vec.Sched.Analysis.issue_slots_used;
  Alcotest.(check int) "capacity" (4 * an.Sched.Analysis.span)
    vec.Sched.Analysis.issue_slots_total

(* ---------------- overlapped execution ---------------- *)

let big_arch lines = { Arch.default with Arch.lines }

let overlapped arch sch ~m =
  Sched.Periodic.of_overlap sch.Sched.Schedule.ir arch (Sched.Overlap.run sch ~m)

let test_overlap_sim_kernels () =
  List.iter
    (fun (name, g, m, lines) ->
      let sch = sched_of g in
      match Sched.Periodic.run_and_check (overlapped (big_arch lines) sch ~m) with
      | Ok r ->
        Alcotest.(check int)
          (name ^ " values checked")
          (m * List.length (Ir.op_nodes g))
          r.Sched.Periodic.checked_values
      | Error e -> Alcotest.failf "%s: %s" name e)
    [
      ("matmul", merged (Apps.Matmul.graph (Apps.Matmul.build ())), 8, 16);
      ("arf", merged (Apps.Arf.graph (Apps.Arf.build ())), 7, 32);
      ("qrd", merged (Apps.Qrd.graph (Apps.Qrd.build ())), 12, 16);
    ]

let test_overlap_sim_matmul_strict () =
  (* MATMUL's single-configuration kernel overlaps without any port
     violation even under strict checking *)
  let g = merged (Apps.Matmul.graph (Apps.Matmul.build ())) in
  let sch = sched_of g in
  match Sched.Periodic.run_and_check (overlapped (big_arch 16) sch ~m:8) with
  | Ok r -> Alcotest.(check bool) "strict" true r.Sched.Periodic.access_clean
  | Error e -> Alcotest.fail e

let test_overlap_sim_memory_guard () =
  let g = merged (Apps.Qrd.graph (Apps.Qrd.build ())) in
  let sch = sched_of g in
  (* default memory (4 lines) cannot hold 12 iterations *)
  match Sched.Periodic.to_program (overlapped Arch.default sch ~m:12) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected memory guard"

(* ---------------- modulo execution ---------------- *)

let test_modulo_sim_kernels () =
  List.iter
    (fun (name, g, n, lines) ->
      match Sched.Modulo.solve_excluding ~budget_ms:30_000. g with
      | None -> Alcotest.failf "%s: modulo timeout" name
      | Some r -> (
        match
          Sched.Periodic.run_and_check
            (Sched.Periodic.of_modulo g (big_arch lines) r ~iterations:n)
        with
        | Ok rep ->
          Alcotest.(check int)
            (name ^ " values")
            (n * List.length (Ir.op_nodes g))
            rep.Sched.Periodic.checked_values
        | Error e -> Alcotest.failf "%s: %s" name e))
    [
      ("matmul", merged (Apps.Matmul.graph (Apps.Matmul.build ())), 6, 16);
      ("arf", merged (Apps.Arf.graph (Apps.Arf.build ())), 5, 32);
      ("qrd", merged (Apps.Qrd.graph (Apps.Qrd.build ())), 4, 32);
    ]

let test_modulo_sim_completion () =
  (* steady state: completion = span + (N-1)*II exactly for MATMUL *)
  let g = merged (Apps.Matmul.graph (Apps.Matmul.build ())) in
  match Sched.Modulo.solve_excluding ~budget_ms:20_000. g with
  | None -> Alcotest.fail "timeout"
  | Some r -> (
    match
      Sched.Periodic.run_and_check
        (Sched.Periodic.of_modulo g (big_arch 16) r ~iterations:6)
    with
    | Ok rep ->
      Alcotest.(check int) "completion"
        (r.Sched.Modulo.span + (5 * r.Sched.Modulo.ii))
        rep.Sched.Periodic.completion
    | Error e -> Alcotest.fail e)

let suite =
  [
    Alcotest.test_case "interval alloc basics" `Quick test_interval_alloc_basic;
    test_interval_alloc_property;
    Alcotest.test_case "analysis one-shot QRD" `Quick test_analysis_one_shot;
    Alcotest.test_case "analysis modulo improves" `Quick test_analysis_modulo_improves;
    Alcotest.test_case "analysis counts" `Quick test_analysis_counts;
    Alcotest.test_case "overlap sim kernels" `Slow test_overlap_sim_kernels;
    Alcotest.test_case "overlap sim matmul strict" `Quick test_overlap_sim_matmul_strict;
    Alcotest.test_case "overlap sim memory guard" `Quick test_overlap_sim_memory_guard;
    Alcotest.test_case "modulo sim kernels" `Slow test_modulo_sim_kernels;
    Alcotest.test_case "modulo sim completion" `Quick test_modulo_sim_completion;
  ]

(* ---------------- streaming inputs ---------------- *)

let test_streaming_modulo () =
  (* a stream of different matrices through the modulo-scheduled MATMUL:
     every iteration's 16 products must match that iteration's input *)
  let app = Apps.Matmul.build () in
  let g = merged (Apps.Matmul.graph app) in
  match Sched.Modulo.solve_excluding ~budget_ms:20_000. g with
  | None -> Alcotest.fail "timeout"
  | Some r ->
    let inputs = Ir.inputs g in
    let stream iter =
      List.mapi
        (fun row d ->
          ( d,
            Value.vector
              (Array.init 4 (fun col ->
                   Cplx.of_float (float_of_int ((iter * 16) + (row * 4) + col))))
          ))
        inputs
    in
    (match
       Sched.Periodic.run_and_check ~stream
         (Sched.Periodic.of_modulo g (big_arch 16) r ~iterations:5)
     with
    | Ok rep ->
      Alcotest.(check int) "all values" (5 * 20) rep.Sched.Periodic.checked_values
    | Error e -> Alcotest.fail e)

let test_ir_eval_override () =
  let ctx = Dsl.create () in
  let a = Dsl.vector_input_f ctx [ 1.; 2.; 3.; 4. ] in
  let s = Dsl.v_squsum ctx a in
  let g = Dsl.graph ctx in
  let d = Dsl.node_of_scalar s in
  (* default: 30; overridden: 4 *)
  (match List.assoc d (Ir.eval g) with
  | Value.Scalar c -> Alcotest.(check (float 1e-9)) "default" 30. c.Cplx.re
  | _ -> Alcotest.fail "kind");
  let ones = Value.vector (Array.make 4 Cplx.one) in
  (match List.assoc d (Ir.eval ~inputs:[ (Dsl.node_of_vector a, ones) ] g) with
  | Value.Scalar c -> Alcotest.(check (float 1e-9)) "overridden" 4. c.Cplx.re
  | _ -> Alcotest.fail "kind");
  (* bad override rejected *)
  Alcotest.(check bool) "non-input rejected" true
    (match Ir.eval ~inputs:[ (d, ones) ] g with
    | exception Invalid_argument _ -> true
    | _ -> false)

let suite =
  suite
  @ [
      Alcotest.test_case "streaming modulo inputs" `Quick test_streaming_modulo;
      Alcotest.test_case "Ir.eval input override" `Quick test_ir_eval_override;
    ]

let test_streaming_qrd () =
  (* different channels per initiation through the modulo QRD kernel *)
  let g = merged (Apps.Qrd.graph (Apps.Qrd.build ())) in
  match Sched.Modulo.solve_excluding ~budget_ms:20_000. g with
  | None -> Alcotest.fail "timeout"
  | Some r ->
    (* override the H columns (rows of the column-major input); keep sI *)
    let h_inputs =
      List.filter
        (fun d ->
          let label = (Ir.node g d).Ir.label in
          String.length label >= 1 && label.[0] = 'H')
        (Ir.inputs g)
    in
    Alcotest.(check int) "four H columns" 4 (List.length h_inputs);
    let stream iter =
      List.mapi
        (fun j d ->
          ( d,
            Value.vector
              (Array.init 4 (fun i ->
                   Cplx.make
                     (1. +. float_of_int ((iter + j + i) mod 3))
                     (0.1 *. float_of_int iter))) ))
        h_inputs
    in
    (match
       Sched.Periodic.run_and_check ~stream
         (Sched.Periodic.of_modulo g (big_arch 32) r ~iterations:3)
     with
    | Ok rep ->
      Alcotest.(check bool) "values verified per iteration" true
        (rep.Sched.Periodic.checked_values = 3 * List.length (Ir.op_nodes g))
    | Error e -> Alcotest.fail e)

let suite = suite @ [ Alcotest.test_case "streaming qrd channels" `Quick test_streaming_qrd ]

(* Overlapped execution is the periodic schedule with op starts
   M * bundle, data at producer + latency, II 1 and M iterations; the
   one materializer runs it with the figures the overlap-specific one
   had: values verified, port-clean flags, and every iteration one
   cycle behind the previous one. *)
let test_overlap_is_periodic () =
  List.iter
    (fun (name, g, m, lines, values, clean) ->
      let sch = sched_of g in
      let ov = Sched.Overlap.run sch ~m in
      let p = Sched.Periodic.of_overlap g (big_arch lines) ov in
      List.iteri
        (fun k (_, ops) ->
          List.iter
            (fun i ->
              Alcotest.(check int) (name ^ " op start") (k * m)
                p.Sched.Periodic.start.(i))
            ops)
        ov.Sched.Overlap.bundles;
      List.iter
        (fun d ->
          match Ir.producer g d with
          | Some q ->
            Alcotest.(check int) (name ^ " data start")
              (p.Sched.Periodic.start.(q) + Sched.Schedule.latency_of sch q)
              p.Sched.Periodic.start.(d)
          | None -> Alcotest.(check int) (name ^ " input start") 0 p.Sched.Periodic.start.(d))
        (Ir.data_nodes g);
      Alcotest.(check (pair int int)) (name ^ " II, iterations") (1, m)
        (p.Sched.Periodic.ii, p.Sched.Periodic.iterations);
      Alcotest.(check bool) (name ^ " fits") true
        (Sched.Periodic.lines_needed p <= lines);
      match Sched.Periodic.run_and_check p with
      | Ok r ->
        Alcotest.(check int) (name ^ " values") values r.Sched.Periodic.checked_values;
        Alcotest.(check bool) (name ^ " port-clean") clean r.Sched.Periodic.access_clean;
        Alcotest.(check int) (name ^ " completion")
          (Sched.Periodic.span p + (m - 1))
          r.Sched.Periodic.completion
      | Error e -> Alcotest.failf "%s: %s" name e)
    [
      ("matmul", merged (Apps.Matmul.graph (Apps.Matmul.build ())), 8, 16, 160, true);
      ("arf", merged (Apps.Arf.graph (Apps.Arf.build ())), 7, 32, 196, true);
      ("qrd", merged (Apps.Qrd.graph (Apps.Qrd.build ())), 12, 16, 744, false);
    ]

let suite =
  suite @ [ Alcotest.test_case "overlap = periodic, II 1" `Quick test_overlap_is_periodic ]
