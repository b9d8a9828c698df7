(* Modulo scheduling (Table 3 machinery): bounds, validation, and the
   two optimization modes. *)

open Eit_dsl
open Eit

let merged g = (Merge.run g).Merge.graph
let matmul = lazy (merged (Apps.Matmul.graph (Apps.Matmul.build ())))
let arf = lazy (merged (Apps.Arf.graph (Apps.Arf.build ())))
let qrd = lazy (merged (Apps.Qrd.graph (Apps.Qrd.build ())))

let test_res_mii () =
  (* MATMUL: 16 dotp / 4 lanes = 4, 4 merges on the IM unit = 4 *)
  Alcotest.(check int) "matmul" 4 (Sched.Modulo.res_mii (Lazy.force matmul) Arch.default);
  (* ARF: 16 v_scale -> 4 residues, 12 v_add -> 3 residues => 7 *)
  Alcotest.(check int) "arf" 7 (Sched.Modulo.res_mii (Lazy.force arf) Arch.default)

let test_matmul_exact_paper_row () =
  (* Table 3 MATMUL row: II = 4, no reconfigurations, throughput 0.250,
     identical in both modes *)
  let g = Lazy.force matmul in
  (match Sched.Modulo.solve_excluding ~budget_ms:20_000. g with
  | Some r ->
    Alcotest.(check int) "II" 4 r.Sched.Modulo.ii;
    Alcotest.(check int) "reconfigs" 0 r.Sched.Modulo.reconfigurations;
    Alcotest.(check int) "actual" 4 r.Sched.Modulo.actual_ii;
    Alcotest.(check int) "span" 11 r.Sched.Modulo.span;
    Alcotest.(check (float 1e-9)) "throughput" 0.25 r.Sched.Modulo.throughput;
    Alcotest.(check bool) "valid" true (Sched.Validate.modulo g Arch.default r = Ok ())
  | None -> Alcotest.fail "excluding timed out");
  match Sched.Modulo.solve_including ~budget_ms:20_000. g with
  | Some r -> Alcotest.(check int) "incl actual" 4 r.Sched.Modulo.actual_ii
  | None -> Alcotest.fail "including timed out"

(* Table 3's excluding-reconfigurations rows for QRD and ARF, pinned:
   (II, reconfigurations, actual II, span) of each kernel's minimum-II
   kernel, which the validator accepts (MATMUL's row is pinned above).
   Each solve takes milliseconds. *)
let test_table3_excluding_rows () =
  List.iter
    (fun (name, g, row) ->
      let g = Lazy.force g in
      match Sched.Modulo.solve_excluding ~budget_ms:20_000. g with
      | None -> Alcotest.failf "%s: no kernel" name
      | Some r ->
        Alcotest.(check (list int)) name row
          [ r.Sched.Modulo.ii; r.Sched.Modulo.reconfigurations;
            r.Sched.Modulo.actual_ii; r.Sched.Modulo.span ];
        Alcotest.(check bool) (name ^ " valid") true
          (Sched.Validate.modulo g Arch.default r = Ok ()))
    [
      ("QRD", qrd, [ 18; 11; 29; 210 ]);
      ("ARF", arf, [ 7; 4; 11; 76 ]);
    ]

let test_arf_modes () =
  let g = Lazy.force arf in
  match
    ( Sched.Modulo.solve_excluding ~budget_ms:20_000. g,
      Sched.Modulo.solve_including ~budget_ms:20_000. g )
  with
  | Some ex, Some inc ->
    Alcotest.(check bool) "II >= ResMII" true
      (ex.Sched.Modulo.ii >= Sched.Modulo.res_mii g Arch.default);
    Alcotest.(check bool) "including never worse" true
      (inc.Sched.Modulo.actual_ii <= ex.Sched.Modulo.actual_ii);
    Alcotest.(check bool) "excl valid" true (Sched.Validate.modulo g Arch.default ex = Ok ());
    Alcotest.(check bool) "incl valid" true (Sched.Validate.modulo g Arch.default inc = Ok ())
  | _ -> Alcotest.fail "timeout"

let test_validate_catches_bad_kernel () =
  let g = Lazy.force matmul in
  match Sched.Modulo.solve_excluding ~budget_ms:20_000. g with
  | Some r ->
    (* break a precedence *)
    let bad_start = Array.copy r.Sched.Modulo.start in
    let op =
      List.find (fun i -> Ir.preds g i <> [] &&
                          List.exists (fun d -> Ir.producer g d <> None) (Ir.preds g i))
        (Ir.op_nodes g)
    in
    bad_start.(op) <- 0;
    let bad = { r with Sched.Modulo.start = bad_start } in
    Alcotest.(check bool) "caught" true
      (Result.is_error (Sched.Validate.modulo g Arch.default bad));
    (* break residue capacity: everything at residue 0 *)
    let squash = Array.map (fun s -> s - (s mod r.Sched.Modulo.ii)) r.Sched.Modulo.start in
    let bad2 = { r with Sched.Modulo.start = squash } in
    Alcotest.(check bool) "overload caught" true
      (Result.is_error (Sched.Validate.modulo g Arch.default bad2))
  | None -> Alcotest.fail "timeout"

let test_reconfig_lower_bound () =
  Alcotest.(check int) "matmul single config" 0
    (Sched.Reconfig.lower_bound (Lazy.force matmul));
  Alcotest.(check int) "arf two configs" 2 (Sched.Reconfig.lower_bound (Lazy.force arf))

let test_throughput_formula () =
  let g = Lazy.force arf in
  match Sched.Modulo.solve_excluding ~budget_ms:20_000. g with
  | Some r ->
    Alcotest.(check (float 1e-9)) "1/actual"
      (1. /. float_of_int r.Sched.Modulo.actual_ii)
      r.Sched.Modulo.throughput;
    Alcotest.(check int) "actual = ii + rec"
      (r.Sched.Modulo.ii + r.Sched.Modulo.reconfigurations)
      r.Sched.Modulo.actual_ii
  | None -> Alcotest.fail "timeout"

(* The steady-state interpretation: unroll 3 iterations of the ARF
   kernel and check per-cycle resource usage directly. *)
let test_unrolled_consistency () =
  let g = Lazy.force arf in
  match Sched.Modulo.solve_excluding ~budget_ms:20_000. g with
  | Some r ->
    let ii = r.Sched.Modulo.ii in
    let iters = 3 in
    let horizon = r.Sched.Modulo.span + (iters * ii) in
    for cycle = 0 to horizon do
      let here =
        List.concat_map
          (fun it ->
            List.filter
              (fun i -> r.Sched.Modulo.start.(i) + (it * ii) = cycle)
              (Ir.op_nodes g))
          (List.init iters Fun.id)
      in
      let vec =
        List.filter
          (fun i -> Opcode.resource (Ir.opcode g i) = Opcode.Vector_core)
          here
      in
      let lanes = List.fold_left (fun acc i -> acc + Opcode.lanes (Ir.opcode g i)) 0 vec in
      Alcotest.(check bool) "lane capacity" true (lanes <= 4);
      match vec with
      | first :: rest ->
        List.iter
          (fun i ->
            Alcotest.(check bool) "config exclusive" true
              (Opcode.config_equal (Ir.opcode g first) (Ir.opcode g i)))
          rest
      | [] -> ()
    done
  | None -> Alcotest.fail "timeout"

let suite =
  [
    Alcotest.test_case "res_mii" `Quick test_res_mii;
    Alcotest.test_case "matmul = paper row" `Quick test_matmul_exact_paper_row;
    Alcotest.test_case "arf both modes" `Quick test_arf_modes;
    Alcotest.test_case "validator catches corruption" `Quick test_validate_catches_bad_kernel;
    Alcotest.test_case "reconfig lower bound" `Quick test_reconfig_lower_bound;
    Alcotest.test_case "throughput formula" `Quick test_throughput_formula;
    Alcotest.test_case "unrolled steady state" `Quick test_unrolled_consistency;
    Alcotest.test_case "Table 3 excluding rows" `Quick test_table3_excluding_rows;
  ]
