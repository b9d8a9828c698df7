(* Robustness and graceful degradation: the independent validator on
   every outcome kind, mutation rejection, deadline observance, the
   heuristic fallback path, and fault injection (Fd.Chaos). *)

open Eit_dsl

let merged g = (Merge.run g).Merge.graph

let kernels =
  [
    ("matmul", fun () -> merged (Apps.Matmul.graph (Apps.Matmul.build ())));
    ("qrd", fun () -> merged (Apps.Qrd.graph (Apps.Qrd.build ())));
    ("qrd-sorted", fun () -> merged (Apps.Qrd.graph (Apps.Qrd.build ~sorted:true ())));
    ("arf", fun () -> merged (Apps.Arf.graph (Apps.Arf.build ())));
    ("fir", fun () -> merged (Apps.Fir.graph (Apps.Fir.build ())));
    ("corr", fun () -> merged (Apps.Corr.graph (Apps.Corr.build ())));
    ("detect", fun () -> merged (Apps.Detect.graph (Apps.Detect.build ())));
  ]

let solve ?(budget = 20_000.) g =
  Sched.Solve.run ~budget:(Fd.Search.time_budget budget) g

let schedule_of name o =
  match o.Sched.Solve.schedule with
  | Some sch -> sch
  | None -> Alcotest.failf "%s: no schedule" name

(* ------------- the validator accepts every honest result ------------- *)

let test_validator_accepts_all_kernels () =
  List.iter
    (fun (name, g) ->
      let o = solve (g ()) in
      let sch = schedule_of name o in
      match Sched.Validate.schedule sch with
      | Ok () -> ()
      | Error r -> Alcotest.failf "%s: %a" name Sched.Validate.pp_report r)
    kernels

let test_validator_accepts_fallback () =
  List.iter
    (fun (name, g) ->
      match Sched.Heuristic.run (g ()) with
      | Error e -> Alcotest.failf "%s: fallback failed: %s" name e
      | Ok sch -> (
        match Sched.Validate.schedule sch with
        | Ok () -> ()
        | Error r -> Alcotest.failf "%s: %a" name Sched.Validate.pp_report r))
    kernels

let test_validator_accepts_overlap_and_modulo () =
  let g = merged (Apps.Matmul.graph (Apps.Matmul.build ())) in
  let o = solve g in
  let sch = schedule_of "matmul" o in
  let m = Sched.Overlap.min_overlap sch in
  let ov = Sched.Overlap.run sch ~m in
  (match Sched.Validate.overlap g sch.Sched.Schedule.arch ov with
  | Ok () -> ()
  | Error r -> Alcotest.failf "overlap: %a" Sched.Validate.pp_report r);
  match Sched.Modulo.solve_excluding ~budget_ms:20_000. g with
  | None -> Alcotest.fail "modulo: no result"
  | Some r -> (
    match Sched.Validate.modulo g Eit.Arch.default r with
    | Ok () -> ()
    | Error rep -> Alcotest.failf "modulo: %a" Sched.Validate.pp_report rep)

let test_validator_rejects_tampered_overlap () =
  let g = merged (Apps.Matmul.graph (Apps.Matmul.build ())) in
  let sch = schedule_of "matmul" (solve g) in
  let ov = Sched.Overlap.run sch ~m:(Sched.Overlap.min_overlap sch) in
  (* lie about the reconfiguration count *)
  let forged =
    { ov with Sched.Overlap.reconfigurations = ov.Sched.Overlap.reconfigurations + 1 }
  in
  (match Sched.Validate.overlap g sch.Sched.Schedule.arch forged with
  | Ok () -> Alcotest.fail "forged reconfiguration count accepted"
  | Error _ -> ());
  (* drop a bundle: coverage must catch the missing ops *)
  match ov.Sched.Overlap.bundles with
  | [] -> Alcotest.fail "no bundles"
  | _ :: rest -> (
    let truncated = { ov with Sched.Overlap.bundles = rest } in
    match Sched.Validate.overlap g sch.Sched.Schedule.arch truncated with
    | Ok () -> Alcotest.fail "truncated bundle list accepted"
    | Error _ -> ())

(* --------------------- mutation rejection (QCheck) ------------------- *)

(* A reference schedule, solved once and shared by the mutation tests. *)
let base_schedule =
  lazy
    (let g = merged (Apps.Qrd.graph (Apps.Qrd.build ())) in
     schedule_of "qrd" (solve g))

let with_start sch f =
  let start = Array.copy sch.Sched.Schedule.start in
  f start;
  { sch with Sched.Schedule.start }

let rejects sch = not (Sched.Schedule.is_valid sch)

let shifted_start_rejected =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"mutation: shifted op start rejected" ~count:40
       QCheck2.Gen.(pair (int_bound 10_000) (int_range 1 5))
       (fun (pick, delta) ->
         let sch = Lazy.force base_schedule in
         let ops = Ir.op_nodes sch.Sched.Schedule.ir in
         let op = List.nth ops (pick mod List.length ops) in
         rejects (with_start sch (fun s -> s.(op) <- s.(op) + delta))))

let stolen_slot_rejected =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"mutation: stolen slot rejected" ~count:40
       QCheck2.Gen.(int_bound 10_000)
       (fun pick ->
         let sch = Lazy.force base_schedule in
         (* every pair of data whose lifetimes overlap on distinct slots *)
         let live d =
           let s = Sched.Schedule.start_of sch d in
           (s, s + Sched.Schedule.lifetime sch d)
         in
         let pairs =
           List.concat_map
             (fun (d1, k1) ->
               List.filter_map
                 (fun (d2, k2) ->
                   let b1, e1 = live d1 and b2, e2 = live d2 in
                   if d1 < d2 && k1 <> k2 && b1 < e2 && b2 < e1 then
                     Some (d1, k2)
                   else None)
                 sch.Sched.Schedule.slot)
             sch.Sched.Schedule.slot
         in
         match pairs with
         | [] -> QCheck2.assume_fail ()
         | _ ->
           let d, stolen = List.nth pairs (pick mod List.length pairs) in
           let slot =
             List.map
               (fun (d', k) -> if d' = d then (d', stolen) else (d', k))
               sch.Sched.Schedule.slot
           in
           rejects { sch with Sched.Schedule.slot }))

let swapped_config_rejected =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"mutation: swapped config co-schedule rejected"
       ~count:40
       QCheck2.Gen.(int_bound 10_000)
       (fun pick ->
         let sch = Lazy.force base_schedule in
         let g = sch.Sched.Schedule.ir in
         (* pairs of vector ops with different configurations *)
         let vops =
           List.filter
             (fun i ->
               Eit.Opcode.resource (Ir.opcode g i) = Eit.Opcode.Vector_core)
             (Ir.op_nodes g)
         in
         let pairs =
           List.concat_map
             (fun i ->
               List.filter_map
                 (fun j ->
                   if
                     i < j
                     && not (Eit.Opcode.config_equal (Ir.opcode g i) (Ir.opcode g j))
                   then Some (i, j)
                   else None)
                 vops)
             vops
         in
         match pairs with
         | [] -> QCheck2.assume_fail ()
         | _ ->
           let i, j = List.nth pairs (pick mod List.length pairs) in
           (* force them into the same cycle: eq. 3 must fire *)
           rejects (with_start sch (fun s -> s.(i) <- s.(j)))))

(* ----------------------- graceful degradation ----------------------- *)

let test_budget_zero_falls_back () =
  List.iter
    (fun (name, g) ->
      let o = solve ~budget:0. (g ()) in
      Alcotest.(check bool) (name ^ " fallback engine") true
        (o.Sched.Solve.engine = Sched.Solve.Fallback);
      Alcotest.(check bool) (name ^ " status") true
        (o.Sched.Solve.status = Sched.Solve.Feasible_timeout);
      Alcotest.(check int) (name ^ " exit code") 2 (Sched.Solve.exit_code o);
      Alcotest.(check bool) (name ^ " validated") true
        (o.Sched.Solve.validation = Ok ()
        && (match o.Sched.Solve.schedule with
           | Some sch -> Sched.Schedule.is_valid sch
           | None -> false)))
    kernels

(* The mini preset has 2 lanes; DETECT's and sorted QRD's 4-lane matrix
   ops can never issue there.  That is a property of the problem: a
   crash-free infeasibility proof (exit 3), a fallback error that names
   the op rather than a list scheduler running out of horizon, no modulo
   kernel in either mode (not a Cumulative misuse escaping), and a
   manual baseline that refuses the op instead of looking for a bundle
   forever. *)
let test_too_wide_op_is_infeasible () =
  List.iter
    (fun name ->
      let g = (List.assoc name kernels) () in
      let o = Sched.Solve.run ~arch:Eit.Arch.mini g in
      Alcotest.(check bool) (name ^ " infeasible") true
        (o.Sched.Solve.status = Sched.Solve.Infeasible);
      Alcotest.(check int) (name ^ " exit code") 3 (Sched.Solve.exit_code o);
      Alcotest.(check int) (name ^ " no crashes") 0
        (List.length o.Sched.Solve.crashes);
      (match Sched.Heuristic.run ~arch:Eit.Arch.mini g with
      | Ok _ -> Alcotest.failf "%s: heuristic scheduled a too-wide op" name
      | Error e ->
        Alcotest.(check bool) (name ^ " names the op: " ^ e) true
          (String.starts_with ~prefix:"op " e
          && String.ends_with ~suffix:"needs 4 lanes, the machine has 2" e));
      Alcotest.(check bool) (name ^ " modulo excluding") true
        (Option.is_none
           (Sched.Modulo.solve_excluding ~budget_ms:10_000. ~arch:Eit.Arch.mini g));
      Alcotest.(check bool) (name ^ " modulo including") true
        (Option.is_none
           (Sched.Modulo.solve_including ~budget_ms:10_000. ~arch:Eit.Arch.mini g));
      match Sched.Manual_baseline.run g Eit.Arch.mini with
      | _ -> Alcotest.failf "%s: manual baseline bundled a too-wide op" name
      | exception Invalid_argument e ->
        Alcotest.(check (option string)) (name ^ " manual baseline names the op")
          (Sched.Model.too_wide g Eit.Arch.mini) (Some e))
    [ "detect"; "qrd-sorted" ]

(* QRD in 7 slots with no search time: the greedy finds no legal slot
   either.  Nothing crashed, so the outcome is an honest timeout with
   no schedule (exit 4) that carries the greedy's reason in
   [fallback_error], with no crash entry. *)
let test_failed_fallback_is_no_crash () =
  let g = (List.assoc "qrd" kernels) () in
  let o =
    Sched.Solve.run ~budget:(Fd.Search.time_budget 0.)
      ~arch:(Eit.Arch.with_slots Eit.Arch.default 7) g
  in
  Alcotest.(check bool) "feasible-timeout" true
    (o.Sched.Solve.status = Sched.Solve.Feasible_timeout);
  Alcotest.(check int) "exit code" 4 (Sched.Solve.exit_code o);
  Alcotest.(check int) "no crash entries" 0 (List.length o.Sched.Solve.crashes);
  Alcotest.(check (option string)) "the greedy's reason"
    (Some "no legal slot for datum 7") o.Sched.Solve.fallback_error

let test_deadline_observed () =
  (* an already-expired deadline must come back (degraded) almost
     immediately, even though the budget alone would allow 10 s *)
  let g = merged (Apps.Qrd.graph (Apps.Qrd.build ())) in
  let t0 = Unix.gettimeofday () in
  let o =
    Sched.Solve.run ~budget:(Fd.Search.time_budget 10_000.)
      ~deadline:(Fd.Deadline.after_ms 0.) g
  in
  let dt_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  Alcotest.(check bool) "returned quickly" true (dt_ms < 2_000.);
  Alcotest.(check bool) "fallback used" true
    (o.Sched.Solve.engine = Sched.Solve.Fallback
    && o.Sched.Solve.schedule <> None)

let test_past_deadline_equals_zero_budget () =
  (* an already-expired deadline takes the same fast path as a zero
     budget: no search is started at all (zero nodes, zero
     propagations), only the heuristic fallback runs *)
  let g = merged (Apps.Qrd.graph (Apps.Qrd.build ())) in
  let t0 = Unix.gettimeofday () in
  let by_budget = solve ~budget:0. g in
  let by_deadline =
    Sched.Solve.run ~budget:(Fd.Search.time_budget 10_000.)
      ~deadline:(Fd.Deadline.after_ms (-50.)) g
  in
  let dt_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  Alcotest.(check bool) "both fast" true (dt_ms < 2_000.);
  List.iter
    (fun (name, o) ->
      Alcotest.(check bool) (name ^ " status") true
        (o.Sched.Solve.status = Sched.Solve.Feasible_timeout);
      Alcotest.(check bool) (name ^ " engine") true
        (o.Sched.Solve.engine = Sched.Solve.Fallback);
      Alcotest.(check int) (name ^ " nodes") 0 o.Sched.Solve.stats.Fd.Search.nodes;
      Alcotest.(check int)
        (name ^ " propagations")
        0 o.Sched.Solve.stats.Fd.Search.propagations;
      Alcotest.(check bool) (name ^ " schedule") true
        (match o.Sched.Solve.schedule with
        | Some sch -> Sched.Schedule.is_valid sch
        | None -> false))
    [ ("budget-0", by_budget); ("past-deadline", by_deadline) ]

let test_tiny_budget_inside_propagation () =
  (* the budget is enforced inside the fixpoint loop: a 5 ms budget on
     QRD must not overshoot by a long propagation sweep *)
  let g = merged (Apps.Qrd.graph (Apps.Qrd.build ())) in
  let t0 = Unix.gettimeofday () in
  ignore (Sched.Solve.run ~budget:(Fd.Search.time_budget 5.) g);
  let dt_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  Alcotest.(check bool) "no overshoot" true (dt_ms < 2_000.)

(* --------------------------- fault injection ------------------------- *)

let test_chaos_sequential_crash_rescued () =
  (* kill the sequential engine early: the fallback must rescue, the
     crash must be recorded, and nothing may escape as an exception *)
  let g = merged (Apps.Matmul.graph (Apps.Matmul.build ())) in
  let chaos = Fd.Chaos.create ~crash_at:[ (0, 10) ] ~seed:7 () in
  let o = Sched.Solve.run ~budget:(Fd.Search.time_budget 10_000.) ~chaos g in
  Alcotest.(check bool) "crash recorded" true (o.Sched.Solve.crashes <> []);
  Alcotest.(check bool) "faults logged" true (Fd.Chaos.faults chaos <> []);
  Alcotest.(check bool) "fallback rescued" true
    (o.Sched.Solve.engine = Sched.Solve.Fallback
    && o.Sched.Solve.status = Sched.Solve.Feasible_timeout
    && (match o.Sched.Solve.schedule with
       | Some sch -> Sched.Schedule.is_valid sch
       | None -> false))

let test_chaos_portfolio_survivors_deliver () =
  (* kill one of three portfolio workers mid-search: the survivors must
     still return a validated schedule.  blocked8's default worker
     proves its bound only after 456 nodes, at about 35 propagator
     executions a node, while worker 1 reaches its 50th execution
     within its first nodes, so the kill fires before the race ends; a
     kernel proven at the root could end it first. *)
  let g = merged (Dsl.graph (Apps.Matmul.build_blocked8 ()).Apps.Matmul.bctx) in
  let chaos = Fd.Chaos.create ~crash_at:[ (1, 50) ] ~seed:11 () in
  let o =
    Sched.Solve.run ~budget:(Fd.Search.node_budget 3_000) ~parallel:3 ~chaos g
  in
  Alcotest.(check bool) "crash recorded" true
    (List.exists (fun c -> c.Fd.Portfolio.worker = 1) o.Sched.Solve.crashes);
  Alcotest.(check bool) "survivors delivered a CP schedule" true
    (o.Sched.Solve.engine = Sched.Solve.Cp);
  let sch = schedule_of "blocked8" o in
  Alcotest.(check bool) "validated" true (Sched.Schedule.is_valid sch);
  Alcotest.(check bool) "status sane" true
    (match o.Sched.Solve.status with
    | Sched.Solve.Optimal | Sched.Solve.Feasible_timeout -> true
    | _ -> false)

let test_chaos_all_workers_killed () =
  (* every worker dies: the CP layer reports Crashed, the fallback still
     produces a validated schedule, and Infeasible is never claimed *)
  let g = merged (Apps.Matmul.graph (Apps.Matmul.build ())) in
  let chaos =
    Fd.Chaos.create ~crash_at:[ (0, 5); (1, 5); (2, 5) ] ~seed:3 ()
  in
  let o =
    Sched.Solve.run ~budget:(Fd.Search.time_budget 10_000.) ~parallel:3 ~chaos g
  in
  Alcotest.(check bool) "not infeasible" true
    (o.Sched.Solve.status <> Sched.Solve.Infeasible);
  Alcotest.(check bool) "fallback rescued" true
    (o.Sched.Solve.engine = Sched.Solve.Fallback
    && o.Sched.Solve.schedule <> None);
  Alcotest.(check bool) "all crashes recorded" true
    (List.length
       (List.filter (fun c -> c.Fd.Portfolio.worker >= 0) o.Sched.Solve.crashes)
    >= 3)

let chaos_never_escapes =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make
       ~name:"chaos: random faults never escape, invariants hold" ~count:12
       QCheck2.Gen.(int_bound 1_000_000)
       (fun seed ->
         let g = merged (Apps.Matmul.graph (Apps.Matmul.build ())) in
         (* crash_prob is the share of sites that crash: the run is
            one site, so most seeds crash and the rest check that a
            crash-free run under spurious wakes still proves 11 *)
         let chaos =
           Fd.Chaos.create ~crash_prob:0.75 ~spurious_prob:0.02
             ~delay_prob:0.01 ~delay_ms:0.05 ~seed ()
         in
         let o =
           Sched.Solve.run ~budget:(Fd.Search.node_budget 3_000) ~chaos g
         in
         (* outcome invariants, whatever the injected faults did *)
         (match (o.Sched.Solve.status, o.Sched.Solve.schedule) with
         | (Sched.Solve.Optimal | Sched.Solve.Feasible_timeout), Some sch ->
           Sched.Schedule.is_valid sch
         | (Sched.Solve.Infeasible | Sched.Solve.Crashed), None ->
           (* chaos faults are engine failures, never proofs *)
           o.Sched.Solve.status <> Sched.Solve.Infeasible
           || o.Sched.Solve.crashes = []
         | Sched.Solve.Feasible_timeout, None -> true
         | _, _ -> false)
         (* a crash-free optimal run of matmul must still say 11 *)
         && (o.Sched.Solve.crashes <> []
            || o.Sched.Solve.status <> Sched.Solve.Optimal
            ||
            match o.Sched.Solve.schedule with
            | Some sch -> sch.Sched.Schedule.makespan = 11
            | None -> false)))

(* The plan is a function of (seed, site) alone: two instances agree
   whatever order they are asked in, a [crash_prob] share of the sites
   crash inside the window, a named site gets its named fault, and no
   site may be named twice. *)
let test_chaos_plan_from_seed () =
  let sites = List.init 2_000 Fun.id in
  let make () = Fd.Chaos.create ~crash_prob:0.1 ~wedge_at:[ (5, 3) ] ~seed:42 () in
  let a = make () and b = make () in
  let pa = List.map (Fd.Chaos.plan a) sites in
  Alcotest.(check bool) "same plan, asked in reverse" true
    (pa = List.rev_map (Fd.Chaos.plan b) (List.rev sites));
  Alcotest.(check bool) "named wedge" true
    (Fd.Chaos.plan a 5 = Some (Fd.Chaos.Wedge, 3));
  let crashes =
    List.filter_map (function Some (Fd.Chaos.Crash, e) -> Some e | _ -> None) pa
  in
  let share = float_of_int (List.length crashes) /. 2_000. in
  Alcotest.(check bool) (Printf.sprintf "crash share %.3f near 0.1" share) true
    (share > 0.08 && share < 0.12);
  Alcotest.(check bool) "inside the window" true
    (List.for_all (fun e -> e >= 1 && e <= Fd.Chaos.crash_window) crashes);
  Alcotest.check_raises "a site named twice"
    (Invalid_argument "Chaos.create: a site is named twice") (fun () ->
      ignore (Fd.Chaos.create ~crash_at:[ (0, 1) ] ~wedge_at:[ (0, 2) ] ~seed:0 ()))

(* ------------------- total parse / encode frontends ------------------ *)

let test_xml_errors_are_positioned () =
  (match Xml.parse "<graph>\n  <node id=\"0\" cat=\"nonsense\" label=\"x\"/>\n</graph>" with
  | Ok _ -> Alcotest.fail "bad category accepted"
  | Error e ->
    Alcotest.(check int) "line" 2 e.Xml.line;
    Alcotest.(check bool) "col > 0" true (e.Xml.col > 0));
  (match Xml.parse "<graph>\n  <node id=\"zero\" cat=\"vector_data\" label=\"x\"/>\n</graph>" with
  | Ok _ -> Alcotest.fail "non-integer id accepted"
  | Error e -> Alcotest.(check int) "line" 2 e.Xml.line);
  (match Xml.parse "<graph><node id=\"0\"" with
  | Ok _ -> Alcotest.fail "unterminated tag accepted"
  | Error _ -> ());
  (* the total parser round-trips every kernel *)
  List.iter
    (fun (name, g) ->
      match Xml.parse (Xml.to_string (g ())) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s: %a" name Xml.pp_error e)
    kernels

let test_encode_result_total () =
  let g = merged (Apps.Matmul.graph (Apps.Matmul.build ())) in
  let sch = schedule_of "matmul" (solve g) in
  let p = Sched.Codegen.program sch in
  match Eit.Encode.encode_result p with
  | Error e -> Alcotest.failf "encode: %s" e
  | Ok img -> (
    (match
       Eit.Encode.decode_result ~arch:p.Eit.Instr.arch ~inputs:p.Eit.Instr.inputs
         ~outputs:p.Eit.Instr.outputs img
     with
    | Ok p' ->
      Alcotest.(check bool) "round trip" true
        (p'.Eit.Instr.instrs = p.Eit.Instr.instrs)
    | Error e -> Alcotest.failf "decode: %s" e);
    (* truncation must be an Error naming the word, not an exception *)
    let cut =
      { img with
        Eit.Encode.words =
          Array.sub img.Eit.Encode.words 0 (Array.length img.Eit.Encode.words - 1)
      }
    in
    match
      Eit.Encode.decode_result ~arch:p.Eit.Instr.arch ~inputs:p.Eit.Instr.inputs
        ~outputs:p.Eit.Instr.outputs cut
    with
    | Ok _ -> Alcotest.fail "truncated image decoded"
    | Error e ->
      let contains frag s =
        let n = String.length frag and m = String.length s in
        let rec go i = i + n <= m && (String.sub s i n = frag || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "positioned" true (contains "word" e))

(* ------------- §4.3: modulo kernels and overlaps ------------------- *)

(* The three pipelined kernels: a solved schedule's overlap at the M
   the dynamic check runs, and the modulo kernel without
   reconfigurations. *)
let pipelined =
  lazy
    (List.map
       (fun (name, m) ->
         let g = (List.assoc name kernels) () in
         let sch = schedule_of name (solve g) in
         match Sched.Modulo.solve_excluding ~budget_ms:20_000. g with
         | Some r -> (name, g, Sched.Overlap.run sch ~m, r)
         | None -> Alcotest.failf "%s: modulo timeout" name)
       [ ("matmul", 8); ("arf", 7); ("qrd", 12) ])

let modulo_ok g arch r = Sched.Validate.modulo g arch r = Ok ()

(* Forged figures and durations the kernel cannot absorb: QRD's II-18
   kernel issues 18 scalar ops, one per residue, and MATMUL's II-4
   kernel 4 index/merge ops on residues 0-3, so 2-cycle issue
   durations overload those units in the steady state. *)
let test_validator_rejects_tampered_modulo () =
  let d = Eit.Arch.default in
  List.iter
    (fun (name, g, _, r) ->
      Alcotest.(check bool) (name ^ " honest kernel accepted") true (modulo_ok g d r);
      Alcotest.(check bool) (name ^ " reconfigurations + 1 rejected") false
        (modulo_ok g d
           { r with Sched.Modulo.reconfigurations = r.Sched.Modulo.reconfigurations + 1 });
      Alcotest.(check bool) (name ^ " actual_ii + 1 rejected") false
        (modulo_ok g d { r with Sched.Modulo.actual_ii = r.Sched.Modulo.actual_ii + 1 }))
    (Lazy.force pipelined);
  let kernel name =
    let _, g, _, r = List.find (fun (n, _, _, _) -> n = name) (Lazy.force pipelined) in
    (g, r)
  in
  let g, r = kernel "qrd" in
  Alcotest.(check int) "qrd II" 18 r.Sched.Modulo.ii;
  Alcotest.(check bool) "qrd on scalar_duration = 2 rejected" false
    (modulo_ok g { d with Eit.Arch.scalar_duration = 2 } r);
  let g, r = kernel "matmul" in
  Alcotest.(check int) "matmul II" 4 r.Sched.Modulo.ii;
  Alcotest.(check bool) "matmul on im_duration = 2 rejected" false
    (modulo_ok g { d with Eit.Arch.im_duration = 2 } r);
  (* a corrupt start far away is refused, not unrolled *)
  let start = Array.copy r.Sched.Modulo.start in
  start.(List.hd (Ir.op_nodes g)) <- 1_000_000_000_000;
  let t0 = Unix.gettimeofday () in
  let far = modulo_ok g d { r with Sched.Modulo.start } in
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "start at 10^12 rejected" false far;
  Alcotest.(check bool) (Printf.sprintf "in under 1 s (%.3f s)" dt) true (dt < 1.)

(* A validator's eq. 2 and eq. 3 verdicts, and its precedence verdict,
   in [Reference.periodic_verdicts]'s order. *)
let verdicts = function
  | Ok () -> (true, true, true)
  | Error rep ->
    let holds w =
      not (List.exists (fun v -> v.Sched.Schedule.where = w) rep.Sched.Validate.violations)
    in
    (holds "precedence", holds "resource", holds "configuration")

(* One op of a modulo kernel moved to another start (its result moves
   with it), or an overlap's bundle list with two adjacent bundles
   swapped or one op moved to another bundle.  Both validators must
   reach the brute-force reference's precedence, resource and
   configuration verdicts; the reference unrolls about twice the
   validator's steady-state window. *)
let periodic_checks_equal_reference =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"§4.3 check = unrolled reference" ~count:300
       QCheck2.Gen.(quad (int_bound 2) bool (int_bound 10_000) (int_bound 10_000))
       (fun (k, modulo, a, b) ->
         let _, g, ov, r = List.nth (Lazy.force pipelined) k in
         let arch = Eit.Arch.default in
         let ops = Array.of_list (Ir.op_nodes g) in
         if modulo then begin
           let ii = r.Sched.Modulo.ii in
           let start = Array.copy r.Sched.Modulo.start in
           let op = ops.(a mod Array.length ops) in
           start.(op) <- b mod (r.Sched.Modulo.span + ii);
           (match Ir.succs g op with
           | [ d ] -> start.(d) <- start.(op) + Eit.Arch.latency arch (Ir.opcode g op)
           | _ -> ());
           let latest = Array.fold_left max 0 start + 8 in
           let reference =
             Reference.periodic_verdicts g arch ~start ~ii
               ~iterations:((2 * latest / ii) + 3)
           in
           verdicts (Sched.Validate.modulo g arch { r with Sched.Modulo.start }) = reference
         end
         else begin
           let m = ov.Sched.Overlap.m in
           let bundles = Array.of_list (List.map snd ov.Sched.Overlap.bundles) in
           let n = Array.length bundles in
           if a mod 2 = 0 then begin
             let k = b mod (n - 1) in
             let x = bundles.(k) in
             bundles.(k) <- bundles.(k + 1);
             bundles.(k + 1) <- x
           end
           else begin
             let op = ops.(a / 2 mod Array.length ops) in
             let target = b mod n in
             Array.iteri
               (fun k ops -> bundles.(k) <- List.filter (fun i -> i <> op) ops)
               bundles;
             bundles.(target) <- List.sort compare (op :: bundles.(target))
           end;
           let bundles = List.filter (fun ops -> ops <> []) (Array.to_list bundles) in
           let start = Array.make (Ir.size g) 0 in
           List.iteri (fun k ops -> List.iter (fun i -> start.(i) <- k * m) ops) bundles;
           let reference =
             Reference.periodic_verdicts g arch ~start ~ii:1 ~iterations:m
           in
           verdicts
             (Sched.Validate.overlap g arch (Sched.Overlap.of_bundles g arch bundles ~m))
           = reference
         end))

let suite =
  [
    Alcotest.test_case "validator accepts all kernels (CP)" `Slow
      test_validator_accepts_all_kernels;
    Alcotest.test_case "validator accepts all kernels (fallback)" `Quick
      test_validator_accepts_fallback;
    Alcotest.test_case "validator accepts overlap + modulo" `Slow
      test_validator_accepts_overlap_and_modulo;
    Alcotest.test_case "validator rejects tampered overlap" `Slow
      test_validator_rejects_tampered_overlap;
    shifted_start_rejected;
    stolen_slot_rejected;
    swapped_config_rejected;
    Alcotest.test_case "budget 0 falls back on all kernels" `Quick
      test_budget_zero_falls_back;
    Alcotest.test_case "op wider than the machine is infeasible" `Quick
      test_too_wide_op_is_infeasible;
    Alcotest.test_case "failed fallback is no crash" `Quick
      test_failed_fallback_is_no_crash;
    Alcotest.test_case "deadline observed" `Quick test_deadline_observed;
    Alcotest.test_case "past deadline = zero budget fast path" `Quick
      test_past_deadline_equals_zero_budget;
    Alcotest.test_case "tiny budget: no propagation overshoot" `Quick
      test_tiny_budget_inside_propagation;
    Alcotest.test_case "chaos: sequential crash rescued" `Quick
      test_chaos_sequential_crash_rescued;
    Alcotest.test_case "chaos: portfolio survivors deliver" `Slow
      test_chaos_portfolio_survivors_deliver;
    Alcotest.test_case "chaos: all workers killed" `Slow
      test_chaos_all_workers_killed;
    chaos_never_escapes;
    Alcotest.test_case "xml errors are positioned" `Quick
      test_xml_errors_are_positioned;
    Alcotest.test_case "encode/decode are total" `Slow test_encode_result_total;
    Alcotest.test_case "chaos: plan is a function of (seed, site)" `Quick
      test_chaos_plan_from_seed;
    Alcotest.test_case "validator rejects tampered modulo kernel" `Quick
      test_validator_rejects_tampered_modulo;
    periodic_checks_equal_reference;
  ]
