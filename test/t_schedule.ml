(* Schedule validator: accepts solver output, rejects every kind of
   corruption (failure injection). *)

open Eit_dsl

let solved_qrd =
  lazy
    (let g = (Merge.run (Apps.Qrd.graph (Apps.Qrd.build ()))).Merge.graph in
     let o = Sched.Solve.run ~budget:(Fd.Search.time_budget 20_000.) g in
     Option.get o.Sched.Solve.schedule)

let copy sch =
  { sch with Sched.Schedule.start = Array.copy sch.Sched.Schedule.start }

let has_violation where sch =
  List.exists
    (fun v -> v.Sched.Schedule.where = where)
    (Sched.Schedule.validate sch)

let test_valid () =
  let sch = Lazy.force solved_qrd in
  Alcotest.(check (list string)) "no violations" []
    (List.map
       (fun v -> Format.asprintf "%a" Sched.Schedule.pp_violation v)
       (Sched.Schedule.validate sch))

let test_precedence_injection () =
  let sch = copy (Lazy.force solved_qrd) in
  (* pull some operation before its operands are ready *)
  let g = sch.Sched.Schedule.ir in
  let victim =
    List.find
      (fun i -> List.exists (fun p -> Ir.producer g p <> None) (Ir.preds g i))
      (Ir.op_nodes g)
  in
  sch.Sched.Schedule.start.(victim) <- 0;
  Alcotest.(check bool) "caught" true
    (Sched.Schedule.validate sch <> [])

let test_lane_overload_injection () =
  let sch = copy (Lazy.force solved_qrd) in
  let g = sch.Sched.Schedule.ir in
  (* put five vector ops in the same cycle *)
  let vops =
    List.filter
      (fun i -> Eit.Opcode.resource (Ir.opcode g i) = Eit.Opcode.Vector_core)
      (Ir.op_nodes g)
  in
  List.iteri
    (fun k i -> if k < 5 then sch.Sched.Schedule.start.(i) <- 500 + 0)
    vops;
  Alcotest.(check bool) "caught" true (Sched.Schedule.validate sch <> [])

let test_config_injection () =
  let sch = copy (Lazy.force solved_qrd) in
  let g = sch.Sched.Schedule.ir in
  (* co-schedule two differently-configured vector ops far from others *)
  let a =
    List.find
      (fun i -> Eit.Opcode.config_equal (Ir.opcode g i) (Eit.Opcode.v Vsqsum))
      (Ir.op_nodes g)
  in
  let b =
    List.find
      (fun i -> Eit.Opcode.config_equal (Ir.opcode g i) (Eit.Opcode.v Vscale))
      (Ir.op_nodes g)
  in
  sch.Sched.Schedule.start.(a) <- 700;
  sch.Sched.Schedule.start.(b) <- 700;
  Alcotest.(check bool) "caught" true (has_violation "configuration" sch
                                       || Sched.Schedule.validate sch <> [])

let test_slot_corruption () =
  let base = Lazy.force solved_qrd in
  (* map every vector datum to slot 0: lifetimes must clash *)
  let sch =
    { base with Sched.Schedule.slot = List.map (fun (d, _) -> (d, 0)) base.Sched.Schedule.slot }
  in
  Alcotest.(check bool) "caught" true
    (has_violation "slot-reuse" sch || has_violation "memory-access" sch)

let test_out_of_range_slot () =
  let base = Lazy.force solved_qrd in
  let sch =
    { base with
      Sched.Schedule.slot =
        (match base.Sched.Schedule.slot with
        | (d, _) :: rest -> (d, 9999) :: rest
        | [] -> []) }
  in
  Alcotest.(check bool) "caught" true (has_violation "memory" sch)

let test_missing_slot () =
  let base = Lazy.force solved_qrd in
  let sch = { base with Sched.Schedule.slot = List.tl base.Sched.Schedule.slot } in
  Alcotest.(check bool) "caught" true (has_violation "memory" sch)

let test_makespan_lie () =
  let base = Lazy.force solved_qrd in
  let sch = { base with Sched.Schedule.makespan = base.Sched.Schedule.makespan + 5 } in
  Alcotest.(check bool) "caught" true (has_violation "makespan" sch)

let test_data_start_lie () =
  let sch = copy (Lazy.force solved_qrd) in
  let g = sch.Sched.Schedule.ir in
  let d = List.find (fun d -> Ir.producer g d <> None) (Ir.data_nodes g) in
  sch.Sched.Schedule.start.(d) <- sch.Sched.Schedule.start.(d) + 1;
  Alcotest.(check bool) "caught" true (has_violation "data-start" sch)

let test_lifetime_and_slots_used () =
  let sch = Lazy.force solved_qrd in
  let g = sch.Sched.Schedule.ir in
  List.iter
    (fun d ->
      if Ir.category g d = Ir.Vector_data then begin
        let life = Sched.Schedule.lifetime sch d in
        Alcotest.(check bool) "positive" true (life >= 1);
        List.iter
          (fun c ->
            Alcotest.(check bool) "covers uses" true
              (sch.Sched.Schedule.start.(d) + life > sch.Sched.Schedule.start.(c)))
          (Ir.succs g d)
      end)
    (Ir.data_nodes g);
  Alcotest.(check bool) "slots used sane" true
    (Sched.Schedule.slots_used sch >= 1
    && Sched.Schedule.slots_used sch <= Eit.Arch.slots sch.Sched.Schedule.arch)

(* The bucketed validator against the per-cycle scan it replaced
   ([Reference.memory_violations]), on valid schedules of the four
   kernels with one to three corruptions each: a start shifted by one,
   two slots swapped, a datum moved into a slot live at its start, a
   slot binding dropped, a binding duplicated (a second slot for a
   datum, before or after its first).  The memory violations must be
   the same, in the same order. *)
let base_schedules =
  lazy
    (let merged g = (Merge.run g).Merge.graph in
     let cp g =
       Option.get
         (Sched.Solve.run ~budget:(Fd.Search.time_budget 20_000.) g).Sched.Solve.schedule
     in
     [|
       Lazy.force solved_qrd;
       cp (merged (Apps.Arf.graph (Apps.Arf.build ())));
       cp (merged (Apps.Matmul.graph (Apps.Matmul.build ())));
       Result.get_ok
         (Sched.Heuristic.run
            (merged (Dsl.graph (Apps.Matmul.build_blocked8 ()).Apps.Matmul.bctx)));
     |])

let corrupt (sch : Sched.Schedule.t) (kind, (a, b, c)) =
  let start = Array.copy sch.start and slots = Array.of_list sch.slot in
  let len = Array.length slots in
  let slot_list = Array.to_list slots in
  let sch = { sch with start } in
  match kind with
  | 0 ->
    let i = a mod Array.length start in
    start.(i) <- (start.(i) + if b mod 2 = 0 then 1 else -1);
    sch
  | 1 when len >= 2 ->
    let p = a mod len and q = b mod len in
    let (dp, kp), (dq, kq) = (slots.(p), slots.(q)) in
    slots.(p) <- (dp, kq);
    slots.(q) <- (dq, kp);
    { sch with slot = Array.to_list slots }
  | 2 when len >= 2 ->
    let d, _ = slots.(a mod len) in
    let live =
      List.filter
        (fun (e, _) ->
          e <> d
          && start.(e) <= start.(d)
          && start.(d) < start.(e) + Sched.Schedule.lifetime sch e)
        slot_list
    in
    (match live with
    | [] -> sch
    | _ ->
      let _, k = List.nth live (b mod List.length live) in
      { sch with
        slot = List.map (fun (e, k') -> if e = d then (e, k) else (e, k')) slot_list })
  | 3 when len >= 1 ->
    { sch with slot = List.filteri (fun j _ -> j <> a mod len) slot_list }
  | 4 when len >= 1 ->
    let d, _ = slots.(a mod len) in
    let k = b mod Eit.Arch.slots sch.arch and at = c mod (len + 1) in
    { sch with
      slot =
        List.filteri (fun j _ -> j < at) slot_list
        @ ((d, k) :: List.filteri (fun j _ -> j >= at) slot_list) }
  | 5 ->
    (* co-schedule two ops *)
    let ops = Array.of_list (Ir.op_nodes sch.ir) in
    let n = Array.length ops in
    start.(ops.(a mod n)) <- start.(ops.(b mod n));
    sch
  | _ -> sch

let bucketed_equals_per_cycle =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"bucketed validator = per-cycle scan" ~count:300
       QCheck2.Gen.(
         pair (int_bound 3)
           (list_size (int_range 1 3)
              (pair (int_bound 4) (triple nat nat nat))))
       (fun (k, corruptions) ->
         let sch = List.fold_left corrupt (Lazy.force base_schedules).(k) corruptions in
         let memory v =
           List.mem v.Sched.Schedule.where [ "memory"; "slot-reuse"; "memory-access" ]
         in
         List.filter memory (Sched.Schedule.validate sch) = Reference.memory_violations sch))

(* The bucketed eq. 3 check against the scan of every pair of
   vector-core ops it replaced ([Reference.config_violations]), on the
   same corrupted schedules, plus two ops moved to one cycle.  The
   configuration violations must be the same, in the same order. *)
let config_buckets_equal_pairs =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"bucketed eq. 3 check = pairwise scan" ~count:300
       QCheck2.Gen.(
         pair (int_bound 3)
           (list_size (int_range 1 3)
              (pair (int_bound 5) (triple nat nat nat))))
       (fun (k, corruptions) ->
         let sch = List.fold_left corrupt (Lazy.force base_schedules).(k) corruptions in
         List.filter
           (fun v -> v.Sched.Schedule.where = "configuration")
           (Sched.Schedule.validate sch)
         = Reference.config_violations sch))

(* The memory-access check visits the cycles that hold an issue or a
   write, not every cycle up to the largest start: QRD with one op
   moved to cycle 10^12 is rejected at once. *)
let test_far_start_rejected_fast () =
  let sch = copy (Lazy.force solved_qrd) in
  let op = List.hd (Ir.op_nodes sch.Sched.Schedule.ir) in
  sch.Sched.Schedule.start.(op) <- 1_000_000_000_000;
  let t0 = Unix.gettimeofday () in
  let violations = Sched.Schedule.validate sch in
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "rejected" true (violations <> []);
  Alcotest.(check bool) (Printf.sprintf "in under 1 s (%.3f s)" dt) true (dt < 1.)

let suite =
  [
    Alcotest.test_case "solver output validates" `Quick test_valid;
    Alcotest.test_case "precedence injection" `Quick test_precedence_injection;
    Alcotest.test_case "lane overload injection" `Quick test_lane_overload_injection;
    Alcotest.test_case "config injection" `Quick test_config_injection;
    Alcotest.test_case "slot corruption" `Quick test_slot_corruption;
    Alcotest.test_case "out-of-range slot" `Quick test_out_of_range_slot;
    Alcotest.test_case "missing slot" `Quick test_missing_slot;
    Alcotest.test_case "makespan lie" `Quick test_makespan_lie;
    Alcotest.test_case "data-start lie" `Quick test_data_start_lie;
    Alcotest.test_case "lifetimes + slots used" `Quick test_lifetime_and_slots_used;
    bucketed_equals_per_cycle;
    config_buckets_equal_pairs;
    Alcotest.test_case "start at 10^12 rejected in under 1 s" `Quick
      test_far_start_rejected_fast;
  ]
