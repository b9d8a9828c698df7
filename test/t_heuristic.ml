(* The heuristic list scheduler: validity, quality vs the exact model,
   and the corner where greed fails but CP knows better. *)

open Eit_dsl

let merged g = (Merge.run g).Merge.graph

let kernels =
  [
    ("matmul", fun () -> merged (Apps.Matmul.graph (Apps.Matmul.build ())));
    ("qrd", fun () -> merged (Apps.Qrd.graph (Apps.Qrd.build ())));
    ("arf", fun () -> merged (Apps.Arf.graph (Apps.Arf.build ())));
    ("detect", fun () -> merged (Apps.Detect.graph (Apps.Detect.build ())));
  ]

let test_valid_schedules () =
  List.iter
    (fun (name, g) ->
      match Sched.Heuristic.run (g ()) with
      | Ok sch ->
        Alcotest.(check (list string)) (name ^ " violations") []
          (List.map
             (fun v -> Format.asprintf "%a" Sched.Schedule.pp_violation v)
             (Sched.Schedule.validate sch))
      | Error e -> Alcotest.failf "%s: %s" name e)
    kernels

let test_never_beats_optimum () =
  List.iter
    (fun (name, g) ->
      let g = g () in
      match Sched.Heuristic.run g with
      | Ok heur -> (
        let o = Sched.Solve.run ~budget:(Fd.Search.time_budget 20_000.) g in
        match (o.Sched.Solve.status, o.Sched.Solve.schedule) with
        | Sched.Solve.Optimal, Some exact ->
          Alcotest.(check bool) (name ^ " heuristic >= optimum") true
            (heur.Sched.Schedule.makespan >= exact.Sched.Schedule.makespan)
        | _ -> ())
      | Error e -> Alcotest.failf "%s: %s" name e)
    kernels

let test_simulates () =
  let g = merged (Apps.Qrd.graph (Apps.Qrd.build ())) in
  match Sched.Heuristic.run g with
  | Ok sch -> (
    match Sched.Codegen.run_and_check sch with
    | Ok () -> ()
    | Error e -> Alcotest.fail e)
  | Error e -> Alcotest.fail e

let test_tight_memory_degrades () =
  (* at the smallest memories, greedy allocation gives up where the CP
     model can still reason (or prove infeasibility) *)
  let g = merged (Apps.Qrd.graph (Apps.Qrd.build ())) in
  let at slots = Sched.Heuristic.run ~arch:(Eit.Arch.with_slots Eit.Arch.default slots) g in
  (match at 64 with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "full memory should work: %s" e);
  (* find the smallest memory the heuristic still handles; below it, it
     must fail gracefully with an Error, never an invalid schedule *)
  List.iter
    (fun slots ->
      match at slots with
      | Ok sch ->
        Alcotest.(check bool)
          (Printf.sprintf "valid at %d slots" slots)
          true
          (Sched.Schedule.is_valid sch)
      | Error _ -> ())
    [ 16; 10; 8; 6; 4; 2 ]

let test_greedy_is_fast () =
  let g = merged (Apps.Qrd.graph (Apps.Qrd.build ())) in
  let t0 = Unix.gettimeofday () in
  (match Sched.Heuristic.run g with Ok _ -> () | Error e -> Alcotest.fail e);
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check bool) "sub-second" true (dt < 1.0)

(* The greedy respects the memory ports: blocked8 is where a 4-wide
   v_add bundle and a merge can write 5 vectors back in one cycle
   against a limit of 4, after which allocation finds no legal slot. *)
let test_blocked8_ports () =
  let g = merged (Dsl.graph (Apps.Matmul.build_blocked8 ()).Apps.Matmul.bctx) in
  match Sched.Heuristic.run g with
  | Ok sch ->
    Alcotest.(check (list string)) "violations" []
      (List.map
         (fun v -> Format.asprintf "%a" Sched.Schedule.pp_violation v)
         (Sched.Schedule.validate sch));
    Alcotest.(check int) "49 cycles" 49 sch.Sched.Schedule.makespan
  | Error e -> Alcotest.failf "blocked8: %s" e

(* Multi-cycle issue: a unit stays busy for [Arch.duration] cycles. *)
let test_durations () =
  let arch =
    { Eit.Arch.default with Eit.Arch.vector_duration = 2; scalar_duration = 3 }
  in
  List.iter
    (fun (name, g) ->
      match Sched.Heuristic.run ~arch (g ()) with
      | Ok sch ->
        Alcotest.(check (list string)) (name ^ " violations") []
          (List.map
             (fun v -> Format.asprintf "%a" Sched.Schedule.pp_violation v)
             (Sched.Schedule.validate sch))
      | Error e -> Alcotest.failf "%s: %s" name e)
    kernels

let suite =
  [
    Alcotest.test_case "valid schedules" `Quick test_valid_schedules;
    Alcotest.test_case "blocked8 respects ports" `Quick test_blocked8_ports;
    Alcotest.test_case "durations respected" `Quick test_durations;
    Alcotest.test_case "never beats optimum" `Slow test_never_beats_optimum;
    Alcotest.test_case "simulates" `Quick test_simulates;
    Alcotest.test_case "tight memory degrades gracefully" `Quick test_tight_memory_degrades;
    Alcotest.test_case "greedy is fast" `Quick test_greedy_is_fast;
  ]

(* Random-program cross-check: on arbitrary DSL programs the greedy
   scheduler must stay valid and never beat a proven CP optimum. *)
let random_cross_check =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"random programs: greedy valid, >= optimum"
       ~count:30
       QCheck2.Gen.(list_size (int_range 1 10) (int_bound 9))
       (fun script ->
         let ctx = Dsl.create () in
         let v0 = Dsl.vector_input_f ctx [ 1.; 2.; 3.; 4. ] in
         let s0 = Dsl.scalar_input_f ctx 2. in
         let vecs = ref [ v0 ] and scas = ref [ s0 ] in
         let pick l k = List.nth l (k mod List.length l) in
         List.iteri
           (fun i op ->
             let v () = pick !vecs (i + 1) and sc () = pick !scas (i + 2) in
             match op with
             | 0 -> vecs := Dsl.v_add ctx (v ()) (v ()) :: !vecs
             | 1 -> vecs := Dsl.v_mul ctx (v ()) (v ()) :: !vecs
             | 2 -> scas := Dsl.v_dotp ctx (v ()) (v ()) :: !scas
             | 3 -> vecs := Dsl.v_scale ctx (v ()) (sc ()) :: !vecs
             | 4 -> scas := Dsl.s_add ctx (sc ()) (sc ()) :: !scas
             | 5 -> scas := Dsl.s_sqrt ctx (sc ()) :: !scas
             | 6 -> vecs := Dsl.splat ctx (sc ()) :: !vecs
             | 7 -> scas := Dsl.v_squsum ctx (v ()) :: !scas
             | 8 -> vecs := Dsl.v_naxpy ctx (v ()) (sc ()) (v ()) :: !vecs
             | _ -> scas := Dsl.index ctx (v ()) 2 :: !scas)
           script;
         let g = Dsl.graph ctx in
         match Sched.Heuristic.run g with
         | Error _ -> false
         | Ok heur -> (
           Sched.Schedule.is_valid heur
           && Sched.Codegen.run_and_check heur = Ok ()
           &&
           let o = Sched.Solve.run ~budget:(Fd.Search.time_budget 5_000.) g in
           match (o.Sched.Solve.status, o.Sched.Solve.schedule) with
           | Sched.Solve.Optimal, Some exact ->
             heur.Sched.Schedule.makespan >= exact.Sched.Schedule.makespan
           | _ -> true)))

let suite = suite @ [ random_cross_check ]
