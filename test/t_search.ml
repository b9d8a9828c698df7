(* Search engine: optimality proofs against brute force, budgets,
   heuristics, branch & bound monotonicity, Luby restarts. *)

open Fd

let test_first_solution () =
  let s = Store.create () in
  let x = Store.interval_var s 0 5 and y = Store.interval_var s 0 5 in
  Arith.plus s x y (Store.const s 5);
  match
    Search.solve s [ Search.phase [ x; y ] ] ~on_solution:(fun () ->
        (Store.value x, Store.value y))
  with
  | Search.Solution ((a, b), stats) ->
    Alcotest.(check int) "sum" 5 (a + b);
    Alcotest.(check bool) "not a proof" false stats.Search.optimal
  | _ -> Alcotest.fail "expected a solution"

let test_unsat_proof () =
  let s = Store.create () in
  let x = Store.interval_var s 0 1 and y = Store.interval_var s 0 1 in
  let z = Store.interval_var s 0 1 in
  Arith.neq_classes s ~classes:(Array.init 3 Fun.id) [| x; y; z |];
  match Search.solve s [ Search.phase [ x; y; z ] ] ~on_solution:(fun () -> ()) with
  | Search.Unsat stats -> Alcotest.(check bool) "proof" true stats.Search.optimal
  | _ -> Alcotest.fail "expected unsat"

let test_node_budget () =
  let s = Store.create () in
  let vars = List.init 10 (fun _ -> Store.interval_var s 0 9) in
  Arith.neq_classes s ~classes:(Array.init 10 Fun.id) (Array.of_list vars);
  (* force exhaustive exploration with an unsatisfiable objective *)
  let obj = Store.interval_var s 0 100 in
  Arith.max_of s vars obj;
  match
    Search.minimize ~budget:(Search.node_budget 5) s [ Search.phase vars ]
      ~objective:obj ~on_solution:(fun () -> ())
  with
  | Search.Best (_, stats) | Search.Timeout stats ->
    Alcotest.(check bool) "within budget" true (stats.Search.nodes <= 6)
  | Search.Solution _ -> Alcotest.fail "should not finish in 5 nodes"
  | Search.Unsat _ -> Alcotest.fail "satisfiable"

(* Random minimization problems: B&B optimum must equal brute force. *)
let gen_problem =
  QCheck2.Gen.(
    let* n = int_range 2 4 in
    let* dmax = int_range 1 5 in
    (* random binary leq_offset constraints *)
    let* m = int_range 0 4 in
    let* cons = list_repeat m (triple (int_range 0 (n - 1)) (int_range 0 (n - 1)) (int_range (-2) 2)) in
    return (n, dmax, cons))

let bnb_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"B&B optimum = brute force" ~count:200 gen_problem
       (fun (n, dmax, cons) ->
         let cons = List.filter (fun (i, j, _) -> i <> j) cons in
         let build () =
           let s = Store.create () in
           let vars = List.init n (fun _ -> Store.interval_var s 0 dmax) in
           let arr = Array.of_list vars in
           let obj = Store.interval_var s 0 (n * (dmax + 1)) in
           try
             List.iter (fun (i, j, c) -> Arith.leq_offset s arr.(i) c arr.(j)) cons;
             Arith.sum s vars obj;
             Some (s, vars, obj)
           with Store.Fail _ -> None
         in
         let satisfies assignment =
           let arr = Array.of_list assignment in
           List.for_all (fun (i, j, c) -> arr.(i) + c <= arr.(j)) cons
         in
         let domains = List.init n (fun _ -> List.init (dmax + 1) Fun.id) in
         let sols = T_arith.brute domains satisfies in
         let brute_best =
           List.fold_left
             (fun acc sol -> min acc (List.fold_left ( + ) 0 sol))
             max_int sols
         in
         match build () with
         | None -> sols = []
         | Some (s, vars, obj) -> (
           match
             Search.minimize s [ Search.phase vars ] ~objective:obj
               ~on_solution:(fun () -> List.fold_left (fun a v -> a + Store.value v) 0 vars)
           with
           | Search.Solution (v, stats) -> stats.Search.optimal && v = brute_best
           | Search.Unsat _ -> sols = []
           | _ -> false)))

let test_heuristics_same_optimum () =
  (* different heuristics must find the same optimal makespan *)
  let build () =
    let s = Store.create () in
    let vars = Array.init 5 (fun _ -> Store.interval_var s 0 20) in
    Arith.leq_offset s vars.(0) 3 vars.(2);
    Arith.leq_offset s vars.(1) 2 vars.(2);
    Arith.leq_offset s vars.(2) 4 vars.(3);
    Arith.leq_offset s vars.(2) 1 vars.(4);
    Cumulative.post s ~starts:vars ~durations:[| 2; 2; 2; 2; 2 |]
      ~resources:[| 1; 1; 1; 1; 1 |] ~limit:2;
    let obj = Store.interval_var s 0 40 in
    Arith.max_of s (Array.to_list vars) obj;
    (s, Array.to_list vars, obj)
  in
  let optimum var_select =
    let s, vars, obj = build () in
    match
      Search.minimize s [ Search.phase ~var_select vars ] ~objective:obj
        ~on_solution:(fun () -> Store.vmin obj)
    with
    | Search.Solution (v, _) -> v
    | _ -> Alcotest.fail "no optimum"
  in
  let a = optimum Search.first_fail in
  let b = optimum Search.smallest_min in
  let c = optimum Search.input_order in
  let d = optimum Search.most_constrained in
  Alcotest.(check int) "ff = sm" a b;
  Alcotest.(check int) "sm = io" b c;
  Alcotest.(check int) "io = mc" c d

let test_select_mid () =
  let s = Store.create () in
  let x = Store.new_var s (Dom.of_list [ 0; 9; 10 ]) in
  Alcotest.(check int) "mid picks closest to middle" 9 (Search.select_mid x)

let test_phases_ordering () =
  (* phase 2 variables only assigned after phase 1 exhausted *)
  let s = Store.create () in
  let x = Store.interval_var s 0 3 and y = Store.interval_var s 0 3 in
  Arith.lt s x y;
  match
    Search.solve s
      [ Search.phase [ x ]; Search.phase [ y ] ]
      ~on_solution:(fun () -> (Store.value x, Store.value y))
  with
  | Search.Solution ((0, 1), _) -> ()
  | Search.Solution ((a, b), _) ->
    Alcotest.failf "expected lexicographically first (0,1), got (%d,%d)" a b
  | _ -> Alcotest.fail "expected solution"

(* Event-filtered propagation must compute the same fixpoint a full
   sweep would: after propagate, rescheduling every propagator and
   propagating again may not change any domain. *)
let fixpoint_property =
  let gen =
    QCheck2.Gen.(
      let* n = int_range 3 6 in
      let* dmax = int_range 3 12 in
      let* leqs =
        list_size (int_range 0 5)
          (triple (int_range 0 (n - 1)) (int_range 0 (n - 1)) (int_range (-2) 3))
      in
      let* neqs =
        list_size (int_range 0 3) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
      in
      let* use_cumul = bool in
      let* prunes =
        list_size (int_range 0 4) (pair (int_range 0 (n - 1)) (int_range 0 dmax))
      in
      return (n, dmax, leqs, neqs, use_cumul, prunes))
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"event fixpoint = full-sweep fixpoint" ~count:300 gen
       (fun (n, dmax, leqs, neqs, use_cumul, prunes) ->
         let s = Store.create () in
         let xs = Array.init n (fun _ -> Store.interval_var s 0 dmax) in
         try
           List.iter
             (fun (i, j, c) -> if i <> j then Arith.leq_offset s xs.(i) c xs.(j))
             leqs;
           List.iter (fun (i, j) -> if i <> j then Arith.neq s xs.(i) xs.(j)) neqs;
           if use_cumul then
             Cumulative.post s ~starts:xs
               ~durations:(Array.make n 2)
               ~resources:(Array.make n 1)
               ~limit:2;
           Store.propagate s;
           List.iter
             (fun (i, k) ->
               Store.remove_value s xs.(i) k;
               Store.propagate s)
             prunes;
           let doms = Array.map Store.dom xs in
           Store.reschedule_all s;
           Store.propagate s;
           Array.for_all2 Dom.equal doms (Array.map Store.dom xs)
         with Store.Fail _ -> true))

(* The paper's kernels must keep their proven-optimal makespans on the
   event-based prioritized engine (same optima as the seed engine). *)
let kernel_graph build graph =
  (Eit_dsl.Merge.run (graph build)).Eit_dsl.Merge.graph

let solve_makespan g =
  match
    Sched.Solve.run ~budget:(Fd.Search.time_budget 60_000.) g
  with
  | { Sched.Solve.status = Sched.Solve.Optimal; schedule = Some sch; _ } ->
    sch.Sched.Schedule.makespan
  | _ -> Alcotest.fail "expected a proven optimum"

let test_kernel_optima () =
  Alcotest.(check int) "QRD makespan" 168
    (solve_makespan (kernel_graph (Apps.Qrd.build ()) Apps.Qrd.graph));
  Alcotest.(check int) "ARF makespan" 56
    (solve_makespan (kernel_graph (Apps.Arf.build ()) Apps.Arf.graph));
  Alcotest.(check int) "MATMUL makespan" 11
    (solve_makespan (kernel_graph (Apps.Matmul.build ()) Apps.Matmul.graph))

(* Under the same node budget, the portfolio's returned bound is never
   worse than the sequential engine's: its first strategy IS the
   sequential strategy, and cooperative pruning only skips subtrees that
   cannot contain a strictly better solution. *)
let test_portfolio_no_worse () =
  List.iter
    (fun (name, g, nodes) ->
      let budget = Search.node_budget nodes in
      let seq = Sched.Solve.run ~budget g in
      let par = Sched.Solve.run ~budget ~parallel:3 g in
      match (seq.Sched.Solve.schedule, par.Sched.Solve.schedule) with
      | None, _ -> ()  (* sequential found nothing: trivially no worse *)
      | Some _, None ->
        Alcotest.failf "%s: portfolio lost a solution the sequential run found"
          name
      | Some s1, Some s2 ->
        Alcotest.(check bool)
          (name ^ ": portfolio bound no worse")
          true
          (s2.Sched.Schedule.makespan <= s1.Sched.Schedule.makespan))
    [
      ("QRD", kernel_graph (Apps.Qrd.build ()) Apps.Qrd.graph, 60);
      ("MATMUL", kernel_graph (Apps.Matmul.build ()) Apps.Matmul.graph, 300);
    ]

let test_luby () =
  Alcotest.(check (list int)) "prefix"
    [ 1; 1; 2; 1; 1; 2; 4; 1; 1; 2; 1; 1; 2; 4; 8 ]
    (List.init 15 (fun i -> Search.luby (i + 1)))

let test_minimize_restarts () =
  (* same optimum as plain minimize on a small problem *)
  let build () =
    let s = Store.create () in
    let vars = List.init 5 (fun _ -> Store.interval_var s 0 8) in
    Arith.neq_classes s ~classes:(Array.init 5 Fun.id) (Array.of_list vars);
    let obj = Store.interval_var s 0 100 in
    Arith.sum s vars obj;
    (s, vars, obj)
  in
  let s1, v1, o1 = build () in
  let plain =
    match
      Search.minimize s1 [ Search.phase v1 ] ~objective:o1 ~on_solution:(fun () ->
          Store.vmin o1)
    with
    | Search.Solution (v, _) -> v
    | _ -> Alcotest.fail "plain failed"
  in
  let s2, v2, o2 = build () in
  match
    Search.minimize_restarts ~base:16 s2 [ Search.phase v2 ] ~objective:o2
      ~on_solution:(fun () -> Store.vmin o2)
  with
  | Search.Solution (v, st) ->
    Alcotest.(check int) "same optimum" plain v;
    Alcotest.(check bool) "proof" true st.Search.optimal
  | _ -> Alcotest.fail "restarts failed"

let suite =
  [
    Alcotest.test_case "first solution" `Quick test_first_solution;
    Alcotest.test_case "unsat proof" `Quick test_unsat_proof;
    Alcotest.test_case "node budget" `Quick test_node_budget;
    Alcotest.test_case "heuristics agree on optimum" `Quick test_heuristics_same_optimum;
    Alcotest.test_case "select_mid" `Quick test_select_mid;
    Alcotest.test_case "phase ordering" `Quick test_phases_ordering;
    bnb_oracle;
    fixpoint_property;
    Alcotest.test_case "kernel optima preserved" `Slow test_kernel_optima;
    Alcotest.test_case "portfolio no worse than sequential" `Slow
      test_portfolio_no_worse;
    Alcotest.test_case "luby sequence" `Quick test_luby;
    Alcotest.test_case "minimize with restarts" `Quick test_minimize_restarts;
  ]
