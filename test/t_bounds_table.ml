(* Makespan lower bounds and the tiny-graph scheduling oracle (solver
   optimum = brute force). *)

open Eit_dsl

let merged g = (Merge.run g).Merge.graph

(* ---------------- Bounds ---------------- *)

let test_bounds_kernels () =
  List.iter
    (fun (name, g, cp_dominant) ->
      let b = Sched.Bounds.compute g Eit.Arch.default in
      let o = Sched.Solve.run ~budget:(Fd.Search.time_budget 20_000.) g in
      let sch = Option.get o.Sched.Solve.schedule in
      Alcotest.(check bool) (name ^ " bound sound") true
        (sch.Sched.Schedule.makespan >= b.Sched.Bounds.makespan);
      if cp_dominant then
        Alcotest.(check int) (name ^ " CP-dominant") b.Sched.Bounds.critical_path
          b.Sched.Bounds.makespan;
      (* zero gap certifies optimality: the critical path for QRD/ARF,
         the vector core's head-body-tail load for MATMUL *)
      Alcotest.(check int) (name ^ " gap") 0 (Sched.Bounds.gap b sch))
    [
      ("qrd", merged (Apps.Qrd.graph (Apps.Qrd.build ())), true);
      ("arf", merged (Apps.Arf.graph (Apps.Arf.build ())), true);
      ("matmul", merged (Apps.Matmul.graph (Apps.Matmul.build ())), false);
    ]

let test_bounds_matmul_structure () =
  let g = merged (Apps.Matmul.graph (Apps.Matmul.build ())) in
  let b = Sched.Bounds.compute g Eit.Arch.default in
  (* 16 dotp on 4 lanes, all ready at cycle 0: 4 issue cycles, and the
     last one still needs its 7-cycle latency plus the 1-cycle merge
     after it.  head 0 + 4 issues - 1 + tail 8 = 11 *)
  Alcotest.(check int) "vector load" 11 b.Sched.Bounds.vector_load;
  (* 4 merges on the serial unit, none before the first dot products
     complete at cycle 7: head 7 + 4 issues - 1 + tail 1 = 11 *)
  Alcotest.(check int) "im load" 11 b.Sched.Bounds.im_load;
  Alcotest.(check int) "critical path" 8 b.Sched.Bounds.critical_path;
  Alcotest.(check int) "combined" 11 b.Sched.Bounds.makespan

(* The bound meets MATMUL's optimum on every preset, so the first
   incumbent closes the proof: a handful of nodes, not a search. *)
let test_bounds_close_matmul () =
  let g = merged (Apps.Matmul.graph (Apps.Matmul.build ())) in
  List.iter
    (fun (name, arch) ->
      let o = Sched.Solve.run ~arch ~budget:(Fd.Search.node_budget 100) g in
      Alcotest.(check bool) (name ^ " optimal") true
        (o.Sched.Solve.status = Sched.Solve.Optimal);
      Alcotest.(check bool)
        (Printf.sprintf "%s within 100 nodes (%d)" name
           o.Sched.Solve.stats.Fd.Search.nodes)
        true
        (o.Sched.Solve.stats.Fd.Search.nodes <= 100);
      let sch = Option.get o.Sched.Solve.schedule in
      Alcotest.(check int) (name ^ " gap") 0
        (Sched.Bounds.gap (Sched.Bounds.compute g arch) sch))
    Eit.Arch.presets

let test_bounds_config_classes () =
  (* 4 adds + 4 muls: 2 classes x 1 cycle each = 2 issues - 1 + 7 = 8 *)
  let ctx = Dsl.create () in
  let a = Dsl.vector_input_f ctx [ 1.; 2.; 3.; 4. ] in
  for _ = 1 to 4 do
    ignore (Dsl.v_add ctx a a);
    ignore (Dsl.v_mul ctx a a)
  done;
  let b = Sched.Bounds.compute (Dsl.graph ctx) Eit.Arch.default in
  Alcotest.(check int) "two classes" 8 b.Sched.Bounds.vector_load

(* ---------------- tiny-graph scheduling oracle ---------------- *)

(* Brute-force optimal makespan of a tiny IR: an exhaustive search over
   op start times in 0..horizon under the ground rules -- precedence
   through the data nodes, at most [n_lanes] lanes and one
   configuration per cycle on the vector core, one op per cycle on the
   scalar and index/merge units.  Ops are placed in topological order,
   each from its operands' completion on; a start whose completion
   cannot beat the best makespan so far ends its loop, since every later
   start completes later still.  [max_int] when nothing fits. *)
let brute_makespan g arch horizon =
  let ops = List.filter (fun i -> Ir.is_op (Ir.category g i)) (Ir.topo_order g) in
  let op i = Ir.opcode g i in
  let lat i = Eit.Arch.latency arch (op i) in
  let start = Array.make (Ir.size g) (-1) in
  let fits placed i c =
    let rc = Eit.Opcode.resource (op i) in
    let mates =
      List.filter
        (fun j -> start.(j) = c && Eit.Opcode.resource (op j) = rc)
        placed
    in
    match rc with
    | Eit.Opcode.Vector_core ->
      List.fold_left
        (fun acc j -> acc + Eit.Opcode.lanes (op j))
        (Eit.Opcode.lanes (op i)) mates
      <= arch.Eit.Arch.n_lanes
      && List.for_all (fun j -> Eit.Opcode.config_equal (op j) (op i)) mates
    | Eit.Opcode.Scalar_accel | Eit.Opcode.Index_merge -> mates = []
  in
  let best = ref max_int in
  let rec go placed makespan = function
    | [] -> best := makespan
    | i :: rest ->
      let ready =
        List.fold_left
          (fun acc d ->
            match Ir.producer g d with
            | Some p -> max acc (start.(p) + lat p)
            | None -> acc)
          0 (Ir.preds g i)
      in
      let c = ref ready in
      while !c <= horizon && max makespan (!c + lat i) < !best do
        if fits placed i !c then begin
          start.(i) <- !c;
          go (i :: placed) (max makespan (!c + lat i)) rest
        end;
        incr c
      done;
      start.(i) <- -1
  in
  go [] 0 ops;
  !best

(* A tiny random program over every issue class: two vector-core
   configurations, a pre-stage one and a 4-lane matrix op, the scalar
   accelerator at both latencies, and the index/merge unit.  Op 10, a
   three-operand [v_mac], reads more vectors per lane than any other
   op; only generators that draw up to 10 use it. *)
let tiny_mixed script =
  let ctx = Dsl.create () in
  let vecs = ref [ Dsl.vector_input_f ctx [ 1.; 2.; 3.; 4. ] ] in
  let scas = ref [ Dsl.scalar_input_f ctx 2. ] in
  let pick l k = List.nth l (k mod List.length l) in
  List.iteri
    (fun i op ->
      let v k = pick !vecs (i + k) and sc k = pick !scas (i + k) in
      match op with
      | 0 -> vecs := Dsl.v_add ctx (v 0) (v 1) :: !vecs
      | 1 -> vecs := Dsl.v_mul ctx (v 0) (v 1) :: !vecs
      | 2 -> vecs := Dsl.v_conj ctx (v 0) :: !vecs
      | 3 -> scas := Dsl.v_squsum ctx (v 0) :: !scas
      | 4 -> scas := Dsl.s_sqrt ctx (sc 0) :: !scas
      | 5 -> scas := Dsl.s_add ctx (sc 0) (sc 1) :: !scas
      | 6 -> scas := Dsl.index ctx (v 0) (i mod 4) :: !scas
      | 7 -> vecs := Dsl.splat ctx (sc 0) :: !vecs
      | 8 ->
        vecs :=
          Dsl.m_squsum ctx (Dsl.matrix_of_rows (v 0) (v 1) (v 2) (v 3))
          :: !vecs
      | 9 -> vecs := Dsl.merge ctx (sc 0) (sc 1) (sc 2) (sc 3) :: !vecs
      | _ -> vecs := Dsl.v_mac ctx (v 0) (v 1) (v 2) :: !vecs)
    script;
  Dsl.graph ctx

(* Soundness of every bound family on every preset: never above the
   brute-force optimum (serializing all ops always fits, so a horizon
   of the latency sum holds an optimal schedule). *)
let bound_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"tiny graphs: bound <= brute force" ~count:100
       ~print:QCheck2.Print.(list int)
       QCheck2.Gen.(list_size (int_range 1 5) (int_bound 9))
       (fun script ->
         let g = tiny_mixed script in
         List.for_all
           (fun (_, arch) ->
             let horizon =
               List.fold_left
                 (fun acc i -> acc + Eit.Arch.latency arch (Ir.opcode g i))
                 0 (Ir.op_nodes g)
             in
             (Sched.Bounds.compute g arch).Sched.Bounds.makespan
             <= brute_makespan g arch horizon)
           Eit.Arch.presets))

(* Memory pressure, as in memory-constrained dataflow scheduling.  The
   bound ignores memory, so at every slot count every validated
   schedule sits at or above it: the greedy list scheduler's, which
   never sees the bound, and the CP model's.  More slots never raise a
   proven CP optimum (a proven infeasibility counts as an infinite
   one).  Tight slot counts can leave a solve undecided within its
   node budget; those take part in the first check only.  The full
   machine always decides. *)
let memory_pressure =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"memory pressure: optimum >= bound, monotone"
       ~count:20 ~print:QCheck2.Print.(list int)
       QCheck2.Gen.(list_size (int_range 2 8) (int_bound 9))
       (fun script ->
         let g = tiny_mixed script in
         let bound =
           (Sched.Bounds.compute g Eit.Arch.default).Sched.Bounds.makespan
         in
         let archs =
           List.map
             (Eit.Arch.with_slots Eit.Arch.default)
             [ 1; 2; 3; 4; 6; 8; Eit.Arch.slots Eit.Arch.default ]
         in
         let runs =
           List.map
             (fun arch ->
               Sched.Solve.run ~arch ~fallback:false
                 ~budget:(Fd.Search.node_budget 5_000) g)
             archs
         in
         let above_bound (sch : Sched.Schedule.t) =
           Sched.Validate.schedule sch <> Ok ()
           || sch.Sched.Schedule.makespan >= bound
         in
         let proven (o : Sched.Solve.outcome) =
           match (o.Sched.Solve.status, o.Sched.Solve.schedule) with
           | Sched.Solve.Optimal, Some sch -> Some sch.Sched.Schedule.makespan
           | Sched.Solve.Infeasible, _ -> Some max_int
           | _ -> None
         in
         let rec monotone = function
           | a :: (b :: _ as rest) -> b <= a && monotone rest
           | _ -> true
         in
         List.for_all
           (fun arch ->
             match Sched.Heuristic.run ~arch g with
             | Ok sch -> above_bound sch
             | Error _ -> true)
           archs
         && List.for_all
              (fun (o : Sched.Solve.outcome) ->
                Option.fold ~none:true ~some:above_bound o.Sched.Solve.schedule)
              runs
         && proven (List.nth runs 6) <> None
         && monotone (List.filter_map proven runs)))

let scheduling_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"tiny graphs: solver = brute force" ~count:15
       QCheck2.Gen.(list_size (int_range 1 3) (int_bound 3))
       (fun script ->
         let ctx = Dsl.create () in
         let a = Dsl.vector_input_f ctx [ 1.; 2.; 3.; 4. ] in
         let vecs = ref [ a ] in
         let pick k = List.nth !vecs (k mod List.length !vecs) in
         List.iteri
           (fun i op ->
             match op with
             | 0 -> vecs := Dsl.v_add ctx (pick i) (pick (i + 1)) :: !vecs
             | 1 -> vecs := Dsl.v_mul ctx (pick i) (pick (i + 1)) :: !vecs
             | 2 -> ignore (Dsl.v_squsum ctx (pick i))
             | _ -> vecs := Dsl.v_sort ctx (pick i) :: !vecs)
           script;
         let g = Dsl.graph ctx in
         (* memory off: the brute force enumerates time only *)
         let o =
           Sched.Solve.run ~memory:false
             ~budget:(Fd.Search.time_budget 10_000.)
             g
         in
         match o.Sched.Solve.schedule with
         | Some sch when o.Sched.Solve.status = Sched.Solve.Optimal ->
           let horizon = 21 in
           sch.Sched.Schedule.makespan = brute_makespan g Eit.Arch.default horizon
         | _ -> false))

let suite =
  [
    Alcotest.test_case "bounds on kernels" `Slow test_bounds_kernels;
    Alcotest.test_case "bounds matmul structure" `Quick test_bounds_matmul_structure;
    Alcotest.test_case "bounds config classes" `Quick test_bounds_config_classes;
    scheduling_oracle;
    Alcotest.test_case "bounds close matmul on presets" `Quick
      test_bounds_close_matmul;
    bound_oracle;
    memory_pressure;
  ]
