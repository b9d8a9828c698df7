open Eit_dsl

let vector_ops sched =
  List.filter
    (fun i ->
      Eit.Opcode.resource (Ir.opcode sched.Schedule.ir i) = Eit.Opcode.Vector_core)
    (Ir.op_nodes sched.Schedule.ir)

let configs sched =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun i -> Hashtbl.replace tbl sched.Schedule.start.(i) (Ir.opcode sched.Schedule.ir i))
    (vector_ops sched);
  List.init (sched.Schedule.makespan + 1) (fun c -> Hashtbl.find_opt tbl c)

let count sched = Eit.Config.count_reconfigs (configs sched)

let lower_bound g =
  let configs =
    List.filter_map
      (fun i ->
        let op = Ir.opcode g i in
        if Eit.Opcode.resource op = Eit.Opcode.Vector_core then Some op else None)
      (Ir.op_nodes g)
  in
  let distinct =
    List.fold_left
      (fun acc op -> if List.exists (Eit.Opcode.config_equal op) acc then acc else op :: acc)
      [] configs
  in
  match distinct with [] | [ _ ] -> 0 | l -> List.length l
