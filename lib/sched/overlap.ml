open Eit_dsl

type t = {
  bundles : (int * int list) list;
  m : int;
  n_instructions : int;
  length : int;
  drain : int;
  reconfigurations : int;
  throughput : float;
}

let bundles_of sched =
  let g = sched.Schedule.ir in
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun i ->
      let c = sched.Schedule.start.(i) in
      Hashtbl.replace tbl c (i :: Option.value ~default:[] (Hashtbl.find_opt tbl c)))
    (Ir.op_nodes g);
  Hashtbl.fold (fun c ops acc -> (c, List.rev ops) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let node_latency = Schedule.node_latency

(* The latency that must be masked between two dependent instructions:
   any op whose result is consumed downstream. *)
let min_overlap_of g arch =
  List.fold_left
    (fun acc i ->
      List.fold_left
        (fun acc d -> if Ir.succs g d = [] then acc else max acc (node_latency g arch i))
        acc (Ir.succs g i))
    1 (Ir.op_nodes g)

let min_overlap sched = min_overlap_of sched.Schedule.ir sched.Schedule.arch

let build g arch bundles ~m =
  let needed = min_overlap_of g arch in
  if m < needed then
    invalid_arg
      (Printf.sprintf "Overlap: m = %d does not mask the %d-cycle latency" m needed);
  let n = List.length bundles in
  (* Drain: after the last copy of the last instruction issues (cycle
     n*m - 1), its results need the unit latency to retire. *)
  let drain =
    match List.rev bundles with
    | (_, ops) :: _ ->
      List.fold_left (fun acc i -> max acc (node_latency g arch i)) 0 ops
    | [] -> 0
  in
  let length = (n * m) + drain in
  let vector_config ops =
    List.find_map
      (fun i ->
        let op = Ir.opcode g i in
        if Eit.Opcode.resource op = Eit.Opcode.Vector_core then Some op else None)
      ops
  in
  let configs = List.map (fun (_, ops) -> vector_config ops) bundles in
  {
    bundles;
    m;
    n_instructions = n;
    length;
    drain;
    reconfigurations = Eit.Config.count_reconfigs configs;
    throughput = float_of_int m /. float_of_int length;
  }

let run sched ~m =
  build sched.Schedule.ir sched.Schedule.arch (bundles_of sched) ~m

let of_bundles g arch bundles ~m =
  build g arch (List.mapi (fun k ops -> (k, ops)) bundles) ~m

let issue_cycle t ~instr ~iter =
  if instr < 0 || instr >= t.n_instructions || iter < 0 || iter >= t.m then
    invalid_arg "Overlap.issue_cycle: out of range";
  (instr * t.m) + iter

let pp ppf t =
  Format.fprintf ppf
    "overlap(M=%d): N=%d instructions, length=%d cc (drain %d), %d reconfigs \
     (%.2f/iter), throughput=%.3f iter/cc"
    t.m t.n_instructions t.length t.drain t.reconfigurations
    (float_of_int t.reconfigurations /. float_of_int t.m)
    t.throughput
