open Eit_dsl

let node_latency = Schedule.node_latency

(* ---------------- phase 1: list scheduling ---------------- *)

(* Vector-data operands an op reads at issue, and vector results it
   writes back [latency] cycles later: what the memory ports see. *)
let vector_reads g i =
  List.length (List.filter (fun p -> Ir.category g p = Ir.Vector_data) (Ir.preds g i))

let vector_writes g i =
  List.length (List.filter (fun d -> Ir.category g d = Ir.Vector_data) (Ir.succs g i))

let schedule_times g arch =
  let n = Ir.size g in
  let _, prio = Ir.heads_tails g arch in
  let start = Array.make n (-1) in
  List.iter (fun d -> if Ir.producer g d = None then start.(d) <- 0) (Ir.data_nodes g);
  let unscheduled = ref (Ir.op_nodes g) in
  let duration i = Eit.Arch.duration arch (Ir.opcode g i) in
  let busy_total = List.fold_left (fun acc i -> acc + duration i) 0 !unscheduled in
  let horizon = Model.horizon_estimate g arch + busy_total + 1 in
  (* per-cycle occupancy: vector lanes and the two single units, held
     for an op's issue duration; read ports at issue and write ports at
     write-back *)
  let width = horizon + busy_total + Model.horizon_estimate g arch + 1 in
  let lanes_used = Array.make width 0 in
  let scalar_used = Array.make width 0 in
  let merge_used = Array.make width 0 in
  let reads_at = Array.make width 0 in
  let writes_at = Array.make width 0 in
  let cycle = ref 0 in
  while !unscheduled <> [] && !cycle < horizon do
    let c = !cycle in
    let ready =
      List.filter
        (fun i ->
          List.for_all (fun p -> start.(p) >= 0 && start.(p) <= c) (Ir.preds g i))
        !unscheduled
    in
    let by_prio = List.sort (fun a b -> compare prio.(b) prio.(a)) ready in
    let of_rc rc =
      List.filter
        (fun i -> Eit.Opcode.resource (Ir.opcode g i) = rc)
        by_prio
    in
    let ports_ok i =
      reads_at.(c) + vector_reads g i <= arch.Eit.Arch.max_reads_per_cycle
      && writes_at.(c + node_latency g arch i) + vector_writes g i
         <= arch.Eit.Arch.max_writes_per_cycle
    in
    let free used amount limit i =
      let ok = ref true in
      for t = c to c + duration i - 1 do
        if used.(t) + amount > limit then ok := false
      done;
      !ok
    in
    let issue used amount i =
      start.(i) <- c;
      for t = c to c + duration i - 1 do
        used.(t) <- used.(t) + amount
      done;
      reads_at.(c) <- reads_at.(c) + vector_reads g i;
      let w = c + node_latency g arch i in
      writes_at.(w) <- writes_at.(w) + vector_writes g i;
      (match Ir.succs g i with
      | [ d ] -> start.(d) <- w
      | _ -> assert false);
      unscheduled := List.filter (fun j -> j <> i) !unscheduled
    in
    (* vector bundle: leader by priority, fill with its configuration *)
    (match of_rc Eit.Opcode.Vector_core with
    | [] -> ()
    | leader :: _ as vops ->
      let config = Ir.opcode g leader in
      List.iter
        (fun i ->
          let op = Ir.opcode g i in
          let lanes = Eit.Opcode.lanes op in
          if
            Eit.Opcode.config_equal op config
            && free lanes_used lanes arch.Eit.Arch.n_lanes i
            && ports_ok i
          then issue lanes_used lanes i)
        vops);
    (* each single unit: the first ready op, by priority, that fits *)
    let single used rc =
      match List.find_opt (fun i -> free used 1 1 i && ports_ok i) (of_rc rc) with
      | Some i -> issue used 1 i
      | None -> ()
    in
    single scalar_used Eit.Opcode.Scalar_accel;
    single merge_used Eit.Opcode.Index_merge;
    incr cycle
  done;
  if !unscheduled <> [] then Error "list scheduling exceeded the horizon"
  else Ok start

(* ---------------- phase 2: greedy slot allocation ---------------- *)

let allocate g arch start =
  let vdata =
    List.filter (fun d -> Ir.category g d = Ir.Vector_data) (Ir.data_nodes g)
  in
  let lifetime d =
    let s = start.(d) in
    let last = List.fold_left (fun acc c -> max acc start.(c)) s (Ir.succs g d) in
    last + 1 - s
  in
  (* cycles in which a datum is read / written *)
  let read_cycles d = List.map (fun i -> start.(i)) (Ir.succs g d) in
  let write_cycle d = if Ir.producer g d = None then None else Some start.(d) in
  let assignment = Hashtbl.create 64 in
  (* occupancy: slot -> (birth, death) list *)
  let occupancy = Hashtbl.create 64 in
  let overlaps (b1, d1) (b2, d2) = max b1 b2 < min d1 d2 in
  let slot_free k interval =
    List.for_all
      (fun iv -> not (overlaps iv interval))
      (Option.value ~default:[] (Hashtbl.find_opt occupancy k))
  in
  (* access legality of giving datum d slot k, against assigned data *)
  let access_ok d k =
    let reads_at c =
      List.concat_map
        (fun d' ->
          match Hashtbl.find_opt assignment d' with
          | Some k' when List.mem c (read_cycles d') -> [ k' ]
          | _ -> [])
        vdata
    in
    let writes_at c =
      List.concat_map
        (fun d' ->
          match (Hashtbl.find_opt assignment d', write_cycle d') with
          | Some k', Some c' when c' = c -> [ k' ]
          | _ -> [])
        vdata
    in
    List.for_all
      (fun c ->
        Eit.Mem.access_ok arch ~reads:(k :: reads_at c) ~writes:(writes_at c))
      (read_cycles d)
    && match write_cycle d with
       | None -> true
       | Some c ->
         Eit.Mem.access_ok arch ~reads:(reads_at c) ~writes:(k :: writes_at c)
  in
  let in_birth_order =
    List.sort (fun a b -> compare start.(a) start.(b)) vdata
  in
  let ok = ref (Ok ()) in
  List.iter
    (fun d ->
      if !ok = Ok () then begin
        let interval = (start.(d), start.(d) + lifetime d) in
        let rec try_slot k =
          if k >= Eit.Arch.slots arch then
            ok := Error (Printf.sprintf "no legal slot for datum %d" d)
          else if slot_free k interval && access_ok d k then begin
            Hashtbl.replace assignment d k;
            Hashtbl.replace occupancy k
              (interval :: Option.value ~default:[] (Hashtbl.find_opt occupancy k))
          end
          else try_slot (k + 1)
        in
        try_slot 0
      end)
    in_birth_order;
  match !ok with
  | Ok () -> Ok (List.map (fun d -> (d, Hashtbl.find assignment d)) vdata)
  | Error e -> Error e

let run ?(arch = Eit.Arch.default) g =
  (* a too-wide op never becomes issuable: name it instead of running
     the list scheduler out of horizon *)
  let times =
    match Model.too_wide g arch with
    | Some e -> Error e
    | None -> schedule_times g arch
  in
  match times with
  | Error e -> Error e
  | Ok start -> (
    match allocate g arch start with
    | Error e -> Error e
    | Ok slot ->
      Ok
        { Schedule.ir = g; arch; start; slot; makespan = Schedule.span g arch start })
