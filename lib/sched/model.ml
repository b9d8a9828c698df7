open Eit_dsl
module St = Fd.Store

type start = Var of St.var | Offset of St.var * int | Const of int

type t = {
  store : St.t;
  ir : Ir.t;
  arch : Eit.Arch.t;
  start : start array;
  slot : (int * St.var) list;
  life : (int * St.var) list;
  makespan : St.var;
  horizon : int;
  tail : int array;
}

let latency_of = Schedule.node_latency

let horizon_estimate g arch =
  List.fold_left (fun acc i -> acc + latency_of g arch i) 1 (Ir.op_nodes g)

let too_wide g arch =
  List.find_map
    (fun i ->
      let op = Ir.opcode g i in
      if Eit.Opcode.lanes op > arch.Eit.Arch.n_lanes then
        Some
          (Printf.sprintf "op %d (%s) needs %d lanes, the machine has %d" i
             (Eit.Opcode.name op) (Eit.Opcode.lanes op) arch.Eit.Arch.n_lanes)
      else None)
    (Ir.op_nodes g)

(* Ops that read the vector memory: their vector-data operands. *)
let vector_reads g i =
  List.filter (fun p -> Ir.category g p = Ir.Vector_data) (Ir.preds g i)

(* The vector-core ops in node order, and the configuration class of
   each, numbered by first occurrence: equal classes iff
   [Opcode.config_equal]. *)
let config_classes g =
  let vops =
    Array.of_list
      (List.filter
         (fun i -> Eit.Opcode.resource (Ir.opcode g i) = Eit.Opcode.Vector_core)
         (Ir.op_nodes g))
  in
  let reps = ref [] in
  let classes =
    Array.map
      (fun i ->
        let op = Ir.opcode g i in
        match List.find_opt (fun (r, _) -> Eit.Opcode.config_equal r op) !reps with
        | Some (_, k) -> k
        | None ->
          let k = List.length !reps in
          reps := (op, k) :: !reps;
          k)
      vops
  in
  (vops, classes)

let post_timing s g arch ~memory ~horizon =
  let n = Ir.size g in
  (* A start variable for every op, and for every datum a memory
     constraint reads as a variable: the vector data, when [memory]. *)
  let var =
    Array.init n (fun i ->
        let c = Ir.category g i in
        if Ir.is_op c || (memory && c = Ir.Vector_data) then
          Some (St.interval_var s ~name:(Printf.sprintf "s%d" i) 0 horizon)
        else None)
  in
  let start_var i = Option.get var.(i) in
  (* eq. 4 / inputs: data start = producer completion; inputs at 0.  A
     datum without a variable takes it by substitution: it is read as
     its producer's start plus the producer's latency. *)
  let start =
    Array.init n (fun i ->
        match (var.(i), Ir.producer g i) with
        | Some v, _ -> Var v
        | None, Some p -> Offset (start_var p, latency_of g arch p)
        | None, None -> Const 0)
  in
  List.iter
    (fun d ->
      match (var.(d), Ir.producer g d) with
      | Some v, Some p -> Fd.Arith.eq_offset s (start_var p) (latency_of g arch p) v
      | Some v, None -> St.assign s v 0
      | None, _ -> ())
    (Ir.data_nodes g);
  (* eq. 1: data -> op precedence (data latency is 0). *)
  List.iter
    (fun i ->
      let si = start_var i in
      List.iter
        (fun d ->
          match start.(d) with
          | Var v -> Fd.Arith.leq_offset s v 0 si
          | Offset (v, k) -> Fd.Arith.leq_offset s v k si
          | Const k -> St.remove_below s si k)
        (Ir.preds g i))
    (Ir.op_nodes g);
  start

let post_units s g arch ~at ~duration =
  let post rc limit amount =
    let ops =
      List.filter (fun i -> Eit.Opcode.resource (Ir.opcode g i) = rc) (Ir.op_nodes g)
    in
    let column f = Array.of_list (List.map (fun i -> f (Ir.opcode g i)) ops) in
    if ops <> [] then
      Fd.Cumulative.post s
        ~starts:(Array.of_list (List.map at ops))
        ~durations:(column duration) ~resources:(column amount) ~limit
  in
  post Eit.Opcode.Vector_core arch.Eit.Arch.n_lanes Eit.Opcode.lanes;
  post Eit.Opcode.Scalar_accel 1 (fun _ -> 1);
  post Eit.Opcode.Index_merge 1 (fun _ -> 1)

let build ?(deadline = Fd.Deadline.none) ?(memory = true) g arch =
  (* An op wider than the vector core can never issue: the problem is
     infeasible, not a misuse of Cumulative. *)
  Option.iter (fun e -> raise (St.Fail e)) (too_wide g arch);
  let horizon = horizon_estimate g arch in
  let s = St.create () in
  (* Root propagation below can be the longest single sweep of the whole
     solve; it must observe the deadline too. *)
  if Fd.Deadline.is_finite deadline then
    St.set_poll s
      (Some
         (fun () ->
           if Fd.Deadline.expired deadline then
             raise (St.Interrupted "deadline")));
  let n = Ir.size g in
  let start = post_timing s g arch ~memory ~horizon in
  let start_var i =
    match start.(i) with Var v -> v | Offset _ | Const _ -> assert false
  in
  (* eq. 2 + the other execution resources. *)
  post_units s g arch ~at:start_var ~duration:(Eit.Arch.duration arch);
  (* eq. 3: differently-configured vector-core ops never share a cycle. *)
  let vops, config = config_classes g in
  Fd.Arith.neq_classes s ~classes:config (Array.map start_var vops);
  (* eq. 5: makespan = max completion s_i + lat_i.  Seeding the lower
     bound (critical path + per-resource loads) lets branch & bound prove
     optimality as soon as it matches, instead of exhausting the subtree
     below it. *)
  let bounds = Bounds.compute g arch in
  let makespan =
    St.interval_var s ~name:"makespan" (min bounds.Bounds.makespan horizon) horizon
  in
  let ops = Ir.op_nodes g in
  Fd.Arith.max_of s
    ~offsets:(List.map (latency_of g arch) ops)
    (List.map start_var ops)
    makespan;
  (* ---------------- memory allocation ---------------- *)
  let slot = ref [] and life = ref [] in
  if memory then begin
    let vdata =
      List.filter (fun d -> Ir.category g d = Ir.Vector_data) (Ir.data_nodes g)
    in
    let nslots = Eit.Arch.slots arch in
    (* Per-node tables, so the pair loops below look nothing up in a
       list: the geometry of each vector datum, its slot and lifetime
       variables, and each op's vector reads, computed once. *)
    let geom = Array.make n None in
    let slot_of = Array.make n None and life_of = Array.make n None in
    List.iter
      (fun d ->
        let sv =
          St.interval_var s ~name:(Printf.sprintf "slot%d" d) 0 (nslots - 1)
        in
        slot := (d, sv) :: !slot;
        slot_of.(d) <- Some sv;
        geom.(d) <-
          Some
            (Fd.Geometry.of_slot s ~banks:arch.Eit.Arch.banks
               ~page_size:arch.Eit.Arch.page_size sv))
      vdata;
    let coords d = Option.get geom.(d) in
    let reads = Array.make n [] in
    List.iter (fun i -> reads.(i) <- vector_reads g i) (Ir.op_nodes g);
    (* eq. 7: operands of one op are accessed together. *)
    let readers = List.filter (fun i -> reads.(i) <> []) (Ir.op_nodes g) in
    List.iter
      (fun i ->
        let rec pairs = function
          | [] -> ()
          | d :: rest ->
            List.iter
              (fun e ->
                if d <> e then begin
                  let cd = coords d and ce = coords e in
                  Fd.Cond.implies_eq s
                    (cd.Fd.Geometry.page, ce.Fd.Geometry.page)
                    (cd.Fd.Geometry.line, ce.Fd.Geometry.line)
                end)
              rest;
            pairs rest
        in
        pairs reads.(i))
      readers;
    (* eqs. 8-9 address the vector data by index *)
    let vdata_a = Array.of_list vdata in
    let index = Array.make n (-1) in
    Array.iteri (fun k d -> index.(d) <- k) vdata_a;
    let pages = Array.map (fun d -> (coords d).Fd.Geometry.page) vdata_a in
    let lines = Array.map (fun d -> (coords d).Fd.Geometry.line) vdata_a in
    let access accessors data classes =
      Fd.Cond.access s ~pages ~lines
        ~starts:(Array.map start_var accessors)
        ~acc:
          (Array.map
             (fun i -> Array.of_list (List.map (fun d -> index.(d)) (data i)))
             accessors)
        ~classes
    in
    (* eq. 8 (generalized): reads of two ops that may issue in the same
       cycle.  Vector ops of different configurations never do (eq. 3),
       so their pairs are skipped: they carry the configuration class,
       every other op -1. *)
    let readers_a = Array.of_list readers in
    let vclass = Array.make n (-1) in
    Array.iteri (fun k i -> vclass.(i) <- config.(k)) vops;
    access readers_a (fun i -> reads.(i))
      (Array.map (fun i -> vclass.(i)) readers_a);
    (* eq. 9 (generalized): results written in the same cycle.  Data
       start variables are exactly the write times, so the guard is on
       the data nodes themselves — this also covers write collisions
       between units with different latencies (e.g. merge vs vector
       pipeline), which the paper's same-category formulation implies. *)
    let produced =
      List.filter (fun d -> Ir.producer g d <> None) vdata
    in
    let produced_a = Array.of_list produced in
    access produced_a (fun d -> [ d ]) (Array.map (fun _ -> -1) produced_a);
    (* Port width limits (implied in §1.1: two matrices read, one
       written per cycle).  Conservative: simultaneous reads of the same
       slot by different ops count once in hardware but twice here.
       The read port needs no propagator of its own when the lane
       Cumulative (eq. 2) implies it: every reader is a vector-core op
       that holds its lanes for at least one cycle and reads at most
       [max_reads / n_lanes] vectors per lane.  Then at every cycle the
       reads issued are at most [max_reads / n_lanes] times the lanes
       busy, so whatever start or overload the read timetable would
       find, the lane timetable finds too (DESIGN.md §5). *)
    let implied i =
      let op = Ir.opcode g i in
      Eit.Opcode.resource op = Eit.Opcode.Vector_core
      && Eit.Arch.duration arch op >= 1
      && List.length reads.(i) * arch.Eit.Arch.n_lanes
         <= Eit.Opcode.lanes op * arch.Eit.Arch.max_reads_per_cycle
    in
    if not (List.for_all implied readers) then
      Fd.Cumulative.post s
        ~starts:(Array.of_list (List.map start_var readers))
        ~durations:(Array.of_list (List.map (fun _ -> 1) readers))
        ~resources:
          (Array.of_list (List.map (fun i -> List.length reads.(i)) readers))
        ~limit:arch.Eit.Arch.max_reads_per_cycle;
    if produced <> [] then
      Fd.Cumulative.post s
        ~starts:(Array.of_list (List.map start_var produced))
        ~durations:(Array.of_list (List.map (fun _ -> 1) produced))
        ~resources:(Array.of_list (List.map (fun _ -> 1) produced))
        ~limit:arch.Eit.Arch.max_writes_per_cycle;
    (* eq. 10: lifetimes.  The published formula (max U_i - s_i) lets a
       new datum be written in the very cycle of the previous occupant's
       last read; we extend every lifetime by one cycle (the write-back
       stage) so the allocation is hazard-free under the simulator's
       read-after-write-back semantics (see DESIGN.md). *)
    List.iter
      (fun d ->
        let lv =
          St.interval_var s ~name:(Printf.sprintf "life%d" d) 1 (horizon + 2)
        in
        life := (d, lv) :: !life;
        life_of.(d) <- Some lv;
        (* lu1 = last use + 1 = max(s_d + 1, s_succ + 1), and
           life = lu1 - start *)
        let users = start_var d :: List.map start_var (Ir.succs g d) in
        let lu1 = St.interval_var s ~name:(Printf.sprintf "lu%d" d) 1 (horizon + 2) in
        Fd.Arith.max_of s ~offsets:(List.map (fun _ -> 1) users) users lu1;
        Fd.Arith.plus s (start_var d) lv lu1)
      vdata;
    (* eq. 11: slot reuse as non-overlapping rectangles. *)
    let one = St.const s 1 in
    Fd.Diff2.post s
      (List.map
         (fun d ->
           {
             Fd.Diff2.ox = start_var d;
             oy = Option.get slot_of.(d);
             lx = Option.get life_of.(d);
             ly = one;
           })
         vdata)
  end;
  St.propagate s;
  { store = s; ir = g; arch; start; slot = !slot; life = !life; makespan; horizon;
    tail = bounds.Bounds.tail }

let own_var m i = match m.start.(i) with Var v -> Some v | Offset _ | Const _ -> None

let phases m =
  let g = m.ir in
  (* smallest_min breaks ties by list position *)
  let by_tail =
    List.stable_sort (fun a b -> compare m.tail.(b) m.tail.(a)) (Ir.op_nodes g)
  in
  let op_starts = List.filter_map (own_var m) by_tail in
  let data_starts = List.filter_map (own_var m) (Ir.data_nodes g) in
  let slots = List.map snd m.slot in
  [
    Fd.Search.phase ~var_select:Fd.Search.smallest_min
      ~val_select:Fd.Search.select_min op_starts;
    Fd.Search.phase ~var_select:Fd.Search.input_order
      ~val_select:Fd.Search.select_min data_starts;
    Fd.Search.phase ~var_select:Fd.Search.first_fail
      ~val_select:Fd.Search.select_min slots;
  ]

let start_values start =
  Array.map
    (function Var v -> St.vmin v | Offset (v, k) -> St.vmin v + k | Const k -> k)
    start

let extract m =
  let start = start_values m.start in
  let slot = List.map (fun (d, v) -> (d, St.vmin v)) m.slot in
  let makespan = Schedule.span m.ir m.arch start in
  { Schedule.ir = m.ir; arch = m.arch; start; slot; makespan }
