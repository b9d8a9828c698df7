open Eit_dsl

type t = {
  ir : Ir.t;
  arch : Eit.Arch.t;
  start : int array;
  slot : (int * int) list;
  makespan : int;
}

let start_of t i = t.start.(i)

let node_latency = Ir.node_latency

let latency_of t i = node_latency t.ir t.arch i

let span g arch start =
  List.fold_left
    (fun acc i -> max acc (start.(i) + node_latency g arch i))
    0 (Ir.op_nodes g)

(* Paper eq. 10 extended by one cycle: the slot stays occupied through
   the cycle of the last read, so a successor write can never race it. *)
let lifetime t i =
  let s = t.start.(i) in
  let last_use =
    List.fold_left (fun acc c -> max acc t.start.(c)) s (Ir.succs t.ir i)
  in
  last_use + 1 - s

let slots_used t =
  List.sort_uniq compare (List.map snd t.slot) |> List.length

type violation = { where : string; msg : string }

let pp_violation ppf v = Format.fprintf ppf "[%s] %s" v.where v.msg

(* Violations are gathered in reverse; [add vs where fmt] adds one. *)
let add vs where fmt =
  Format.kasprintf (fun msg -> vs := { where; msg } :: !vs) fmt

type issue = { cycle : int; iter : int; op : int }

let issues g start ~ii ~iterations =
  List.concat_map
    (fun op ->
      List.init iterations (fun iter ->
          { cycle = start.(op) + (iter * ii); iter; op }))
    (Ir.op_nodes g)

let check_timing g arch start =
  let vs = ref [] in
  let lat = node_latency g arch in
  (* eq. 1: precedence with latency *)
  for i = 0 to Ir.size g - 1 do
    List.iter
      (fun j ->
        if start.(i) + lat i > start.(j) then
          add vs "precedence" "edge %d->%d: %d + %d > %d" i j start.(i) (lat i)
            start.(j))
      (Ir.succs g i)
  done;
  (* eq. 4: data nodes start exactly when produced; inputs at 0 *)
  List.iter
    (fun d ->
      match Ir.producer g d with
      | Some p ->
        if start.(d) <> start.(p) + lat p then
          add vs "data-start" "data %d starts at %d, producer %d completes at %d" d
            start.(d) p (start.(p) + lat p)
      | None ->
        if start.(d) <> 0 then add vs "data-start" "input %d starts at %d" d start.(d))
    (Ir.data_nodes g);
  List.rev !vs

let check_issue g arch start ~ii ~iterations =
  let vs = ref [] in
  let stream = issues g start ~ii ~iterations in
  let opcode x = Ir.opcode g x.op in
  (* eq. 2 + scalar/IM resources: ground cumulative *)
  let check_resource rc limit =
    let mine =
      List.filter (fun x -> Eit.Opcode.resource (opcode x) = rc) stream
    in
    if mine <> [] then begin
      let column f = Array.of_list (List.map f mine) in
      let amount x =
        match rc with
        | Eit.Opcode.Vector_core -> Eit.Opcode.lanes (opcode x)
        | _ -> 1
      in
      if
        not
          (Fd.Cumulative.check
             ~starts:(column (fun x -> x.cycle))
             ~durations:(column (fun x -> Eit.Arch.duration arch (opcode x)))
             ~resources:(column amount) ~limit)
      then
        add vs "resource" "%s capacity %d exceeded"
          (match rc with
          | Eit.Opcode.Vector_core -> "vector core"
          | Eit.Opcode.Scalar_accel -> "scalar accelerator"
          | Eit.Opcode.Index_merge -> "index/merge unit")
          limit
    end
  in
  check_resource Eit.Opcode.Vector_core arch.Eit.Arch.n_lanes;
  check_resource Eit.Opcode.Scalar_accel 1;
  check_resource Eit.Opcode.Index_merge 1;
  (* eq. 3: the vector-core issues of one cycle share one configuration.
     Each is checked against those after it in its cycle's bucket
     ([Hashtbl.find_all] returns a bucket in stream order, since the
     issues are added in reverse), and each pair of ops is reported
     once, at the first cycle it meets: in one iteration, the order a
     scan of every pair would report them.  A table, not an array over
     the horizon: a corrupt start may be huge. *)
  let vector =
    List.filter
      (fun x -> Eit.Opcode.resource (opcode x) = Eit.Opcode.Vector_core)
      stream
  in
  let bucket = Hashtbl.create 64 in
  List.iter (fun x -> Hashtbl.add bucket x.cycle x) (List.rev vector);
  let reported = Hashtbl.create 8 in
  let rec after x = function
    | [] -> []
    | y :: rest -> if y == x then rest else after x rest
  in
  List.iter
    (fun x ->
      List.iter
        (fun y ->
          let pair = (min x.op y.op, max x.op y.op) in
          if
            (not (Eit.Opcode.config_equal (opcode x) (opcode y)))
            && not (Hashtbl.mem reported pair)
          then begin
            Hashtbl.add reported pair ();
            add vs "configuration" "ops %d (%s) and %d (%s) co-scheduled at %d"
              x.op
              (Eit.Opcode.name (opcode x))
              y.op
              (Eit.Opcode.name (opcode y))
              x.cycle
          end)
        (after x (Hashtbl.find_all bucket x.cycle)))
    vector;
  List.rev !vs

let validate t =
  let g = t.ir and arch = t.arch in
  let n = Ir.size g in
  let structure =
    if Array.length t.start <> n then
      [ { where = "structure";
          msg =
            Printf.sprintf "start array length %d <> node count %d"
              (Array.length t.start) n } ]
    else []
  in
  let timing = check_timing g arch t.start in
  let issue = check_issue g arch t.start ~ii:1 ~iterations:1 in
  let vs = ref [] in
  (* Ops and written data bucketed by start cycle: [Hashtbl.find_all]
     returns a bucket in node order, since the nodes are added in
     reverse.  A table, not an array over the horizon: a corrupt start
     may be huge. *)
  let bucket nodes keep =
    let b = Hashtbl.create 64 in
    List.iter (fun i -> if keep i then Hashtbl.add b t.start.(i) i) (List.rev nodes);
    b
  in
  let issued = bucket (Ir.op_nodes g) (fun _ -> true) in
  (* each node's first slot binding, as [List.assoc] would find it *)
  let slot = Array.make n None in
  List.iter
    (fun (d, k) -> if d >= 0 && d < n && slot.(d) = None then slot.(d) <- Some k)
    t.slot;
  (* memory: every vector datum has a slot in range *)
  let vdata = List.filter (fun d -> Ir.category g d = Ir.Vector_data) (Ir.data_nodes g) in
  List.iter
    (fun d ->
      match slot.(d) with
      | None -> add vs "memory" "vector data %d has no slot" d
      | Some k ->
        if k < 0 || k >= Eit.Arch.slots arch then
          add vs "memory" "vector data %d allocated out-of-range slot %d" d k)
    vdata;
  (* eqs. 10-11: lifetimes of data sharing a slot must not overlap *)
  let rects =
    List.filter_map
      (fun d ->
        match slot.(d) with
        | Some k -> Some (t.start.(d), k, lifetime t d, 1)
        | None -> None)
      vdata
  in
  if not (Fd.Diff2.check rects) then
    add vs "slot-reuse" "overlapping lifetimes share a slot";
  (* eqs. 7-9 + port limits, checked operationally: per cycle, gather the
     slots read (inputs of ops issued) and written (data nodes starting),
     and run the architecture's access checker.  Only the cycles >= 0
     that hold an issue or a write can violate anything, so those are
     the ones visited, in ascending order — a corrupt start of 10^12
     costs one more cycle, not 10^12. *)
  let written =
    bucket vdata (fun d -> Ir.producer g d <> None && slot.(d) <> None)
  in
  let vector_slot p =
    if Ir.category g p = Ir.Vector_data then slot.(p) else None
  in
  let keys b = Hashtbl.fold (fun c _ acc -> c :: acc) b [] in
  List.iter
    (fun cycle ->
      let reads =
        List.concat_map
          (fun i -> List.filter_map vector_slot (Ir.preds g i))
          (Hashtbl.find_all issued cycle)
      in
      let writes = List.filter_map (fun d -> slot.(d)) (Hashtbl.find_all written cycle) in
      List.iter
        (fun v -> add vs "memory-access" "cycle %d: %a" cycle Eit.Mem.pp_violation v)
        (Eit.Mem.check_access arch ~reads ~writes))
    (List.filter (fun c -> c >= 0)
       (List.sort_uniq compare (keys issued @ keys written)));
  (* makespan consistency; [check_timing] has checked the data starts *)
  let real = span g arch t.start in
  if real <> t.makespan then
    add vs "makespan" "recorded %d, actual %d" t.makespan real;
  structure @ timing @ issue @ List.rev !vs

let is_valid t = validate t = []

let pp_gantt ppf t =
  let span = t.makespan + 1 in
  let rows =
    [ ("vector", Eit.Opcode.Vector_core); ("scalar", Eit.Opcode.Scalar_accel);
      ("idx/mg", Eit.Opcode.Index_merge) ]
  in
  let cells =
    List.map
      (fun (label, rc) ->
        let line = Bytes.make span '.' in
        List.iter
          (fun i ->
            let op = Ir.opcode t.ir i in
            if Eit.Opcode.resource op = rc then begin
              let s = t.start.(i) in
              let l = Eit.Arch.latency t.arch op in
              for c = s + 1 to min (s + l - 1) (span - 1) do
                if Bytes.get line c = '.' then Bytes.set line c '='
              done;
              Bytes.set line s '#'
            end)
          (Ir.op_nodes t.ir);
        (label, Bytes.to_string line))
      rows
  in
  let band = 72 in
  let rec emit offset =
    if offset < span then begin
      Format.fprintf ppf "cycles %d..%d@." offset (min (offset + band - 1) (span - 1));
      List.iter
        (fun (label, line) ->
          let len = min band (span - offset) in
          Format.fprintf ppf "  %-7s %s@." label (String.sub line offset len))
        cells;
      emit (offset + band)
    end
  in
  emit 0

let pp_memory_map ppf t =
  let span = t.makespan + 2 in
  let slots = List.sort_uniq compare (List.map snd t.slot) in
  let lines =
    List.map
      (fun slot ->
        let line = Bytes.make span '.' in
        List.iter
          (fun (d, s') ->
            if s' = slot then begin
              let birth = t.start.(d) in
              let death = birth + lifetime t d in
              for c = birth + 1 to min (death - 1) (span - 1) do
                Bytes.set line c '='
              done;
              Bytes.set line birth '#'
            end)
          t.slot;
        (slot, Bytes.to_string line))
      slots
  in
  let band = 72 in
  let rec emit offset =
    if offset < span then begin
      Format.fprintf ppf "cycles %d..%d@." offset (min (offset + band - 1) (span - 1));
      List.iter
        (fun (slot, line) ->
          let len = min band (span - offset) in
          Format.fprintf ppf "  slot %-3d %s@." slot (String.sub line offset len))
        lines;
      emit (offset + band)
    end
  in
  emit 0

let pp ppf t =
  Format.fprintf ppf "schedule: makespan=%d, %d slots used@." t.makespan
    (slots_used t);
  let by_cycle = Hashtbl.create 64 in
  List.iter
    (fun i ->
      let c = t.start.(i) in
      Hashtbl.replace by_cycle c (i :: Option.value ~default:[] (Hashtbl.find_opt by_cycle c)))
    (Ir.op_nodes t.ir);
  let cycles = List.sort_uniq compare (Hashtbl.fold (fun c _ acc -> c :: acc) by_cycle []) in
  List.iter
    (fun c ->
      let ops = List.rev (Hashtbl.find by_cycle c) in
      Format.fprintf ppf "%4d: %s@." c
        (String.concat "  "
           (List.map (fun i -> Printf.sprintf "%d:%s" i (Eit.Opcode.name (Ir.opcode t.ir i))) ops)))
    cycles
