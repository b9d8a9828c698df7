open Eit_dsl
module St = Fd.Store

type result = {
  ii : int;
  reconfigurations : int;
  actual_ii : int;
  throughput : float;
  start : int array;
  span : int;
  time_ms : float;
  proven : bool;
}

let node_latency = Schedule.node_latency

(* Configuration classes of the vector-core ops: (representative, count,
   lanes). *)
let config_classes g =
  let classes = ref [] in
  List.iter
    (fun i ->
      let op = Ir.opcode g i in
      if Eit.Opcode.resource op = Eit.Opcode.Vector_core then
        match
          List.find_opt (fun (rep, _, _) -> Eit.Opcode.config_equal rep op) !classes
        with
        | Some (rep, n, l) ->
          classes :=
            (rep, n + 1, l)
            :: List.filter (fun (r, _, _) -> not (Eit.Opcode.config_equal r rep)) !classes
        | None -> classes := (op, 1, Eit.Opcode.lanes op) :: !classes)
    (Ir.op_nodes g);
  !classes

let count_resource g rc =
  List.length
    (List.filter (fun i -> Eit.Opcode.resource (Ir.opcode g i) = rc) (Ir.op_nodes g))

let res_mii g arch =
  let ceil_div a b = (a + b - 1) / b in
  let vector =
    List.fold_left
      (fun acc (_, n, l) -> acc + ceil_div (n * l) arch.Eit.Arch.n_lanes)
      0 (config_classes g)
  in
  max 1 (max vector (max (count_resource g Eit.Opcode.Scalar_accel)
                       (count_resource g Eit.Opcode.Index_merge)))

(* Dependencies between op nodes (through their data nodes), with the
   producer's latency. *)
let op_deps g arch =
  List.concat_map
    (fun i ->
      match Ir.succs g i with
      | [ d ] ->
        List.map (fun j -> (i, node_latency g arch i, j)) (Ir.succs g d)
      | _ -> [])
    (Ir.op_nodes g)

(* One decision/optimization problem for a fixed II.  [minimize_rec]
   selects the "including reconfigurations" mode. *)
let solve_one g arch ~ii ~minimize_rec ~budget_ms =
  let ops = Ir.op_nodes g in
  let horizon = Ir.critical_path g arch + (2 * ii) in
  let s = St.create () in
  let start_tbl = Hashtbl.create 64 in
  let vops = ref [] in
  List.iter
    (fun i ->
      let v = St.interval_var s ~name:(Printf.sprintf "s%d" i) 0 horizon in
      Hashtbl.replace start_tbl i v;
      if Eit.Opcode.resource (Ir.opcode g i) = Eit.Opcode.Vector_core then
        vops := i :: !vops)
    ops;
  let sv i = Hashtbl.find start_tbl i in
  List.iter (fun (i, lat, j) -> Fd.Arith.leq_offset s (sv i) lat (sv j)) (op_deps g arch);
  (* Residue variables. *)
  let res_tbl = Hashtbl.create 64 in
  List.iter
    (fun i ->
      let m = St.interval_var s ~name:(Printf.sprintf "m%d" i) 0 (ii - 1) in
      Fd.Arith.mod_const s (sv i) ii m;
      Hashtbl.replace res_tbl i m)
    ops;
  let mv i = Hashtbl.find res_tbl i in
  (* Per-residue capacities. *)
  let post_residue_cumulative rc limit resource_of =
    let group = List.filter (fun i -> Eit.Opcode.resource (Ir.opcode g i) = rc) ops in
    if group <> [] then
      Fd.Cumulative.post s
        ~starts:(Array.of_list (List.map mv group))
        ~durations:(Array.of_list (List.map (fun _ -> 1) group))
        ~resources:(Array.of_list (List.map resource_of group))
        ~limit
  in
  post_residue_cumulative Eit.Opcode.Vector_core arch.Eit.Arch.n_lanes (fun i ->
      Eit.Opcode.lanes (Ir.opcode g i));
  post_residue_cumulative Eit.Opcode.Scalar_accel 1 (fun _ -> 1);
  post_residue_cumulative Eit.Opcode.Index_merge 1 (fun _ -> 1);
  (* eq. 3 on residues. *)
  let rec neq_pairs = function
    | [] -> ()
    | i :: rest ->
      List.iter
        (fun j ->
          if not (Eit.Opcode.config_equal (Ir.opcode g i) (Ir.opcode g j)) then
            Fd.Arith.neq s (mv i) (mv j))
        rest;
      neq_pairs rest
  in
  neq_pairs !vops;
  (* Cyclic reconfiguration count of the kernel, as a variable.  Lower
     bound: each distinct configuration contributes at least one block
     boundary (when there are >= 2).  Exact value once all residues are
     fixed. *)
  let rec_lb = Reconfig.lower_bound g in
  let max_rec = List.length !vops + 1 in
  let recvar = St.interval_var s ~name:"reconfigs" rec_lb max_rec in
  let vop_list = !vops in
  let rec_prop st =
    let fixed, unfixed = List.partition (fun i -> St.is_fixed (mv i)) vop_list in
    let tbl = Hashtbl.create 16 in
    List.iter (fun i -> Hashtbl.replace tbl (St.value (mv i)) (Ir.opcode g i)) fixed;
    let seq = List.init ii (fun c -> Hashtbl.find_opt tbl c) in
    if unfixed = [] then St.update st recvar (Fd.Dom.singleton (Eit.Config.count_reconfigs_cyclic seq))
    else
      (* Sound lower bound from the fixed residues alone: between two
         cyclically-consecutive fixed cells with different
         configurations at least one reconfiguration must happen, no
         matter what fills the residues in between. *)
      St.remove_below st recvar (Eit.Config.count_reconfigs_cyclic seq)
  in
  ignore
    (St.post_now s ~name:"rec_count" ~priority:St.prio_channel ~event:St.On_fix ~watches:(List.map mv vop_list) rec_prop);
  let phases =
    if minimize_rec then begin
      (* Branch on the residues of the vector ops first, grouped by
         configuration class, assigning smallest residues first: classes
         then occupy contiguous residue blocks whenever precedences
         allow, which drives the reconfiguration count towards its lower
         bound (one boundary per class). *)
      let by_class =
        List.concat_map
          (fun (rep, _, _) ->
            List.filter
              (fun i -> Eit.Opcode.config_equal (Ir.opcode g i) rep)
              vop_list)
          (config_classes g)
      in
      [
        Fd.Search.phase ~var_select:Fd.Search.input_order
          ~val_select:Fd.Search.select_min
          (List.map mv by_class);
        Fd.Search.phase ~var_select:Fd.Search.smallest_min
          ~val_select:Fd.Search.select_min
          (List.map sv ops);
      ]
    end
    else
      [
        Fd.Search.phase ~var_select:Fd.Search.smallest_min
          ~val_select:Fd.Search.select_min
          (List.map sv ops);
      ]
  in
  let budget = Fd.Search.time_budget budget_ms in
  let snapshot () =
    let starts = List.map (fun i -> (i, St.vmin (sv i))) ops in
    let r = St.vmin recvar in
    (starts, r)
  in
  let outcome =
    try
      if minimize_rec then
        Fd.Search.minimize ~budget s phases ~objective:recvar ~on_solution:snapshot
      else Fd.Search.solve ~budget s phases ~on_solution:snapshot
    with St.Fail _ ->
      Fd.Search.Unsat (Fd.Search.zero_stats ~optimal:true)
  in
  outcome

(* Expand op starts to a full per-node start array. *)
let full_starts g arch op_starts =
  let n = Ir.size g in
  let start = Array.make n 0 in
  List.iter (fun (i, v) -> start.(i) <- v) op_starts;
  List.iter
    (fun d ->
      match Ir.producer g d with
      | Some p -> start.(d) <- start.(p) + node_latency g arch p
      | None -> start.(d) <- 0)
    (Ir.data_nodes g);
  start

let make_result g arch ~ii ~rec_count ~op_starts ~time_ms ~proven =
  let start = full_starts g arch op_starts in
  let span =
    List.fold_left
      (fun acc i -> max acc (start.(i) + node_latency g arch i))
      0 (Ir.op_nodes g)
  in
  let actual_ii = ii + rec_count in
  {
    ii;
    reconfigurations = rec_count;
    actual_ii;
    throughput = 1. /. float_of_int actual_ii;
    start;
    span;
    time_ms;
    proven;
  }

let solve_excluding ?(budget_ms = 60_000.) ?(arch = Eit.Arch.default) g =
  let t0 = Unix.gettimeofday () in
  let deadline = t0 +. (budget_ms /. 1000.) in
  let rec try_ii ii =
    let remaining = (deadline -. Unix.gettimeofday ()) *. 1000. in
    if remaining <= 0. then None
    else
      match solve_one g arch ~ii ~minimize_rec:false ~budget_ms:remaining with
      | Fd.Search.Solution ((op_starts, _), _) ->
        (* Count the kernel's reconfigurations post-factum. *)
        let tbl = Hashtbl.create 16 in
        List.iter
          (fun (i, v) ->
            if Eit.Opcode.resource (Ir.opcode g i) = Eit.Opcode.Vector_core then
              Hashtbl.replace tbl (v mod ii) (Ir.opcode g i))
          op_starts;
        let seq = List.init ii (fun c -> Hashtbl.find_opt tbl c) in
        let rc = Eit.Config.count_reconfigs_cyclic seq in
        Some
          (make_result g arch ~ii ~rec_count:rc ~op_starts
             ~time_ms:((Unix.gettimeofday () -. t0) *. 1000.)
             ~proven:true)
      | Fd.Search.Unsat _ -> try_ii (ii + 1)
      | Fd.Search.Best _ | Fd.Search.Timeout _ -> None
  in
  try_ii (res_mii g arch)

let solve_including ?(budget_ms = 600_000.) ?(arch = Eit.Arch.default) g =
  let t0 = Unix.gettimeofday () in
  let deadline = t0 +. (budget_ms /. 1000.) in
  let best = ref None in
  let best_total = ref max_int in
  let proven = ref true in
  (* Budget is sliced per candidate II so that one hard instance cannot
     starve the II sweep (the paper's solver likewise times out per
     search at 10 minutes). *)
  let slice = Float.max 2_000. (budget_ms /. 8.) in
  let rec try_ii ii =
    if ii >= !best_total then ()  (* cannot beat the incumbent *)
    else begin
      let remaining = (deadline -. Unix.gettimeofday ()) *. 1000. in
      if remaining <= 0. then proven := false
      else begin
        (match
           solve_one g arch ~ii ~minimize_rec:true
             ~budget_ms:(Float.min slice remaining)
         with
        | Fd.Search.Solution ((op_starts, rc), _) ->
          if ii + rc < !best_total then begin
            best_total := ii + rc;
            best := Some (ii, rc, op_starts)
          end
        | Fd.Search.Best ((op_starts, rc), _) ->
          proven := false;
          if ii + rc < !best_total then begin
            best_total := ii + rc;
            best := Some (ii, rc, op_starts)
          end
        | Fd.Search.Unsat _ -> ()
        | Fd.Search.Timeout _ -> proven := false);
        try_ii (ii + 1)
      end
    end
  in
  try_ii (res_mii g arch);
  Option.map
    (fun (ii, rc, op_starts) ->
      make_result g arch ~ii ~rec_count:rc ~op_starts
        ~time_ms:((Unix.gettimeofday () -. t0) *. 1000.)
        ~proven:!proven)
    !best

let pp ppf r =
  Format.fprintf ppf
    "II=%d, %d reconfigs, actual II=%d, throughput=%.3f iter/cc, span=%d, \
     %.0f ms%s"
    r.ii r.reconfigurations r.actual_ii r.throughput r.span r.time_ms
    (if r.proven then "" else " (not proven)")
