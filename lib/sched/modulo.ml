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

(* Each configuration class needs ceil(its lanes / n_lanes) residues
   of its own (eq. 3), each serial unit one residue per op. *)
let res_mii g arch =
  let ceil_div a b = (a + b - 1) / b in
  let vops, classes = Model.config_classes g in
  let load = Array.make (Array.length vops) 0 in
  Array.iteri
    (fun k i ->
      load.(classes.(k)) <- load.(classes.(k)) + Eit.Opcode.lanes (Ir.opcode g i))
    vops;
  let vector =
    Array.fold_left (fun acc l -> acc + ceil_div l arch.Eit.Arch.n_lanes) 0 load
  in
  let serial rc =
    List.length
      (List.filter
         (fun i -> Eit.Opcode.resource (Ir.opcode g i) = rc)
         (Ir.op_nodes g))
  in
  max 1
    (max vector
       (max (serial Eit.Opcode.Scalar_accel) (serial Eit.Opcode.Index_merge)))

(* One decision/optimization problem for a fixed II: the flat model's
   eqs. 1-4 without its memory part, with the capacities and eq. 3 on
   the residues.  [minimize_rec] selects the "including
   reconfigurations" mode. *)
let solve_one g arch ~ii ~minimize_rec ~deadline =
  let ops = Ir.op_nodes g in
  let s = St.create () in
  let start =
    Model.post_timing s g arch ~memory:false
      ~horizon:(Ir.critical_path g arch + (2 * ii))
  in
  let sv i =
    match start.(i) with
    | Model.Var v -> v
    | Model.Offset _ | Model.Const _ -> assert false
  in
  (* Residue variables. *)
  let residue = Array.make (Ir.size g) None in
  List.iter
    (fun i ->
      let m = St.interval_var s ~name:(Printf.sprintf "m%d" i) 0 (ii - 1) in
      Fd.Arith.mod_const s (sv i) ii m;
      residue.(i) <- Some m)
    ops;
  let mv i = Option.get residue.(i) in
  (* Per-residue capacities, and eq. 3 on residues. *)
  Model.post_units s g arch ~at:mv ~duration:(fun _ -> 1);
  let vops, classes = Model.config_classes g in
  Fd.Arith.neq_classes s ~classes (Array.map mv vops);
  (* Cyclic reconfiguration count of the kernel, as a variable.  Lower
     bound: each distinct configuration contributes at least one block
     boundary (when there are >= 2).  Exact value once all residues are
     fixed. *)
  let rec_lb = Reconfig.lower_bound g in
  let max_rec = Array.length vops + 1 in
  let recvar = St.interval_var s ~name:"reconfigs" rec_lb max_rec in
  let vop_list = List.rev (Array.to_list vops) in
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
  let start_phase =
    Fd.Search.phase ~var_select:Fd.Search.smallest_min
      ~val_select:Fd.Search.select_min (List.map sv ops)
  in
  let phases =
    if not minimize_rec then [ start_phase ]
    else begin
      (* Branch on the residues of the vector ops first, class by class
         (latest last occurrence first, each class's ops latest first),
         assigning smallest residues first: classes then occupy
         contiguous residue blocks whenever precedences allow, which
         drives the reconfiguration count towards its lower bound (one
         boundary per class). *)
      let latest_first = List.rev (List.init (Array.length vops) Fun.id) in
      let rank = Array.make (Array.length vops) max_int in
      List.iteri
        (fun pos k -> rank.(classes.(k)) <- min rank.(classes.(k)) pos)
        latest_first;
      let by_class =
        List.stable_sort
          (fun a b -> compare rank.(classes.(a)) rank.(classes.(b)))
          latest_first
      in
      [
        Fd.Search.phase ~var_select:Fd.Search.input_order
          ~val_select:Fd.Search.select_min
          (List.map (fun k -> mv vops.(k)) by_class);
        start_phase;
      ]
    end
  in
  (* every node's start, and the kernel's reconfigurations: exact once
     every residue is fixed *)
  let snapshot () = (Model.start_values start, St.vmin recvar) in
  try
    if minimize_rec then
      Fd.Search.minimize ~deadline s phases ~objective:recvar ~on_solution:snapshot
    else Fd.Search.solve ~deadline s phases ~on_solution:snapshot
  with St.Fail _ -> Fd.Search.Unsat (Fd.Search.zero_stats ~optimal:true)

let make_result g arch ~ii ~rec_count ~start ~t0 ~proven =
  let actual_ii = ii + rec_count in
  {
    ii;
    reconfigurations = rec_count;
    actual_ii;
    throughput = 1. /. float_of_int actual_ii;
    start;
    span = Schedule.span g arch start;
    time_ms = (Unix.gettimeofday () -. t0) *. 1000.;
    proven;
  }

let solve_excluding ?(budget_ms = 60_000.) ?(arch = Eit.Arch.default) g =
  if Model.too_wide g arch <> None then None
  else begin
    let t0 = Unix.gettimeofday () in
    let deadline = Fd.Deadline.after_ms budget_ms in
    let rec try_ii ii =
      if Fd.Deadline.expired deadline then None
      else
        match solve_one g arch ~ii ~minimize_rec:false ~deadline with
        | Fd.Search.Solution ((start, rec_count), _) ->
          Some (make_result g arch ~ii ~rec_count ~start ~t0 ~proven:true)
        | Fd.Search.Unsat _ -> try_ii (ii + 1)
        | Fd.Search.Best _ | Fd.Search.Timeout _ -> None
    in
    try_ii (res_mii g arch)
  end

let solve_including ?(budget_ms = 600_000.) ?(arch = Eit.Arch.default) g =
  if Model.too_wide g arch <> None then None
  else begin
    let t0 = Unix.gettimeofday () in
    let deadline = Fd.Deadline.after_ms budget_ms in
    let best = ref None in
    let best_total = ref max_int in
    let proven = ref true in
    let keep ii (start, rc) =
      if ii + rc < !best_total then begin
        best_total := ii + rc;
        best := Some (ii, rc, start)
      end
    in
    (* Budget is sliced per candidate II so that one hard instance cannot
       starve the II sweep (the paper's solver likewise times out per
       search at 10 minutes). *)
    let slice = Float.max 2_000. (budget_ms /. 8.) in
    let rec try_ii ii =
      if ii >= !best_total then ()  (* cannot beat the incumbent *)
      else if Fd.Deadline.expired deadline then proven := false
      else begin
        (match
           solve_one g arch ~ii ~minimize_rec:true
             ~deadline:(Fd.Deadline.earliest deadline (Fd.Deadline.after_ms slice))
         with
        | Fd.Search.Solution (x, _) -> keep ii x
        | Fd.Search.Best (x, _) ->
          proven := false;
          keep ii x
        | Fd.Search.Unsat _ -> ()
        | Fd.Search.Timeout _ -> proven := false);
        try_ii (ii + 1)
      end
    in
    try_ii (res_mii g arch);
    Option.map
      (fun (ii, rec_count, start) ->
        make_result g arch ~ii ~rec_count ~start ~t0 ~proven:!proven)
      !best
  end

let pp ppf r =
  Format.fprintf ppf
    "II=%d, %d reconfigs, actual II=%d, throughput=%.3f iter/cc, span=%d, \
     %.0f ms%s"
    r.ii r.reconfigurations r.actual_ii r.throughput r.span r.time_ms
    (if r.proven then "" else " (not proven)")
