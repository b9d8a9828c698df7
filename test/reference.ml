(* Pairwise reference forms of the scheduling model's four global
   propagators: one propagator per rectangle pair (eq. 11), one [neq]
   per pair of differently configured ops (eq. 3), one guarded
   implication per same-cycle access pair (eqs. 8-9), and a [max_of]
   that rescans its arguments (eqs. 5 and 10).  The property tests in
   [T_globals] drive a global and its reference through the same
   narrow / push / pop scripts and require the same domains after
   every step. *)

open Fd
open Store

(* eq. 11: one propagator per pair of rectangles. *)
let diff2 s rects =
  let rec pairs = function
    | [] -> ()
    | r :: rest ->
      List.iter
        (fun r' ->
          let watches =
            [ r.Diff2.ox; r.oy; r.lx; r.ly; r'.Diff2.ox; r'.oy; r'.lx; r'.ly ]
          in
          ignore
            (post_now s ~name:"diff2" ~priority:prio_global ~event:On_bounds
               ~watches (fun st -> Diff2.pair st r r')))
        rest;
      pairs rest
  in
  pairs rects;
  propagate s

(* eq. 3: one disequality per pair of different classes. *)
let neq_classes s ~classes xs =
  let n = Array.length xs in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if classes.(i) <> classes.(j) then Arith.neq s xs.(i) xs.(j)
    done
  done

(* [a = b ==> (p = q ==> l = m)]: inert until the guard pair is fixed
   and equal, then [implies_eq]'s step. *)
let guarded_implies_eq s ~guard:(a, b) (p, q) (l, m) =
  let prop st =
    if Dom.disjoint (dom a) (dom b) then entail_now st
    else if is_fixed a && is_fixed b then
      if Cond.implication_step st p q l m then entail_now st
  in
  ignore
    (post_now_on s ~name:"guarded_implies_eq" ~priority:prio_channel
       ~watches:
         [ (On_fix, a); (On_fix, b); (On_fix, p); (On_fix, q); (On_change, l);
           (On_change, m) ]
       prop);
  propagate s

(* eqs. 8-9: one guarded implication per accessor pair and data pair,
   with the arguments of {!Cond.access}. *)
let access s ~pages ~lines ~starts ~acc ~classes =
  let na = Array.length starts in
  for i = 0 to na - 1 do
    for j = i + 1 to na - 1 do
      let ci = classes.(i) and cj = classes.(j) in
      if ci < 0 || cj < 0 || ci = cj then
        Array.iter
          (fun d ->
            Array.iter
              (fun e ->
                if d <> e then
                  guarded_implies_eq s ~guard:(starts.(i), starts.(j))
                    (pages.(d), pages.(e)) (lines.(d), lines.(e)))
              acc.(j))
          acc.(i)
    done
  done

(* eqs. 5 and 10: m = max(xs), rescanning its arguments on every run.
   Rules 1 and 3 are skipped while the bound they derive from has not
   moved, validated by the store's backtrack generation. *)
let max_of s xs m =
  if xs = [] then invalid_arg "Reference.max_of: empty list";
  let xs = Array.of_list xs in
  let n = Array.length xs in
  let sup = ref 0 in          (* index of the argmax-ub support *)
  let c_gen = ref (-1) in     (* generation the caches were built at *)
  let c_ub = ref max_int in   (* max_i ub(x_i) at the last rescan *)
  let c_mhi = ref max_int in  (* ub(m) after the previous run *)
  let prop st =
    let gen = generation st in
    let fresh = gen <> !c_gen in
    c_gen := gen;
    (* rule 1: ub(m) <= max_i ub(x_i), support-watched *)
    if fresh || vmax xs.(!sup) < !c_ub then begin
      let best = ref 0 and ub = ref min_int in
      for i = 0 to n - 1 do
        let hi = vmax xs.(i) in
        if hi > !ub then begin
          ub := hi;
          best := i
        end
      done;
      sup := !best;
      c_ub := !ub;
      remove_above st m !ub
    end;
    (* rule 2: lb(m) >= max_i lb(x_i) *)
    let lb = ref min_int in
    for i = 0 to n - 1 do
      let lo = vmin xs.(i) in
      if lo > !lb then lb := lo
    done;
    remove_below st m !lb;
    (* rule 3: every x_i <= ub(m), re-applied only when ub(m) dropped *)
    let mhi = vmax m in
    if fresh || mhi < !c_mhi then
      for i = 0 to n - 1 do
        if vmax xs.(i) > mhi then remove_above st xs.(i) mhi
      done;
    c_mhi := mhi;
    (* rule 4: if only one variable can realize the maximum, it must *)
    let mlo = vmin m in
    let ncand = ref 0 and cand = ref (-1) in
    for i = 0 to n - 1 do
      if vmax xs.(i) >= mlo then begin
        incr ncand;
        cand := i
      end
    done;
    if !ncand = 1 then remove_below st xs.(!cand) mlo;
    if is_fixed m then begin
      let v = vmin m in
      let ok = ref false in
      for i = 0 to n - 1 do
        if vmin xs.(i) >= v then ok := true
      done;
      if !ok then entail_now st
    end
  in
  ignore
    (post_now s ~name:"max_of" ~event:On_bounds ~watches:(m :: Array.to_list xs)
       prop);
  propagate s

(* The validator's memory checks (every vector datum has a slot in
   range, eqs. 10-11, and eqs. 7-9 with the port limits) as the
   per-cycle scan they were: [List.assoc] for every slot, and for every
   cycle up to the horizon a pass over the whole graph.  The bucketed
   [Sched.Schedule.validate] must report the same violations in the
   same order. *)
let memory_violations (t : Sched.Schedule.t) =
  let open Eit_dsl in
  let violations = ref [] in
  let add where fmt =
    Format.kasprintf
      (fun msg -> violations := { Sched.Schedule.where; msg } :: !violations)
      fmt
  in
  let g = t.ir and arch = t.arch in
  let vdata = List.filter (fun d -> Ir.category g d = Ir.Vector_data) (Ir.data_nodes g) in
  List.iter
    (fun d ->
      match List.assoc_opt d t.slot with
      | None -> add "memory" "vector data %d has no slot" d
      | Some k ->
        if k < 0 || k >= Eit.Arch.slots arch then
          add "memory" "vector data %d allocated out-of-range slot %d" d k)
    vdata;
  let slot_ok d = List.mem_assoc d t.slot in
  let rects =
    List.filter_map
      (fun d ->
        if slot_ok d then
          Some (t.start.(d), List.assoc d t.slot, Sched.Schedule.lifetime t d, 1)
        else None)
      vdata
  in
  if not (Diff2.check rects) then add "slot-reuse" "overlapping lifetimes share a slot";
  let horizon = Array.fold_left max 0 t.start + 1 in
  for cycle = 0 to horizon - 1 do
    let reads =
      List.concat_map
        (fun i ->
          if t.start.(i) = cycle then
            List.filter_map
              (fun p ->
                if Ir.category g p = Ir.Vector_data && slot_ok p then
                  Some (List.assoc p t.slot)
                else None)
              (Ir.preds g i)
          else [])
        (Ir.op_nodes g)
    in
    let writes =
      List.filter_map
        (fun d ->
          if t.start.(d) = cycle && Ir.producer g d <> None && slot_ok d then
            Some (List.assoc d t.slot)
          else None)
        vdata
    in
    List.iter
      (fun v -> add "memory-access" "cycle %d: %a" cycle Eit.Mem.pp_violation v)
      (Eit.Mem.check_access arch ~reads ~writes)
  done;
  List.rev !violations

(* The validator's eq. 3 check as the scan of every pair of vector-core
   ops it was.  The bucketed [Sched.Schedule.validate] must report the
   same configuration violations in the same order. *)
let config_violations (t : Sched.Schedule.t) =
  let open Eit_dsl in
  let g = t.ir in
  let vops =
    List.filter
      (fun i -> Eit.Opcode.resource (Ir.opcode g i) = Eit.Opcode.Vector_core)
      (Ir.op_nodes g)
  in
  let violations = ref [] in
  let rec config_pairs = function
    | [] -> ()
    | i :: rest ->
      List.iter
        (fun j ->
          if
            t.start.(i) = t.start.(j)
            && not (Eit.Opcode.config_equal (Ir.opcode g i) (Ir.opcode g j))
          then
            violations :=
              {
                Sched.Schedule.where = "configuration";
                msg =
                  Printf.sprintf "ops %d (%s) and %d (%s) co-scheduled at %d" i
                    (Eit.Opcode.name (Ir.opcode g i))
                    j
                    (Eit.Opcode.name (Ir.opcode g j))
                    t.start.(i);
              }
              :: !violations)
        rest;
      config_pairs rest
  in
  config_pairs vops;
  List.rev !violations

(* §4.3's periodic schedules unrolled by brute force: iteration [r]
   issues op [i] at [start.(i) + r * ii].  Returns whether dependencies
   (op to op through their data, with the producer's latency), the
   capacities (per-cycle sums of every issue's lanes or unit over its
   [Arch.duration]) and eq. 3 (one configuration among the vector-core
   issues of each cycle) hold.  [start] needs only the op entries. *)
let periodic_verdicts g arch ~start ~ii ~iterations =
  let open Eit_dsl in
  let ops = Ir.op_nodes g in
  let latency i = Eit.Arch.latency arch (Ir.opcode g i) in
  let precedence =
    List.for_all
      (fun p ->
        List.for_all
          (fun d ->
            List.for_all (fun c -> start.(p) + latency p <= start.(c)) (Ir.succs g d))
          (Ir.succs g p))
      ops
  in
  let used = Hashtbl.create 256 and configs = Hashtbl.create 256 in
  for r = 0 to iterations - 1 do
    List.iter
      (fun i ->
        let op = Ir.opcode g i in
        let rc = Eit.Opcode.resource op in
        let issue = start.(i) + (r * ii) in
        let amount =
          if rc = Eit.Opcode.Vector_core then Eit.Opcode.lanes op else 1
        in
        for cycle = issue to issue + Eit.Arch.duration arch op - 1 do
          let sum = Option.value ~default:0 (Hashtbl.find_opt used (rc, cycle)) in
          Hashtbl.replace used (rc, cycle) (sum + amount)
        done;
        if rc = Eit.Opcode.Vector_core then Hashtbl.add configs issue op)
      ops
  done;
  let resource =
    Hashtbl.fold
      (fun (rc, _) sum ok -> ok && sum <= Eit.Arch.resource_limit arch rc)
      used true
  in
  let configuration =
    Hashtbl.fold
      (fun cycle op ok ->
        ok
        && List.for_all (Eit.Opcode.config_equal op) (Hashtbl.find_all configs cycle))
      configs true
  in
  (precedence, resource, configuration)
