open Eit_dsl

type report = { subject : string; violations : Schedule.violation list }

let pp_report ppf r =
  Format.fprintf ppf "%s: %d violation(s):@,  @[<v>%a@]" r.subject
    (List.length r.violations)
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut Schedule.pp_violation)
    r.violations

let to_result subject violations =
  if violations = [] then Ok () else Error { subject; violations }

(* The memory-free model does not enforce allocation rules, so a
   schedule produced without it must not be held to them. *)
let memory_groups = [ "memory"; "memory-access"; "slot-reuse" ]

let schedule ?(memory = true) sch =
  let violations = Schedule.validate sch in
  let relevant =
    if memory then violations
    else
      List.filter
        (fun v -> not (List.mem v.Schedule.where memory_groups))
        violations
  in
  to_result "schedule" relevant

(* Re-derive an overlapped execution's figures from its bundle list
   alone: nothing is trusted from [Overlap.run]'s own bookkeeping. *)
let overlap g arch (t : Overlap.t) =
  let violations = ref [] in
  let add fmt =
    Format.kasprintf
      (fun msg -> violations := { Schedule.where = "overlap"; msg } :: !violations)
      fmt
  in
  let bundles = List.map snd t.Overlap.bundles in
  let m = t.Overlap.m in
  if m < 1 then add "M = %d is not positive" m;
  (* Coverage: each operation is issued exactly once per iteration. *)
  let seen = Hashtbl.create 64 in
  List.iter
    (List.iter (fun i ->
         if Hashtbl.mem seen i then add "op %d appears in more than one bundle" i
         else Hashtbl.add seen i ()))
    bundles;
  List.iter
    (fun i ->
      if not (Hashtbl.mem seen i) then add "op %d missing from the bundle sequence" i)
    (Ir.op_nodes g);
  (* Eqs. 1-4 over the M lock-step iterations: iteration [r]'s copy of
     bundle [k] issues at [k * M + r]. *)
  if !violations = [] then
    violations :=
      List.rev_append (Periodic.violations (Periodic.of_overlap g arch t)) !violations;
  (* Book-keeping: recompute the derived figures. *)
  let n = List.length bundles in
  if t.Overlap.n_instructions <> n then
    add "records %d instructions, bundle list has %d" t.Overlap.n_instructions n;
  let drain =
    match List.rev bundles with
    | ops :: _ ->
      List.fold_left (fun acc i -> max acc (Schedule.node_latency g arch i)) 0 ops
    | [] -> 0
  in
  if t.Overlap.drain <> drain then
    add "records drain %d, last bundle drains in %d" t.Overlap.drain drain;
  if t.Overlap.length <> (n * m) + drain then
    add "length %d <> N*M + drain = %d" t.Overlap.length ((n * m) + drain);
  let reconfigs =
    Eit.Config.count_reconfigs
      (List.map (List.find_map (fun i ->
           let op = Ir.opcode g i in
           if Eit.Opcode.resource op = Eit.Opcode.Vector_core then Some op else None))
         bundles)
  in
  if t.Overlap.reconfigurations <> reconfigs then
    add "records %d reconfigurations, recount gives %d"
      t.Overlap.reconfigurations reconfigs;
  to_result "overlap" (List.rev !violations)

(* A kernel's steady state is checked on a finite window: an op issued
   at [s < span] holds its unit until [s + duration], so at most
   [ceil((span + max duration) / II)] iterations overlap in any cycle,
   and a window one iteration longer holds every cycle of the steady
   state.  A window of more than [window_limit] issues is refused, not
   unrolled: a corrupt start may be huge, and a modulo kernel spans its
   critical path plus at most 2 II.  The derived figures are recomputed
   from the IR and arch. *)
let window_limit = 1 lsl 16

let modulo g arch (r : Modulo.result) =
  let violations = ref [] in
  let add fmt =
    Format.kasprintf
      (fun msg -> violations := { Schedule.where = "modulo"; msg } :: !violations)
      fmt
  in
  let ii = r.Modulo.ii in
  if ii < 1 then add "II %d is not positive" ii
  else if Array.length r.Modulo.start <> Ir.size g then
    add "start array length %d <> node count %d" (Array.length r.Modulo.start)
      (Ir.size g);
  if !violations <> [] then to_result "modulo" (List.rev !violations)
  else begin
    let ops = Ir.op_nodes g in
    let max_duration =
      List.fold_left
        (fun acc i -> max acc (Eit.Arch.duration arch (Ir.opcode g i)))
        0 ops
    in
    let span = Schedule.span g arch r.Modulo.start in
    let iterations = ((span + max_duration + ii - 1) / ii) + 1 in
    let periodic =
      if iterations <= window_limit / max 1 (List.length ops) then
        Periodic.violations (Periodic.of_modulo g arch r ~iterations)
      else
        [ { Schedule.where = "modulo";
            msg =
              Printf.sprintf "span %d at II %d: a %d-iteration window is too long to check"
                span ii iterations } ]
    in
    (* the kernel's configuration in each occupied residue cycle, in
       residue order, counted cyclically (idle residues are
       transparent) *)
    let residue = Hashtbl.create 16 in
    List.iter
      (fun i ->
        let op = Ir.opcode g i in
        if Eit.Opcode.resource op = Eit.Opcode.Vector_core then
          Hashtbl.replace residue (((r.Modulo.start.(i) mod ii) + ii) mod ii) op)
      ops;
    let reconfigs =
      Eit.Config.count_reconfigs_cyclic
        (List.map
           (fun (_, op) -> Some op)
           (List.sort
              (fun (a, _) (b, _) -> compare a b)
              (Hashtbl.fold (fun c op acc -> (c, op) :: acc) residue [])))
    in
    if r.Modulo.reconfigurations <> reconfigs then
      add "records %d reconfigurations, recount gives %d"
        r.Modulo.reconfigurations reconfigs;
    if r.Modulo.actual_ii <> ii + reconfigs then
      add "actual II %d <> II + reconfigurations = %d" r.Modulo.actual_ii
        (ii + reconfigs);
    let throughput = 1. /. float_of_int (ii + reconfigs) in
    if r.Modulo.throughput <> throughput then
      add "throughput %g <> 1 / (II + reconfigurations) = %g"
        r.Modulo.throughput throughput;
    if r.Modulo.span <> span then
      add "records span %d, latest completion is %d" r.Modulo.span span;
    to_result "modulo" (periodic @ List.rev !violations)
  end
