open Eit_dsl

type resource_report = {
  resource : Eit.Opcode.resource_class;
  busy_cycles : int;
  issue_slots_used : int;
  issue_slots_total : int;
  utilization : float;
}

type gap = { gap_start : int; gap_length : int }

type t = {
  span : int;
  per_resource : resource_report list;
  vector_gaps : gap list;
  longest_gap : int;
}

let all_resources =
  [ Eit.Opcode.Vector_core; Eit.Opcode.Scalar_accel; Eit.Opcode.Index_merge ]

(* Generic core: a list of (cycle, resource_class, slots_consumed)
   issues over a span, against the architecture's capacities. *)
let analyze arch ~span issues =
  let per_resource =
    List.map
      (fun rc ->
        let mine = List.filter (fun (_, r, _) -> r = rc) issues in
        let busy =
          List.length (List.sort_uniq compare (List.map (fun (c, _, _) -> c) mine))
        in
        let used = List.fold_left (fun acc (_, _, k) -> acc + k) 0 mine in
        let cap = Eit.Arch.resource_limit arch rc in
        let total = cap * span in
        {
          resource = rc;
          busy_cycles = busy;
          issue_slots_used = used;
          issue_slots_total = total;
          utilization = (if total = 0 then 0. else float_of_int used /. float_of_int total);
        })
      all_resources
  in
  (* gap structure of the vector core *)
  let vbusy = Array.make (max span 1) false in
  List.iter
    (fun (c, r, _) ->
      if r = Eit.Opcode.Vector_core && c >= 0 && c < span then vbusy.(c) <- true)
    issues;
  let gaps = ref [] in
  let cur = ref None in
  for c = 0 to span - 1 do
    match (vbusy.(c), !cur) with
    | false, None -> cur := Some c
    | false, Some _ -> ()
    | true, Some s ->
      gaps := { gap_start = s; gap_length = c - s } :: !gaps;
      cur := None
    | true, None -> ()
  done;
  (match !cur with
  | Some s when s < span -> gaps := { gap_start = s; gap_length = span - s } :: !gaps
  | _ -> ());
  let vector_gaps = List.rev !gaps in
  let longest_gap =
    List.fold_left (fun acc g -> max acc g.gap_length) 0 vector_gaps
  in
  { span; per_resource; vector_gaps; longest_gap }

(* A periodic schedule's issue stream over [span] cycles, each issue at
   [cycle] of its own cycle. *)
let of_periodic ~cycle ~span (p : Periodic.t) =
  let g = p.Periodic.ir in
  analyze p.Periodic.arch ~span
    (List.map
       (fun x ->
         let op = Ir.opcode g x.Schedule.op in
         let slots =
           match Eit.Opcode.resource op with
           | Eit.Opcode.Vector_core -> Eit.Opcode.lanes op
           | Eit.Opcode.Scalar_accel | Eit.Opcode.Index_merge -> 1
         in
         (cycle x.Schedule.cycle, Eit.Opcode.resource op, slots))
       (Periodic.issues p))

let of_schedule sched =
  of_periodic ~cycle:Fun.id ~span:(sched.Schedule.makespan + 1)
    (Periodic.of_schedule sched)

(* Steady state: fold every op onto its residue. *)
let of_modulo g arch (r : Modulo.result) =
  of_periodic
    ~cycle:(fun c -> c mod r.Modulo.ii)
    ~span:r.Modulo.ii
    (Periodic.of_modulo g arch r ~iterations:1)

let of_overlap g arch (ov : Overlap.t) =
  of_periodic ~cycle:Fun.id ~span:ov.Overlap.length
    (Periodic.of_overlap g arch ov)

let vector_utilization t =
  match
    List.find_opt (fun r -> r.resource = Eit.Opcode.Vector_core) t.per_resource
  with
  | Some r -> r.utilization
  | None -> 0.

let resource_name = function
  | Eit.Opcode.Vector_core -> "vector core"
  | Eit.Opcode.Scalar_accel -> "scalar accel"
  | Eit.Opcode.Index_merge -> "index/merge"

let pp ppf t =
  Format.fprintf ppf "span %d cc@." t.span;
  List.iter
    (fun r ->
      Format.fprintf ppf "  %-13s busy %d/%d cycles, %d/%d issue slots (%.1f%%)@."
        (resource_name r.resource) r.busy_cycles t.span r.issue_slots_used
        r.issue_slots_total (100. *. r.utilization))
    t.per_resource;
  Format.fprintf ppf "  vector-core gaps: %d (longest %d cc)@."
    (List.length t.vector_gaps) t.longest_gap
