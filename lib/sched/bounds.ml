open Eit_dsl

type t = {
  critical_path : int;
  vector_load : int;
  scalar_load : int;
  im_load : int;
  makespan : int;
  tail : int array;
}

(* The single-resource head-body-tail bound for the ops [ops] of one
   execution resource.  [cls.(i)] is node i's issue class and [need.(c)]
   what one op of class c takes of the [limit] per cycle; classes never
   share an issue cycle (eq. 3), so a set holding [cnt.(c)] ops of each
   class issues in at least sum_c ceil(cnt.(c) * need.(c) / limit)
   distinct cycles.  If every op of the set has head >= h and tail >= t,
   the last of those cycles is at or after h + issue - 1 and its op
   still needs t, so the makespan is at least h + issue - 1 + t.

   The sweep fixes h at each distinct head, adds the ops with head >= h
   in decreasing tail order and scores each prefix with t the tail just
   added, the smallest in it; the prefix that ends a run of equal tails
   is the whole set {head >= h, tail >= t}. *)
let load_bound ~head ~tail ~cls ~need ~limit ops =
  let m = Array.length ops in
  if m = 0 then 0
  else begin
    let by_tail = Array.copy ops in
    Array.sort (fun a b -> compare tail.(b) tail.(a)) by_tail;
    let heads = Array.map (fun i -> head.(i)) ops in
    Array.sort compare heads;
    let cnt = Array.make (Array.length need) 0 in
    let cycles c = ((cnt.(c) * need.(c)) + limit - 1) / limit in
    let best = ref 0 in
    for k = 0 to m - 1 do
      let h = heads.(k) in
      if k = 0 || heads.(k - 1) <> h then begin
        Array.fill cnt 0 (Array.length cnt) 0;
        let issue = ref 0 in
        for j = 0 to m - 1 do
          let i = by_tail.(j) in
          if head.(i) >= h then begin
            let c = cls.(i) in
            let before = cycles c in
            cnt.(c) <- cnt.(c) + 1;
            issue := !issue + cycles c - before;
            best := max !best (h + !issue - 1 + tail.(i))
          end
        done
      end
    done;
    !best
  end

let compute g arch =
  let n = Ir.size g in
  let head, tail = Ir.heads_tails g arch in
  let ops rc =
    Array.of_list
      (List.filter
         (fun i -> Eit.Opcode.resource (Ir.opcode g i) = rc)
         (Ir.op_nodes g))
  in
  (* Issue classes, indexed by node: the vector core's are its
     configurations; every other node stays in class 0, the single class
     of the scalar and index/merge units. *)
  let cls = Array.make n 0 in
  let reps = ref [] in
  let vops = ops Eit.Opcode.Vector_core in
  Array.iter
    (fun i ->
      let op = Ir.opcode g i in
      match
        List.find_opt (fun (rep, _) -> Eit.Opcode.config_equal rep op) !reps
      with
      | Some (_, c) -> cls.(i) <- c
      | None ->
        let c = List.length !reps in
        cls.(i) <- c;
        reps := (op, c) :: !reps)
    vops;
  let need = Array.make (List.length !reps) 0 in
  List.iter (fun (op, c) -> need.(c) <- Eit.Opcode.lanes op) !reps;
  let vector_load =
    load_bound ~head ~tail ~cls ~need ~limit:arch.Eit.Arch.n_lanes vops
  in
  let unit_load rc =
    load_bound ~head ~tail ~cls ~need:[| 1 |]
      ~limit:(Eit.Arch.resource_limit arch rc) (ops rc)
  in
  let scalar_load = unit_load Eit.Opcode.Scalar_accel in
  let im_load = unit_load Eit.Opcode.Index_merge in
  let critical_path = Array.fold_left max 0 tail in
  {
    critical_path;
    vector_load;
    scalar_load;
    im_load;
    makespan = max critical_path (max vector_load (max scalar_load im_load));
    tail;
  }

let gap t sched = sched.Schedule.makespan - t.makespan

let pp ppf t =
  Format.fprintf ppf
    "LB: makespan >= %d (critical path %d, vector load %d, scalar load %d, \
     idx/merge load %d)"
    t.makespan t.critical_path t.vector_load t.scalar_load t.im_load
