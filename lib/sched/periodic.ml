open Eit_dsl
open Eit

type t = {
  ir : Ir.t;
  arch : Arch.t;
  start : int array;
  slot : int array;
  stride : int;
  ii : int;
  iterations : int;
}

(* Whole memory lines holding slots [0, width). *)
let whole_lines arch width =
  let banks = arch.Arch.banks in
  (width + banks - 1) / banks * banks

let of_schedule (sch : Schedule.t) =
  let g = sch.Schedule.ir in
  let n = Ir.size g in
  (* each vector datum's first slot binding, as [List.assoc] finds it *)
  let slot = Array.make n (-1) in
  List.iter
    (fun (d, k) ->
      if d >= 0 && d < n && slot.(d) < 0 && Ir.category g d = Ir.Vector_data then
        slot.(d) <- k)
    sch.Schedule.slot;
  {
    ir = g;
    arch = sch.Schedule.arch;
    start = sch.Schedule.start;
    slot;
    stride = whole_lines sch.Schedule.arch (1 + Array.fold_left max (-1) slot);
    ii = 1;
    iterations = 1;
  }

(* One colouring of the iteration's lifetimes (birth at the datum's
   start, held through its last read): the schedule's own slot reuse
   does not survive rewritten issue times. *)
let colour g arch start ~ii ~iterations =
  let interval d =
    let birth = start.(d) in
    let death =
      List.fold_left (fun acc c -> max acc start.(c)) birth (Ir.succs g d)
    in
    (d, birth, death + 1)
  in
  let vdata =
    List.filter (fun d -> Ir.category g d = Ir.Vector_data) (Ir.data_nodes g)
  in
  let assignment, slots = Interval_alloc.color (List.map interval vdata) in
  let slot = Array.make (Ir.size g) (-1) in
  Hashtbl.iter (fun d k -> slot.(d) <- k) assignment;
  { ir = g; arch; start; slot; stride = whole_lines arch slots; ii; iterations }

let of_overlap g arch (ov : Overlap.t) =
  let m = ov.Overlap.m in
  let start = Array.make (Ir.size g) (-1) in
  List.iteri
    (fun k (_, ops) ->
      List.iter
        (fun i ->
          if start.(i) >= 0 then
            invalid_arg
              (Printf.sprintf "Periodic.of_overlap: op %d in two bundles" i);
          start.(i) <- k * m)
        ops)
    ov.Overlap.bundles;
  List.iter
    (fun i ->
      if start.(i) < 0 then
        invalid_arg (Printf.sprintf "Periodic.of_overlap: op %d in no bundle" i))
    (Ir.op_nodes g);
  List.iter
    (fun d ->
      start.(d) <-
        (match Ir.producer g d with
        | Some p -> start.(p) + Schedule.node_latency g arch p
        | None -> 0))
    (Ir.data_nodes g);
  colour g arch start ~ii:1 ~iterations:m

let of_modulo g arch (r : Modulo.result) ~iterations =
  colour g arch r.Modulo.start ~ii:r.Modulo.ii ~iterations

let span t = Schedule.span t.ir t.arch t.start

let issues t = Schedule.issues t.ir t.start ~ii:t.ii ~iterations:t.iterations

let violations t =
  Schedule.check_timing t.ir t.arch t.start
  @ Schedule.check_issue t.ir t.arch t.start ~ii:t.ii ~iterations:t.iterations

let lines_needed t = t.stride / t.arch.Arch.banks * t.iterations

type report = {
  program : Instr.program;
  checked_values : int;
  access_clean : bool;
  completion : int;
}

let no_stream (_ : int) : (int * Value.t) list = []

let to_program ?(stream = no_stream) t =
  let g = t.ir and arch = t.arch and iterations = t.iterations in
  (* the last iteration's highest slot must exist: no rounding up to
     whole lines, so a flat schedule fits any memory it was validated on *)
  let needed =
    ((iterations - 1) * t.stride) + 1 + Array.fold_left max (-1) t.slot
  in
  if needed > Arch.slots arch then
    invalid_arg
      (Printf.sprintf
         "Periodic.to_program: %d iterations need %d slots, memory has %d"
         iterations needed (Arch.slots arch));
  let nnodes = Ir.size g in
  let operand iter d =
    match Ir.category g d with
    | Ir.Vector_data ->
      if t.slot.(d) < 0 then
        invalid_arg (Printf.sprintf "Periodic: vector datum %d has no slot" d);
      Instr.Slot (t.slot.(d) + (iter * t.stride))
    | Ir.Scalar_data -> Instr.Reg ((iter * nnodes) + d)
    | _ -> invalid_arg "Periodic: operand is not a datum"
  in
  let dest iter d =
    match operand iter d with
    | Instr.Slot k -> Instr.Dslot k
    | Instr.Reg r -> Instr.Dreg r
    | Instr.Imm _ -> assert false
  in
  let inputs =
    List.concat_map
      (fun d ->
        List.init iterations (fun iter ->
            let v =
              match List.assoc_opt d (stream iter) with
              | Some v -> v
              | None -> (
                match (Ir.node g d).Ir.value with
                | Some v -> v
                | None -> invalid_arg "Periodic: input without trace value")
            in
            match (v, operand iter d) with
            | Value.Vector a, Instr.Slot k -> Instr.In_slot (k, a)
            | Value.Scalar c, Instr.Reg r -> Instr.In_reg (r, c)
            | _ -> invalid_arg "Periodic: input kind mismatch"))
      (Ir.inputs g)
  in
  (* group the issue stream by cycle, keeping its order within a cycle *)
  let by_cycle = Hashtbl.create 64 in
  List.iter
    (fun { Schedule.cycle; iter; op = i } ->
      let out = match Ir.succs g i with [ d ] -> d | _ -> assert false in
      let issue =
        {
          Instr.op = Ir.opcode g i;
          args = List.map (operand iter) (Ir.preds g i);
          dest = dest iter out;
          node = (iter * nnodes) + i;
        }
      in
      Hashtbl.replace by_cycle cycle
        (issue :: Option.value ~default:[] (Hashtbl.find_opt by_cycle cycle)))
    (issues t);
  let cycles =
    List.sort compare (Hashtbl.fold (fun c _ acc -> c :: acc) by_cycle [])
  in
  let instrs =
    List.map
      (fun cycle ->
        let issues = List.rev (Hashtbl.find by_cycle cycle) in
        let unit rc =
          List.filter (fun i -> Opcode.resource i.Instr.op = rc) issues
        in
        let one which = function
          | [] -> None
          | [ x ] -> Some x
          | _ ->
            invalid_arg
              (Printf.sprintf "Periodic: cycle %d oversubscribes the %s unit"
                 cycle which)
        in
        {
          Instr.cycle;
          vector = unit Opcode.Vector_core;
          scalar = one "scalar" (unit Opcode.Scalar_accel);
          im = one "index/merge" (unit Opcode.Index_merge);
        })
      cycles
  in
  {
    Instr.arch;
    inputs;
    instrs;
    outputs =
      List.concat_map
        (fun d ->
          List.init iterations (fun iter -> ((iter * nnodes) + d, dest iter d)))
        (Ir.outputs g);
  }

(* The program, and a run of it under [check_access] that compares
   every op result with its iteration's reference: both built once, so
   [run_and_check] can run it twice. *)
let runner ?(stream = no_stream) t =
  match to_program ~stream t with
  | exception Invalid_argument msg -> fun ~check_access:_ -> Error msg
  | program ->
    let g = t.ir in
    let nnodes = Ir.size g in
    let references =
      Array.init t.iterations (fun iter -> Ir.eval ~inputs:(stream iter) g)
    in
    let completion_bound =
      span t + ((t.iterations - 1) * t.ii)
      + Arch.latency t.arch (Opcode.v Vid)
    in
    let rec check result checked = function
      | [] -> Ok checked
      | (iter, i) :: rest -> (
        let d = match Ir.succs g i with [ d ] -> d | _ -> assert false in
        let expect = List.assoc d references.(iter) in
        match
          List.assoc_opt ((iter * nnodes) + i) result.Machine.node_values
        with
        | None -> Error (Printf.sprintf "iteration %d node %d: no value" iter i)
        | Some got ->
          if Value.equal ~eps:1e-6 expect got then check result (checked + 1) rest
          else
            Error
              (Printf.sprintf "iteration %d node %d: expected %s, got %s" iter i
                 (Value.to_string expect) (Value.to_string got)))
    in
    let work =
      List.concat_map
        (fun iter -> List.map (fun i -> (iter, i)) (Ir.op_nodes g))
        (List.init t.iterations Fun.id)
    in
    fun ~check_access ->
      match Machine.run ~check_access program with
      | exception Machine.Sim_error e ->
        Error (Format.asprintf "%a" Machine.pp_error e)
      | result -> (
        match check result 0 work with
        | Error e -> Error e
        | Ok checked_values ->
          if result.Machine.cycles > completion_bound then
            Error "completion later than span + (N-1)*II allows"
          else
            Ok
              {
                program;
                checked_values;
                access_clean = check_access;
                completion = result.Machine.cycles;
              })

let simulate t = runner t ~check_access:true

let run_and_check ?stream t =
  let run = runner ?stream t in
  match run ~check_access:true with
  | Ok rep -> Ok rep
  | Error _ -> run ~check_access:false
