open Eit_dsl

type t = {
  bundles : int list list;
  n_instructions : int;
  reconfigurations : int;
}

type bundle = {
  mutable config : Eit.Opcode.t option;  (* vector-core configuration *)
  mutable lanes : int;
  mutable scalar : bool;
  mutable im : bool;
  mutable ops : int list;  (* reversed *)
}

let fresh_bundle () =
  { config = None; lanes = 0; scalar = false; im = false; ops = [] }

let accepts arch b op =
  match Eit.Opcode.resource op with
  | Eit.Opcode.Vector_core ->
    let l = Eit.Opcode.lanes op in
    b.lanes + l <= arch.Eit.Arch.n_lanes
    && (match b.config with
       | None -> true
       | Some c -> Eit.Opcode.config_equal c op)
  | Eit.Opcode.Scalar_accel -> not b.scalar
  | Eit.Opcode.Index_merge -> not b.im

let insert b i op =
  (match Eit.Opcode.resource op with
  | Eit.Opcode.Vector_core ->
    b.config <- Some op;
    b.lanes <- b.lanes + Eit.Opcode.lanes op
  | Eit.Opcode.Scalar_accel -> b.scalar <- true
  | Eit.Opcode.Index_merge -> b.im <- true);
  b.ops <- i :: b.ops

let run g arch =
  (* No bundle ever accepts an op wider than the machine. *)
  Option.iter invalid_arg (Model.too_wide g arch);
  (* Op-level dependency: producer of any operand datum. *)
  let producer_ops i =
    List.filter_map (fun d -> Ir.producer g d) (Ir.preds g i)
  in
  let bundle_of = Hashtbl.create 64 in
  let bundles = ref [||] in
  let ensure k =
    while Array.length !bundles <= k do
      bundles := Array.append !bundles [| fresh_bundle () |]
    done
  in
  (* Topological order over ops: IR topo order restricted to op nodes. *)
  let order = List.filter (fun i -> Ir.is_op (Ir.category g i)) (Ir.topo_order g) in
  List.iter
    (fun i ->
      let op = Ir.opcode g i in
      let earliest =
        List.fold_left
          (fun acc p -> max acc (Hashtbl.find bundle_of p + 1))
          0 (producer_ops i)
      in
      ensure earliest;
      let rec place k =
        ensure k;
        if accepts arch !bundles.(k) op then begin
          insert !bundles.(k) i op;
          Hashtbl.replace bundle_of i k
        end
        else place (k + 1)
      in
      place earliest)
    order;
  let bundle_list =
    Array.to_list !bundles
    |> List.filter_map (fun b -> match b.ops with [] -> None | ops -> Some (List.rev ops))
  in
  let configs =
    List.map
      (fun ops ->
        List.find_map
          (fun i ->
            let op = Ir.opcode g i in
            if Eit.Opcode.resource op = Eit.Opcode.Vector_core then Some op else None)
          ops)
      bundle_list
  in
  {
    bundles = bundle_list;
    n_instructions = List.length bundle_list;
    reconfigurations = Eit.Config.count_reconfigs configs;
  }

let overlapped g arch ~m =
  let manual = run g arch in
  Overlap.of_bundles g arch manual.bundles ~m
