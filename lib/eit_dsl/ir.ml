type category =
  | Vector_op
  | Matrix_op
  | Scalar_op
  | Index
  | Merge
  | Vector_data
  | Scalar_data

let category_name = function
  | Vector_op -> "vector_op"
  | Matrix_op -> "matrix_op"
  | Scalar_op -> "scalar_op"
  | Index -> "index"
  | Merge -> "merge"
  | Vector_data -> "vector_data"
  | Scalar_data -> "scalar_data"

let category_of_name = function
  | "vector_op" -> Vector_op
  | "matrix_op" -> Matrix_op
  | "scalar_op" -> Scalar_op
  | "index" -> Index
  | "merge" -> Merge
  | "vector_data" -> Vector_data
  | "scalar_data" -> Scalar_data
  | s -> invalid_arg ("Ir.category_of_name: " ^ s)

let is_data = function
  | Vector_data | Scalar_data -> true
  | Vector_op | Matrix_op | Scalar_op | Index | Merge -> false

let is_op c = not (is_data c)

type node = {
  id : int;
  cat : category;
  op : Eit.Opcode.t option;
  label : string;
  value : Eit.Value.t option;
}

type t = {
  node_arr : node array;
  pred_arr : int list array;  (* operand order for ops *)
  succ_arr : int list array;
  n_edges : int;
}

(* ------------------------------------------------------------------ *)
(* Builder                                                             *)

type builder = {
  mutable b_nodes : node list;  (* reversed *)
  mutable b_count : int;
  mutable b_edges : (int * int) list;  (* (from, to), reversed; operand
                                          order = edge insertion order *)
}

let builder () = { b_nodes = []; b_count = 0; b_edges = [] }

let fresh_id b =
  let id = b.b_count in
  b.b_count <- id + 1;
  id

let add_data b ?label ?value kind =
  let id = fresh_id b in
  let cat = match kind with `Vector -> Vector_data | `Scalar -> Scalar_data in
  let label = Option.value label ~default:(Printf.sprintf "d%d" id) in
  (match (value, kind) with
  | Some (Eit.Value.Vector _), `Vector | Some (Eit.Value.Scalar _), `Scalar | None, _ -> ()
  | Some _, _ -> invalid_arg "Ir.add_data: value kind mismatch");
  b.b_nodes <- { id; cat; op = None; label; value } :: b.b_nodes;
  id

let category_of_op op =
  match (op : Eit.Opcode.t) with
  | V { core; _ } -> if Eit.Opcode.is_matrix_core core then Matrix_op else Vector_op
  | S _ -> Scalar_op
  | IM (Merge4 | Splat) -> Merge
  | IM (Index _) -> Index

let add_op b ?label op ~args ~result =
  if List.length args <> Eit.Opcode.arity op then
    invalid_arg
      (Printf.sprintf "Ir.add_op: %s expects %d operands, got %d"
         (Eit.Opcode.name op) (Eit.Opcode.arity op) (List.length args));
  let id = fresh_id b in
  let label = Option.value label ~default:(Eit.Opcode.name op) in
  b.b_nodes <- { id; cat = category_of_op op; op = Some op; label; value = None } :: b.b_nodes;
  List.iter (fun a -> b.b_edges <- (a, id) :: b.b_edges) args;
  b.b_edges <- (id, result) :: b.b_edges;
  id

(* ------------------------------------------------------------------ *)
(* Freeze + validation                                                 *)

let validate_frozen g =
  let n = Array.length g.node_arr in
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let exception E of string in
  try
    for i = 0 to n - 1 do
      let nd = g.node_arr.(i) in
      let fail fmt = Format.kasprintf (fun s -> raise (E s)) fmt in
      if is_data nd.cat then begin
        if nd.op <> None then fail "data node %d carries an opcode" i;
        (match g.pred_arr.(i) with
        | [] | [ _ ] -> ()
        | _ -> fail "data node %d has several producers" i);
        List.iter
          (fun p ->
            if not (is_op g.node_arr.(p).cat) then
              fail "edge %d->%d between two data nodes" p i)
          g.pred_arr.(i);
        (* producer kind consistency *)
        match (g.pred_arr.(i), nd.cat) with
        | [ p ], cat -> (
          match (g.node_arr.(p).op, cat) with
          | Some op, Vector_data when Eit.Opcode.produces op = `Vector -> ()
          | Some op, Scalar_data when Eit.Opcode.produces op = `Scalar -> ()
          | Some op, _ ->
            fail "node %d: %s produces %s but feeds a %s node" p
              (Eit.Opcode.name op)
              (match Eit.Opcode.produces op with `Vector -> "vector" | `Scalar -> "scalar")
              (category_name cat)
          | None, _ -> fail "producer %d of %d has no opcode" p i)
        | _ -> ()
      end
      else begin
        let op = match nd.op with Some op -> op | None -> raise (E (Printf.sprintf "op node %d lacks an opcode" i)) in
        if List.length g.pred_arr.(i) <> Eit.Opcode.arity op then
          fail "op node %d (%s): %d operands, arity %d" i (Eit.Opcode.name op)
            (List.length g.pred_arr.(i)) (Eit.Opcode.arity op);
        (match g.succ_arr.(i) with
        | [ _ ] -> ()
        | l -> fail "op node %d has %d results (expected 1)" i (List.length l));
        List.iter
          (fun p ->
            if not (is_data g.node_arr.(p).cat) then
              fail "edge %d->%d between two op nodes" p i)
          g.pred_arr.(i);
        if category_of_op op <> nd.cat then
          fail "op node %d: category %s inconsistent with opcode %s" i
            (category_name nd.cat) (Eit.Opcode.name op)
      end
    done;
    (* acyclicity via Kahn *)
    let indeg = Array.map List.length g.pred_arr in
    let q = Queue.create () in
    Array.iteri (fun i d -> if d = 0 then Queue.add i q) indeg;
    let seen = ref 0 in
    while not (Queue.is_empty q) do
      let i = Queue.pop q in
      incr seen;
      List.iter
        (fun s ->
          indeg.(s) <- indeg.(s) - 1;
          if indeg.(s) = 0 then Queue.add s q)
        g.succ_arr.(i)
    done;
    if !seen <> n then raise (E "graph has a cycle");
    Ok ()
  with E msg -> err "%s" msg

let freeze b =
  let n = b.b_count in
  let node_arr = Array.make n { id = 0; cat = Vector_data; op = None; label = ""; value = None } in
  List.iter (fun nd -> node_arr.(nd.id) <- nd) b.b_nodes;
  let pred_arr = Array.make n [] and succ_arr = Array.make n [] in
  (* b_edges is reversed insertion order; restore order so operand lists
     come out in insertion (operand) order. *)
  List.iter
    (fun (f, t) ->
      pred_arr.(t) <- f :: pred_arr.(t);
      succ_arr.(f) <- t :: succ_arr.(f))
    b.b_edges;
  let g = { node_arr; pred_arr; succ_arr; n_edges = List.length b.b_edges } in
  match validate_frozen g with
  | Ok () -> g
  | Error msg -> invalid_arg ("Ir.freeze: " ^ msg)

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)

let size g = Array.length g.node_arr
let edge_count g = g.n_edges
let node g i = g.node_arr.(i)
let nodes g = Array.to_list g.node_arr
let preds g i = g.pred_arr.(i)
let succs g i = g.succ_arr.(i)

let producer g i =
  match g.pred_arr.(i) with
  | [ p ] when is_data g.node_arr.(i).cat -> Some p
  | _ -> None

let category g i = g.node_arr.(i).cat

let opcode g i =
  match g.node_arr.(i).op with
  | Some op -> op
  | None -> invalid_arg (Printf.sprintf "Ir.opcode: node %d is a data node" i)

let ids_where p g =
  Array.to_list (Array.map (fun nd -> nd.id) g.node_arr)
  |> List.filter (fun i -> p g.node_arr.(i))

let op_nodes g = ids_where (fun nd -> is_op nd.cat) g
let data_nodes g = ids_where (fun nd -> is_data nd.cat) g
let inputs g = ids_where (fun nd -> is_data nd.cat) g |> List.filter (fun i -> g.pred_arr.(i) = [])
let outputs g = ids_where (fun nd -> is_data nd.cat) g |> List.filter (fun i -> g.succ_arr.(i) = [])
let count g cat = ids_where (fun nd -> nd.cat = cat) g |> List.length

let validate g = validate_frozen g

let topo_order g =
  let n = size g in
  let indeg = Array.map List.length g.pred_arr in
  let q = Queue.create () in
  for i = 0 to n - 1 do
    if indeg.(i) = 0 then Queue.add i q
  done;
  let order = ref [] in
  while not (Queue.is_empty q) do
    let i = Queue.pop q in
    order := i :: !order;
    List.iter
      (fun s ->
        indeg.(s) <- indeg.(s) - 1;
        if indeg.(s) = 0 then Queue.add s q)
      g.succ_arr.(i)
  done;
  List.rev !order

let node_latency g arch i =
  match g.node_arr.(i).op with
  | Some op -> Eit.Arch.latency arch op
  | None -> 0

let heads_tails g arch =
  let n = size g in
  let lat = node_latency g arch in
  let order = topo_order g in
  let head = Array.make n 0 and tail = Array.make n 0 in
  List.iter
    (fun i ->
      List.iter (fun p -> head.(i) <- max head.(i) (head.(p) + lat p)) (preds g i))
    order;
  List.iter
    (fun i ->
      tail.(i) <- lat i + List.fold_left (fun acc s -> max acc tail.(s)) 0 (succs g i))
    (List.rev order);
  (head, tail)

let critical_path g arch = Array.fold_left max 0 (snd (heads_tails g arch))

let eval ?(inputs = []) g =
  let n = size g in
  List.iter
    (fun (i, v) ->
      if i < 0 || i >= n then invalid_arg "Ir.eval: override out of range";
      let nd = g.node_arr.(i) in
      if (not (is_data nd.cat)) || preds g i <> [] then
        invalid_arg (Printf.sprintf "Ir.eval: node %d is not an input" i);
      match (nd.cat, v) with
      | Vector_data, Eit.Value.Vector _ | Scalar_data, Eit.Value.Scalar _ -> ()
      | _ -> invalid_arg (Printf.sprintf "Ir.eval: wrong value kind for input %d" i))
    inputs;
  let values : Eit.Value.t option array = Array.make n None in
  List.iter
    (fun i ->
      let nd = g.node_arr.(i) in
      if is_data nd.cat then
        match preds g i with
        | [] -> (
          match
            match List.assoc_opt i inputs with
            | Some v -> Some v
            | None -> nd.value
          with
          | Some v -> values.(i) <- Some v
          | None ->
            invalid_arg (Printf.sprintf "Ir.eval: input node %d (%s) has no value" i nd.label))
        | [ p ] -> values.(i) <- values.(p)
        | _ -> assert false
      else
        let op = Option.get nd.op in
        let args =
          List.map
            (fun p ->
              match values.(p) with
              | Some v -> v
              | None -> invalid_arg (Printf.sprintf "Ir.eval: operand %d not computed" p))
            (preds g i)
        in
        values.(i) <- Some (Eit.Opcode.eval op args))
    (topo_order g);
  List.filter_map
    (fun i -> Option.map (fun v -> (i, v)) values.(i))
    (data_nodes g)
