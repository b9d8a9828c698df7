open Eit_dsl

type canon = {
  encoding : string;
  to_canon : int array;
  of_canon : int array;
}

type opts = {
  memory : bool;
  parallel : int;
  max_nodes : int option;
  max_time_ms : float option;
}

type t = { repr : string; md5 : string }

(* ------------------------------------------------------------------ *)
(* Deterministic integer mixing.  [Hashtbl.hash] makes no cross-process
   stability promise, and keys are persisted to disk (`--cache-file`),
   so the mixer is spelled out: boost-style hash_combine masked to stay
   positive and identical on every 64-bit build. *)

let mask = (1 lsl 62) - 1

let mix h x =
  (h lxor (x + 0x9E3779B9 + (h lsl 6) + (h lsr 2))) land mask

let str_hash s = String.fold_left (fun h c -> mix h (Char.code c)) 17 s

let node_tag g id =
  let n = Ir.node g id in
  let h = str_hash (Ir.category_name n.Ir.cat) in
  match n.Ir.op with
  | Some op -> mix (mix h 2) (str_hash (Eit.Opcode.name op))
  | None -> mix h 1

(* One WL round: the up-hash folds predecessor hashes in operand order
   (operand position matters to the model).  The down-hash folds, per
   consumer, the consumer's hash mixed with the operand position(s) at
   which this node is consumed — the *set* of consumers is unordered,
   but two inputs feeding the same ops at different operand positions
   are not interchangeable, and without the position the refinement
   would call them tied and leave the tie to build order. *)
let refine g h =
  let n = Ir.size g in
  Array.init n (fun id ->
      let up =
        List.fold_left (fun acc p -> mix acc h.(p)) (mix h.(id) 0x55)
          (Ir.preds g id)
      in
      let down =
        Ir.succs g id
        |> List.sort_uniq compare
        |> List.concat_map (fun s ->
               List.concat
                 (List.mapi
                    (fun k p -> if p = id then [ mix h.(s) (k + 1) ] else [])
                    (Ir.preds g s)))
        |> List.sort compare
        |> List.fold_left mix 0x77
      in
      mix up down)

let distinct h =
  let a = Array.copy h in
  Array.sort compare a;
  let d = ref (if Array.length a = 0 then 0 else 1) in
  for i = 1 to Array.length a - 1 do
    if a.(i) <> a.(i - 1) then incr d
  done;
  !d

(* Refine until the partition stops splitting (one stagnant WL round is
   a fixpoint). *)
let refine_fix g h =
  let rec go h d =
    if d = Array.length h then h
    else
      let h' = refine g h in
      let d' = distinct h' in
      if d' > d then go h' d' else h'
  in
  go h (distinct h)

let canonicalize g =
  let n = Ir.size g in
  let h = ref (refine_fix g (Array.init n (node_tag g))) in
  let to_canon = Array.make n (-1) in
  let of_canon = Array.make n 0 in
  for idx = 0 to n - 1 do
    (* Minimal-hash unassigned node next.  Ties after a WL fixpoint are
       (conjectured) automorphic, so the pick among them is free; the
       individualization below then re-breaks their descendants
       consistently, making the final order build-independent. *)
    let best = ref (-1) in
    for id = n - 1 downto 0 do
      if to_canon.(id) < 0 && (!best < 0 || !h.(id) < !h.(!best)) then
        best := id
    done;
    let b = !best in
    let tied = ref 0 in
    Array.iteri
      (fun id hv -> if to_canon.(id) < 0 && hv = !h.(b) then incr tied)
      !h;
    to_canon.(b) <- idx;
    of_canon.(idx) <- b;
    if !tied > 1 then begin
      !h.(b) <- mix (mix 0x1D1 idx) 0x3;
      h := refine_fix g !h
    end
  done;
  let buf = Buffer.create (64 + (n * 12)) in
  Buffer.add_string buf
    (Printf.sprintf "g|n=%d|e=%d" n (Ir.edge_count g));
  for idx = 0 to n - 1 do
    let id = of_canon.(idx) in
    let nd = Ir.node g id in
    Buffer.add_char buf ';';
    Buffer.add_string buf (Ir.category_name nd.Ir.cat);
    Buffer.add_char buf ':';
    (match nd.Ir.op with
    | Some op -> Buffer.add_string buf (Eit.Opcode.name op)
    | None -> Buffer.add_char buf '_');
    Buffer.add_char buf ':';
    List.iteri
      (fun k p ->
        if k > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf (string_of_int to_canon.(p)))
      (Ir.preds g id)
  done;
  { encoding = Buffer.contents buf; to_canon; of_canon }

(* ------------------------------------------------------------------ *)

let opt_int = function None -> "_" | Some i -> string_of_int i

(* %h is exact (hex float), so budgets round-trip bit-for-bit. *)
let opt_float = function None -> "_" | Some f -> Printf.sprintf "%h" f

let encode_arch (a : Eit.Arch.t) =
  Printf.sprintf
    "a|l=%d,vl=%d,vd=%d,sl=%d,ssl=%d,sd=%d,il=%d,id=%d,b=%d,ps=%d,ln=%d,slim=%s,rd=%d,wr=%d"
    a.Eit.Arch.n_lanes a.Eit.Arch.vector_latency a.Eit.Arch.vector_duration
    a.Eit.Arch.scalar_latency a.Eit.Arch.scalar_simple_latency
    a.Eit.Arch.scalar_duration a.Eit.Arch.im_latency a.Eit.Arch.im_duration
    a.Eit.Arch.banks a.Eit.Arch.page_size a.Eit.Arch.lines
    (opt_int a.Eit.Arch.slot_limit)
    a.Eit.Arch.max_reads_per_cycle a.Eit.Arch.max_writes_per_cycle

let encode_opts o =
  Printf.sprintf "o|m=%b,p=%d,mn=%s,mt=%s" o.memory o.parallel
    (opt_int o.max_nodes) (opt_float o.max_time_ms)

let of_repr repr = { repr; md5 = Digest.to_hex (Digest.string repr) }

let make canon arch opts =
  of_repr
    (String.concat "\n" [ canon.encoding; encode_arch arch; encode_opts opts ])

let repr k = k.repr
let digest k = k.md5
let equal a b = String.equal a.repr b.repr
