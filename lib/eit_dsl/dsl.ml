open Eit

type ctx = { b : Ir.builder; mutable outs : int list }

type scalar = { s_node : int; s_val : Cplx.t }
type vector = { v_node : int; v_val : Cplx.t array }
type matrix = { m_rows : vector array }

let create () = { b = Ir.builder (); outs = [] }

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)

let vector_input ctx ?name arr =
  if Array.length arr <> Value.vlen then invalid_arg "Dsl.vector_input: wrong length";
  let id = Ir.add_data ctx.b ?label:name ~value:(Value.vector arr) `Vector in
  { v_node = id; v_val = Array.copy arr }

let vector_input_f ctx ?name l =
  vector_input ctx ?name (Array.of_list (List.map Cplx.of_float l))

let scalar_input ctx ?name c =
  let id = Ir.add_data ctx.b ?label:name ~value:(Value.scalar c) `Scalar in
  { s_node = id; s_val = c }

let scalar_input_f ctx ?name f = scalar_input ctx ?name (Cplx.of_float f)

let matrix_input ctx ?name m =
  if Array.length m <> Value.vlen then invalid_arg "Dsl.matrix_input: wrong row count";
  let rows =
    Array.mapi
      (fun i r ->
        let name = Option.map (fun n -> Printf.sprintf "%s[%d]" n i) name in
        vector_input ctx ?name r)
      m
  in
  { m_rows = rows }

let matrix_input_f ctx ?name rows =
  matrix_input ctx ?name
    (Array.of_list
       (List.map (fun r -> Array.of_list (List.map Cplx.of_float r)) rows))

let matrix_of_rows r0 r1 r2 r3 = { m_rows = [| r0; r1; r2; r3 |] }

let rows m = (m.m_rows.(0), m.m_rows.(1), m.m_rows.(2), m.m_rows.(3))

let row m i =
  if i < 0 || i >= Value.vlen then invalid_arg "Dsl.row: index out of range";
  m.m_rows.(i)

(* ------------------------------------------------------------------ *)
(* Generic op application: evaluate concretely + extend the trace.     *)

type arg = Av of vector | As of scalar

let arg_node = function Av v -> v.v_node | As s -> s.s_node
let arg_value = function
  | Av v -> Value.Vector (Array.copy v.v_val)
  | As s -> Value.Scalar s.s_val

let apply ctx op args =
  let value = Opcode.eval op (List.map arg_value args) in
  let kind = match Opcode.produces op with `Vector -> `Vector | `Scalar -> `Scalar in
  let result = Ir.add_data ctx.b kind in
  let (_ : int) =
    Ir.add_op ctx.b op ~args:(List.map arg_node args) ~result
  in
  (result, value)

let vec_op ctx op args =
  match apply ctx op args with
  | id, Value.Vector a -> { v_node = id; v_val = a }
  | _ -> assert false

let sca_op ctx op args =
  match apply ctx op args with
  | id, Value.Scalar c -> { s_node = id; s_val = c }
  | _ -> assert false

let vc core = Opcode.v core

(* ------------------------------------------------------------------ *)
(* Vector ops                                                          *)

let v_add ctx a b = vec_op ctx (vc Vadd) [ Av a; Av b ]
let v_sub ctx a b = vec_op ctx (vc Vsub) [ Av a; Av b ]
let v_mul ctx a b = vec_op ctx (vc Vmul) [ Av a; Av b ]
let v_scale ctx a s = vec_op ctx (vc Vscale) [ Av a; As s ]
let v_mac ctx a b c = vec_op ctx (vc Vmac) [ Av a; Av b; Av c ]
let v_axpy ctx a s b = vec_op ctx (vc Vaxpy) [ Av a; As s; Av b ]
let v_naxpy ctx a s b = vec_op ctx (vc Vnaxpy) [ Av a; As s; Av b ]
let v_dotp ctx a b = sca_op ctx (vc Vdotp) [ Av a; Av b ]
let v_doth ctx a b = sca_op ctx (vc Vdoth) [ Av a; Av b ]
let v_squsum ctx a = sca_op ctx (vc Vsqsum) [ Av a ]

let standalone_pre pre = Opcode.V { pre = Some pre; core = Vid; post = None }
let standalone_post post = Opcode.V { pre = None; core = Vid; post = Some post }

let v_conj ctx a = vec_op ctx (standalone_pre Pconj) [ Av a ]
let v_neg ctx a = vec_op ctx (standalone_pre Pneg) [ Av a ]

let v_mask ctx a m =
  if m < 0 || m > 15 then invalid_arg "Dsl.v_mask: mask out of range";
  vec_op ctx (standalone_pre (Pmask m)) [ Av a ]

let v_sort ctx a = vec_op ctx (standalone_post Qsort) [ Av a ]
let v_abs ctx a = vec_op ctx (standalone_post Qabs) [ Av a ]

(* ------------------------------------------------------------------ *)
(* Matrix ops                                                          *)

let matrix_args m = Array.to_list (Array.map (fun r -> Av r) m.m_rows)

let m_squsum ctx m = vec_op ctx (vc Msqsum) (matrix_args m)
let m_vmul ctx m x = vec_op ctx (vc Mvmul) (matrix_args m @ [ Av x ])
let m_hvmul ctx m x = vec_op ctx (vc Mhvmul) (matrix_args m @ [ Av x ])

(* ------------------------------------------------------------------ *)
(* Scalar ops                                                          *)

let s_sqrt ctx a = sca_op ctx (S Ssqrt) [ As a ]
let s_rsqrt ctx a = sca_op ctx (S Srsqrt) [ As a ]
let s_inv ctx a = sca_op ctx (S Sinv) [ As a ]
let s_div ctx a b = sca_op ctx (S Sdiv) [ As a; As b ]
let s_mul ctx a b = sca_op ctx (S Smul) [ As a; As b ]
let s_add ctx a b = sca_op ctx (S Sadd) [ As a; As b ]
let s_sub ctx a b = sca_op ctx (S Ssub) [ As a; As b ]
let s_cordic ctx a = sca_op ctx (S Scordic) [ As a ]

(* ------------------------------------------------------------------ *)
(* Index / merge                                                       *)

let merge ctx a b c d = vec_op ctx (IM Merge4) [ As a; As b; As c; As d ]
let splat ctx a = vec_op ctx (IM Splat) [ As a ]

let index ctx v k =
  if k < 0 || k >= Value.vlen then invalid_arg "Dsl.index: out of range";
  sca_op ctx (IM (Index k)) [ Av v ]

(* ------------------------------------------------------------------ *)
(* Outputs                                                             *)

let mark_output ctx v = ctx.outs <- v.v_node :: ctx.outs
let mark_output_scalar ctx s = ctx.outs <- s.s_node :: ctx.outs

let scalar_value s = s.s_val
let vector_value v = Array.copy v.v_val

let node_of_scalar s = s.s_node
let node_of_vector v = v.v_node

let graph ctx = Ir.freeze ctx.b
let declared_outputs ctx = List.rev ctx.outs
