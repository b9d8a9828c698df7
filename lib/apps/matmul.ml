open Eit_dsl
type t = { ctx : Dsl.ctx; input : Dsl.matrix; result : Dsl.matrix }

let default_input =
  [ [ 1.; 2.; 3.; 4. ]; [ 2.; 3.; 4.; 5. ]; [ 3.; 4.; 5.; 6. ]; [ 4.; 5.; 6.; 7. ] ]

let build_complex rows =
  let ctx = Dsl.create () in
  let a = Dsl.matrix_input ctx ~name:"A" rows in
  (* for i <- 0 until 4; for j <- 0 until 4:
       scalars(j) = A(i) v_dotP A(j)    -- A(j) read as a column of A^T *)
  let result_rows =
    List.init Eit.Value.vlen (fun i ->
        let scalars =
          List.init Eit.Value.vlen (fun j ->
              Dsl.v_dotp ctx (Dsl.row a i) (Dsl.row a j))
        in
        match scalars with
        | [ s0; s1; s2; s3 ] ->
          let v = Dsl.merge ctx s0 s1 s2 s3 in
          Dsl.mark_output ctx v;
          v
        | _ -> assert false)
  in
  let result =
    match result_rows with
    | [ r0; r1; r2; r3 ] -> Dsl.matrix_of_rows r0 r1 r2 r3
    | _ -> assert false
  in
  { ctx; input = a; result }

let build ?(a = default_input) () =
  build_complex
    (Array.of_list
       (List.map (fun r -> Array.of_list (List.map Eit.Cplx.of_float r)) a))

(* A A^T is symmetric, so row i = A * row_i(A): four m_vmul nodes. *)
let build_matrix_form ?(a = default_input) () =
  let rows =
    Array.of_list (List.map (fun r -> Array.of_list (List.map Eit.Cplx.of_float r)) a)
  in
  let ctx = Dsl.create () in
  let m = Dsl.matrix_input ctx ~name:"A" rows in
  let result_rows =
    List.init Eit.Value.vlen (fun i ->
        let v = Dsl.m_vmul ctx m (Dsl.row m i) in
        Dsl.mark_output ctx v;
        v)
  in
  let result =
    match result_rows with
    | [ r0; r1; r2; r3 ] -> Dsl.matrix_of_rows r0 r1 r2 r3
    | _ -> assert false
  in
  { ctx; input = m; result }

let graph t = Dsl.graph t.ctx

(* ---------------- blocked k x k grids of 4x4 blocks ---------------- *)

type blocked = {
  bctx : Dsl.ctx;
  k : int;
  c_rows : Dsl.vector array array;
}

(* The (4k)x(4k) input, row-major from one LCG stream: k = 2 gives the
   8x8 matrix of every earlier blocked8 run. *)
let input ~k ~seed =
  let state = ref ((seed * 75) land 0x3FFFFFFF) in
  let next () =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    float_of_int ((!state mod 100) - 50) /. 10.
  in
  Array.init (4 * k) (fun _ -> Array.init (4 * k) (fun _ -> next ()))

let build_blocked ?(seed = 1) ~k () =
  if k < 1 then invalid_arg "Matmul.build_blocked: k must be positive";
  let a = input ~k ~seed in
  let ctx = Dsl.create () in
  (* block (bi, bk) of A: rows 4bi..4bi+3, columns 4bk..4bk+3 *)
  let block bi bk =
    Dsl.matrix_input ctx
      ~name:(Printf.sprintf "A%d%d" bi bk)
      (Array.init 4 (fun i ->
           Array.init 4 (fun j -> Eit.Cplx.of_float a.((4 * bi) + i).((4 * bk) + j))))
  in
  let blocks = Array.init k (fun bi -> Array.init k (fun bk -> block bi bk)) in
  (* C_{bi,bj} = sum_bk A_{bi,bk} A_{bj,bk}^T; the 4x4 block product
     (X Y^T)_{ij} = row_i(X) . row_j(Y) as in listing 1 *)
  let block_product x y =
    Array.init 4 (fun i ->
        let s =
          Array.init 4 (fun j -> Dsl.v_dotp ctx (Dsl.row x i) (Dsl.row y j))
        in
        Dsl.merge ctx s.(0) s.(1) s.(2) s.(3))
  in
  let c_rows =
    Array.init k (fun bi ->
        Array.init k (fun bj ->
            let ps =
              Array.init k (fun bk -> block_product blocks.(bi).(bk) blocks.(bj).(bk))
            in
            Array.init 4 (fun i ->
                (* k = 1: the block product row itself *)
                let r = ref ps.(0).(i) in
                for bk = 1 to k - 1 do
                  r := Dsl.v_add ctx !r ps.(bk).(i)
                done;
                Dsl.mark_output ctx !r;
                !r)))
  in
  (* flatten to [band].[column-block] of 4 rows each *)
  let flat = Array.init (k * k) (fun b -> c_rows.(b / k).(b mod k)) in
  { bctx = ctx; k; c_rows = flat }

let build_blocked8 ?seed () = build_blocked ?seed ~k:2 ()

let blocked_reference ~k ~seed =
  let a = input ~k ~seed in
  let n = 4 * k in
  Array.init n (fun i ->
      Array.init n (fun j ->
          let acc = ref 0. in
          for c = 0 to n - 1 do
            acc := !acc +. (a.(i).(c) *. a.(j).(c))
          done;
          Eit.Cplx.of_float !acc))

let blocked_rows b =
  let k = b.k in
  Array.init (4 * k) (fun i ->
      let bi = i / 4 in
      Array.init (4 * k) (fun j ->
          let bj = j / 4 in
          let rows = b.c_rows.((k * bi) + bj) in
          (Dsl.vector_value rows.(i mod 4)).(j mod 4)))
