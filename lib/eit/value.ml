let vlen = 4

type t =
  | Scalar of Cplx.t
  | Vector of Cplx.t array
  | Matrix of Cplx.t array array

let scalar c = Scalar c

let vector a =
  if Array.length a <> vlen then
    invalid_arg (Printf.sprintf "Value.vector: length %d <> %d" (Array.length a) vlen);
  Vector (Array.copy a)

let matrix rows =
  if Array.length rows <> vlen then invalid_arg "Value.matrix: wrong row count";
  Array.iter
    (fun r -> if Array.length r <> vlen then invalid_arg "Value.matrix: wrong row length")
    rows;
  Matrix (Array.map Array.copy rows)

let vector_of_list l = vector (Array.of_list l)
let vector_of_floats l = vector_of_list (List.map Cplx.of_float l)

let as_scalar = function
  | Scalar c -> c
  | v -> invalid_arg ("Value.as_scalar: got " ^ (match v with Vector _ -> "vector" | _ -> "matrix"))

let as_vector = function
  | Vector a -> a
  | v -> invalid_arg ("Value.as_vector: got " ^ (match v with Scalar _ -> "scalar" | _ -> "matrix"))

let as_matrix = function
  | Matrix m -> m
  | v -> invalid_arg ("Value.as_matrix: got " ^ (match v with Scalar _ -> "scalar" | _ -> "vector"))

let kind = function Scalar _ -> "scalar" | Vector _ -> "vector" | Matrix _ -> "matrix"

let row m i =
  let m = as_matrix m in
  if i < 0 || i >= vlen then invalid_arg "Value.row: index out of range";
  Vector (Array.copy m.(i))

let col m j =
  let m = as_matrix m in
  if j < 0 || j >= vlen then invalid_arg "Value.col: index out of range";
  Vector (Array.init vlen (fun i -> m.(i).(j)))

let equal ?eps a b =
  match (a, b) with
  | Scalar x, Scalar y -> Cplx.equal ?eps x y
  | Vector x, Vector y ->
    Array.for_all2 (fun u v -> Cplx.equal ?eps u v) x y
  | Matrix x, Matrix y ->
    Array.for_all2 (fun r1 r2 -> Array.for_all2 (fun u v -> Cplx.equal ?eps u v) r1 r2) x y
  | _ -> false

let pp ppf = function
  | Scalar c -> Cplx.pp ppf c
  | Vector a ->
    Format.fprintf ppf "[%a]"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") Cplx.pp)
      (Array.to_list a)
  | Matrix m ->
    Format.fprintf ppf "[%a]"
      (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ") (fun ppf r ->
           Format.fprintf ppf "[%a]"
             (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") Cplx.pp)
             (Array.to_list r)))
      (Array.to_list m)

let to_string v = Format.asprintf "%a" pp v
