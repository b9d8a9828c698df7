(* Order statistics over float samples, and the per-run sample table
   every layer measurement lands in. *)

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let median l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The [ceil (q n)]-th smallest sample (nearest rank, the convention of
   the service's own histograms); 0 when there are no samples. *)
let rank q l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then 0.
  else a.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))

let mean l =
  match l with
  | [] -> 0.
  | _ -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

let sum l = List.fold_left ( +. ) 0. l

(* Geometric mean of positive values; 0 when there are none. *)
let geomean l =
  match List.filter (fun x -> x > 0.) l with
  | [] -> 0.
  | l -> exp (mean (List.map log l))

(* Quartiles by Python's [statistics.quantiles(data, n=4)] (the
   "exclusive" method), so [compare] reports the spreads the
   acceptance rule is stated in. *)
let quartiles l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then (0., 0., 0.)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
    in
    (q 1, q 2, q 3)

(* Named sample lists, newest first. *)
type table = (string, float list) Hashtbl.t

let table () : table = Hashtbl.create 128

let add (t : table) k v =
  Hashtbl.replace t k (v :: Option.value ~default:[] (Hashtbl.find_opt t k))

let get (t : table) k = Option.value ~default:[] (Hashtbl.find_opt t k)
