(* A tour of the fd constraint solver on two textbook problems.

   The scheduler's substrate (lib/fd) is a finite-domain solver; this
   example uses it standalone with the two globals the paper's model
   posts: Cumulative (eq. 2) on a job shop under branch & bound, and
   Diff2 (eq. 11) on a square packing.

   Run with:  dune exec examples/solver_tour.exe *)

open Fd

(* --- 1. A small job shop with Cumulative ---------------------------- *)

let job_shop () =
  (* 6 tasks, durations and resource demands, capacity 3; chains:
     t0 -> t2 -> t4 and t1 -> t3 -> t5 *)
  let s = Store.create () in
  let durations = [| 3; 2; 4; 3; 2; 3 |] in
  let demands = [| 2; 1; 1; 2; 2; 1 |] in
  let starts = Array.init 6 (fun i -> Store.interval_var s 0 30 ~name:(Printf.sprintf "t%d" i)) in
  Arith.leq_offset s starts.(0) durations.(0) starts.(2);
  Arith.leq_offset s starts.(2) durations.(2) starts.(4);
  Arith.leq_offset s starts.(1) durations.(1) starts.(3);
  Arith.leq_offset s starts.(3) durations.(3) starts.(5);
  Cumulative.post s ~starts ~durations ~resources:demands ~limit:3;
  let makespan = Store.interval_var s 0 40 ~name:"makespan" in
  let ends =
    Array.to_list
      (Array.mapi
         (fun i st ->
           let e = Store.interval_var s 0 40 in
           Arith.eq_offset s st durations.(i) e;
           e)
         starts)
  in
  Arith.max_of s ends makespan;
  match
    Search.minimize s
      [ Search.phase ~var_select:Search.smallest_min (Array.to_list starts) ]
      ~objective:makespan
      ~on_solution:(fun () -> (Array.map Store.value starts, Store.vmin makespan))
  with
  | Search.Solution ((sol, mk), _) -> Some (sol, mk)
  | _ -> None

(* --- 2. Square packing with Diff2 ----------------------------------- *)

let packing () =
  (* pack squares of sizes 3, 2, 2, 1 into a 5x4 box *)
  let s = Store.create () in
  let sizes = [ 3; 2; 2; 1 ] in
  let rects =
    List.map
      (fun size ->
        let x = Store.interval_var s 0 (5 - size) in
        let y = Store.interval_var s 0 (4 - size) in
        ((x, y), size))
      sizes
  in
  Diff2.post s
    (List.map
       (fun ((x, y), size) ->
         { Diff2.ox = x; oy = y; lx = Store.const s size; ly = Store.const s size })
       rects);
  let vars = List.concat_map (fun ((x, y), _) -> [ x; y ]) rects in
  match
    Search.solve s [ Search.phase vars ] ~on_solution:(fun () ->
        List.map (fun ((x, y), size) -> (Store.value x, Store.value y, size)) rects)
  with
  | Search.Solution (sol, _) -> Some sol
  | _ -> None

let () =
  (match job_shop () with
  | Some (starts, mk) ->
    Format.printf "job shop: makespan %d, starts %s@." mk
      (String.concat " " (Array.to_list (Array.map string_of_int starts)))
  | None -> Format.printf "job shop: failed@.");
  match packing () with
  | Some placements ->
    Format.printf "packing: %s@."
      (String.concat ", "
         (List.map (fun (x, y, s) -> Printf.sprintf "%dx%d@(%d,%d)" s s x y) placements))
  | None -> Format.printf "packing: failed@."
