(* Streaming execution: a modulo-scheduled kernel processing different
   data on every initiation — the regime the paper's MIMO kernels exist
   for ("kernel programs that are run many times for each piece of
   data", §1).

   The MATMUL kernel is modulo-scheduled once (II = 4); then a stream of
   distinct matrices is pushed through the pipelined kernel on the
   cycle-accurate simulator, one initiation every II cycles, and every
   iteration's 16 products are checked against that iteration's own
   reference result.

   Run with:  dune exec examples/streaming.exe *)

module Vecsched = Vecsched_core.Vecsched
open Eit

let () =
  let app = Apps.Matmul.build () in
  let g =
    (Vecsched.Merge.run (Apps.Matmul.graph app)).Vecsched.Merge.graph
  in
  match Sched.Modulo.solve_excluding ~budget_ms:20_000. g with
  | None -> Format.printf "modulo scheduling timed out@."
  | Some r ->
    Format.printf "kernel: one 4x4 matrix product every %d cycles@."
      r.Vecsched.Modulo.actual_ii;
    let iterations = 6 in
    (* a fresh matrix per initiation *)
    let matrix_for iter =
      Array.init 4 (fun i ->
          Array.init 4 (fun j ->
              Cplx.of_float (float_of_int (((iter * 7) + (i * 4) + j) mod 9))))
    in
    let inputs = Vecsched.Ir.inputs g in
    let stream iter =
      let m = matrix_for iter in
      List.mapi (fun row d -> (d, Value.vector m.(row))) inputs
    in
    let arch = { Arch.default with Arch.lines = 16 } in
    (match
       Sched.Periodic.run_and_check ~stream
         (Sched.Periodic.of_modulo g arch r ~iterations)
     with
    | Ok rep ->
      Format.printf
        "simulated %d initiations: %d results verified against per-iteration \
         references; last write-back at cycle %d (= span %d + %d x II)@."
        iterations rep.Sched.Periodic.checked_values
        rep.Sched.Periodic.completion r.Vecsched.Modulo.span
        (iterations - 1);
      (* show one detected row to make it tangible *)
      let m = matrix_for (iterations - 1) in
      let expect = Apps.Reference.matmul_aat m in
      Format.printf "last iteration, row 0 of A*A^T = [%a]@."
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
           Cplx.pp)
        (Array.to_list expect.(0))
    | Error e -> Format.printf "stream check FAILED: %s@." e);
    (* steady-state throughput vs one-shot, in matrices per 1000 cycles *)
    let o = Sched.Solve.run ~budget:(Fd.Search.time_budget 10_000.) g in
    (match o.Sched.Solve.schedule with
    | Some sch ->
      Format.printf
        "@.throughput: %.0f matrices / 1000 cc pipelined vs %.0f one-shot@."
        (1000. *. r.Vecsched.Modulo.throughput)
        (1000. /. float_of_int sch.Vecsched.Schedule.makespan)
    | None -> ())
