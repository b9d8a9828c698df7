(* Architecture parameters and the vector-memory access rules, including
   the paper's Fig. 8 example. *)

open Eit

let arch = Arch.default

let test_defaults () =
  Alcotest.(check int) "lanes" 4 arch.Arch.n_lanes;
  Alcotest.(check int) "pipeline" 7 arch.Arch.vector_latency;
  Alcotest.(check int) "banks" 16 arch.Arch.banks;
  Alcotest.(check int) "page" 4 arch.Arch.page_size;
  Alcotest.(check int) "slots" 64 (Arch.slots arch);
  Alcotest.(check int) "reads" 8 arch.Arch.max_reads_per_cycle;
  Alcotest.(check int) "writes" 4 arch.Arch.max_writes_per_cycle

let test_with_slots () =
  Alcotest.(check int) "restricted" 10 (Arch.slots (Arch.with_slots arch 10));
  Alcotest.check_raises "zero" (Invalid_argument "Arch.with_slots: 0 out of range")
    (fun () -> ignore (Arch.with_slots arch 0))

let test_latencies () =
  Alcotest.(check int) "vector" 7 (Arch.latency arch (Opcode.v Vdotp));
  Alcotest.(check int) "matrix" 7 (Arch.latency arch (Opcode.v Mvmul));
  Alcotest.(check int) "sqrt" 7 (Arch.latency arch (S Ssqrt));
  Alcotest.(check int) "sadd cheap" 2 (Arch.latency arch (S Sadd));
  Alcotest.(check int) "merge" 1 (Arch.latency arch (IM Merge4));
  Alcotest.(check int) "duration" 1 (Arch.duration arch (Opcode.v Vadd))

let test_coords () =
  let c = Mem.coords_of_slot arch 37 in
  Alcotest.(check int) "bank" 5 c.Mem.bank;
  Alcotest.(check int) "line" 2 c.Mem.line;
  Alcotest.(check int) "page" 1 c.Mem.page;
  Alcotest.(check int) "slot_of inverse" 37 (Mem.slot_of arch ~bank:5 ~line:2);
  Alcotest.check_raises "out of range"
    (Invalid_argument "Mem.coords_of_slot: slot 64 out of range") (fun () ->
      ignore (Mem.coords_of_slot arch 64))

(* Fig. 8: A has bank conflicts, B has a page/line conflict, C is clean. *)
let test_fig8 () =
  let arch3 = { arch with Arch.lines = 3 } in
  let slot ~bank ~line = Mem.slot_of arch3 ~bank ~line in
  let a = [ slot ~bank:0 ~line:0; slot ~bank:1 ~line:0;
            slot ~bank:0 ~line:1; slot ~bank:1 ~line:1 ] in
  let b = [ slot ~bank:8 ~line:0; slot ~bank:9 ~line:0;
            slot ~bank:10 ~line:0; slot ~bank:11 ~line:1 ] in
  let c = [ slot ~bank:4 ~line:2; slot ~bank:5 ~line:2;
            slot ~bank:12 ~line:1; slot ~bank:13 ~line:1 ] in
  let has_bank_conflict vs =
    List.exists (function Mem.Bank_conflict _ -> true | _ -> false) vs
  in
  let has_page_conflict vs =
    List.exists (function Mem.Page_line_conflict _ -> true | _ -> false) vs
  in
  let va = Mem.check_access arch3 ~reads:a ~writes:[] in
  Alcotest.(check bool) "A bank conflict" true (has_bank_conflict va);
  let vb = Mem.check_access arch3 ~reads:b ~writes:[] in
  Alcotest.(check bool) "B page/line conflict" true (has_page_conflict vb);
  Alcotest.(check bool) "B no bank conflict" false (has_bank_conflict vb);
  Alcotest.(check bool) "C accessible" true (Mem.access_ok arch3 ~reads:c ~writes:[])

let test_port_limits () =
  (* 9 reads across distinct banks on one line: exceeds the 8-read port *)
  let reads = List.init 9 (fun b -> Mem.slot_of arch ~bank:b ~line:0) in
  let vs = Mem.check_access arch ~reads ~writes:[] in
  Alcotest.(check bool) "too many reads" true
    (List.exists (function Mem.Too_many_accesses { kind = `Read; _ } -> true | _ -> false) vs);
  let writes = List.init 5 (fun b -> Mem.slot_of arch ~bank:b ~line:0) in
  let vs = Mem.check_access arch ~reads:[] ~writes in
  Alcotest.(check bool) "too many writes" true
    (List.exists (function Mem.Too_many_accesses { kind = `Write; _ } -> true | _ -> false) vs)

let test_duplicate_reads_count_once () =
  let s = Mem.slot_of arch ~bank:3 ~line:1 in
  Alcotest.(check bool) "same slot twice is one fetch" true
    (Mem.access_ok arch ~reads:[ s; s ] ~writes:[])

let test_read_write_same_bank_ok () =
  (* one read port and one write port per bank *)
  let r = Mem.slot_of arch ~bank:3 ~line:0 in
  let w = Mem.slot_of arch ~bank:3 ~line:2 in
  Alcotest.(check bool) "1R+1W same bank" true
    (Mem.access_ok arch ~reads:[ r ] ~writes:[ w ])

let test_two_matrices_one_write () =
  (* the headline capability: read two 4x4 matrices, write one, same cycle *)
  let m1 = List.init 4 (fun b -> Mem.slot_of arch ~bank:b ~line:0) in
  let m2 = List.init 4 (fun b -> Mem.slot_of arch ~bank:(b + 4) ~line:1) in
  let out = List.init 4 (fun b -> Mem.slot_of arch ~bank:(b + 8) ~line:2) in
  Alcotest.(check bool) "2 reads + 1 write matrices" true
    (Mem.access_ok arch ~reads:(m1 @ m2) ~writes:out)

(* The simulator checks every cycle; one with no access allocates
   nothing. *)
let test_idle_cycle_allocates_nothing () =
  let w0 = Gc.minor_words () in
  for _ = 1 to 1_000 do
    match Mem.check_access arch ~reads:[] ~writes:[] with
    | [] -> ()
    | _ -> Alcotest.fail "a violation without an access"
  done;
  let w1 = Gc.minor_words () in
  Alcotest.(check (float 0.)) "zero words allocated" 0. (w1 -. w0)

let test_memory_cells () =
  let m = Mem.create arch in
  Alcotest.(check bool) "uninit" false (Mem.is_initialized m 3);
  let v = Array.make Value.vlen (Cplx.of_float 2.) in
  Mem.write m 3 v;
  Alcotest.(check bool) "init" true (Mem.is_initialized m 3);
  Alcotest.(check (float 0.)) "read back" 2. (Mem.read m 3).(0).Cplx.re;
  Alcotest.(check (list int)) "used" [ 3 ] (Mem.used_slots m);
  let m2 = Mem.copy m in
  Mem.write m 3 (Array.make Value.vlen Cplx.zero);
  Alcotest.(check (float 0.)) "copy isolated" 2. (Mem.read m2 3).(0).Cplx.re;
  Alcotest.check_raises "read uninit"
    (Invalid_argument "Mem.read: slot 5 uninitialized") (fun () ->
      ignore (Mem.read m 5))

(* property: any single-slot access is legal; any two distinct slots in
   the same bank conflict *)
let props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"single access always legal" ~count:200
         QCheck2.Gen.(int_bound 63)
         (fun k -> Mem.access_ok arch ~reads:[ k ] ~writes:[]));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"same-bank distinct slots conflict" ~count:200
         QCheck2.Gen.(pair (int_bound 15) (pair (int_bound 3) (int_bound 3)))
         (fun (bank, (l1, l2)) ->
           QCheck2.assume (l1 <> l2);
           let s1 = Mem.slot_of arch ~bank ~line:l1 in
           let s2 = Mem.slot_of arch ~bank ~line:l2 in
           not (Mem.access_ok arch ~reads:[ s1; s2 ] ~writes:[])));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"same line never page-conflicts" ~count:200
         QCheck2.Gen.(pair (int_bound 3) (list_size (int_range 1 8) (int_bound 15)))
         (fun (line, banks) ->
           let banks = List.sort_uniq compare banks in
           let reads = List.map (fun bank -> Mem.slot_of arch ~bank ~line) banks in
           Mem.access_ok arch ~reads ~writes:[]));
  ]

let suite =
  [
    Alcotest.test_case "default parameters" `Quick test_defaults;
    Alcotest.test_case "with_slots" `Quick test_with_slots;
    Alcotest.test_case "latencies" `Quick test_latencies;
    Alcotest.test_case "slot coordinates" `Quick test_coords;
    Alcotest.test_case "Fig. 8" `Quick test_fig8;
    Alcotest.test_case "port limits" `Quick test_port_limits;
    Alcotest.test_case "duplicate reads" `Quick test_duplicate_reads_count_once;
    Alcotest.test_case "1R+1W per bank" `Quick test_read_write_same_bank_ok;
    Alcotest.test_case "two matrices in, one out" `Quick test_two_matrices_one_write;
    Alcotest.test_case "no access allocates nothing" `Quick
      test_idle_cycle_allocates_nothing;
    Alcotest.test_case "memory cells" `Quick test_memory_cells;
  ]
  @ props
