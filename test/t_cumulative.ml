(* Cumulative: ground checker correctness and solver completeness on
   random task sets, compared against brute force. *)

open Fd

let test_check_basic () =
  Alcotest.(check bool) "fits" true
    (Cumulative.check ~starts:[| 0; 0; 1 |] ~durations:[| 1; 1; 1 |]
       ~resources:[| 2; 2; 4 |] ~limit:4);
  Alcotest.(check bool) "overload" false
    (Cumulative.check ~starts:[| 0; 0 |] ~durations:[| 2; 1 |]
       ~resources:[| 3; 2 |] ~limit:4);
  Alcotest.(check bool) "empty" true
    (Cumulative.check ~starts:[||] ~durations:[||] ~resources:[||] ~limit:1)

let test_post_rejects_oversized () =
  let s = Store.create () in
  let x = Store.interval_var s 0 5 in
  Alcotest.check_raises "task wider than limit"
    (Invalid_argument "Cumulative.post: task exceeds resource limit") (fun () ->
      Cumulative.post s ~starts:[| x |] ~durations:[| 1 |] ~resources:[| 5 |]
        ~limit:4)

let test_serializes_unit_resource () =
  (* 3 unit tasks on capacity 1: optimal makespan 3 *)
  let s = Store.create () in
  let vars = Array.init 3 (fun _ -> Store.interval_var s 0 10) in
  Cumulative.post s ~starts:vars ~durations:[| 1; 1; 1 |] ~resources:[| 1; 1; 1 |]
    ~limit:1;
  let obj = Store.interval_var s 0 20 in
  Arith.max_of s (Array.to_list vars) obj;
  match
    Search.minimize s
      [ Search.phase ~var_select:Search.smallest_min (Array.to_list vars) ]
      ~objective:obj
      ~on_solution:(fun () -> Array.map Store.value vars)
  with
  | Search.Solution (starts, _) ->
    let l = List.sort compare (Array.to_list starts) in
    Alcotest.(check (list int)) "serialized" [ 0; 1; 2 ] l
  | _ -> Alcotest.fail "expected optimal solution"

(* Random instances: solutions found by exhaustive labelling equal the
   brute-force solutions of the cumulative definition. *)
let gen_instance =
  QCheck2.Gen.(
    let* n = int_range 1 4 in
    let* durations = list_repeat n (int_range 0 3) in
    let* resources = list_repeat n (int_range 0 3) in
    let* limit = int_range 1 4 in
    let* dmax = int_range 1 4 in
    return (durations, resources, limit, dmax))

let oracle =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"cumulative = brute force" ~count:150 gen_instance
       (fun (durations, resources, limit, dmax) ->
         QCheck2.assume (List.for_all (fun r -> r <= limit) resources);
         let n = List.length durations in
         let domains = List.init n (fun _ -> List.init (dmax + 1) Fun.id) in
         let expected =
           T_arith.brute domains (fun starts ->
               Cumulative.check ~starts:(Array.of_list starts)
                 ~durations:(Array.of_list durations)
                 ~resources:(Array.of_list resources)
                 ~limit)
         in
         let s = Store.create () in
         let vars = List.init n (fun _ -> Store.interval_var s 0 dmax) in
         match
           Cumulative.post s
             ~starts:(Array.of_list vars)
             ~durations:(Array.of_list durations)
             ~resources:(Array.of_list resources)
             ~limit
         with
         | () -> T_arith.all_solutions s vars = expected
         | exception Store.Fail _ -> expected = []))

let suite =
  [
    Alcotest.test_case "ground checker" `Quick test_check_basic;
    Alcotest.test_case "rejects oversized task" `Quick test_post_rejects_oversized;
    Alcotest.test_case "serializes on unit resource" `Quick test_serializes_unit_resource;
    oracle;
  ]

(* ---------------- variable durations (paper: "all parameters can be
   either domain variables or integers") ---------------- *)

let gen_var_instance =
  QCheck2.Gen.(
    let* n = int_range 1 3 in
    let* resources = list_repeat n (int_range 0 3) in
    let* limit = int_range 1 4 in
    let* smax = int_range 1 3 in
    let* dmax = int_range 1 3 in
    return (n, resources, limit, smax, dmax))

let var_duration_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"variable-duration cumulative = brute force"
       ~count:100 gen_var_instance (fun (n, resources, limit, smax, dmax) ->
         QCheck2.assume (List.for_all (fun r -> r <= limit) resources);
         let domains =
           List.concat
             (List.init n (fun _ ->
                  [ List.init (smax + 1) Fun.id; List.init (dmax + 1) Fun.id ]))
         in
         let expected =
           T_arith.brute domains (fun vals ->
               let rec unpack = function
                 | s :: d :: rest ->
                   let ss, ds = unpack rest in
                   (s :: ss, d :: ds)
                 | [] -> ([], [])
                 | _ -> assert false
               in
               let ss, ds = unpack vals in
               Cumulative.check ~starts:(Array.of_list ss)
                 ~durations:(Array.of_list ds)
                 ~resources:(Array.of_list resources)
                 ~limit)
         in
         let s = Store.create () in
         let starts = Array.init n (fun _ -> Store.interval_var s 0 smax) in
         let durations = Array.init n (fun _ -> Store.interval_var s 0 dmax) in
         let vars =
           List.concat (List.init n (fun i -> [ starts.(i); durations.(i) ]))
         in
         match
           Cumulative.post_var s ~starts ~durations
             ~resources:(Array.of_list resources) ~limit
         with
         | () -> T_arith.all_solutions s vars = expected
         | exception Store.Fail _ -> expected = []))

let test_var_duration_pruning () =
  (* two tasks, capacity 1: t0 fixed at [0, d) with d in 1..5; t1 fixed
     at start 3 -> d <= 3 *)
  let s = Store.create () in
  let s0 = Store.const s 0 and s1 = Store.const s 3 in
  let d0 = Store.interval_var s 1 5 and d1 = Store.const s 2 in
  Cumulative.post_var s ~starts:[| s0; s1 |] ~durations:[| d0; d1 |]
    ~resources:[| 1; 1 |] ~limit:1;
  Store.propagate s;
  Alcotest.(check int) "duration capped" 3 (Store.vmax d0)

let suite =
  suite @ [ var_duration_oracle;
            Alcotest.test_case "variable duration pruning" `Quick test_var_duration_pruning ]

(* ---------------- across backtrack generations ----------------

   Random narrow / push / pop sequences drive [post] and [post_var]
   through incremental runs, rebuilds after backtracks and the reused
   profile buffer: the propagator is posted at level 1 after a few
   narrowings, so popping to the root widens the horizon past the one
   the buffer was first sized for, and later narrowings shrink it.
   After every propagation the domains must equal the fixpoint of the
   timetable rules computed from scratch on value lists (or both must
   fail). *)

(* The rules, iterated to their fixpoint: compulsory parts
   [max s_i, min s_i + dmin_i) build the profile, which must stay
   within [limit]; a start of an unfixed task with r_i, dmin_i > 0 keeps
   the values v where the task fits over [v, v + dmin_i) on the profile
   minus its own part; a fixed start caps the duration at the widest
   that fits.  Each round applies the rules to every task against the
   profile of the round's start; the rules only narrow, and narrower
   domains only raise the profile, so rounds reach the same greatest
   fixpoint in any order.  [None] is failure. *)
let reference ~resources ~limit starts durs =
  let n = Array.length starts in
  let starts = Array.copy starts and durs = Array.copy durs in
  let first l = List.hd l and last l = List.hd (List.rev l) in
  let rec fix () =
    let lst = Array.map last starts and est = Array.map first starts in
    let dmin = Array.map first durs in
    let own i t = if lst.(i) <= t && t < est.(i) + dmin.(i) then resources.(i) else 0 in
    let horizon =
      List.fold_left max 0 (List.init n (fun i -> lst.(i) + last durs.(i)))
    in
    let load =
      Array.init (horizon + 1) (fun t ->
          List.fold_left (fun acc i -> acc + own i t) 0 (List.init n Fun.id))
    in
    if Array.exists (fun l -> l > limit) load then None
    else begin
      let fits i v d =
        List.for_all
          (fun t -> load.(t) - own i t + resources.(i) <= limit)
          (List.init d (fun k -> v + k))
      in
      let changed = ref false in
      let set a i l =
        if l = [] then raise Exit;
        if l <> a.(i) then begin
          a.(i) <- l;
          changed := true
        end
      in
      for i = 0 to n - 1 do
        if resources.(i) > 0 && dmin.(i) > 0 then begin
          if List.length starts.(i) > 1 then
            set starts i (List.filter (fun v -> fits i v dmin.(i)) starts.(i));
          if List.length starts.(i) = 1 then begin
            let v = first starts.(i) in
            let rec widest d =
              if d < last durs.(i) && fits i v (d + 1) then widest (d + 1) else d
            in
            let cap = widest dmin.(i) in
            set durs i (List.filter (fun d -> d <= cap) durs.(i))
          end
        end
      done;
      if !changed then fix () else Some (starts, durs)
    end
  in
  try fix () with Exit -> None

type gen_op = Push | Pop | Narrow of (int * int * int)  (* var, kind, value *)

(* [wide] instances span several 63-point words of the busy index
   (horizons up to 200, up to 6 tasks) and run longer push/pop/narrow
   sequences; narrowing kind 4 cuts a start to a 3-value window, which
   is how wide domains get compulsory parts away from the origin. *)
let gen_generations ?(wide = false) ~var () =
  QCheck2.Gen.(
    let* n = int_range 1 (if wide then 6 else 4) in
    let* limit = int_range 1 4 in
    (* [post_var] also takes a task wider than the limit while its
       duration may be 0: every point then conflicts with it *)
    let* resources = list_repeat n (int_range 0 (if var then limit + 1 else limit)) in
    let* h = if wide then int_range 60 200 else int_range 2 8 in
    let* durs = list_repeat n (pair (int_range 0 3) (int_range 0 2)) in
    let nv = if var then 2 * n else n in
    let narrow =
      triple (int_bound (nv - 1)) (int_bound (if wide then 4 else 3)) (int_range 0 (h + 3))
    in
    let* pre = list_size (int_range 0 (if wide then 6 else 3)) narrow in
    let* ops =
      list_size
        (int_range 1 (if wide then 64 else 16))
        (frequency
           [ (2, pure Push); (2, pure Pop); (5, map (fun t -> Narrow t) narrow) ])
    in
    return (resources, limit, h, durs, pre, ops))

let print_generations (resources, limit, h, durs, pre, ops) =
  let narrow (i, k, v) = Printf.sprintf "narrow(%d,%d,%d)" i k v in
  let op = function Push -> "push" | Pop -> "pop" | Narrow t -> narrow t in
  Printf.sprintf "resources=[%s] limit=%d h=%d durs=[%s] pre=[%s] ops=[%s]"
    (String.concat ";" (List.map string_of_int resources))
    limit h
    (String.concat ";" (List.map (fun (a, b) -> Printf.sprintf "%d+%d" a b) durs))
    (String.concat ";" (List.map narrow pre))
    (String.concat ";" (List.map op ops))

let generations_agree ~var (resources, limit, h, durs, pre, ops) =
  let s = Store.create () in
  let n = List.length resources in
  let resources = Array.of_list resources in
  let starts = Array.init n (fun _ -> Store.interval_var s 0 h) in
  let dvars =
    Array.of_list
      (List.mapi
         (fun i (lo, extra) ->
           let lo = if resources.(i) > limit then 0 else lo in
           Store.interval_var s lo (min 4 (lo + extra)))
         durs)
  in
  let vars = if var then Array.append starts dvars else starts in
  let lists a = Array.map (fun x -> Dom.to_list (Store.dom x)) a in
  let dur_lists () =
    if var then lists dvars else Array.map (fun (d, _) -> [ d ]) (Array.of_list durs)
  in
  (* narrowings that leave the variable non-empty *)
  let narrow (i, kind, v) =
    let x = vars.(i) in
    match kind with
    | 0 -> if v <= Store.vmax x then Store.remove_below s x v
    | 1 -> if v >= Store.vmin x then Store.remove_above s x v
    | 2 -> if not (Store.is_fixed x) then Store.remove_value s x v
    | 3 -> if Dom.mem v (Store.dom x) then Store.assign s x v
    | _ ->
      if Dom.meets v (v + 2) (Store.dom x) then begin
        Store.remove_below s x v;
        Store.remove_above s x (v + 2)
      end
  in
  (* run [propagate] from the current domains and compare with the
     reference; a failure pops one level, and one at the root ends the
     sequence *)
  let dead = ref false in
  let rec settle propagate =
    let snap = (lists starts, dur_lists ()) in
    let expected = reference ~resources ~limit (fst snap) (snd snap) in
    match propagate () with
    | () -> expected = Some (lists starts, dur_lists ())
    | exception Store.Fail _ ->
      expected = None
      && if Store.level s = 0 then (dead := true; true) else pop ()
  (* below level 1 the propagator's prunings are undone: re-run it *)
  and pop () =
    Store.pop_level s;
    if Store.level s = 0 then
      settle (fun () ->
          Store.reschedule_all s;
          Store.propagate s)
    else true
  in
  let post () =
    if var then begin
      (* the pre-narrowings may have made an oversized task's duration
         positive, which [post_var] rejects *)
      QCheck2.assume
        (Array.for_all2 (fun r d -> r <= limit || Store.vmin d = 0) resources dvars);
      Cumulative.post_var s ~starts ~durations:dvars ~resources ~limit
    end
    else
      Cumulative.post s ~starts
        ~durations:(Array.of_list (List.map fst durs))
        ~resources ~limit
  in
  Store.push_level s;
  List.iter narrow pre;
  settle post
  && List.for_all
       (function
         | _ when !dead -> true
         | Push ->
           Store.push_level s;
           true
         | Pop -> Store.level s = 0 || pop ()
         | Narrow t ->
           narrow t;
           settle (fun () -> Store.propagate s))
       ops

let generations_oracle ?wide ~count ~var ~name () =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count ~print:print_generations
       (gen_generations ?wide ~var ()) (generations_agree ~var))

let suite =
  suite
  @ [
      generations_oracle ~count:1000 ~var:false
        ~name:"cumulative fixpoints across generations = reference" ();
      generations_oracle ~count:1000 ~var:true
        ~name:"cumulative_var fixpoints across generations = reference" ();
      generations_oracle ~wide:true ~count:500 ~var:false
        ~name:"multi-word cumulative fixpoints across generations = reference" ();
      generations_oracle ~wide:true ~count:500 ~var:true
        ~name:"multi-word cumulative_var fixpoints across generations = reference" ();
    ]
