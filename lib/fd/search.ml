open Store

(* Variable selection is a closed set of incremental heuristics.  They
   run over a backtrackable sparse set of possibly-unfixed variables (no
   List.filter per node) and break ties exactly like the seed engine: by
   original list position. *)
type var_select = Input_order | First_fail | Smallest_min | Most_constrained

let input_order = Input_order
let first_fail = First_fail
let smallest_min = Smallest_min
let most_constrained = Most_constrained

type val_select = var -> int

let select_min v = vmin v

let select_mid v =
  let d = dom v in
  Dom.closest ((Dom.min d + Dom.max d) / 2) d

type phase = { vars : var list; var_select : var_select; val_select : val_select }

let phase ?(var_select = First_fail) ?(val_select = select_min) vars =
  { vars; var_select; val_select }

(* ------------------------------------------------------------------ *)
(* Runtime phase state: a sparse set over the phase's variables.  The
   prefix [0, n_active) of [arr] holds every possibly-unfixed variable;
   fixed variables are swapped out to the suffix during selection.
   Because variables only become fixed while descending and only become
   unfixed again on backtracking, restoring [n_active] on backtrack
   restores exactly the previous membership (order inside the prefix is
   irrelevant: tie-breaking uses the original index in [orig]). *)

type rt_phase = {
  arr : var array;
  orig : int array;  (* arr.(i)'s position in the user's list *)
  mutable n_active : int;
  sel : var_select;
  value_of : val_select;
}

let rt_of_phase ph =
  let arr = Array.of_list ph.vars in
  {
    arr;
    orig = Array.init (Array.length arr) Fun.id;
    n_active = Array.length arr;
    sel = ph.var_select;
    value_of = ph.val_select;
  }

(* Scan the active prefix once: compact newly-fixed variables out and
   return the best variable under [key] (smaller is better, ties to the
   smallest original index).  The lexicographic (key, index) order is
   compared on two ints, so the scan allocates only its result. *)
let scan_best rp key =
  let best = ref (-1) and best_k = ref max_int and best_o = ref max_int in
  let i = ref 0 in
  while !i < rp.n_active do
    let v = rp.arr.(!i) in
    if is_fixed v then begin
      let last = rp.n_active - 1 in
      rp.arr.(!i) <- rp.arr.(last);
      rp.arr.(last) <- v;
      let o = rp.orig.(!i) in
      rp.orig.(!i) <- rp.orig.(last);
      rp.orig.(last) <- o;
      rp.n_active <- last
    end
    else begin
      let k = key v and o = rp.orig.(!i) in
      if k < !best_k || (k = !best_k && o < !best_o) then begin
        best_k := k;
        best_o := o;
        best := !i
      end;
      incr i
    end
  done;
  (* compaction only swaps positions at or after the scan point, so
     the recorded position still holds the best variable *)
  if !best < 0 then None else Some rp.arr.(!best)

let rt_select rp =
  match rp.sel with
  | Input_order -> scan_best rp (fun _ -> 0)
  | First_fail -> scan_best rp (fun v -> Dom.size (dom v))
  | Smallest_min -> scan_best rp vmin
  | Most_constrained ->
    (* Domain size dominates; we approximate "most watchers" by
       preferring earlier creation order (models post structural
       constraints on the variables they create first). *)
    scan_best rp (fun v -> (Dom.size (dom v) * 1_000_000) + id v)

(* ------------------------------------------------------------------ *)

type stats = {
  nodes : int;
  failures : int;
  solutions : int;
  propagations : int;
  time_ms : float;
  optimal : bool;
}

let zero_stats ~optimal =
  { nodes = 0; failures = 0; solutions = 0; propagations = 0; time_ms = 0.; optimal }

type 'a outcome =
  | Solution of 'a * stats
  | Best of 'a * stats
  | Unsat of stats
  | Timeout of stats

type budget = { max_nodes : int option; max_time_ms : float option }

let no_budget = { max_nodes = None; max_time_ms = None }
let node_budget n = { max_nodes = Some n; max_time_ms = None }
let time_budget ms = { max_nodes = None; max_time_ms = Some ms }

exception Found
exception Out_of_budget

(* The store is always unwound to its entry level so callers can reuse
   it (restarts, iterated bounds).

   [bound_get]/[bound_put] connect this search to an external incumbent
   (the portfolio's shared atomic bound): the effective bound is the
   minimum of the local and external ones, and every improving solution
   is published through [bound_put]. *)
let run ?(budget = no_budget) ?(deadline = Deadline.none) ?bound_get ?bound_put
    ?(tid = 0) store phases ~objective ~on_solution =
  let t0 = Unix.gettimeofday () in
  (* With a trace sink attached, also clock propagator executions so the
     per-class profile carries cumulative time. *)
  if Obs.enabled () && not (Store.timed store) then Store.set_timed store true;
  let elapsed_ms () = (Unix.gettimeofday () -. t0) *. 1000. in
  (* One absolute cancellation point: the caller's deadline and the
     local time budget compose by taking the earliest. *)
  let dl = Deadline.earliest deadline (Deadline.of_time_budget budget.max_time_ms) in
  let steps0 = Store.propagation_steps store in
  let nodes = ref 0 and failures = ref 0 and solutions = ref 0 in
  let best : 'a option ref = ref None in
  let bound : int option ref = ref None in
  let entry_level = Store.level store in
  let rts = List.map rt_of_phase phases in
  let rts_arr = Array.of_list rts in
  let check_budget () =
    (match budget.max_nodes with
    | Some n when !nodes >= n -> raise Out_of_budget
    | _ -> ());
    if !nodes land 63 = 0 && Deadline.expired dl then raise Out_of_budget
  in
  (* The propagation fixpoint loop polls the same deadline, so a single
     long sweep cannot blow past it (it used to be checked only between
     search nodes). *)
  let saved_poll = Store.poll_of store in
  if Deadline.is_finite dl then
    Store.set_poll store
      (Some
         (fun () ->
           if Deadline.expired dl then raise (Store.Interrupted "deadline")));
  let effective_bound () =
    let ext = match bound_get with Some get -> get () | None -> None in
    match (!bound, ext) with
    | Some a, Some b -> Some (Stdlib.min a b)
    | (Some _ as b), None | None, (Some _ as b) -> b
    | None, None -> None
  in
  let apply_bound () =
    match (objective, effective_bound ()) with
    | Some obj, Some b -> remove_above store obj (b - 1)
    | _ -> ()
  in
  let record_solution () =
    incr solutions;
    if Obs.enabled () then
      Obs.instant ~cat:"search" ~tid "solution"
        ~args:
          (( "n", Obs.I !solutions )
          ::
          (match objective with
          | Some obj -> [ ("objective", Obs.I (vmin obj)) ]
          | None -> []));
    best := Some (on_solution ());
    match objective with
    | Some obj ->
      let v = vmin obj in
      bound := Some v;
      (match bound_put with Some put -> put v | None -> ());
      (* Continue branch & bound by treating the solution as a failure. *)
      raise (Fail "bnb: improve")
    | None -> raise Found
  in
  let rec label = function
    | [] -> record_solution ()
    | rp :: rest as rps -> (
      match rt_select rp with
      | None -> label rest
      | Some v ->
        check_budget ();
        incr nodes;
        let k = rp.value_of v in
        if Obs.enabled () then
          Obs.instant ~cat:"search" ~tid "branch"
            ~args:
              [ ("var", Obs.S (name v)); ("val", Obs.I k);
                ("node", Obs.I !nodes); ("depth", Obs.I (Store.level store)) ];
        try_branch rps (fun () -> assign store v k);
        try_branch rps (fun () -> remove_value store v k))
  and try_branch rps act =
    let saved = Array.map (fun rp -> rp.n_active) rts_arr in
    push_level store;
    (try
       apply_bound ();
       act ();
       propagate store;
       label rps
     with Fail _ ->
       incr failures;
       if Obs.enabled () then
         Obs.instant ~cat:"search" ~tid "fail"
           ~args:[ ("node", Obs.I !nodes); ("depth", Obs.I (Store.level store)) ]);
    pop_level store;
    if Obs.enabled () then
      Obs.instant ~cat:"search" ~tid "backtrack"
        ~args:[ ("depth", Obs.I (Store.level store)) ];
    Array.iteri (fun i rp -> rp.n_active <- saved.(i)) rts_arr
  in
  let stats optimal =
    {
      nodes = !nodes;
      failures = !failures;
      solutions = !solutions;
      propagations = Store.propagation_steps store - steps0;
      time_ms = elapsed_ms ();
      optimal;
    }
  in
  let unwind () =
    while Store.level store > entry_level do
      pop_level store
    done
  in
  let compute () =
    match
      propagate store;
      label rts
    with
    | () -> (
      (* Search space exhausted. *)
      match !best with
      | Some sol -> Solution (sol, stats true)
      | None -> Unsat (stats true))
    | exception Fail _ -> (
      (* Root propagation failed. *)
      match !best with
      | Some sol -> Solution (sol, stats true)
      | None -> Unsat (stats true))
    | exception Found -> (
      match !best with
      | Some sol -> Solution (sol, stats false)
      | None -> assert false)
    | exception Out_of_budget -> (
      match !best with
      | Some sol -> Best (sol, stats false)
      | None -> Timeout (stats false))
    | exception Store.Interrupted _ -> (
      (* The deadline fired inside a propagation sweep. *)
      match !best with
      | Some sol -> Best (sol, stats false)
      | None -> Timeout (stats false))
  in
  let outcome =
    (* Obs.span closes the search span even if a propagator crashes out
       of [compute] (the anytime wrapper catches that one level up). *)
    if Obs.enabled () then Obs.span ~cat:"search" ~tid "search" compute
    else compute ()
  in
  Store.set_poll store saved_poll;
  unwind ();
  outcome

let solve ?budget ?deadline ?tid store phases ~on_solution =
  run ?budget ?deadline ?tid store phases ~objective:None ~on_solution

let minimize ?budget ?deadline ?bound_get ?bound_put ?tid store phases
    ~objective ~on_solution =
  run ?budget ?deadline ?bound_get ?bound_put ?tid store phases
    ~objective:(Some objective) ~on_solution

(* Luby restart sequence: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... *)
let luby i =
  let rec go i k =
    if i = (1 lsl k) - 1 then 1 lsl (k - 1)
    else if i >= 1 lsl (k - 1) then go (i - ((1 lsl (k - 1)) - 1)) (k - 1)
    else go i (k - 1)
  in
  let rec find_k k = if (1 lsl k) - 1 >= i then k else find_k (k + 1) in
  go i (find_k 1)

let minimize_restarts ?(base = 64) ?(max_restarts = 32) ?budget
    ?(deadline = Deadline.none) ?bound_get ?bound_put ?(tid = 0) store phases
    ~objective ~on_solution =
  let best = ref None in
  let total = ref (zero_stats ~optimal:false) in
  let deadline_budget run_idx =
    let node_cap = base * luby run_idx in
    match budget with
    | Some b -> { b with max_nodes = Some node_cap }
    | None -> node_budget node_cap
  in
  let merge st =
    total :=
      {
        nodes = !total.nodes + st.nodes;
        failures = !total.failures + st.failures;
        solutions = !total.solutions + st.solutions;
        propagations = !total.propagations + st.propagations;
        time_ms = !total.time_ms +. st.time_ms;
        optimal = st.optimal;
      }
  in
  let incumbent () =
    (* carry the better of the local and the external bound into the
       next restart *)
    let local = match !best with Some (_, v) -> Some v | None -> None in
    let ext = match bound_get with Some get -> get () | None -> None in
    match (local, ext) with
    | Some a, Some b -> Some (Stdlib.min a b)
    | (Some _ as b), None | None, (Some _ as b) -> b
    | None, None -> None
  in
  let rec go run_idx =
    if run_idx > max_restarts || Deadline.expired deadline then
      match !best with
      | Some (sol, _) -> Best (sol, !total)
      | None -> Timeout !total
    else begin
      push_level store;
      let ok =
        match incumbent () with
        | Some obj_val -> (
          try
            remove_above store objective (obj_val - 1);
            propagate store;
            true
          with Fail _ -> false)
        | None -> true
      in
      if not ok then begin
        pop_level store;
        match !best with
        | Some (sol, _) -> Solution (sol, { !total with optimal = true })
        | None -> Unsat { !total with optimal = true }
      end
      else begin
        if Obs.enabled () then
          Obs.instant ~cat:"search" ~tid "restart"
            ~args:[ ("run", Obs.I run_idx) ];
        let outcome =
          run ~budget:(deadline_budget run_idx) ~deadline ?bound_get ?bound_put
            ~tid store phases
            ~objective:(Some objective)
            ~on_solution:(fun () -> (on_solution (), vmin objective))
        in
        pop_level store;
        match outcome with
        | Solution ((sol, v), st) ->
          merge st;
          (* proven within this restart's bound: global optimum *)
          ignore v;
          Solution (sol, { !total with optimal = true })
        | Best ((sol, v), st) ->
          merge st;
          let better =
            match !best with Some (_, v0) -> v < v0 | None -> true
          in
          if better then best := Some (sol, v);
          go (run_idx + 1)
        | Unsat st ->
          merge st;
          (match !best with
          | Some (sol, _) -> Solution (sol, { !total with optimal = true })
          | None -> Unsat { !total with optimal = true })
        | Timeout st ->
          merge st;
          go (run_idx + 1)
      end
    end
  in
  go 1

(* ------------------------------------------------------------------ *)
(* Anytime interface: typed status, never raises.                      *)

type status = Optimal | Feasible_timeout | Infeasible | Crashed

let pp_status ppf = function
  | Optimal -> Format.pp_print_string ppf "optimal"
  | Feasible_timeout -> Format.pp_print_string ppf "feasible-timeout"
  | Infeasible -> Format.pp_print_string ppf "infeasible"
  | Crashed -> Format.pp_print_string ppf "crashed"

type 'a anytime = {
  a_status : status;
  incumbent : 'a option;
  a_stats : stats;
  crash : string option;
}

let minimize_anytime ?budget ?deadline ?tid store phases ~objective
    ~on_solution =
  (* Keep the latest snapshot outside the engine so it survives a
     crash: [on_solution] already runs at every improving solution. *)
  let last = ref None in
  let snap () =
    let s = on_solution () in
    last := Some s;
    s
  in
  match
    minimize ?budget ?deadline ?tid store phases ~objective ~on_solution:snap
  with
  | Solution (s, st) ->
    { a_status = Optimal; incumbent = Some s; a_stats = st; crash = None }
  | Best (s, st) ->
    { a_status = Feasible_timeout; incumbent = Some s; a_stats = st; crash = None }
  | Unsat st ->
    { a_status = Infeasible; incumbent = None; a_stats = st; crash = None }
  | Timeout st ->
    { a_status = Feasible_timeout; incumbent = None; a_stats = st; crash = None }
  | exception e ->
    (* A propagator, heuristic or snapshot crashed (or a fault was
       injected): degrade to the best incumbent found so far.  The
       store is left as-is — a crashed store is not reused. *)
    {
      a_status = Crashed;
      incumbent = !last;
      a_stats = zero_stats ~optimal:false;
      crash = Some (Printexc.to_string e);
    }
