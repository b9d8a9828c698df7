open Store

(* Feasibility check on a concrete assignment: a sweep over start/end
   events instead of a scan of every time point, O(n log n) in the task
   count and independent of the horizon.  At equal times the release
   events (negative deltas) sort first, so a task ending at [t] frees
   its capacity before one starting at [t] claims it — the same
   closed-open [s, s+d) semantics the per-time-point loop had. *)
let check ~starts ~durations ~resources ~limit =
  let n = Array.length starts in
  if n = 0 then true
  else begin
    let events = ref [] in
    for i = 0 to n - 1 do
      if durations.(i) > 0 && resources.(i) <> 0 then
        events :=
          (starts.(i), resources.(i))
          :: (starts.(i) + durations.(i), -resources.(i))
          :: !events
    done;
    let events =
      List.sort
        (fun (ta, da) (tb, db) ->
          if ta <> tb then compare ta tb else compare da db)
        !events
    in
    let ok = ref true and used = ref 0 in
    List.iter
      (fun (_, d) ->
        used := !used + d;
        if !used > limit then ok := false)
      events;
    !ok
  end

(* ------------------------------------------------------------------
   Incremental timetable filtering.

   The classic timetable propagator rebuilds the compulsory-part
   profile (sum over tasks of r_i on [lst_i, est_i + d_i)) from scratch
   on every wake and then re-filters every task.  Both are wasted work
   on most wakes: within one search node domains only narrow, so
   compulsory parts only ever *grow*, and most wakes change the part of
   at most one task.

   The state kept across wakes ([tt]):
   - [gen] — the store's backtrack generation the caches were built at.
     After a backtrack (generation mismatch) domains may have widened,
     so everything is rebuilt from scratch over the current horizon
     window.  Within a node the caches stay exact.
   - [profile] over the rebuild window, plus each task's cached
     compulsory part [c_lo, c_hi).  On a wake, only the ranges where a
     part grew (old part ⊆ new part, by monotonicity) are added to the
     profile and overload-checked: the rest of the profile was proved
     ≤ limit at the end of the previous run.
   - each task's last-seen start (and duration) domain, compared by
     physical equality — [Dom.t] values are immutable and replaced only
     on change (they start as [Dom.empty], never a variable's domain;
     the first run is a rebuild, and a rebuild re-filters every task,
     which records what it saw).  A task is re-filtered only if its
     own domains changed or a range some *other* task's part grew over
     intersects its window [vmin s_i, vmax s_i + dmax_i); otherwise its
     previous filtering is still the fixpoint (the residual profile
     under its window is unchanged), and the run skips it entirely.

   A failed run leaves the caches consistent (they are updated in
   lockstep with the profile additions), and the search backtracks on
   failure, which bumps the generation and forces the rebuild anyway.

   Allocation: a run that prunes nothing allocates nothing.  The
   profile is one buffer for the propagator's lifetime (a rebuild zeroes
   the width it uses and grows it only for a wider horizon), the dirty
   ranges live in preallocated arrays, the scans below are closure-free
   functions of [tt], and [Dom.filter] is called only once some start
   value is known to fail. *)

type tt = {
  res : int array;
  limit : int;
  mutable gen : int;
  mutable t0 : int;  (* time point of profile.(0) *)
  mutable profile : int array;  (* live prefix: the rebuild window *)
  c_lo : int array;
  c_hi : int array;
  c_start : Dom.t array;
  c_dur : Dom.t array;
  (* ranges compulsory parts grew over in the current run, as [nr]
     triples (lo, hi, owner); at most two per task *)
  r_lo : int array;
  r_hi : int array;
  r_own : int array;
  mutable nr : int;
}

let create ~resources ~limit n =
  {
    res = resources;
    limit;
    gen = -1;
    t0 = 0;
    profile = [||];
    c_lo = Array.make n 0;
    c_hi = Array.make n 0;
    c_start = Array.make n Dom.empty;
    c_dur = Array.make n Dom.empty;
    r_lo = Array.make (2 * n) 0;
    r_hi = Array.make (2 * n) 0;
    r_own = Array.make (2 * n) 0;
    nr = 0;
  }

let add_part tt i lo hi =
  let p = tt.profile and base = tt.t0 and r = tt.res.(i) in
  for t = lo to hi - 1 do
    p.(t - base) <- p.(t - base) + r
  done

let check_overload tt lo hi =
  let p = tt.profile and base = tt.t0 in
  for t = lo to hi - 1 do
    if p.(t - base) > tt.limit then raise (Fail "cumulative: overload")
  done

(* Can task [i] run over [v, v + d) on the profile minus its own
   compulsory part, i.e. is residual profile + r_i <= limit there? *)
let fits tt i v d =
  let p = tt.profile and base = tt.t0 and r = tt.res.(i) in
  let lo_i = tt.c_lo.(i) and hi_i = tt.c_hi.(i) in
  let t = ref v in
  while
    !t < v + d
    && p.(!t - base) - (if lo_i <= !t && !t < hi_i then r else 0) + r <= tt.limit
  do
    incr t
  done;
  !t >= v + d

(* Does every start value in the interval list fit with duration [d]? *)
let rec all_fit tt i d = function
  | [] -> true
  | (lo, hi) :: rest -> all_fit_from tt i d lo hi && all_fit tt i d rest

and all_fit_from tt i d v hi =
  v > hi || (fits tt i v d && all_fit_from tt i d (v + 1) hi)

(* Prune start [x] of task [i] against duration [d]. *)
let prune_start st tt i x d =
  if not (all_fit tt i d (Dom.intervals (dom x))) then
    update st x (Dom.filter (fun v -> fits tt i v d) (dom x))

(* The widest duration in [d, dmax] with which task [i] fits from
   start [v] (counting up from [d]). *)
let rec widest tt i v d dmax =
  if d >= dmax then d
  else if fits tt i v (d + 1) then widest tt i v (d + 1) dmax
  else d

let grown tt i lo hi =
  add_part tt i lo hi;
  tt.r_lo.(tt.nr) <- lo;
  tt.r_hi.(tt.nr) <- hi;
  tt.r_own.(tt.nr) <- i;
  tt.nr <- tt.nr + 1

(* Grow task [i]'s cached compulsory part to [nlo, nhi), adding the new
   ranges to the profile and to the dirty ranges. *)
let grow tt i nlo nhi =
  let olo = tt.c_lo.(i) and ohi = tt.c_hi.(i) in
  if nlo <> olo || nhi <> ohi then begin
    tt.c_lo.(i) <- nlo;
    tt.c_hi.(i) <- nhi;
    if tt.res.(i) > 0 && nlo < nhi then
      if olo < ohi then begin
        (* old part non-empty: within a node it can only extend *)
        if nlo < olo then grown tt i nlo olo;
        if ohi < nhi then grown tt i ohi nhi
      end
      else grown tt i nlo nhi
  end

(* Did some other task's part grow over the window [wlo, whi)? *)
let dirty tt i wlo whi =
  let k = ref 0 in
  while
    !k < tt.nr
    && not (tt.r_own.(!k) <> i && tt.r_lo.(!k) < whi && tt.r_hi.(!k) > wlo)
  do
    incr k
  done;
  !k < tt.nr

(* One run of the shared timetable: task [i]'s compulsory part is
   [lst_i, est_i + dmin i) and its window [est_i, lst_i + dmax i);
   [seen i] tells whether [i]'s domains are those its last filtering
   saw, and [prune st i] re-filters it and records them. *)
let timetable tt ~starts ~dmin ~dmax ~seen ~prune st =
  let n = Array.length starts in
  if generation st <> tt.gen then begin
    tt.gen <- generation st;
    let lo = ref max_int and hi = ref 0 in
    for i = 0 to n - 1 do
      lo := Stdlib.min !lo (vmin starts.(i));
      hi := Stdlib.max !hi (vmax starts.(i) + dmax i)
    done;
    let width = !hi - !lo in
    tt.t0 <- !lo;
    if width > Array.length tt.profile then tt.profile <- Array.make width 0
    else if width > 0 then Array.fill tt.profile 0 width 0;
    for i = 0 to n - 1 do
      tt.c_lo.(i) <- vmax starts.(i);
      tt.c_hi.(i) <- vmin starts.(i) + dmin i;
      if tt.c_lo.(i) < tt.c_hi.(i) && tt.res.(i) > 0 then
        add_part tt i tt.c_lo.(i) tt.c_hi.(i)
    done;
    if width > 0 then check_overload tt !lo !hi;
    for i = 0 to n - 1 do
      prune st i
    done
  end
  else begin
    (* pass 1: grow the cached compulsory parts and collect the dirty
       ranges (owner tagged, to exempt the owner from re-filtering) *)
    tt.nr <- 0;
    for i = 0 to n - 1 do
      grow tt i (vmax starts.(i)) (vmin starts.(i) + dmin i)
    done;
    for k = 0 to tt.nr - 1 do
      check_overload tt tt.r_lo.(k) tt.r_hi.(k)
    done;
    (* pass 2: re-filter only the tasks whose fixpoint may have moved *)
    for i = 0 to n - 1 do
      if
        (not (seen i))
        || (tt.nr > 0 && dirty tt i (vmin starts.(i)) (vmax starts.(i) + dmax i))
      then prune st i
    done
  end

let post s ~starts ~durations ~resources ~limit =
  let n = Array.length starts in
  if Array.length durations <> n || Array.length resources <> n then
    invalid_arg "Cumulative.post: length mismatch";
  Array.iter (fun d -> if d < 0 then invalid_arg "Cumulative.post: negative duration") durations;
  Array.iteri
    (fun i r ->
      if r < 0 then invalid_arg "Cumulative.post: negative resource";
      if r > limit && durations.(i) > 0 then
        invalid_arg "Cumulative.post: task exceeds resource limit")
    resources;
  if n = 0 then ()
  else begin
    let tt = create ~resources ~limit n in
    let dur i = durations.(i) in
    let seen i = tt.c_start.(i) == dom starts.(i) in
    (* a start value v is infeasible if some t in [v, v+d) has residual
       profile + r_i > limit *)
    let prune st i =
      let x = starts.(i) and d = durations.(i) in
      if d > 0 && resources.(i) > 0 && not (is_fixed x) then prune_start st tt i x d;
      tt.c_start.(i) <- dom x
    in
    ignore
      (post_now s ~name:"cumulative" ~priority:prio_arith ~event:On_bounds
         ~watches:(Array.to_list starts)
         (timetable tt ~starts ~dmin:dur ~dmax:dur ~seen ~prune));
    propagate s
  end

(* Variable durations: the same incremental timetable where task [i]'s
   compulsory part is [lst_i, est_i + dmin_i), and both the start and
   the duration of every task are pruned against the profile.  Duration
   domains participate in the change detection exactly like start
   domains. *)
let post_var s ~starts ~durations ~resources ~limit =
  let n = Array.length starts in
  if Array.length durations <> n || Array.length resources <> n then
    invalid_arg "Cumulative.post_var: length mismatch";
  Array.iteri
    (fun i r ->
      if r < 0 then invalid_arg "Cumulative.post_var: negative resource";
      if r > limit && vmin durations.(i) > 0 then
        invalid_arg "Cumulative.post_var: task exceeds resource limit")
    resources;
  if n > 0 then begin
    let tt = create ~resources ~limit n in
    let dmin i = vmin durations.(i) and dmax i = vmax durations.(i) in
    let seen i =
      tt.c_start.(i) == dom starts.(i) && tt.c_dur.(i) == dom durations.(i)
    in
    let prune st i =
      let x = starts.(i) and dv = durations.(i) in
      if resources.(i) > 0 && vmin dv > 0 then begin
        (* prune starts against the minimal duration *)
        if not (is_fixed x) then prune_start st tt i x (vmin dv);
        (* cap the duration of a fixed start at the widest that fits *)
        if is_fixed x then
          remove_above st dv (widest tt i (vmin x) (vmin dv) (vmax dv))
      end;
      tt.c_start.(i) <- dom x;
      tt.c_dur.(i) <- dom dv
    in
    let watches = Array.to_list starts @ Array.to_list durations in
    ignore
      (post_now s ~name:"cumulative_var" ~priority:prio_arith ~event:On_bounds
         ~watches (timetable tt ~starts ~dmin ~dmax ~seen ~prune));
    propagate s
  end
