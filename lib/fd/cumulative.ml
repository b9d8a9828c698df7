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
   Incremental timetable filtering on reversible state.

   The classic timetable propagator rebuilds the compulsory-part
   profile (sum over tasks of r_i on [lst_i, est_i + d_i)) from scratch
   on every wake and then re-filters every task.  Most of that is
   wasted: below a choice point domains only narrow, so compulsory
   parts only *grow*, and most wakes change the part of at most one
   task.

   The state kept across runs ([tt]) lives in reversible cells
   ({!Store.write}): a backtrack restores it as it was at the choice
   point, so nothing is rebuilt after one.
   - [profile] over the window [t0, t0 + width) fixed by the build, and
     each task's compulsory part [c_lo, c_hi) as the profile counts it.
     A run adds only the ranges where a part grew (old part ⊆ new part)
     and overload-checks only those: the rest of the profile was proved
     ≤ limit when it was added.
   - [busy], a bitset over the window: bit k is set iff profile.(k) > 0.
     Only busy points can conflict with a filtered task (its r_i ≤ limit
     unless every point conflicts), so filtering visits only the busy
     points under the task's window, a word at a time, and removes the
     starts each run of conflicts rules out as one interval.
   - the open tasks, as a doubly linked list in index order ([next],
     [prev], sentinel [n]).  A task leaves it once its start (and
     duration) is fixed and its part has grown to that final value: it
     can then neither grow the profile nor lose a value.  The re-filter
     walk visits only this list, in index order, so prunes (and with
     them the propagation queue) come in the order a walk over every
     task would give.
   - [built], set by the build.  The first run builds everything from
     scratch; popping above the level of that run undoes [built] along
     with the rest, and the next run builds again.

   Which tasks a run visits:
   - the propagator is posted with {!Store.post_advised}, so a run
     knows which tasks' domains changed since the last one; only those
     can have a grown part, and the first pass visits only them.
   - a task's filtering depends on its own domains and on its residual
     profile (the profile minus its own part).  The residual changes
     only where some *other* task's part grew, and only a point where
     it reaches limit - r_i + 1 can newly forbid a start: elsewhere the
     task fits whatever its start.  So each range a part grew over
     records its highest level (the overload check scans it anyway),
     and a task is re-filtered only if a foreign range with level +
     r_i > limit meets its window [vmin s_i, vmax s_i + dmax_i).  When
     no range reaches limit - r_max + 1, r_max the largest resource of
     a task with a positive duration, the walk is skipped outright.
   - with fixed durations, a task's own narrowing cannot make it prune:
     its conflicts are where they were, and its starts are a subset of
     the ones its last filtering kept.  [post_var] also re-filters a
     task whose own domains changed (a longer minimum duration, a start
     now fixed whose duration [widest] caps), detected by the domain
     sizes it was last filtered with.

   A failed run leaves the state half updated; the search backtracks on
   failure, which undoes every write made at that level.

   Allocation: a run that prunes nothing allocates nothing.  The scans
   below are closure-free functions of [tt], and a task's new start
   domain is built only once some start is known to fail. *)

type tt = {
  res : int array;
  limit : int;
  r_max : int;  (* largest resource of a task that can run *)
  n : int;
  built : int array;  (* one slot, 1 while the state below is live *)
  mutable t0 : int;  (* time point of profile.(0) *)
  mutable profile : int array;  (* live prefix: the build window *)
  mutable busy : int array;
  c_lo : int array;
  c_hi : int array;
  next : int array;
  prev : int array;
  (* per-run scratch, not reversible: ranges compulsory parts grew over
     in the current run, as [nr] quadruples (lo, hi, owner, highest
     profile level); at most two per task *)
  r_lo : int array;
  r_hi : int array;
  r_own : int array;
  r_lvl : int array;
  mutable nr : int;
}

let create ~resources ~limit ~r_max n =
  {
    res = resources;
    limit;
    r_max;
    n;
    built = [| 0 |];
    t0 = 0;
    profile = [||];
    busy = [||];
    c_lo = Array.make n 0;
    c_hi = Array.make n 0;
    next = Array.make (n + 1) 0;
    prev = Array.make (n + 1) 0;
    r_lo = Array.make (2 * n) 0;
    r_hi = Array.make (2 * n) 0;
    r_own = Array.make (2 * n) 0;
    r_lvl = Array.make (2 * n) 0;
    nr = 0;
  }

let bits = Sys.int_size

(* Index of the lowest set bit of [w <> 0]. *)
let ctz w =
  let n = ref 0 and w = ref w in
  if !w land 0xFFFFFFFF = 0 then begin n := 32; w := !w lsr 32 end;
  if !w land 0xFFFF = 0 then begin n := !n + 16; w := !w lsr 16 end;
  if !w land 0xFF = 0 then begin n := !n + 8; w := !w lsr 8 end;
  if !w land 0xF = 0 then begin n := !n + 4; w := !w lsr 4 end;
  if !w land 0x3 = 0 then begin n := !n + 2; w := !w lsr 2 end;
  if !w land 0x1 = 0 then !n + 1 else !n

let add_part st tt i lo hi =
  let r = tt.res.(i) in
  for k = lo - tt.t0 to hi - 1 - tt.t0 do
    let p = tt.profile.(k) in
    if p = 0 then
      write st tt.busy (k / bits) (tt.busy.(k / bits) lor (1 lsl (k mod bits)));
    write st tt.profile k (p + r)
  done

(* The highest profile level on [lo, hi); fails above the limit. *)
let level tt lo hi =
  let p = tt.profile and base = tt.t0 in
  let top = ref 0 in
  for t = lo to hi - 1 do
    let l = p.(t - base) in
    if l > tt.limit then raise (Fail "cumulative: overload");
    if l > !top then top := l
  done;
  !top

(* The first busy point in [t, hi), or [hi]. *)
let rec next_busy tt t hi =
  if t >= hi then hi
  else begin
    let k = t - tt.t0 in
    let w = tt.busy.(k / bits) lsr (k mod bits) in
    if w <> 0 then
      let b = t + ctz w in
      if b < hi then b else hi
    else next_busy tt (t + bits - (k mod bits)) hi
  end

(* Does task [i] overload point [t], i.e. is the profile minus its own
   compulsory part, plus r_i, above the limit there? *)
let conflicts tt i t =
  let r = tt.res.(i) in
  let own = if tt.c_lo.(i) <= t && t < tt.c_hi.(i) then r else 0 in
  tt.profile.(t - tt.t0) - own + r > tt.limit

(* The first point in [t, hi) task [i] overloads, or [hi]. *)
let rec next_conflict tt i t hi =
  if tt.res.(i) > tt.limit then if t < hi then t else hi
  else begin
    let t = next_busy tt t hi in
    if t >= hi || conflicts tt i t then t else next_conflict tt i (t + 1) hi
  end

(* The first conflict from [t] on that rules out a start in [dx]: one
   in [t' - d + 1, t'], the starts whose run [v, v + d) covers t'. *)
let rec first_hit tt i dx d t hi =
  let t = next_conflict tt i t hi in
  if t >= hi || Dom.meets (t - d + 1) t dx then t
  else first_hit tt i dx d (t + 1) hi

(* Remove from [acc] the starts ruled out by every conflict from [t] on,
   one interval per run of overlapping ranges; [lo, t] is the open run. *)
let rec remove_conflicts tt i d lo t hi acc =
  let t' = next_conflict tt i (t + 1) hi in
  if t' < hi && t' - d + 1 <= t + 1 then remove_conflicts tt i d lo t' hi acc
  else begin
    let acc = Dom.remove_interval lo t acc in
    if t' >= hi then acc else remove_conflicts tt i d (t' - d + 1) t' hi acc
  end

(* Prune start [x] of task [i] against duration [d]: a start v fails
   iff some t in [v, v + d) is a conflict, so the conflicts to look at
   lie in the window [vmin x, vmax x + d). *)
let prune_start st tt i x d =
  let dx = dom x in
  let hi = Dom.max dx + d in
  let t = first_hit tt i dx d (Dom.min dx) hi in
  if t < hi then update st x (remove_conflicts tt i d (t - d + 1) t hi dx)

(* The widest duration in [d, dmax] with which task [i] fits from
   start [v]: up to the first conflict from [v] on, and never below
   [d]. *)
let widest tt i v d dmax =
  if d >= dmax then d
  else begin
    let w = next_conflict tt i v (v + dmax) - v in
    if w <= d then d else if w < dmax then w else dmax
  end

let grown st tt i lo hi =
  add_part st tt i lo hi;
  tt.r_lo.(tt.nr) <- lo;
  tt.r_hi.(tt.nr) <- hi;
  tt.r_own.(tt.nr) <- i;
  tt.nr <- tt.nr + 1

(* Grow task [i]'s compulsory part to [nlo, nhi), adding the new ranges
   to the profile and to the dirty ranges. *)
let grow st tt i nlo nhi =
  let olo = tt.c_lo.(i) and ohi = tt.c_hi.(i) in
  if nlo <> olo || nhi <> ohi then begin
    write st tt.c_lo i nlo;
    write st tt.c_hi i nhi;
    if tt.res.(i) > 0 && nlo < nhi then
      if olo < ohi then begin
        (* old part non-empty: below a choice point it can only extend *)
        if nlo < olo then grown st tt i nlo olo;
        if ohi < nhi then grown st tt i ohi nhi
      end
      else grown st tt i nlo nhi
  end

(* Did some other task's part grow over the window [wlo, whi) to a
   level at which task [i] conflicts? *)
let dirty tt i wlo whi =
  let r = tt.res.(i) in
  let k = ref 0 in
  while
    !k < tt.nr
    && not
         (tt.r_own.(!k) <> i
         && tt.r_lo.(!k) < whi
         && tt.r_hi.(!k) > wlo
         && tt.r_lvl.(!k) + r > tt.limit)
  do
    incr k
  done;
  !k < tt.nr

let unlink st tt i =
  let p = tt.prev.(i) and q = tt.next.(i) in
  write st tt.next p q;
  write st tt.prev q p

(* An unlinked task keeps its old [prev], whose [next] never points
   back at it: no later unlink or build makes a linked slot point at an
   unlinked task. *)
let linked tt i = tt.next.(tt.prev.(i)) = i

(* From scratch: the window, every part, the busy index and the full
   list, then an overload check and a filtering of every task.  Only
   [built] needs the trail here: popping above this level undoes it,
   and the build that follows re-initializes every other slot.  The
   changes advised so far are all covered, so they are dropped. *)
let build tt ~starts ~dmin ~dmax ~closed ~prune st =
  let n = tt.n in
  write st tt.built 0 1;
  while next_index st >= 0 do () done;
  let lo = ref max_int and hi = ref 0 in
  for i = 0 to n - 1 do
    if vmin starts.(i) < !lo then lo := vmin starts.(i);
    if vmax starts.(i) + dmax i > !hi then hi := vmax starts.(i) + dmax i
  done;
  let width = !hi - !lo in
  let words = (width + bits - 1) / bits in
  tt.t0 <- !lo;
  if width > Array.length tt.profile then begin
    tt.profile <- Array.make width 0;
    tt.busy <- Array.make words 0
  end
  else begin
    Array.fill tt.profile 0 width 0;
    Array.fill tt.busy 0 words 0
  end;
  for i = 0 to n - 1 do
    tt.c_lo.(i) <- vmax starts.(i);
    tt.c_hi.(i) <- vmin starts.(i) + dmin i;
    if tt.c_lo.(i) < tt.c_hi.(i) && tt.res.(i) > 0 then
      add_part st tt i tt.c_lo.(i) tt.c_hi.(i);
    tt.next.(i) <- i + 1;
    tt.prev.(i + 1) <- i
  done;
  tt.next.(n) <- 0;
  tt.prev.(0) <- n;
  if width > 0 then ignore (level tt !lo !hi);
  for i = 0 to n - 1 do
    prune st i;
    if closed i then unlink st tt i
  done

(* One run of the shared timetable: task [i]'s compulsory part is
   [lst_i, est_i + dmin i) and its window [est_i, lst_i + dmax i);
   [prune st i] re-filters it, [closed i] tells whether it can leave
   the open list, and [moved], given for variable durations only,
   whether [i]'s domains changed since its last filtering. *)
let timetable tt ~starts ~dmin ~dmax ~moved ~closed ~prune st =
  if tt.built.(0) = 0 then build tt ~starts ~dmin ~dmax ~closed ~prune st
  else begin
    let n = tt.n in
    (* pass 1: grow the parts of the advised tasks, collecting the
       dirty ranges (owner tagged, to exempt the owner from
       re-filtering); a task whose part reached its final value leaves
       the open list (only [reschedule_all] advises a task already
       closed) *)
    tt.nr <- 0;
    let i = ref (next_index st) in
    while !i >= 0 do
      let j = !i in
      grow st tt j (vmax starts.(j)) (vmin starts.(j) + dmin j);
      if closed j && linked tt j then unlink st tt j;
      i := next_index st
    done;
    let top = ref 0 in
    for k = 0 to tt.nr - 1 do
      let l = level tt tt.r_lo.(k) tt.r_hi.(k) in
      tt.r_lvl.(k) <- l;
      if l > !top then top := l
    done;
    (* pass 2: re-filter only the tasks a grown range can newly forbid
       a start of (or, for variable durations, whose domains moved) *)
    let own = Option.is_some moved in
    if own || !top + tt.r_max > tt.limit then begin
      let i = ref tt.next.(n) in
      while !i < n do
        let j = !i in
        i := tt.next.(j);
        if
          (match moved with Some f -> f j | None -> false)
          || !top + tt.res.(j) > tt.limit
             && dirty tt j (vmin starts.(j)) (vmax starts.(j) + dmax j)
        then prune st j
      done
    end
  end

(* Subscribe the timetable: a bounds change of task [i]'s start (or
   duration, [post_var]) wakes it as a plain watcher would, and
   advises index [i]. *)
let post_timetable s ~name ~watches run =
  ignore
    (post_advised s ~name ~priority:prio_arith ~size:(Array.length watches.(0))
       ~watches:
         (List.concat_map
            (fun vs -> Array.to_list (Array.mapi (fun i v -> (On_bounds, v, i)) vs))
            (Array.to_list watches))
       run);
  propagate s

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
    let r_max = ref 0 in
    Array.iteri (fun i r -> if durations.(i) > 0 && r > !r_max then r_max := r) resources;
    let tt = create ~resources ~limit ~r_max:!r_max n in
    let dur i = durations.(i) in
    (* a fixed start's part is [v, v + d) once grown *)
    let closed i =
      let x = starts.(i) in
      is_fixed x && tt.c_lo.(i) = vmin x && tt.c_hi.(i) = vmin x + durations.(i)
    in
    (* a start value v is infeasible if some t in [v, v+d) has residual
       profile + r_i > limit *)
    let prune st i =
      let x = starts.(i) and d = durations.(i) in
      if d > 0 && resources.(i) > 0 && not (is_fixed x) then prune_start st tt i x d
    in
    post_timetable s ~name:"cumulative" ~watches:[| starts |]
      (timetable tt ~starts ~dmin:dur ~dmax:dur ~moved:None ~closed ~prune)
  end

(* Variable durations: the same incremental timetable where task [i]'s
   compulsory part is [lst_i, est_i + dmin_i), and both the start and
   the duration of every task are pruned against the profile.  A task
   stays open until its duration is fixed too, and is also re-filtered
   when its own domains changed since its last filtering: the sizes of
   its start and duration domains then, in [seen_s] and [seen_d], tell
   (domains only narrow below the write that recorded them, so an
   equal size means an equal domain). *)
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
    (* any task may run: above the posting level a duration may widen *)
    let tt = create ~resources ~limit ~r_max:(Array.fold_left max 0 resources) n in
    let seen_s = Array.make n 0 and seen_d = Array.make n 0 in
    let dmin i = vmin durations.(i) and dmax i = vmax durations.(i) in
    let moved i =
      seen_s.(i) <> Dom.size (dom starts.(i))
      || seen_d.(i) <> Dom.size (dom durations.(i))
    in
    let closed i =
      let x = starts.(i) and dv = durations.(i) in
      is_fixed x && is_fixed dv
      && tt.c_lo.(i) = vmin x
      && tt.c_hi.(i) = vmin x + vmin dv
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
      write st seen_s i (Dom.size (dom x));
      write st seen_d i (Dom.size (dom dv))
    in
    post_timetable s ~name:"cumulative_var" ~watches:[| starts; durations |]
      (timetable tt ~starts ~dmin ~dmax ~moved:(Some moved) ~closed ~prune)
  end
