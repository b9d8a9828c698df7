exception Fail of string
exception Interrupted of string

(* Wake events: which kind of domain change re-schedules a watcher.
   [On_change] is any narrowing; [On_bounds] only min/max changes (which
   includes becoming fixed); [On_fix] only the transition to a
   singleton.  Bounds-consistent propagators subscribe with [On_bounds]
   and are therefore never re-run for interior hole removals. *)
type event = On_change | On_bounds | On_fix

type var = {
  vid : int;
  vname : string;
  mutable vdom : Dom.t;
  mutable w_change : propagator list;
  mutable w_bounds : propagator list;
  mutable w_fix : propagator list;
  mutable a_change : advisor list;
  mutable a_bounds : advisor list;
  mutable a_fix : advisor list;
}

(* An indexed subscription: a change of the variable marks index [ai]
   of propagator [ap] pending. *)
and advisor = { ap : propagator; ai : int }

and propagator = {
  pid : int;
  pname : string;
  prio : int;
  exec : t -> unit;
  mutable queued : bool;
  mutable entailed : bool;
      (* trailed: set by [entail], cleared by [pop_level] past it; an
         entailed propagator stays on its watcher lists and is skipped *)
  mutable runs : int;
  mutable wakes : int;   (* false->true queued transitions *)
  mutable prunes : int;  (* domain commits made while executing *)
  mutable entails : int; (* entailment reports (≤1 per live subtree) *)
  mutable time_s : float;  (* cumulative execution time, only when timed *)
  (* Indexed propagators only (the others have an empty [pend]): their
     indexed subscriptions, and the pending indices as a stack [pend] of
     [n_pend] entries with [marks.[i] <> '\000'] iff [i] is in it.
     The stack is valid only while [pend_gen] is the store's
     [generation]: a [pop_level] drops it without touching it. *)
  mutable isubs : (event * var * advisor) list;
  pend : int array;
  marks : Bytes.t;
  mutable n_pend : int;
  mutable pend_gen : int;
}

and trail_entry =
  | Dom_change of var * Dom.t
  | Entailment of propagator
  | Mark

and t = {
  mutable vars : var list;
  mutable next_vid : int;
  mutable next_pid : int;
  mutable n_props : int;
  mutable props : propagator list;
  mutable trail : trail_entry list;
  mutable depth : int;
  queues : ring array;  (* one FIFO bucket per priority *)
  mutable steps : int;
  consts : (int, var) Hashtbl.t;
  mutable poll : (unit -> unit) option;
      (* cancellation poll, run every [poll_period] fixpoint iterations;
         raises (e.g. [Interrupted]) to abandon the sweep *)
  mutable poll_countdown : int;
  mutable hook : (t -> string -> unit) option;
      (* instrumentation, run before every propagator execution (fault
         injection, tracing); receives the propagator's name *)
  mutable running : propagator;
      (* the propagator currently executing ([idle] between executions),
         so [commit] can attribute prunes to it *)
  mutable timed : bool;
      (* clock every execution into [time_s]; off by default — reading
         the clock (and boxing the float) is not free on the hot path *)
  mutable generation : int;
      (* bumped by every [pop_level]: equality certifies "no backtrack
         happened in between", which incremental propagators use to
         validate caches built from monotonically narrowing domains *)
  mutable entail_on : bool;
      (* when false, [entail] is a no-op; lets tests compare fixpoints
         with and without entailment-removal *)
  (* The cell trail: reversible writes to int array slots, kept apart
     from [trail] so an undo record is three words and a write
     allocates nothing.  Records live in fixed-size chunks, added as
     the trail deepens and never copied: entry k = c * cell_chunk + o
     restores [cell_arr.(c).(o).(slot) <- old], where (slot, old) is
     the pair at [2 o] of [cell_rec.(c)]. *)
  mutable cell_arr : int array array array;
  mutable cell_rec : int array array;
  mutable n_cells : int;
  mutable cell_marks : int array;  (* [n_cells] at each open [push_level] *)
}

(* A FIFO of propagators: [len] entries from [head], wrapping at the
   capacity, a power of two.  A full ring doubles, so once it has
   reached the longest queue the store has seen, a wake allocates
   nothing. *)
and ring = {
  mutable buf : propagator array;
  mutable head : int;
  mutable len : int;
}

(* How many fixpoint-loop iterations pass between two cancellation
   polls.  Small enough that even one long sweep observes a deadline
   within microseconds, large enough that the clock read disappears in
   the propagation cost. *)
let poll_period = 64

(* Priority buckets: 0 = cheap arithmetic and Cumulative's timetable,
   1 = channeling and the conditional access rules, 2 = the expensive
   global Diff2.  Cheap propagators reach their fixpoint before any
   global re-runs, so the globals see already-tightened bounds. *)
let n_priorities = 3

let prio_arith = 0
let prio_channel = 1
let prio_global = n_priorities - 1

(* The [running] value between executions: a sentinel rather than an
   option, so starting an execution allocates nothing.  Never mutated. *)
let idle =
  { pid = -1; pname = ""; prio = 0; exec = ignore; queued = false;
    entailed = true; runs = 0; wakes = 0; prunes = 0; entails = 0;
    time_s = 0.; isubs = []; pend = [||]; marks = Bytes.empty; n_pend = 0;
    pend_gen = 0 }

let ring_capacity = 64

let ring_create () = { buf = Array.make ring_capacity idle; head = 0; len = 0 }

let ring_push q p =
  let cap = Array.length q.buf in
  if q.len = cap then begin
    let buf = Array.make (2 * cap) idle in
    for k = 0 to cap - 1 do
      buf.(k) <- q.buf.((q.head + k) land (cap - 1))
    done;
    q.buf <- buf;
    q.head <- 0
  end;
  q.buf.((q.head + q.len) land (Array.length q.buf - 1)) <- p;
  q.len <- q.len + 1

let ring_pop q =
  let p = q.buf.(q.head) in
  q.head <- (q.head + 1) land (Array.length q.buf - 1);
  q.len <- q.len - 1;
  p

(* Empty the ring, clearing the [queued] flag of what it held. *)
let ring_flush q =
  let mask = Array.length q.buf - 1 in
  for k = 0 to q.len - 1 do
    q.buf.((q.head + k) land mask).queued <- false
  done;
  q.head <- 0;
  q.len <- 0

let create () =
  {
    vars = [];
    next_vid = 0;
    next_pid = 0;
    n_props = 0;
    props = [];
    trail = [];
    depth = 0;
    queues = Array.init n_priorities (fun _ -> ring_create ());
    steps = 0;
    consts = Hashtbl.create 32;
    poll = None;
    poll_countdown = poll_period;
    hook = None;
    running = idle;
    timed = false;
    generation = 0;
    entail_on = true;
    cell_arr = [||];
    cell_rec = [||];
    n_cells = 0;
    cell_marks = [||];
  }

let set_poll s f = s.poll <- f
let poll_of s = s.poll
let set_hook s f = s.hook <- f
let set_timed s b = s.timed <- b
let timed s = s.timed
let generation s = s.generation
let set_entail s b = s.entail_on <- b

let propagator_count s = s.n_props
let propagation_steps s = s.steps

let new_var ?name s dom =
  if Dom.is_empty dom then raise (Fail "new_var: empty domain");
  let vid = s.next_vid in
  s.next_vid <- vid + 1;
  let vname = match name with Some n -> n | None -> Printf.sprintf "_v%d" vid in
  let v =
    { vid; vname; vdom = dom; w_change = []; w_bounds = []; w_fix = [];
      a_change = []; a_bounds = []; a_fix = [] }
  in
  s.vars <- v :: s.vars;
  v

let interval_var ?name s lo hi = new_var ?name s (Dom.interval lo hi)

let const s k =
  match Hashtbl.find_opt s.consts k with
  | Some v -> v
  | None ->
    let v = new_var ~name:(string_of_int k) s (Dom.singleton k) in
    Hashtbl.add s.consts k v;
    v

let name v = v.vname
let id v = v.vid
let dom v = v.vdom
let vmin v = Dom.min v.vdom
let vmax v = Dom.max v.vdom
let is_fixed v = Dom.is_singleton v.vdom

let value v =
  if is_fixed v then Dom.min v.vdom
  else invalid_arg (Printf.sprintf "Store.value: %s not fixed" v.vname)

let schedule s p =
  if (not p.queued) && not p.entailed then begin
    p.queued <- true;
    p.wakes <- p.wakes + 1;
    ring_push s.queues.(p.prio) p
  end

(* Empty the pending stack. *)
let drop_pending p =
  for k = 0 to p.n_pend - 1 do
    Bytes.unsafe_set p.marks p.pend.(k) '\000'
  done;
  p.n_pend <- 0

(* The advise step of an indexed subscription: O(1), allocation-free,
   never prunes.  It marks index [i] pending and queues the propagator,
   unless the propagator is the one running: its run drains the indices
   its own prunes add, so a re-run would find nothing pending. *)
let advise s p i =
  if not p.entailed then begin
    if p.pend_gen <> s.generation then begin
      drop_pending p;
      p.pend_gen <- s.generation
    end;
    if Bytes.unsafe_get p.marks i = '\000' then begin
      Bytes.unsafe_set p.marks i '\001';
      p.pend.(p.n_pend) <- i;
      p.n_pend <- p.n_pend + 1
    end;
    if p != s.running then schedule s p
  end

let rec advise_all s = function
  | [] -> ()
  | a :: rest ->
    advise s a.ap a.ai;
    advise_all s rest

let rec schedule_all s = function
  | [] -> ()
  | p :: rest ->
    schedule s p;
    schedule_all s rest

(* Wake watchers according to what actually changed.  A variable that
   became fixed necessarily changed a bound, so [fixed] implies
   [bounds].  Closure-free: a wake allocates nothing. *)
let notify s v ~bounds ~fixed =
  schedule_all s v.w_change;
  if bounds then schedule_all s v.w_bounds;
  if fixed then schedule_all s v.w_fix;
  advise_all s v.a_change;
  if bounds then advise_all s v.a_bounds;
  if fixed then advise_all s v.a_fix

(* Install domain [d'] (already a subset check is the caller's concern:
   d' must be the intersection of the old domain with the update). *)
let commit s v d' =
  if Dom.is_empty d' then raise (Fail (v.vname ^ ": empty domain"));
  let old = v.vdom in
  if not (Dom.equal d' old) then begin
    if s.running != idle then s.running.prunes <- s.running.prunes + 1;
    s.trail <- Dom_change (v, old) :: s.trail;
    v.vdom <- d';
    let bounds = Dom.min d' <> Dom.min old || Dom.max d' <> Dom.max old in
    let fixed = Dom.is_singleton d' && not (Dom.is_singleton old) in
    notify s v ~bounds ~fixed
  end

let update s v d = commit s v (Dom.inter v.vdom d)

let assign s v k = update s v (Dom.singleton k)

let remove_value s v k = commit s v (Dom.remove k v.vdom)

let remove_below s v b =
  if b > Dom.min v.vdom then commit s v (Dom.remove_below b v.vdom)

let remove_above s v b =
  if b < Dom.max v.vdom then commit s v (Dom.remove_above b v.vdom)

(* Reversible cells.  At depth 0 there is no level to restore, so the
   write is not trailed and persists. *)
let cell_chunk_bits = 10
let cell_chunk = 1 lsl cell_chunk_bits

let write s a i v =
  let old = a.(i) in
  if old <> v then begin
    if s.depth > 0 then begin
      let k = s.n_cells in
      let c = k lsr cell_chunk_bits and o = k land (cell_chunk - 1) in
      if c = Array.length s.cell_arr then begin
        s.cell_arr <- Array.append s.cell_arr [| Array.make cell_chunk [||] |];
        s.cell_rec <- Array.append s.cell_rec [| Array.make (2 * cell_chunk) 0 |]
      end;
      s.cell_arr.(c).(o) <- a;
      s.cell_rec.(c).(2 * o) <- i;
      s.cell_rec.(c).((2 * o) + 1) <- old;
      s.n_cells <- k + 1
    end;
    a.(i) <- v
  end

let attach p (event, v) =
  match event with
  | On_change -> v.w_change <- p :: v.w_change
  | On_bounds -> v.w_bounds <- p :: v.w_bounds
  | On_fix -> v.w_fix <- p :: v.w_fix

let attach_advisor (event, v, a) =
  match event with
  | On_change -> v.a_change <- a :: v.a_change
  | On_bounds -> v.a_bounds <- a :: v.a_bounds
  | On_fix -> v.a_fix <- a :: v.a_fix

let make_propagator ?name ?(priority = prio_arith) s ~size exec =
  let pid = s.next_pid in
  s.next_pid <- pid + 1;
  s.n_props <- s.n_props + 1;
  let pname = match name with Some n -> n | None -> Printf.sprintf "_p%d" pid in
  let priority =
    if priority < 0 then 0
    else if priority >= n_priorities then n_priorities - 1
    else priority
  in
  let p =
    { pid; pname; prio = priority; exec; queued = false;
      entailed = false; runs = 0; wakes = 0; prunes = 0; entails = 0;
      time_s = 0.; isubs = []; pend = Array.make size 0;
      marks = Bytes.make size '\000'; n_pend = 0; pend_gen = s.generation }
  in
  s.props <- p :: s.props;
  p

let post_on ?name ?priority s ~watches exec =
  let p = make_propagator ?name ?priority s ~size:0 exec in
  List.iter (attach p) watches;
  p

(* Advise every indexed subscription, in posting order. *)
let rec readvise s p = function
  | [] -> ()
  | (_, _, a) :: rest ->
    advise s p a.ai;
    readvise s p rest

(* An indexed propagator, with a plain watcher subscription on every
   (event, var) of [watches] too when [wake]. *)
let indexed ~wake ~fn ?name ?priority s ~size ~watches exec =
  List.iter
    (fun (_, _, i) ->
      if i < 0 || i >= size then invalid_arg ("Store." ^ fn ^ ": index out of range"))
    watches;
  let p = make_propagator ?name ?priority s ~size exec in
  if wake then List.iter (fun (event, v, _) -> attach p (event, v)) watches;
  p.isubs <- List.map (fun (event, v, i) -> (event, v, { ap = p; ai = i })) watches;
  List.iter attach_advisor p.isubs;
  readvise s p p.isubs;
  p

let post_indexed ?name ?priority s ~size ~watches exec =
  indexed ~wake:false ~fn:"post_indexed" ?name ?priority s ~size ~watches exec

let post_advised ?name ?priority s ~size ~watches exec =
  indexed ~wake:true ~fn:"post_advised" ?name ?priority s ~size ~watches exec

let next_index s =
  let p = s.running in
  if p.n_pend = 0 then -1
  else if p.pend_gen <> s.generation then begin
    drop_pending p;
    -1
  end
  else begin
    let k = p.n_pend - 1 in
    let i = p.pend.(k) in
    p.n_pend <- k;
    Bytes.unsafe_set p.marks i '\000';
    i
  end

let post ?name ?priority ?(event = On_change) s ~watches exec =
  post_on ?name ?priority s
    ~watches:(List.map (fun v -> (event, v)) watches)
    exec

let post_now_on ?name ?priority s ~watches exec =
  let p = post_on ?name ?priority s ~watches exec in
  schedule s p;
  p

let post_now ?name ?priority ?event s ~watches exec =
  let p = post ?name ?priority ?event s ~watches exec in
  schedule s p;
  p

(* Entailment is a trailed flag: [schedule], [advise] and [execute]
   skip an entailed propagator, so it costs one test per wake of its
   variables, and backtracking past this point clears the flag, so it
   resumes firing in the wider state where its constraint may prune
   again.  Its watcher lists are left alone: an entailment costs one
   trail entry, not a walk of every list it is on. *)
let entail s p =
  if s.entail_on && not p.entailed then begin
    p.entailed <- true;
    p.entails <- p.entails + 1;
    drop_pending p;
    s.trail <- Entailment p :: s.trail
  end

let entail_now s = if s.running != idle then entail s s.running

let queue_depth_gauge s =
  Obs.counter ~cat:"store" "queue-depth"
    (List.concat
       [
         Array.to_list
           (Array.mapi
              (fun i q -> (Printf.sprintf "p%d" i, Obs.I q.len))
              s.queues);
         [ ("steps", Obs.I s.steps); ("depth", Obs.I s.depth) ];
       ])

let execute s p =
  p.queued <- false;
  if not p.entailed then begin
    (match s.hook with Some h -> h s p.pname | None -> ());
    s.steps <- s.steps + 1;
    p.runs <- p.runs + 1;
    s.running <- p;
    (if s.timed then begin
       let t0 = Unix.gettimeofday () in
       match p.exec s with
       | () -> p.time_s <- p.time_s +. Unix.gettimeofday () -. t0
       | exception e ->
         p.time_s <- p.time_s +. Unix.gettimeofday () -. t0;
         s.running <- idle;
         raise e
     end
     else
       match p.exec s with
       | () -> ()
       | exception e ->
         s.running <- idle;
         raise e);
    s.running <- idle;
    (* an indexed run drains its pending indices; any left over (a body
       that returned early) must not be lost *)
    if p.n_pend > 0 then schedule s p
  end

(* Top-level and closure-free: one propagator execution allocates
   nothing here. *)
let rec propagate s =
  (* Cancellation poll: runs while the pending propagator is still
     queued, so an abandoned sweep loses no wake-ups — a later
     [propagate] resumes exactly where this one stopped.  The same
     countdown paces the queue-depth gauge when a trace sink is
     attached. *)
  s.poll_countdown <- s.poll_countdown - 1;
  if s.poll_countdown <= 0 then begin
    s.poll_countdown <- poll_period;
    if Obs.enabled () then queue_depth_gauge s;
    match s.poll with Some f -> f () | None -> ()
  end;
  drain_from s 0

(* lowest-priority-index bucket first; restart the scan after every
   execution because cheap propagators may have been re-scheduled *)
and drain_from s i =
  if i < n_priorities then
    if s.queues.(i).len = 0 then drain_from s (i + 1)
    else begin
      execute s (ring_pop s.queues.(i));
      propagate s
    end

(* Re-schedule every propagator (ignoring events): running [propagate]
   afterwards re-checks the fixpoint from scratch.  Used by tests to
   assert that event-filtered propagation reached the same fixpoint a
   full sweep would.  Allocates nothing once the queues have held every
   propagator. *)
let rec reschedule s = function
  | [] -> ()
  | p :: rest ->
    readvise s p p.isubs;
    schedule s p;
    reschedule s rest

let reschedule_all s = reschedule s s.props

type profile = {
  pr_name : string;
  pr_count : int;
  pr_runs : int;
  pr_wakes : int;
  pr_prunes : int;
  pr_entails : int;
  pr_time_ms : float;
}

(* Aggregate the per-propagator instrumentation by propagator class
   (the [~name] given at [post] time), hottest first. *)
let profile s =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun p ->
      let acc =
        match Hashtbl.find_opt tbl p.pname with
        | Some a -> a
        | None ->
          { pr_name = p.pname; pr_count = 0; pr_runs = 0; pr_wakes = 0;
            pr_prunes = 0; pr_entails = 0; pr_time_ms = 0. }
      in
      Hashtbl.replace tbl p.pname
        {
          acc with
          pr_count = acc.pr_count + 1;
          pr_runs = acc.pr_runs + p.runs;
          pr_wakes = acc.pr_wakes + p.wakes;
          pr_prunes = acc.pr_prunes + p.prunes;
          pr_entails = acc.pr_entails + p.entails;
          pr_time_ms = acc.pr_time_ms +. (p.time_s *. 1000.);
        })
    s.props;
  List.sort
    (fun a b ->
      match compare b.pr_time_ms a.pr_time_ms with
      | 0 -> compare b.pr_runs a.pr_runs
      | c -> c)
    (Hashtbl.fold (fun _ v acc -> v :: acc) tbl [])

let emit_profile ?(tid = 0) s =
  if Obs.enabled () then
    List.iter
      (fun p ->
        Obs.profile_row ~tid ~name:p.pr_name ~runs:p.pr_runs ~wakes:p.pr_wakes
          ~prunes:p.pr_prunes ~entails:p.pr_entails ~time_ms:p.pr_time_ms ())
      (profile s)

let push_level s =
  s.trail <- Mark :: s.trail;
  if s.depth = Array.length s.cell_marks then begin
    let marks = Array.make (Stdlib.max 16 (2 * s.depth)) 0 in
    Array.blit s.cell_marks 0 marks 0 s.depth;
    s.cell_marks <- marks
  end;
  s.cell_marks.(s.depth) <- s.n_cells;
  s.depth <- s.depth + 1

let pop_level s =
  (* A failed propagation can leave stale entries in the queues; they are
     harmless (propagators are monotone re-checks) but we flush them so a
     restored state starts clean. *)
  Array.iter ring_flush s.queues;
  let rec unwind = function
    | [] -> failwith "Store.pop_level: no matching push_level"
    | Mark :: rest ->
      s.trail <- rest;
      s.depth <- s.depth - 1
    | Dom_change (v, d) :: rest ->
      v.vdom <- d;
      unwind rest
    | Entailment p :: rest ->
      p.entailed <- false;
      unwind rest
  in
  unwind s.trail;
  (* newest first, so a slot written twice ends at its oldest value *)
  let mark = s.cell_marks.(s.depth) in
  for k = s.n_cells - 1 downto mark do
    let c = k lsr cell_chunk_bits and o = k land (cell_chunk - 1) in
    s.cell_arr.(c).(o).(s.cell_rec.(c).(2 * o)) <- s.cell_rec.(c).((2 * o) + 1)
  done;
  s.n_cells <- mark;
  s.generation <- s.generation + 1

let level s = s.depth
