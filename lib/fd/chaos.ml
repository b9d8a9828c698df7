exception Injected of string

type fault = { site : int; what : string }
type action = Crash | Wedge

type t = {
  seed : int;
  crash_prob : float;
  delay_prob : float;
  delay_ms : float;
  spurious_prob : float;
  named : (int * (action * int)) list; (* site -> its named fault *)
  wedge_max_ms : float;
  escape : unit -> bool;
  (* shared across {!with_escape} copies: *)
  lock : Mutex.t;
  log : fault list ref; (* newest first *)
}

let crash_window = 64

let create ?(crash_prob = 0.) ?(delay_prob = 0.) ?(delay_ms = 0.2)
    ?(spurious_prob = 0.) ?(crash_at = []) ?(wedge_at = [])
    ?(wedge_max_ms = 10_000.) ~seed () =
  let named =
    List.map (fun (s, e) -> (s, (Crash, e))) crash_at
    @ List.map (fun (s, e) -> (s, (Wedge, e))) wedge_at
  in
  let sites = List.map fst named in
  if List.length (List.sort_uniq compare sites) <> List.length sites then
    invalid_arg "Chaos.create: a site is named twice";
  {
    seed;
    crash_prob;
    delay_prob;
    delay_ms;
    spurious_prob;
    named;
    wedge_max_ms;
    escape = (fun () -> false);
    lock = Mutex.create ();
    log = ref [];
  }

(* One fault per site, from (seed, site) alone: the named one, else a
   crash for a [crash_prob] share of the sites. *)
let plan t site =
  match List.assoc_opt site t.named with
  | Some _ as p -> p
  | None ->
    let rng = Random.State.make [| t.seed; site; 0xc4a5 |] in
    if Random.State.float rng 1.0 < t.crash_prob then
      Some (Crash, 1 + Random.State.int rng crash_window)
    else None

(* A shallow copy with a different wedge-escape predicate.  The fault
   log and its lock are shared, so a supervisor can hand each request
   its own escape (typically "this request's cancellation switch
   tripped") while keeping one fault history. *)
let with_escape t escape = { t with escape }

let record t site what =
  Mutex.lock t.lock;
  t.log := { site; what } :: !(t.log);
  Mutex.unlock t.lock

let faults t =
  Mutex.lock t.lock;
  let l = List.rev !(t.log) in
  Mutex.unlock t.lock;
  l

(* Busy-free delay: sleep via select so domains stay preemptible. *)
let sleep_ms ms = ignore (Unix.select [] [] [] (ms /. 1000.))

(* The wedge: spin inside this propagator execution without reaching
   any cooperative poll site, exactly what a buggy propagator stuck in a
   loop looks like from outside.  The spin watches the escape predicate
   (never the deadline — that would stamp the progress heartbeat and
   hide the wedge) and a hard time ceiling, so a wedge can always be
   released by a watchdog and can never hang a test run forever. *)
let wedge t site pname exec =
  record t site (Printf.sprintf "wedged in %s (execution %d)" pname exec);
  let t0 = Unix.gettimeofday () in
  let elapsed_ms () = (Unix.gettimeofday () -. t0) *. 1000. in
  while not (t.escape ()) && elapsed_ms () < t.wedge_max_ms do
    sleep_ms 1.
  done;
  record t site
    (Printf.sprintf "wedge in %s released after %.0f ms (%s)" pname
       (elapsed_ms ())
       (if t.escape () then "escape" else "ceiling"));
  raise (Injected (Printf.sprintf "site %d wedged" site))

let instrument t ~site store =
  let planned = plan t site in
  let rng = Random.State.make [| t.seed; site; 0x5eed |] in
  let execs = ref 0 in
  Store.set_hook store
    (Some
       (fun s pname ->
         incr execs;
         (match planned with
         | Some (Wedge, e) when e = !execs -> wedge t site pname e
         | Some (Crash, e) when e = !execs ->
           record t site
             (Printf.sprintf "crash injected into %s (execution %d)" pname e);
           raise (Injected (Printf.sprintf "site %d crashed" site))
         | _ -> ());
         let r = Random.State.float rng 1.0 in
         if r < t.delay_prob then begin
           record t site
             (Printf.sprintf "delayed %s by %.1f ms" pname t.delay_ms);
           sleep_ms t.delay_ms
         end
         else if r < t.delay_prob +. t.spurious_prob then begin
           record t site ("spurious wake of all propagators at " ^ pname);
           Store.reschedule_all s
         end))
