(* An absolute point on the process clock, in milliseconds; [infinity]
   encodes "no deadline".  The representation keeps [expired] down to
   one clock read and one comparison, cheap enough for the propagation
   fixpoint loop to poll.

   A deadline may additionally carry a {e switch}: a shared cell that
   (a) lets an external supervisor cancel the computation early and
   (b) records the time of the last [expired] poll.  Since every
   cooperative layer (search nodes, propagation sweeps, root
   propagation) already polls [expired], the switch's poll timestamp is
   a free progress heartbeat: a propagator that wedges inside one
   execution stops polling, and a watchdog reading [idle_ms] sees the
   stall without any extra instrumentation in the engine. *)

type switch = {
  sw_cancelled : bool Atomic.t;
  sw_beat_ms : int Atomic.t;  (* process clock, whole milliseconds *)
}

type t = { at : float; sw : switch option }

let now_ms () = Unix.gettimeofday () *. 1000.

let none = { at = infinity; sw = None }
let after_ms ms = { at = now_ms () +. ms; sw = None }

let switch () =
  {
    sw_cancelled = Atomic.make false;
    sw_beat_ms = Atomic.make (int_of_float (now_ms ()));
  }

let with_switch t sw = { t with sw = Some sw }

let cancel sw = Atomic.set sw.sw_cancelled true

let cancelled sw = Atomic.get sw.sw_cancelled
let beat sw = Atomic.set sw.sw_beat_ms (int_of_float (now_ms ()))
let idle_ms sw = now_ms () -. float_of_int (Atomic.get sw.sw_beat_ms)

let earliest a b =
  {
    at = Stdlib.min a.at b.at;
    (* at most one switch survives composition; in practice only the
       serving layer attaches one, and it composes with switch-free
       budget deadlines *)
    sw = (match a.sw with Some _ -> a.sw | None -> b.sw);
  }

let of_time_budget = function Some ms -> after_ms ms | None -> none

(* A switched deadline can always expire (by cancellation), so the
   engine must install its polls even when the time bound is infinite. *)
let is_finite t = t.at < infinity || t.sw <> None

let expired t =
  (match t.sw with
  | Some sw ->
    beat sw;
    Atomic.get sw.sw_cancelled
  | None -> false)
  || (t.at < infinity && now_ms () >= t.at)

let remaining_ms t = if t.at < infinity then Some (t.at -. now_ms ()) else None

let pp ppf t =
  let swtxt =
    match t.sw with
    | Some sw when Atomic.get sw.sw_cancelled -> " (cancelled)"
    | Some _ -> " (switched)"
    | None -> ""
  in
  if t.at < infinity then
    Format.fprintf ppf "deadline in %.1f ms%s" (t.at -. now_ms ()) swtxt
  else Format.fprintf ppf "no deadline%s" swtxt
