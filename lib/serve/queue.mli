(** Bounded multi-producer / multi-consumer admission queue.

    The service's load-shedding point: {!push} never blocks — a full
    queue answers [`Full] immediately, turning overload into a typed
    rejection instead of unbounded latency.  {!pop} blocks until an
    item arrives or the queue is closed and drained, so pool workers
    need no busy-waiting.  {!drain_if} lets a supervisor remove (and
    fail fast) items that expired while waiting, without burning a
    worker on them. *)

type 'a t

val create : capacity:int -> 'a t
(** @raise Invalid_argument when [capacity < 1]. *)

val push : 'a t -> 'a -> [ `Ok | `Full | `Closed ]
(** Non-blocking admission. *)

val pop : 'a t -> 'a option
(** Blocks until an item is available; [None] once the queue is closed
    {e and} empty (remaining items are still drained after close). *)

val drain_if : 'a t -> ('a -> bool) -> 'a list
(** Atomically remove and return every queued item matching the
    predicate, oldest first. *)

val length : 'a t -> int
val close : 'a t -> unit
(** Stop admitting; wake every blocked {!pop}.  Idempotent. *)
