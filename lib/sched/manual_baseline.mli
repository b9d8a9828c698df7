(** The architects' manual flow (paper §4.3, Table 2, "Manual").

    The paper describes the hand-coding practice precisely: select and
    order the instructions of a single iteration with the objective of
    minimizing the number of effective (non-nop) instructions — without
    memory allocation — and then overlap M iterations in lock-step.

    We reproduce that flow with a greedy list scheduler that packs
    operations into as few VLIW bundles as possible:
    - bundles are processed in dependency order (a consumer's bundle
      strictly follows all of its producers' bundles; the M-wide
      overlap masks the actual latencies);
    - a bundle holds up to four identically-configured vector ops (or
      one matrix op), one scalar-accelerator op and one index/merge op;
    - each op goes into the earliest compatible bundle, preferring
      bundles that already hold its configuration (keeping
      reconfigurations low), else a new bundle is opened.

    The result is converted into a {!Schedule.t} with one cycle per
    bundle (a compressed schedule that is only meaningful as input to
    {!Overlap.run}) — exactly how the architects' code behaves: it is
    not a latency-correct single-iteration schedule, it only becomes
    correct once overlapped. *)

type t = {
  bundles : int list list;   (** op node ids per instruction, in order *)
  n_instructions : int;
  reconfigurations : int;    (** over the linear instruction sequence *)
}

val run : Eit_dsl.Ir.t -> Eit.Arch.t -> t
(** @raise Invalid_argument with {!Model.too_wide}'s message when an op
    needs more lanes than [arch] has: no bundle could ever hold it. *)

val overlapped :
  Eit_dsl.Ir.t -> Eit.Arch.t -> m:int -> Overlap.t
(** The full manual flow: greedy instruction minimization followed by
    M-way lock-step overlap. *)
