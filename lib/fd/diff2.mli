(** The Diff2 global constraint (Beldiceanu & Contejean, 1994):
    pairwise non-overlap of rectangles in 2-D space.

    A rectangle is [(ox, oy, lx, ly)]: origins [ox, oy] are finite-domain
    variables, lengths [lx, ly] may be variables too (the scheduler uses
    variable lifetimes as the x-length until phase 2 fixes them).

    Two rectangles [i], [j] do not overlap iff there is a dimension in
    which one ends at or before the other's origin.  Rectangles with a
    zero length in some dimension never overlap anything (the paper's
    lifetime model never produces them for live data, but tests do).

    Propagation: for every pair, if overlap in dimension [k] is
    unavoidable, the disjunction collapses to non-overlap in the other
    dimension, which is then propagated as two conditional bound updates
    (and as value removal when the lengths are 1).  One indexed
    propagator carries every pair: a bounds change of a rectangle
    re-checks that rectangle's pairs only, and none while an O(n) test
    on the y-bounds shows that no pair can prune. *)

open Store

type rect = { ox : var; oy : var; lx : var; ly : var }

val post : t -> rect list -> unit

val pair : t -> rect -> rect -> unit
(** [pair s r r'] applies the pair rule for [r] and [r'] once to the
    current domains (symmetric in its arguments).
    @raise Fail when the two rectangles must overlap. *)

val check : (int * int * int * int) list -> bool
(** Ground checker: [true] iff no two rectangles overlap. *)
