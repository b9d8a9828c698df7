(** Conditional constraints used by the memory-access model.

    The paper's access rules (eqs. 7-9) are implications of the shape
    [page_d = page_e  ==>  line_d = line_e], guarded for eqs. 8-9 by a
    schedule condition [s_i = s_j]: the two accesses happen in the same
    cycle. *)

open Store

val implies_eq : t -> (var * var) -> (var * var) -> unit
(** [implies_eq s (p, q) (l, m)] posts [p = q ==> l = m].

    Propagation:
    - when [p] and [q] are fixed and equal, [l = m] is enforced
      (domain-consistent);
    - when dom([l]) and dom([m]) are disjoint, [p <> q] is enforced;
    - when dom([p]) and dom([q]) are disjoint the constraint is entailed. *)

val implication_step : t -> var -> var -> var -> var -> bool
(** [implication_step s p q l m] applies the pruning of
    [p = q ==> l = m] once to the current domains (the body of
    {!implies_eq}) and returns [true] when the implication is decided:
    the antecedent can no longer hold or the consequent holds in every
    remaining assignment.
    @raise Fail on inconsistency. *)

val access :
  t ->
  pages:var array ->
  lines:var array ->
  starts:var array ->
  acc:int array array ->
  classes:int array ->
  unit
(** [access s ~pages ~lines ~starts ~acc ~classes] posts the access
    rules of eqs. 8-9: accessor [i] (an operation, or the write of a
    datum) runs at [starts.(i)] and touches the data [acc.(i)], indices
    into [pages] and [lines].  For every pair of accessors [i <> j]
    whose classes do not exclude each other (either class is negative,
    or both are equal),

    [starts.(i) = starts.(j) ==>
       page_d = page_e ==> line_d = line_e]  for [d] in [acc.(i)],
                                             [e] in [acc.(j)], [d <> e].

    One indexed propagator carries every pair.  Fixed accessors sit in
    reversible per-cycle buckets: a newly fixed accessor is checked
    against its cycle's bucket only, and a page or line change of a
    datum re-checks the placed accessors of that datum.  Filtering is
    that of one guarded {!implies_eq} per pair and data pair.
    @raise Invalid_argument if the array lengths disagree. *)

val guarded_implies_eq :
  t -> guard:(var * var) -> (var * var) -> (var * var) -> unit
(** [guarded_implies_eq s ~guard:(a, b) (p, q) (l, m)] posts
    [a = b ==> (p = q ==> l = m)]: {!access} over two accessors,
    running at [a] and [b], that touch one datum each.  Inactive while
    [a] or [b] is open; behaves like {!implies_eq} once both are fixed
    and equal, until backtracking reopens them. *)
