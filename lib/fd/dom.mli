(** Finite integer domains represented as sorted lists of disjoint,
    non-adjacent, inclusive intervals, with cached bounds and size.

    This is the value representation used by every finite-domain variable
    in the solver.  All operations are purely functional; the solver's
    {!Store} handles mutation and trailing on top of this module.

    {!min}, {!max} and {!size} are O(1) (cached at construction); this
    matters because they dominate the solver's propagation and
    variable-selection hot paths.

    Invariant (checked by {!check_invariant} and enforced by all
    constructors): intervals [(lo, hi)] satisfy [lo <= hi], are sorted in
    strictly increasing order, and consecutive intervals are separated by
    a gap of at least one value (i.e. [hi1 + 2 <= lo2]). *)

type t

exception Empty_domain
(** Raised by accessors ({!min}, {!max}) on the empty domain. *)

(** {1 Construction} *)

val empty : t
(** The domain containing no value. *)

val interval : int -> int -> t
(** [interval lo hi] is the domain [{lo, ..., hi}]; empty if [lo > hi]. *)

val singleton : int -> t
(** [singleton v] is the domain [{v}]. *)

val of_list : int list -> t
(** Domain containing exactly the listed values (duplicates allowed). *)

val of_intervals : (int * int) list -> t
(** Domain that is the union of the given (possibly overlapping,
    unsorted) inclusive intervals. *)

(** {1 Observation} *)

val is_empty : t -> bool
val is_singleton : t -> bool

val mem : int -> t -> bool

val min : t -> int
(** Smallest value, O(1). @raise Empty_domain on the empty domain. *)

val max : t -> int
(** Largest value, O(1). @raise Empty_domain on the empty domain. *)

val closest : int -> t -> int
(** [closest target d] is the member of [d] nearest to [target], ties
    resolved to the smaller value.  O(number of intervals).
    @raise Empty_domain on the empty domain. *)

val size : t -> int
(** Number of values in the domain. *)

val equal : t -> t -> bool

val is_interval : t -> bool
(** [true] iff the domain is a single contiguous interval (or empty). *)

val intervals : t -> (int * int) list
(** The underlying sorted interval list. *)

val to_list : t -> int list
(** All values in increasing order.  Linear in {!size}. *)

(** {1 Pruning operations} *)

val remove : int -> t -> t
(** Remove one value; [remove v d] is [d] itself when [v] is not in [d]. *)

val remove_below : int -> t -> t
(** [remove_below b d] keeps values [>= b]. *)

val remove_above : int -> t -> t
(** [remove_above b d] keeps values [<= b]. *)

val remove_interval : int -> int -> t -> t
(** [remove_interval lo hi d] removes all values in [lo..hi]. *)

val inter : t -> t -> t
(** [inter a b] is [a] itself (physically) when [a] is a subset of [b],
    and [b] itself when [b] is a subset of [a]: an intersection that
    removes nothing allocates nothing. *)

val shift : int -> t -> t
(** [shift k d] is [{v + k | v in d}]. *)

val equal_shift : int -> t -> t -> bool
(** [equal_shift k a b] iff [b] equals [shift k a], without building
    it. *)

(** {1 Iteration} *)

val fold : ('a -> int -> 'a) -> 'a -> t -> 'a
val filter : (int -> bool) -> t -> t
(** [filter p d] is [d] itself (physically, no allocation) when [p]
    accepts every value of [d]. *)

val meets : int -> int -> t -> bool
(** [meets lo hi d] iff [d] has a value in [lo..hi].  No allocation. *)

val disjoint : t -> t -> bool
(** [disjoint a b] iff [inter a b] is empty, without building it. *)

(** {1 Misc} *)

val check_invariant : t -> bool
(** [true] iff the representation invariant holds (used in tests). *)

val pp : Format.formatter -> t -> unit
(** Prints e.g. [{1..3, 7, 9..12}]. *)

val to_string : t -> string
