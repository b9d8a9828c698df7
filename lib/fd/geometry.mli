(** Channeling between a linear slot number and its (bank, line, page)
    coordinates in the banked vector memory (paper eq. 6).

    Slots are enumerated across banks first: slot [k] lives in bank
    [k mod banks] on line [k / banks]; the page of a slot is
    [(k mod banks) / page_size]. *)

open Store

type coords = { slot : var; bank : var; line : var; page : var }

val of_slot : t -> banks:int -> page_size:int -> var -> coords
(** [of_slot s ~banks ~page_size slot] creates [bank], [line] and [page]
    variables channeled (domain-consistently, in both directions) to
    [slot].  [banks] must be a positive multiple of [page_size]. *)
