(* Sorted disjoint inclusive intervals with cached bounds and size.
   Invariant on the interval list: for consecutive intervals (_, h1)
   (l2, _) we have h1 + 2 <= l2, so representations are canonical and
   interval-list equality is structural.  The record caches [min], [max]
   and [size] so the solver's hottest queries (bounds, first-fail domain
   size) are O(1) instead of walking the list. *)

type t = {
  ivs : (int * int) list;
  lo : int;  (* = min; unspecified when ivs = [] *)
  hi : int;  (* = max; unspecified when ivs = [] *)
  sz : int;  (* = number of values; 0 when ivs = [] *)
}

exception Empty_domain

let empty : t = { ivs = []; lo = 0; hi = -1; sz = 0 }

(* Rebuild the cache from a canonical interval list. *)
let mk = function
  | [] -> empty
  | (lo, _) :: _ as ivs ->
    let rec scan sz = function
      | [] -> assert false
      | [ (l, h) ] -> (sz + h - l + 1, h)
      | (l, h) :: rest -> scan (sz + h - l + 1) rest
    in
    let sz, hi = scan 0 ivs in
    { ivs; lo; hi; sz }

let interval lo hi : t =
  if lo > hi then empty else { ivs = [ (lo, hi) ]; lo; hi; sz = hi - lo + 1 }

let singleton v : t = { ivs = [ (v, v) ]; lo = v; hi = v; sz = 1 }

(* Normalize a list of intervals: sort by origin, merge overlapping or
   adjacent ones. *)
let normalize ivs =
  let ivs = List.filter (fun (lo, hi) -> lo <= hi) ivs in
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) ivs in
  let rec merge = function
    | [] -> []
    | [ iv ] -> [ iv ]
    | (l1, h1) :: (l2, h2) :: rest ->
      if l2 <= h1 + 1 then merge ((l1, Stdlib.max h1 h2) :: rest)
      else (l1, h1) :: merge ((l2, h2) :: rest)
  in
  mk (merge sorted)

let of_intervals ivs = normalize ivs

let of_list vs = normalize (List.map (fun v -> (v, v)) vs)

let is_empty d = d.sz = 0

let is_singleton d = d.sz = 1

let rec mem_ivs v = function
  | [] -> false
  | (lo, hi) :: rest -> if v < lo then false else v <= hi || mem_ivs v rest

let mem v d = v >= d.lo && v <= d.hi && mem_ivs v d.ivs

let min d = if d.sz = 0 then raise Empty_domain else d.lo

let max d = if d.sz = 0 then raise Empty_domain else d.hi

let size d = d.sz

let equal (a : t) (b : t) =
  a == b || (a.sz = b.sz && a.lo = b.lo && a.hi = b.hi && a.ivs = b.ivs)

let is_interval d = match d.ivs with [] | [ _ ] -> true | _ -> false

let intervals d = d.ivs

let to_list d =
  List.concat_map (fun (lo, hi) -> List.init (hi - lo + 1) (fun i -> lo + i)) d.ivs

let remove v d =
  if not (mem v d) then d
  else
    let rec go = function
      | [] -> []
      | ((lo, hi) as iv) :: rest ->
        if v < lo then iv :: rest
        else if v > hi then iv :: go rest
        else if lo = hi then rest
        else if v = lo then (lo + 1, hi) :: rest
        else if v = hi then (lo, hi - 1) :: rest
        else (lo, v - 1) :: (v + 1, hi) :: rest
    in
    mk (go d.ivs)

let remove_below b d =
  if b <= d.lo then d
  else
    let rec go = function
      | [] -> []
      | (lo, hi) :: rest ->
        if hi < b then go rest
        else if lo >= b then (lo, hi) :: rest
        else (b, hi) :: rest
    in
    mk (go d.ivs)

let remove_above b d =
  if b >= d.hi then d
  else
    let rec go = function
      | [] -> []
      | ((lo, hi) as iv) :: rest ->
        if lo > b then []
        else if hi <= b then iv :: go rest
        else [ (lo, b) ]
    in
    mk (go d.ivs)

let remove_interval rlo rhi d =
  let rec go rlo rhi ivs =
    if rlo > rhi then ivs
    else
      match ivs with
      | [] -> []
      | ((lo, hi) as iv) :: rest ->
        if rhi < lo then iv :: rest
        else if rlo > hi then iv :: go rlo rhi rest
        else
          let left = if lo < rlo then [ (lo, rlo - 1) ] else [] in
          let right = go rlo rhi (if rhi < hi then (rhi + 1, hi) :: rest else rest) in
          left @ right
  in
  if rlo > rhi || rhi < d.lo || rlo > d.hi then d else mk (go rlo rhi d.ivs)

let rec meets_ivs lo hi = function
  | [] -> false
  | (l, h) :: rest -> if h < lo then meets_ivs lo hi rest else l <= hi

let meets lo hi d = lo <= hi && lo <= d.hi && hi >= d.lo && meets_ivs lo hi d.ivs

(* [subset_ivs a b]: every interval of [a] lies inside one interval of
   [b] (intervals are maximal, so one suffices).  No allocation. *)
let rec subset_ivs a b =
  match (a, b) with
  | [], _ -> true
  | _, [] -> false
  | (l1, h1) :: ra, (l2, h2) :: rb ->
    if h2 < l1 then subset_ivs a rb else l2 <= l1 && h1 <= h2 && subset_ivs ra b

let subset a b =
  a.sz = 0 || (a.sz <= b.sz && a.lo >= b.lo && a.hi <= b.hi && subset_ivs a.ivs b.ivs)

let inter (a : t) (b : t) : t =
  (* Fast paths: disjoint ranges, and an argument that is already the
     result, returned as is so that a store update that prunes nothing
     allocates nothing (and [equal] answers by [==]). *)
  if a.sz = 0 || b.sz = 0 || a.hi < b.lo || b.hi < a.lo then empty
  else if a == b || subset a b then a
  else if subset b a then b
  else
    match (a.ivs, b.ivs) with
    | [ _ ], [ _ ] -> interval (Stdlib.max a.lo b.lo) (Stdlib.min a.hi b.hi)
    | _ ->
      let rec go a b =
        match (a, b) with
        | [], _ | _, [] -> []
        | (l1, h1) :: ra, (l2, h2) :: rb ->
          let lo = Stdlib.max l1 l2 and hi = Stdlib.min h1 h2 in
          let tail =
            if h1 < h2 then go ra b
            else if h2 < h1 then go a rb
            else go ra rb
          in
          if lo <= hi then (lo, hi) :: tail else tail
      in
      mk (go a.ivs b.ivs)

let rec disjoint_ivs a b =
  match (a, b) with
  | [], _ | _, [] -> true
  | (l1, h1) :: ra, (l2, h2) :: rb ->
    if h1 < l2 then disjoint_ivs ra b
    else if h2 < l1 then disjoint_ivs a rb
    else false

let disjoint a b =
  a.sz = 0 || b.sz = 0 || a.hi < b.lo || b.hi < a.lo || disjoint_ivs a.ivs b.ivs

let rec equal_shift_ivs k a b =
  match (a, b) with
  | [], [] -> true
  | (l1, h1) :: ra, (l2, h2) :: rb ->
    l1 + k = l2 && h1 + k = h2 && equal_shift_ivs k ra rb
  | _ -> false

let equal_shift k a b =
  a.sz = b.sz
  && (a.sz = 0 || (a.lo + k = b.lo && a.hi + k = b.hi && equal_shift_ivs k a.ivs b.ivs))

let shift k d =
  if d.sz = 0 then d
  else
    {
      ivs = List.map (fun (lo, hi) -> (lo + k, hi + k)) d.ivs;
      lo = d.lo + k;
      hi = d.hi + k;
      sz = d.sz;
    }

let fold f acc d =
  List.fold_left
    (fun acc (lo, hi) ->
      let r = ref acc in
      for v = lo to hi do
        r := f !r v
      done;
      !r)
    acc d.ivs

(* The first value of [v..hi] and then of [rest] that [p] rejects.
   Allocates only when it finds one. *)
let rec first_reject p v hi rest =
  if v > hi then
    match rest with [] -> None | (lo, hi) :: rest -> first_reject p lo hi rest
  else if p v then first_reject p (v + 1) hi rest
  else Some v

(* Maximal runs of accepted values of [v..hi], newest first onto [acc];
   [start] is the first value of the open run when [in_run]. *)
let rec runs p v hi in_run start acc =
  if v > hi then if in_run then (start, hi) :: acc else acc
  else if p v then runs p (v + 1) hi true (if in_run then start else v) acc
  else runs p (v + 1) hi false 0 (if in_run then (start, v - 1) :: acc else acc)

(* Keep the intervals below the first rejected value [r] whole, cut the
   one holding [r] there, and filter the rest run by run. *)
let rec filter_from p r acc = function
  | [] -> acc
  | (lo, hi) :: rest when hi < r -> filter_from p r ((lo, hi) :: acc) rest
  | (lo, hi) :: rest ->
    let acc = if lo < r then (lo, r - 1) :: acc else acc in
    List.fold_left
      (fun acc (lo, hi) -> runs p lo hi false 0 acc)
      (runs p (r + 1) hi false 0 acc) rest

(* Filter interval-wise: emit maximal runs of accepted values directly,
   without materializing the value list or re-sorting.  A domain [p]
   accepts entirely is returned as is, without allocating. *)
let filter p d =
  match d.ivs with
  | [] -> d
  | (lo, hi) :: rest -> (
    match first_reject p lo hi rest with
    | None -> d
    | Some r -> mk (List.rev (filter_from p r [] d.ivs)))

(* Closest member to [target]; ties go to the smaller value.  Walks the
   interval list (O(#intervals)), never the values. *)
let closest target d =
  if d.sz = 0 then raise Empty_domain
  else begin
    let best = ref d.lo in
    let best_dist = ref (abs (d.lo - target)) in
    List.iter
      (fun (lo, hi) ->
        let cand = if target < lo then lo else if target > hi then hi else target in
        let dist = abs (cand - target) in
        if dist < !best_dist then begin
          best := cand;
          best_dist := dist
        end)
      d.ivs;
    !best
  end

let check_invariant d =
  let rec go = function
    | [] -> true
    | [ (lo, hi) ] -> lo <= hi
    | (l1, h1) :: ((l2, _) :: _ as rest) -> l1 <= h1 && h1 + 2 <= l2 && go rest
  in
  go d.ivs
  && (match d.ivs with
     | [] -> d.sz = 0
     | (lo, _) :: _ ->
       let cached = mk d.ivs in
       d.lo = lo && d.hi = cached.hi && d.sz = cached.sz)

let pp ppf d =
  let pp_iv ppf (lo, hi) =
    if lo = hi then Format.fprintf ppf "%d" lo
    else Format.fprintf ppf "%d..%d" lo hi
  in
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       pp_iv)
    d.ivs

let to_string d = Format.asprintf "%a" pp d
