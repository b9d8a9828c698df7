open Store

type rect = { ox : var; oy : var; lx : var; ly : var }

let check rects =
  let overlap (x1, y1, w1, h1) (x2, y2, w2, h2) =
    w1 > 0 && h1 > 0 && w2 > 0 && h2 > 0
    && x1 < x2 + w2 && x2 < x1 + w1
    && y1 < y2 + h2 && y2 < y1 + h1
  in
  let rec go = function
    | [] -> true
    | r :: rest -> List.for_all (fun r' -> not (overlap r r')) rest && go rest
  in
  go rects

(* Must the two intervals [o1, o1+l1) and [o2, o2+l2) intersect under
   every assignment?  Requires strictly positive minimal lengths. *)
let must_overlap o1 l1 o2 l2 =
  vmin l1 > 0 && vmin l2 > 0
  && vmax o1 < vmin o2 + vmin l2
  && vmax o2 < vmin o1 + vmin l1

(* Enforce non-overlap of [ (oi, li) ; (oj, lj) ] in one dimension via
   constructive disjunction on bounds:

     (oi + li <= oj) \/ (oj + lj <= oi) \/ (li = 0) \/ (lj = 0)

   — a zero-length rectangle (the tests exercise them; live data never
   produces one) overlaps nothing wherever it sits.  When exactly one
   disjunct stays feasible it is enforced; with none, fail. *)
let separate st oi li oj lj =
  let i_before = vmin oi + vmin li <= vmax oj in
  let j_before = vmin oj + vmin lj <= vmax oi in
  let i_empty = Dom.mem 0 (dom li) in
  let j_empty = Dom.mem 0 (dom lj) in
  let feasible =
    (if i_before then 1 else 0) + (if j_before then 1 else 0)
    + (if i_empty then 1 else 0) + (if j_empty then 1 else 0)
  in
  if feasible = 0 then raise (Fail "diff2: overlap")
  else if feasible = 1 then
    if i_before then begin
      (* oi + li <= oj *)
      remove_below st oj (vmin oi + vmin li);
      remove_above st oi (vmax oj - vmin li);
      remove_above st li (vmax oj - vmin oi)
    end
    else if j_before then begin
      remove_below st oi (vmin oj + vmin lj);
      remove_above st oj (vmax oi - vmin lj);
      remove_above st lj (vmax oi - vmin oj)
    end
    else if i_empty then update st li (Dom.singleton 0)
    else update st lj (Dom.singleton 0)

(* The pair rule: overlap forced in one dimension separates the pair
   in the other.  Symmetric in its two rectangles. *)
let pair st r r' =
  if must_overlap r.ox r.lx r'.ox r'.lx then separate st r.oy r.ly r'.oy r'.ly;
  if must_overlap r.oy r.ly r'.oy r'.ly then separate st r.ox r.lx r'.ox r'.lx

(* Can no pair prune?  True when
     max_k (min y_k + min h_k) <= min_k max y_k,
   i.e. each rectangle can still end, in y, at or below every
   rectangle's latest start:
   - the first pair rule's y-separation then keeps both orders, so it
     prunes nothing;
   - no pair must overlap in y (that needs max y_i < min y_j + min h_j),
     so the second rule never fires.
   The test implies that no rectangle has a compulsory y-part.  An O(n)
   scan of the bounds that allocates nothing. *)
let rec quiet_from rects i top bottom =
  if top > bottom then false
  else if i = Array.length rects then true
  else begin
    let r = rects.(i) in
    let t = vmin r.oy + vmin r.ly and b = vmax r.oy in
    quiet_from rects (i + 1)
      (if t > top then t else top)
      (if b < bottom then b else bottom)
  end

let quiet rects = quiet_from rects 0 min_int max_int

(* One indexed propagator for every pair: a bounds change of rectangle
   [i] advises index [i], and a run re-checks the pairs of each pending
   rectangle only — including the rectangles its own prunes move.  A
   run in a {!quiet} state only drops its pending indices: none of
   their pairs can prune, and a pair becomes prunable only through a
   change of one of its rectangles, which advises it again.  The rules
   are the pair rules, so the fixpoint is that of one propagator per
   pair. *)
let post s rects =
  let rects = Array.of_list rects in
  let n = Array.length rects in
  let rec pairs st r i j =
    if j < n then begin
      if j <> i then pair st r rects.(j);
      pairs st r i (j + 1)
    end
  in
  let rec drain st =
    let i = next_index st in
    if i >= 0 then begin
      pairs st rects.(i) i 0;
      drain st
    end
  in
  let rec skip st = if next_index st >= 0 then skip st in
  let run st = if quiet rects then skip st else drain st in
  let watches =
    List.concat
      (List.init n (fun i ->
           let r = rects.(i) in
           [ (On_bounds, r.ox, i); (On_bounds, r.oy, i); (On_bounds, r.lx, i);
             (On_bounds, r.ly, i) ]))
  in
  if n > 1 then
    ignore (post_indexed s ~name:"diff2" ~priority:prio_global ~size:n ~watches run);
  propagate s
