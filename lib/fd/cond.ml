open Store

let disjoint a b = Dom.disjoint (dom a) (dom b)

(* Core of [p = q ==> l = m]; shared with the access propagator.
   Returns [true] when the implication is entailed (safe to stop
   watching): either the antecedent can never hold, or the consequent
   already holds in every remaining assignment. *)
let implication_step st p q l m =
  if disjoint p q then true
  else if is_fixed l && is_fixed m && value l = value m then true
  else if is_fixed p && is_fixed q && value p = value q then begin
    let joint = Dom.inter (dom l) (dom m) in
    update st l joint;
    update st m joint;
    (* both sides now hold the same singleton: consequent decided *)
    Dom.is_singleton joint
  end
  else if disjoint l m then begin
    (* Contrapositive: lines can never be equal, so pages must differ.
       The removal below makes [p] and [q] disjoint, so the implication
       holds vacuously from here on. *)
    if is_fixed p then begin
      remove_value st q (value p);
      true
    end
    else if is_fixed q then begin
      remove_value st p (value q);
      true
    end
    else false
  end
  else false

(* Wake events: every pruning of the implication needs [p] or [q] fixed
   (enforcement needs both, the contrapositive needs one), so the
   antecedent pair subscribes with [On_fix] — narrowings of a start/page
   variable that do not fix it can never enable a prune here and used to
   account for the bulk of this propagator's wakes.  The consequent pair
   keeps [On_change]: the contrapositive fires on disjointness, which
   any narrowing can establish. *)
let implies_eq s (p, q) (l, m) =
  let prop st = if implication_step st p q l m then entail_now st in
  ignore
    (post_now_on s ~name:"implies_eq" ~priority:prio_channel
       ~watches:[ (On_fix, p); (On_fix, q); (On_change, l); (On_change, m) ]
       prop);
  propagate s

(* The access rules of eqs. 8-9 as one time-indexed propagator.

   Accessor [i] (an op, or a written datum) runs at [starts.(i)] and
   touches the data [acc.(i)]; the rule for a pair of accessors i <> j
   whose classes do not exclude each other is

     start_i = start_j ==> for d in acc_i, e in acc_j, d <> e:
                             page_d = page_e ==> line_d = line_e

   and it can only prune once both starts are fixed.  A fixed accessor
   is placed in the bucket of its cycle: reversible per-cycle lists
   ([head], [next]) and a [placed] flag, all {!Store.write} cells, so a
   backtrack takes accessors out again.  Indices [0, na) are the
   accessors (advised when their start fixes), [na + d] datum [d]
   (advised when its page fixes or its line changes, the events the
   implication's pruning depends on).

   - A newly fixed accessor is checked against the accessors already in
     its cycle's bucket, then placed.
   - A page/line change of datum [d] re-checks the placed accessors of
     [d] against their buckets, on the pairs that involve [d].

   Every pair with both starts fixed and equal is therefore checked
   whenever one of its implications could newly prune: the trigger set
   of the per-pair guarded implications, with the same step. *)
let access s ~pages ~lines ~starts ~acc ~classes =
  let na = Array.length starts and nd = Array.length pages in
  if Array.length lines <> nd || Array.length acc <> na
     || Array.length classes <> na
  then invalid_arg "Cond.access: length mismatch";
  let users =
    let u = Array.make nd [] in
    for i = na - 1 downto 0 do
      Array.iter
        (fun d -> if not (List.mem i u.(d)) then u.(d) <- i :: u.(d))
        acc.(i)
    done;
    Array.map Array.of_list u
  in
  (* bucket [(t - base) mod width] holds the accessors placed at cycle
     [t], one cycle per bucket over the post-time start domains; a
     start widened past them (a pop above the post) shares a bucket,
     so a walk filters its members by cycle *)
  let base = Array.fold_left (fun b v -> min b (vmin v)) max_int starts in
  let top = Array.fold_left (fun h v -> max h (vmax v)) min_int starts in
  let width = max 1 (top - base + 1) in
  let bucket t =
    let k = (t - base) mod width in
    if k < 0 then k + width else k
  in
  let head = Array.make width (-1) in
  let next = Array.make na (-1) in
  let placed = Array.make na 0 in
  let excluded i j =
    classes.(i) >= 0 && classes.(j) >= 0 && classes.(i) <> classes.(j)
  in
  (* datum [d] against every datum of accessor [j] *)
  let check st d j =
    let es = acc.(j) in
    for k = 0 to Array.length es - 1 do
      let e = es.(k) in
      if e <> d then
        ignore (implication_step st pages.(d) pages.(e) lines.(d) lines.(e))
    done
  in
  (* accessor [i], placed at cycle [t], against the bucket list from
     [j]: every datum of [i], or only [d] when [d >= 0] *)
  let rec against st i t d j =
    if j >= 0 then begin
      if j <> i && (not (excluded i j)) && value starts.(j) = t then
        if d >= 0 then check st d j
        else begin
          let ds = acc.(i) in
          for k = 0 to Array.length ds - 1 do
            check st ds.(k) j
          done
        end;
      against st i t d next.(j)
    end
  in
  let rec drain st =
    let k = next_index st in
    if k >= 0 then begin
      if k < na then begin
        let x = starts.(k) in
        if is_fixed x then begin
          let t = value x in
          let b = bucket t in
          against st k t (-1) head.(b);
          if placed.(k) = 0 then begin
            write st next k head.(b);
            write st head b k;
            write st placed k 1
          end
        end
      end
      else begin
        let d = k - na in
        let us = users.(d) in
        for u = 0 to Array.length us - 1 do
          let i = us.(u) in
          if placed.(i) = 1 then begin
            let t = value starts.(i) in
            against st i t d head.(bucket t)
          end
        done
      end;
      drain st
    end
  in
  let watches =
    List.init na (fun i -> (On_fix, starts.(i), i))
    @ List.concat
        (List.init nd (fun d ->
             [ (On_fix, pages.(d), na + d); (On_change, lines.(d), na + d) ]))
  in
  if na > 1 then
    ignore
      (post_indexed s ~name:"access" ~priority:prio_channel ~size:(na + nd)
         ~watches drain);
  propagate s

let guarded_implies_eq s ~guard:(a, b) (p, q) (l, m) =
  access s ~pages:[| p; q |] ~lines:[| l; m |] ~starts:[| a; b |]
    ~acc:[| [| 0 |]; [| 1 |] |] ~classes:[| -1; -1 |]
