open Store

let leq_offset s x c y =
  let prop st =
    (* x + c <= y *)
    remove_below st y (vmin x + c);
    remove_above st x (vmax y - c);
    if vmax x + c <= vmin y then entail_now st
  in
  ignore (post_now s ~name:"leq_offset" ~event:On_bounds ~watches:[ x; y ] prop);
  propagate s

let lt s x y = leq_offset s x 1 y

let eq_offset s x c y =
  let prop st =
    (* once y = x + c holds exactly, both updates below are no-ops:
       skip them rather than build the shifted domains *)
    if not (Dom.equal_shift c (dom x) (dom y)) then begin
      update st y (Dom.shift c (dom x));
      update st x (Dom.shift (-c) (dom y))
    end;
    (* both domains are now equal (mod the shift), so one fixed side
       fixes the other: the equality can never prune again *)
    if is_fixed x then entail_now st
  in
  ignore (post_now s ~name:"eq_offset" ~watches:[ x; y ] prop);
  propagate s


let neq_offset s x c y =
  let prop st =
    if is_fixed x then begin
      remove_value st y (value x + c);
      entail_now st
    end
    else if is_fixed y then begin
      remove_value st x (value y - c);
      entail_now st
    end
    else if vmax x + c < vmin y || vmin x + c > vmax y then
      (* bounds already force the disequality *)
      entail_now st
  in
  ignore (post_now s ~name:"neq_offset" ~event:On_fix ~watches:[ x; y ] prop);
  propagate s

let neq s x y = neq_offset s x 0 y

(* x_i <> x_j for every pair of different classes, as one indexed
   propagator: a fix of x_i advises index i, and the run removes its
   value from every variable of another class — the pruning of the
   pairwise [neq]s, which act only on a fixed side. *)
let neq_classes s ~classes xs =
  let n = Array.length xs in
  if Array.length classes <> n then invalid_arg "Arith.neq_classes: length mismatch";
  (* the members of each class, classes numbered densely *)
  let ids = Hashtbl.create 8 in
  Array.iter
    (fun k -> if not (Hashtbl.mem ids k) then Hashtbl.add ids k (Hashtbl.length ids))
    classes;
  let cls = Array.map (Hashtbl.find ids) classes in
  let members =
    Array.init (Hashtbl.length ids) (fun c ->
        Array.of_list (List.filter (fun i -> cls.(i) = c) (List.init n Fun.id)))
  in
  let exclude st c v =
    for c' = 0 to Array.length members - 1 do
      if c' <> c then begin
        let ms = members.(c') in
        for k = 0 to Array.length ms - 1 do
          remove_value st xs.(ms.(k)) v
        done
      end
    done
  in
  let rec drain st =
    let i = next_index st in
    if i >= 0 then begin
      if is_fixed xs.(i) then exclude st cls.(i) (value xs.(i));
      drain st
    end
  in
  if Array.length members > 1 then
    ignore
      (post_indexed s ~name:"neq_classes" ~size:n
         ~watches:(List.init n (fun i -> (On_fix, xs.(i), i)))
         drain);
  propagate s

let plus s x y z =
  let prop st =
    (* z = x + y: bounds in all three directions *)
    remove_below st z (vmin x + vmin y);
    remove_above st z (vmax x + vmax y);
    remove_below st x (vmin z - vmax y);
    remove_above st x (vmax z - vmin y);
    remove_below st y (vmin z - vmax x);
    remove_above st y (vmax z - vmin x);
    (* the value check is not redundant: with aliased arguments (e.g.
       z = x + z) the bounds reads above can be stale mid-run, leaving
       all three fixed at values that still violate the equation — the
       next self-wake then fails, so we must keep watching *)
    if is_fixed x && is_fixed y && is_fixed z && value z = value x + value y
    then entail_now st
  in
  ignore (post_now s ~name:"plus" ~event:On_bounds ~watches:[ x; y; z ] prop);
  propagate s

(* m = max_i (x_i + o_i), as one indexed propagator: a bounds change of
   x_i advises index i, one of m advises index n.  Writing lb and ub for
   the bounds of x_i + o_i, the four rules

     1. ub(m) <= max_i ub(x_i + o_i)
     2. lb(m) >= max_i lb(x_i + o_i)
     3. x_i + o_i <= ub(m) for every i
     4. if x_c + o_c is the only term with ub >= lb(m), then
        x_c + o_c >= lb(m)

   are applied from the changed index alone, with their supports in
   reversible cells ({!Store.write}), so a backtrack restores them
   instead of forcing a rescan:

   - [sup] is an argmax of ub(x + o) and [c_ub] that ub when it was
     found.  Upper bounds only drop below a level, so
     max_i ub(x_i + o_i) <= c_ub, with equality while the support's ub
     is c_ub: rule 1 rescans only when the support's ub dropped, and
     rule 3 only when ub(m) < c_ub;
   - rule 2 needs only the changed lb;
   - [w1], [w2] are two distinct candidates for rule 4 (ub >= lb(m)).
     While both stand the rule cannot fire; a witness that falls is
     replaced by a scan, and [w2 = -1] records that at most [w1] was
     left (candidates only disappear below a level);
   - [lbm] is an argmax of lb(x + o), for the entailment test.

   [built] is 0 until the first run has applied every rule from
   scratch; a pop above that run undoes it, and the next run starts
   over.  A run that prunes nothing allocates nothing. *)
let c_built = 0
let c_sup = 1
let c_ub = 2
let c_w1 = 3
let c_w2 = 4
let c_lbm = 5

let max_of s ?offsets xs m =
  if xs = [] then invalid_arg "Arith.max_of: empty list";
  let xs = Array.of_list xs in
  let n = Array.length xs in
  let o =
    match offsets with
    | None -> Array.make n 0
    | Some os ->
      if List.length os <> n then invalid_arg "Arith.max_of: length mismatch";
      Array.of_list os
  in
  let lo i = vmin xs.(i) + o.(i) and hi i = vmax xs.(i) + o.(i) in
  (* does term w stand as a rule-4 candidate against lb(m) = mlo? *)
  let stands mlo w = w >= 0 && hi w >= mlo in
  (* the first i >= from other than [excl] with ub >= mlo, or -1 *)
  let rec candidate mlo excl from =
    if from >= n then -1
    else if from <> excl && hi from >= mlo then from
    else candidate mlo excl (from + 1)
  in
  let c = Array.make 6 0 in
  (* rule 1, from scratch *)
  let rescan_ub st =
    let best = ref 0 and ub = ref min_int in
    for i = 0 to n - 1 do
      let h = hi i in
      if h > !ub then begin
        ub := h;
        best := i
      end
    done;
    write st c c_sup !best;
    write st c c_ub !ub;
    remove_above st m !ub
  in
  (* rule 3, when ub(m) dropped below the largest ub(x + o): afterwards
     the support's ub is ub(m) *)
  let cap st =
    if hi c.(c_sup) < c.(c_ub) then rescan_ub st;
    let mhi = vmax m in
    if mhi < c.(c_ub) then begin
      for i = 0 to n - 1 do
        if hi i > mhi then remove_above st xs.(i) (mhi - o.(i))
      done;
      write st c c_ub mhi
    end
  in
  (* rule 4 *)
  let witnesses st =
    let mlo = vmin m in
    let w1 = c.(c_w1) and w2 = c.(c_w2) in
    if w2 < 0 then begin
      if stands mlo w1 then remove_below st xs.(w1) (mlo - o.(w1))
    end
    else if not (stands mlo w1 && stands mlo w2) then begin
      let a =
        if stands mlo w1 then w1
        else if stands mlo w2 then w2
        else candidate mlo (-1) 0
      in
      let b = if a < 0 then -1 else candidate mlo a 0 in
      write st c c_w1 a;
      write st c c_w2 b;
      if a >= 0 && b < 0 then remove_below st xs.(a) (mlo - o.(a))
    end
  in
  let build st =
    rescan_ub st;
    let lbm = ref 0 in
    for i = 1 to n - 1 do
      if lo i > lo !lbm then lbm := i
    done;
    write st c c_lbm !lbm;
    remove_below st m (lo !lbm);
    cap st;
    let mlo = vmin m in
    let a = candidate mlo (-1) 0 in
    write st c c_w1 a;
    write st c c_w2 (if a < 0 then -1 else candidate mlo a 0);
    witnesses st;
    write st c c_built 1
  in
  let rec drain st =
    let k = next_index st in
    if k >= 0 then begin
      if k = n then begin
        cap st;
        witnesses st
      end
      else begin
        remove_below st m (lo k);
        if lo k > lo c.(c_lbm) then write st c c_lbm k;
        if k = c.(c_sup) && hi k < c.(c_ub) then rescan_ub st;
        if k = c.(c_w1) || k = c.(c_w2) then witnesses st
      end;
      drain st
    end
  in
  let prop st =
    if c.(c_built) = 0 then build st;
    drain st;
    (* entailed once the maximum is decided: m is fixed, every term is
       capped at its value (rule 3) and some term is pinned there *)
    if is_fixed m && lo c.(c_lbm) >= vmin m then entail_now st
  in
  let watches =
    (On_bounds, m, n) :: List.init n (fun i -> (On_bounds, xs.(i), i))
  in
  ignore (post_indexed s ~name:"max_of" ~size:(n + 1) ~watches prop);
  propagate s

let mod_const s x c r =
  if c <= 0 then invalid_arg "Arith.mod_const: modulus must be positive";
  let prop st =
    if Dom.min (dom x) < 0 then raise (Fail "mod_const: negative operand");
    let dr = Dom.of_list (Dom.fold (fun acc v -> (v mod c) :: acc) [] (dom x)) in
    update st r dr;
    let drr = dom r in
    let dx = Dom.filter (fun v -> Dom.mem (v mod c) drr) (dom x) in
    update st x dx;
    if is_fixed x then entail_now st
  in
  ignore (post_now s ~name:"mod_const" ~watches:[ x; r ] prop);
  propagate s

let linear_bounds terms =
  List.fold_left
    (fun (lo, hi) (c, x) ->
      if c >= 0 then (lo + (c * vmin x), hi + (c * vmax x))
      else (lo + (c * vmax x), hi + (c * vmin x)))
    (0, 0) terms

(* Floor division towards negative infinity (OCaml's [/] truncates
   towards zero). *)
let fdiv a b = if a >= 0 then a / b else -(((-a) + b - 1) / b)

let linear_leq s terms k =
  let prop st =
    let lo, hi = linear_bounds terms in
    if lo > k then raise (Fail "linear_leq");
    if hi <= k then entail_now st;
    List.iter
      (fun (c, x) ->
        if c > 0 then begin
          let rest_lo = lo - (c * vmin x) in
          remove_above st x (fdiv (k - rest_lo) c)
        end
        else if c < 0 then begin
          let rest_lo = lo - (c * vmax x) in
          (* c*x <= bound with c < 0  =>  x >= bound / c rounded up,
             i.e. x >= -floor(bound / -c). *)
          let bound = k - rest_lo in
          remove_below st x (-fdiv bound (-c))
        end)
      terms
  in
  let watches = List.map snd terms in
  ignore (post_now s ~name:"linear_leq" ~event:On_bounds ~watches prop);
  propagate s

let linear_eq s terms k =
  linear_leq s terms k;
  linear_leq s (List.map (fun (c, x) -> (-c, x)) terms) (-k)

let sum s xs total =
  linear_eq s ((-1, total) :: List.map (fun x -> (1, x)) xs) 0
