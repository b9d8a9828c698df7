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

let leq s x y = leq_offset s x 0 y
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

let eq s x y = eq_offset s x 0 y

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

(* m = max(xs), incremental.  Two of the four filtering rules only fire
   when a particular bound moved, and both skips are validated by the
   store's backtrack generation (within one search node domains only
   narrow, so a cached bound that did not move certifies the whole
   cached quantity):

   - ub(m) <= max_i ub(x_i) is re-derived only when the ub of the
     cached argmax (the "support") dropped — no other ub can have risen
     above it, so while the support's ub is unchanged the cached max
     and the cap installed from it both still stand;
   - the caps ub(x_i) <= ub(m) are re-applied only when ub(m) dropped
     since the previous run — otherwise each x_i is already below the
     installed cap.

   The lb rules stay O(n) per run: they are two int scans with no
   allocation, and their inputs (the lbs) have no single support. *)
let max_of s xs m =
  if xs = [] then invalid_arg "Arith.max_of: empty list";
  let xs = Array.of_list xs in
  let n = Array.length xs in
  let sup = ref 0 in          (* index of the argmax-ub support *)
  let c_gen = ref (-1) in     (* generation the caches were built at *)
  let c_ub = ref max_int in   (* max_i ub(x_i) at the last rescan *)
  let c_mhi = ref max_int in  (* ub(m) after the previous run *)
  let prop st =
    let gen = generation st in
    let fresh = gen <> !c_gen in
    c_gen := gen;
    (* rule 1: ub(m) <= max_i ub(x_i), support-watched *)
    if fresh || vmax xs.(!sup) < !c_ub then begin
      let best = ref 0 and ub = ref min_int in
      for i = 0 to n - 1 do
        let hi = vmax xs.(i) in
        if hi > !ub then begin
          ub := hi;
          best := i
        end
      done;
      sup := !best;
      c_ub := !ub;
      remove_above st m !ub
    end;
    (* rule 2: lb(m) >= max_i lb(x_i) *)
    let lb = ref min_int in
    for i = 0 to n - 1 do
      let lo = vmin xs.(i) in
      if lo > !lb then lb := lo
    done;
    remove_below st m !lb;
    (* rule 3: every x_i <= ub(m), re-applied only when ub(m) dropped *)
    let mhi = vmax m in
    if fresh || mhi < !c_mhi then
      for i = 0 to n - 1 do
        if vmax xs.(i) > mhi then remove_above st xs.(i) mhi
      done;
    c_mhi := mhi;
    (* rule 4: if only one variable can realize the maximum, it must *)
    let mlo = vmin m in
    let ncand = ref 0 and cand = ref (-1) in
    for i = 0 to n - 1 do
      if vmax xs.(i) >= mlo then begin
        incr ncand;
        cand := i
      end
    done;
    if !ncand = 1 then remove_below st xs.(!cand) mlo;
    (* entailed once the maximum is decided: m is fixed, every x_i is
       capped at its value (rule 3 invariant) and some x_i is pinned
       there *)
    if is_fixed m then begin
      let v = vmin m in
      let ok = ref false in
      for i = 0 to n - 1 do
        if vmin xs.(i) >= v then ok := true
      done;
      if !ok then entail_now st
    end
  in
  ignore
    (post_now s ~name:"max_of" ~event:On_bounds ~watches:(m :: Array.to_list xs)
       prop);
  propagate s

let min_of s xs m =
  if xs = [] then invalid_arg "Arith.min_of: empty list";
  let prop st =
    let lb = List.fold_left (fun acc x -> Stdlib.min acc (vmin x)) max_int xs in
    let ub = List.fold_left (fun acc x -> Stdlib.min acc (vmax x)) max_int xs in
    remove_below st m lb;
    remove_above st m ub;
    List.iter (fun x -> remove_below st x (vmin m)) xs;
    let candidates = List.filter (fun x -> vmin x <= vmax m) xs in
    match candidates with
    | [ x ] -> remove_above st x (vmax m)
    | _ -> ()
  in
  ignore (post_now s ~name:"min_of" ~event:On_bounds ~watches:(m :: xs) prop);
  propagate s

let mul_const s c x y =
  if c = 0 then begin
    let prop st =
      assign st y 0;
      entail_now st
    in
    ignore (post_now s ~name:"mul_const0" ~watches:[ y ] prop)
  end
  else begin
    let prop st =
      let dy = if c > 0 then Dom.map_monotone (fun v -> c * v) (dom x)
               else Dom.neg (Dom.map_monotone (fun v -> -c * v) (dom x)) in
      update st y dy;
      let dx =
        Dom.filter (fun v -> v mod c = 0)
          (if c > 0 then dom y else Dom.neg (dom y))
      in
      let dx = Dom.map_monotone (fun v -> v / abs c) dx in
      update st x dx;
      (* y = c*x with c <> 0 is a bijection, so one fixed side fixes the
         other in the updates above *)
      if is_fixed x then entail_now st
    in
    ignore (post_now s ~name:"mul_const" ~watches:[ x; y ] prop)
  end;
  propagate s

(* Floor division towards negative infinity, matching slot/bank geometry
   where all values are non-negative anyway. *)
let fdiv a b = if a >= 0 then a / b else -(((-a) + b - 1) / b)

let div_const s x c q =
  if c <= 0 then invalid_arg "Arith.div_const: divisor must be positive";
  let prop st =
    update st q (Dom.map_monotone (fun v -> fdiv v c) (dom x));
    (* supported x values: those whose quotient is still in dom q *)
    let dq = dom q in
    let dx =
      Dom.of_intervals
        (List.map (fun (lo, hi) -> (lo * c, (hi * c) + c - 1)) (Dom.intervals dq))
    in
    update st x dx;
    if is_fixed x then entail_now st
  in
  ignore (post_now s ~name:"div_const" ~watches:[ x; q ] prop);
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

let all_different s xs =
  let rec pairs = function
    | [] -> ()
    | x :: rest ->
      List.iter (fun y -> neq s x y) rest;
      pairs rest
  in
  pairs xs
