(* Conditional constraints (eqs. 7-9 building blocks) and the slot
   geometry channeling (eq. 6). *)

open Fd

let test_implies_eq_forward () =
  let s = Store.create () in
  let p = Store.interval_var s 0 3 and q = Store.interval_var s 0 3 in
  let l = Store.interval_var s 0 3 and m = Store.interval_var s 0 3 in
  Cond.implies_eq s (p, q) (l, m);
  Store.assign s p 2;
  Store.assign s q 2;
  Store.assign s l 1;
  Store.propagate s;
  Alcotest.(check int) "m forced equal" 1 (Store.value m)

let test_implies_eq_contrapositive () =
  let s = Store.create () in
  let p = Store.interval_var s 0 3 and q = Store.interval_var s 0 3 in
  let l = Store.interval_var s 0 1 and m = Store.interval_var s 2 3 in
  (* lines can never be equal -> pages must differ *)
  Cond.implies_eq s (p, q) (l, m);
  Store.assign s p 1;
  Store.propagate s;
  Alcotest.(check bool) "q <> 1" false (Dom.mem 1 (Store.dom q))

let test_guarded_inactive () =
  let s = Store.create () in
  let a = Store.interval_var s 0 1 and b = Store.interval_var s 2 3 in
  let p = Store.interval_var s 0 0 and q = Store.interval_var s 0 0 in
  let l = Store.interval_var s 0 1 and m = Store.interval_var s 2 3 in
  (* guard domains disjoint: implication never fires even though pages
     are equal and lines cannot be *)
  Cond.guarded_implies_eq s ~guard:(a, b) (p, q) (l, m);
  Store.propagate s;
  Alcotest.(check int) "l untouched" 0 (Store.vmin l);
  Alcotest.(check int) "m untouched" 2 (Store.vmin m)

let test_guarded_active () =
  let s = Store.create () in
  let a = Store.interval_var s 0 3 and b = Store.interval_var s 0 3 in
  let p = Store.const s 1 and q = Store.const s 1 in
  let l = Store.interval_var s 0 3 and m = Store.interval_var s 0 3 in
  Cond.guarded_implies_eq s ~guard:(a, b) (p, q) (l, m);
  Store.assign s a 2;
  Store.assign s b 2;
  Store.assign s m 3;
  Store.propagate s;
  Alcotest.(check int) "l forced" 3 (Store.value l)

(* Classes exclude pairs: two accessors of different non-negative
   classes never constrain each other, even in the same cycle. *)
let test_access_classes () =
  let s = Store.create () in
  let a = Store.const s 2 and b = Store.const s 2 in
  let p = Store.const s 1 and q = Store.const s 1 in
  let l = Store.interval_var s 0 3 and m = Store.const s 3 in
  Cond.access s ~pages:[| p; q |] ~lines:[| l; m |] ~starts:[| a; b |]
    ~acc:[| [| 0 |]; [| 1 |] |] ~classes:[| 0; 1 |];
  Alcotest.(check int) "l untouched" 0 (Store.vmin l);
  Cond.guarded_implies_eq s ~guard:(a, b) (p, q) (l, m);
  Alcotest.(check int) "same class: l forced" 3 (Store.value l)

(* geometry: slot <-> (bank, line, page), EIT parameters *)

let test_geometry_forward () =
  let s = Store.create () in
  let slot = Store.interval_var s 0 63 in
  let g = Geometry.of_slot s ~banks:16 ~page_size:4 slot in
  Store.assign s slot 37;
  Store.propagate s;
  Alcotest.(check int) "bank" 5 (Store.value g.Geometry.bank);
  Alcotest.(check int) "line" 2 (Store.value g.Geometry.line);
  Alcotest.(check int) "page" 1 (Store.value g.Geometry.page)

let test_geometry_backward () =
  let s = Store.create () in
  let slot = Store.interval_var s 0 63 in
  let g = Geometry.of_slot s ~banks:16 ~page_size:4 slot in
  Store.assign s g.Geometry.page 3;
  Store.propagate s;
  (* page 3 = banks 12..15, any line: slots 12..15, 28..31, 44..47, 60..63 *)
  Alcotest.(check int) "count" 16 (Dom.size (Store.dom slot));
  Alcotest.(check bool) "12 in" true (Dom.mem 12 (Store.dom slot));
  Alcotest.(check bool) "16 out" false (Dom.mem 16 (Store.dom slot))

(* Channeling on real slot domains: a union of random intervals (holes,
   partial and full lines) for the (banks, page_size) of every
   [Eit.Arch.presets] entry.  The coordinates must start as the images
   of the slot domain under the memory checker's
   [Eit.Mem.coords_of_slot]; narrowing one coordinate to a random
   non-empty subset (or fixing the slot) must leave the slot at exactly
   the brute-force preimage and every coordinate at exactly its image
   of it.  One documented gap (see [Geometry.of_slot]): a slot
   fixed by the coordinates -> slot direction entails the propagator
   before the other coordinates follow it, so there they need only
   still hold the image. *)
let gen_geometry =
  QCheck2.Gen.(
    let* _, arch = oneofl Eit.Arch.presets in
    let n = arch.Eit.Arch.banks * arch.Eit.Arch.lines in
    let* ivs =
      list_size (int_range 1 4)
        (pair (int_range 0 (n - 1)) (int_range 0 (2 * arch.Eit.Arch.banks)))
    in
    let* coord = int_range 0 3 and* mask = int_bound max_int in
    return (arch, List.map (fun (lo, len) -> (lo, min (n - 1) (lo + len))) ivs, coord, mask))

let geometry_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"geometry channeling is exact" ~count:300
       ~print:(fun (arch, ivs, coord, mask) ->
         Printf.sprintf "banks=%d page_size=%d slots=%s coord=%d mask=%d"
           arch.Eit.Arch.banks arch.Eit.Arch.page_size
           (Dom.to_string (Dom.of_intervals ivs)) coord mask)
       gen_geometry (fun (arch, ivs, coord, mask) ->
         let banks = arch.Eit.Arch.banks and page_size = arch.Eit.Arch.page_size in
         let fs =
           let c = Eit.Mem.coords_of_slot arch in
           Eit.Mem.[| (fun k -> (c k).bank); (fun k -> (c k).line); (fun k -> (c k).page) |]
         in
         let image f slots = List.sort_uniq compare (List.map f slots) in
         let s = Store.create () in
         let slot = Store.new_var s (Dom.of_intervals ivs) in
         let g = Geometry.of_slot s ~banks ~page_size slot in
         let vars = [| g.Geometry.bank; g.Geometry.line; g.Geometry.page |] in
         let slots0 = Dom.to_list (Store.dom slot) in
         let images_ok =
           Array.for_all2
             (fun v f -> Dom.to_list (Store.dom v) = image f slots0)
             vars fs
         in
         let pick l =
           match List.filteri (fun i _ -> (mask lsr (i mod 62)) land 1 = 1) l with
           | [] -> [ List.hd l ]
           | kept -> kept
         in
         let expected =
           if coord = 3 then begin
             let k = List.hd (pick slots0) in
             Store.assign s slot k;
             [ k ]
           end
           else begin
             let kept = pick (Dom.to_list (Store.dom vars.(coord))) in
             Store.update s vars.(coord) (Dom.of_list kept);
             List.filter (fun k -> List.mem (fs.(coord) k) kept) slots0
           end
         in
         Store.propagate s;
         let gap = coord < 3 && List.length expected = 1 in
         images_ok
         && Dom.to_list (Store.dom slot) = expected
         && Array.for_all2
              (fun v f ->
                let d = Store.dom v and img = image f expected in
                if gap then List.for_all (fun c -> Dom.mem c d) img
                else Dom.to_list d = img)
              vars fs))

let suite =
  [
    Alcotest.test_case "implies_eq forward" `Quick test_implies_eq_forward;
    Alcotest.test_case "implies_eq contrapositive" `Quick test_implies_eq_contrapositive;
    Alcotest.test_case "guarded inactive" `Quick test_guarded_inactive;
    Alcotest.test_case "guarded active" `Quick test_guarded_active;
    Alcotest.test_case "access classes" `Quick test_access_classes;
    Alcotest.test_case "geometry forward" `Quick test_geometry_forward;
    Alcotest.test_case "geometry backward" `Quick test_geometry_backward;
    geometry_oracle;
  ]
