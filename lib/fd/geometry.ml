open Store

type coords = { slot : var; bank : var; line : var; page : var }

(* The bank and line images of a slot domain, marked one byte per value
   into [banks_seen] and [lines_seen], straight from its intervals: an
   interval [lo, hi] covers lines [lo / banks .. hi / banks], and every
   bank once it spans [banks] slots, else the banks from [lo mod banks]
   round to [hi mod banks].  The page image is the bank image divided
   by [page_size]. *)
let rec mark ~banks banks_seen lines_seen = function
  | [] -> ()
  | (lo, hi) :: rest ->
    Bytes.fill lines_seen (lo / banks) ((hi / banks) - (lo / banks) + 1) '\001';
    if hi - lo + 1 >= banks then Bytes.fill banks_seen 0 banks '\001'
    else
      for k = lo to hi do
        Bytes.unsafe_set banks_seen (k mod banks) '\001'
      done;
    mark ~banks banks_seen lines_seen rest

let rec any_seen buf b stop =
  b < stop && (Bytes.get buf b <> '\000' || any_seen buf (b + 1) stop)

let images ~banks banks_seen lines_seen d =
  Bytes.fill banks_seen 0 banks '\000';
  Bytes.fill lines_seen 0 (Bytes.length lines_seen) '\000';
  mark ~banks banks_seen lines_seen (Dom.intervals d)

let of_slot s ~banks ~page_size slot =
  if banks <= 0 || page_size <= 0 || banks mod page_size <> 0 then
    invalid_arg "Geometry.of_slot: banks must be a positive multiple of page_size";
  if vmin slot < 0 then invalid_arg "Geometry.of_slot: negative slot";
  let base = name slot in
  let banks_seen = Bytes.create banks in
  let lines_seen = Bytes.create ((vmax slot / banks) + 1) in
  let bank_ok b = Bytes.get banks_seen b <> '\000' in
  let line_ok l = Bytes.get lines_seen l <> '\000' in
  let page_ok p = any_seen banks_seen (p * page_size) ((p + 1) * page_size) in
  (* every coordinate starts as its image of the slot domain, and each
     run intersects it with the image again: filters that remove nothing
     return the domain itself, so a run that prunes nothing allocates
     nothing *)
  images ~banks banks_seen lines_seen (dom slot);
  let coord suffix ok range =
    new_var ~name:(base ^ suffix) s (Dom.filter ok range)
  in
  let bank = coord ".bank" bank_ok (Dom.interval 0 (banks - 1)) in
  let line = coord ".line" line_ok (Dom.interval 0 (Bytes.length lines_seen - 1)) in
  let page = coord ".page" page_ok (Dom.interval 0 ((banks / page_size) - 1)) in
  let keep k =
    Dom.mem (k mod banks) (dom bank)
    && Dom.mem (k / banks) (dom line)
    && Dom.mem (k mod banks / page_size) (dom page)
  in
  let prop st =
    (* slot -> coordinates *)
    images ~banks banks_seen lines_seen (dom slot);
    update st bank (Dom.filter bank_ok (dom bank));
    update st line (Dom.filter line_ok (dom line));
    update st page (Dom.filter page_ok (dom page));
    (* coordinates -> slot *)
    update st slot (Dom.filter keep (dom slot));
    (* a fixed slot fixes every coordinate (the slot -> coordinate maps
       are functions), and the channeling can never prune again.
       Known gap: a slot fixed by the filter just above leaves the
       coordinates as filtered against its wider domain, so they can
       keep values outside its image. *)
    if is_fixed slot then entail_now st
  in
  ignore (post_now s ~name:"slot_geometry" ~priority:prio_channel ~watches:[ slot; bank; line; page ] prop);
  propagate s;
  { slot; bank; line; page }
