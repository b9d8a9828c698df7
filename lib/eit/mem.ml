type coords = { bank : int; line : int; page : int }

let coords_of_slot (a : Arch.t) k =
  if k < 0 || k >= Arch.slots a then
    invalid_arg (Printf.sprintf "Mem.coords_of_slot: slot %d out of range" k);
  { bank = k mod a.banks; line = k / a.banks; page = k mod a.banks / a.page_size }

let slot_of (a : Arch.t) ~bank ~line =
  if bank < 0 || bank >= a.banks || line < 0 || line >= a.lines then
    invalid_arg "Mem.slot_of: coordinates out of range";
  (line * a.banks) + bank

type violation =
  | Bank_conflict of { bank : int; slots : int list }
  | Page_line_conflict of { page : int; slots : int list }
  | Too_many_accesses of { kind : [ `Read | `Write ]; count : int; limit : int }
  | Slot_out_of_range of int

let pp_violation ppf = function
  | Bank_conflict { bank; slots } ->
    Format.fprintf ppf "bank %d accessed by slots [%s]" bank
      (String.concat "; " (List.map string_of_int slots))
  | Page_line_conflict { page; slots } ->
    Format.fprintf ppf "page %d accessed on several lines by slots [%s]" page
      (String.concat "; " (List.map string_of_int slots))
  | Too_many_accesses { kind; count; limit } ->
    Format.fprintf ppf "%d %s accesses exceed the per-cycle limit %d" count
      (match kind with `Read -> "read" | `Write -> "write")
      limit
  | Slot_out_of_range k -> Format.fprintf ppf "slot %d out of range" k

let dedup_sorted l = List.sort_uniq compare l

(* Group [slots] by [key]; return (key, members) lists. *)
let group_by key slots =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let k = key s in
      Hashtbl.replace tbl k (s :: (Option.value ~default:[] (Hashtbl.find_opt tbl k))))
    slots;
  Hashtbl.fold (fun k v acc -> (k, List.rev v) :: acc) tbl []

let check_one_port (a : Arch.t) kind ~limit slots =
  let out_of_range = List.filter (fun k -> k < 0 || k >= Arch.slots a) slots in
  if out_of_range <> [] then List.map (fun k -> Slot_out_of_range k) out_of_range
  else begin
    let slots = dedup_sorted slots in
    let violations = ref [] in
    if List.length slots > limit then
      violations :=
        Too_many_accesses { kind; count = List.length slots; limit } :: !violations;
    let by_bank = group_by (fun k -> (coords_of_slot a k).bank) slots in
    List.iter
      (fun (bank, members) ->
        if List.length members > 1 then
          violations := Bank_conflict { bank; slots = members } :: !violations)
      by_bank;
    let by_page = group_by (fun k -> (coords_of_slot a k).page) slots in
    List.iter
      (fun (page, members) ->
        let lines = dedup_sorted (List.map (fun k -> (coords_of_slot a k).line) members) in
        if List.length lines > 1 then
          violations := Page_line_conflict { page; slots = members } :: !violations)
      by_page;
    List.rev !violations
  end

(* A cycle with no access, the common case in a simulation, allocates
   nothing. *)
let check_access (a : Arch.t) ~reads ~writes =
  match (reads, writes) with
  | [], [] -> []
  | _ ->
    check_one_port a `Read ~limit:a.max_reads_per_cycle reads
    @ check_one_port a `Write ~limit:a.max_writes_per_cycle writes

let access_ok a ~reads ~writes = check_access a ~reads ~writes = []

type t = { a : Arch.t; cells : Cplx.t array option array }

let create a = { a; cells = Array.make (Arch.slots a) None }
let arch t = t.a

let read t k =
  if k < 0 || k >= Array.length t.cells then
    invalid_arg (Printf.sprintf "Mem.read: slot %d out of range" k);
  match t.cells.(k) with
  | Some v -> Array.copy v
  | None -> invalid_arg (Printf.sprintf "Mem.read: slot %d uninitialized" k)

let write t k v =
  if k < 0 || k >= Array.length t.cells then
    invalid_arg (Printf.sprintf "Mem.write: slot %d out of range" k);
  if Array.length v <> Value.vlen then invalid_arg "Mem.write: not a vector";
  t.cells.(k) <- Some (Array.copy v)

let is_initialized t k =
  k >= 0 && k < Array.length t.cells && t.cells.(k) <> None

let used_slots t =
  let acc = ref [] in
  Array.iteri (fun k c -> if c <> None then acc := k :: !acc) t.cells;
  List.rev !acc

let copy t = { a = t.a; cells = Array.map (Option.map Array.copy) t.cells }
