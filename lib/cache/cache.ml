module Key = Key

type payload =
  | Schedule of {
      start : int array;
      slot : (int * int) list;
      makespan : int;
    }
  | Infeasible

(* Intrusive doubly-linked LRU list; [tbl] maps the key's full
   canonical representation (not just the digest) to its cell, so a
   digest collision can never alias two different problems. *)
type cell = {
  key : Key.t;
  mutable pl : payload;
  mutable prev : cell option;
  mutable next : cell option;
}

type stats = { hits : int; misses : int; evictions : int; stores : int }

type t = {
  cap : int;
  tbl : (string, cell) Hashtbl.t;
  mutable head : cell option; (* most recently used *)
  mutable tail : cell option; (* least recently used *)
  mutable size : int;
  c_hits : Obs.Metrics.counter;
  c_misses : Obs.Metrics.counter;
  c_evictions : Obs.Metrics.counter;
  c_stores : Obs.Metrics.counter;
  m : Mutex.t;
}

let create ?(metrics = Obs.Metrics.create ()) ~capacity () =
  let c name = Obs.Metrics.counter metrics ("cache." ^ name) in
  {
    cap = capacity;
    tbl = Hashtbl.create 64;
    head = None;
    tail = None;
    size = 0;
    c_hits = c "hits";
    c_misses = c "misses";
    c_evictions = c "evictions";
    c_stores = c "stores";
    m = Mutex.create ();
  }

let capacity t = t.cap

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let unlink t c =
  (match c.prev with Some p -> p.next <- c.next | None -> t.head <- c.next);
  (match c.next with Some n -> n.prev <- c.prev | None -> t.tail <- c.prev);
  c.prev <- None;
  c.next <- None

let push_front t c =
  c.next <- t.head;
  c.prev <- None;
  (match t.head with Some h -> h.prev <- Some c | None -> t.tail <- Some c);
  t.head <- Some c

(* Count one event and emit its instant.  Called under the cache mutex;
   Obs serializes internally and never calls back into the cache, so
   the lock order is safe. *)
let note c name =
  Obs.Metrics.incr c;
  if Obs.enabled () then Obs.instant ~cat:"cache" name

let find t k =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl (Key.repr k) with
      | Some c ->
        unlink t c;
        push_front t c;
        note t.c_hits "cache.hit";
        Some c.pl
      | None ->
        note t.c_misses "cache.miss";
        None)

(* [count:false] is [load]'s path: restoring a saved cache is neither a
   store nor an eviction. *)
let insert ~count t k pl =
  if t.cap > 0 then begin
    (match Hashtbl.find_opt t.tbl (Key.repr k) with
    | Some c ->
      c.pl <- pl;
      unlink t c;
      push_front t c
    | None ->
      let c = { key = k; pl; prev = None; next = None } in
      Hashtbl.replace t.tbl (Key.repr k) c;
      push_front t c;
      t.size <- t.size + 1);
    if count then Obs.Metrics.incr t.c_stores;
    while t.size > t.cap do
      match t.tail with
      | None -> t.size <- 0
      | Some c ->
        unlink t c;
        Hashtbl.remove t.tbl (Key.repr c.key);
        t.size <- t.size - 1;
        if count then note t.c_evictions "cache.evict"
    done
  end

let store t k pl = locked t (fun () -> insert ~count:true t k pl)

let remove t k =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl (Key.repr k) with
      | Some c ->
        unlink t c;
        Hashtbl.remove t.tbl (Key.repr k);
        t.size <- t.size - 1
      | None -> ())

let length t = locked t (fun () -> t.size)

let stats t =
  let v = Obs.Metrics.counter_value in
  {
    hits = v t.c_hits;
    misses = v t.c_misses;
    evictions = v t.c_evictions;
    stores = v t.c_stores;
  }

(* ------------------------------------------------------------------ *)

module J = Obs.Json

let json_of_payload = function
  | Schedule { start; slot; makespan } ->
    [
      ("kind", J.Str "schedule");
      ("makespan", J.Num (float_of_int makespan));
      ( "start",
        J.Arr (Array.to_list (Array.map (fun s -> J.Num (float_of_int s)) start))
      );
      ( "slot",
        J.Arr
          (List.map
             (fun (i, s) ->
               J.Arr [ J.Num (float_of_int i); J.Num (float_of_int s) ])
             slot) );
    ]
  | Infeasible -> [ ("kind", J.Str "infeasible") ]

let save t path =
  let entries =
    locked t (fun () ->
        let rec walk acc = function
          | None -> List.rev acc
          | Some c ->
            let e =
              J.Obj (("repr", J.Str (Key.repr c.key)) :: json_of_payload c.pl)
            in
            walk (e :: acc) c.next
        in
        walk [] t.head)
  in
  let doc = J.Obj [ ("version", J.Num 1.); ("entries", J.Arr entries) ] in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (J.to_string doc);
      Out_channel.output_char oc '\n')

let int_of_num = function J.Num f -> Some (int_of_float f) | _ -> None

let payload_of_json j =
  match J.member "kind" j with
  | Some (J.Str "infeasible") -> Some Infeasible
  | Some (J.Str "schedule") -> (
    match (J.member "makespan" j, J.member "start" j, J.member "slot" j) with
    | Some (J.Num mk), Some (J.Arr starts), Some (J.Arr slots) ->
      let start = List.filter_map int_of_num starts in
      let slot =
        List.filter_map
          (function
            | J.Arr [ J.Num i; J.Num s ] ->
              Some (int_of_float i, int_of_float s)
            | _ -> None)
          slots
      in
      if List.length start <> List.length starts
         || List.length slot <> List.length slots
      then None
      else
        Some
          (Schedule { start = Array.of_list start; slot; makespan = int_of_float mk })
    | _ -> None)
  | _ -> None

let load ~capacity path =
  match J.parse_file path with
  | Error e -> Error e
  | Ok doc -> (
    match J.member "entries" doc with
    | Some (J.Arr entries) ->
      let t = create ~capacity () in
      (* Entries were saved most-recent-first; inserting in reverse
         restores both the recency order and, beyond capacity, drops
         exactly the oldest ones. *)
      List.iter
        (fun e ->
          match (J.member "repr" e, payload_of_json e) with
          | Some (J.Str repr), Some pl ->
            insert ~count:false t (Key.of_repr repr) pl
          | _ -> ())
        (List.rev entries);
      Ok t
    | _ -> Error "cache file: missing \"entries\"")
