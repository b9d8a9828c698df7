(* The benchmark's own span recorder.  Spans are taken only here, around
   calls into the program's layers, so a traced run measures the same
   program as an untraced one; no [Obs] sink is attached, because that
   would switch on the program's internal instrumentation.

   A span's self time (its duration minus the time its direct children
   cover) lands in the sample table under [<name>_ms.<kind>], which is
   where the per-layer metrics are read from.  Spans are kept in memory
   and written as a Chrome trace at the end of the run. *)

type frame = {
  f_name : string;
  f_kind : string;
  f_rid : int;
  f_parent : string;
  f_t0 : float;
  mutable f_child_ms : float;
}

type event = {
  name : string;
  kind : string;
  rid : int;
  parent : string;
  t0 : float;
  dur_ms : float;
  self_ms : float;
}

type t = {
  on : bool;
  samples : Quant.table;
  mutable stack : frame list;
  mutable events : event list;
}

let create ~on samples = { on; samples; stack = []; events = [] }
let now = Unix.gettimeofday

(* [kind] and [rid] default to the enclosing span's. *)
let record t ?kind ?rid name f =
  if not t.on then f ()
  else begin
    let parent = match t.stack with p :: _ -> Some p | [] -> None in
    let from_parent own field default =
      match (own, parent) with
      | Some v, _ -> v
      | None, Some p -> field p
      | None, None -> default
    in
    let fr =
      {
        f_name = name;
        f_kind = from_parent kind (fun p -> p.f_kind) "";
        f_rid = from_parent rid (fun p -> p.f_rid) (-1);
        f_parent = (match parent with Some p -> p.f_name | None -> "");
        f_t0 = now ();
        f_child_ms = 0.;
      }
    in
    t.stack <- fr :: t.stack;
    let finish () =
      let dur_ms = (now () -. fr.f_t0) *. 1000. in
      t.stack <- List.tl t.stack;
      (match parent with
      | Some p -> p.f_child_ms <- p.f_child_ms +. dur_ms
      | None -> ());
      let self_ms = dur_ms -. fr.f_child_ms in
      Quant.add t.samples (Printf.sprintf "%s_ms.%s" name fr.f_kind) self_ms;
      t.events <-
        {
          name;
          kind = fr.f_kind;
          rid = fr.f_rid;
          parent = fr.f_parent;
          t0 = fr.f_t0;
          dur_ms;
          self_ms;
        }
        :: t.events
    in
    Fun.protect ~finally:finish f
  end

let chrome_json t =
  let events = List.rev t.events in
  let origin =
    List.fold_left (fun acc e -> Float.min acc e.t0) infinity events
  in
  let num f = Obs.Json.Num f in
  let ev e =
    Obs.Json.Obj
      [
        ("name", Obs.Json.Str e.name);
        ( "cat",
          Obs.Json.Str
            (match String.index_opt e.name '.' with
            | Some i -> String.sub e.name 0 i
            | None -> e.name) );
        ("ph", Obs.Json.Str "X");
        ("ts", num ((e.t0 -. origin) *. 1e6));
        ("dur", num (e.dur_ms *. 1000.));
        ("pid", num 1.);
        ("tid", num 1.);
        ( "args",
          Obs.Json.Obj
            [
              ("rid", num (float_of_int e.rid));
              ("kind", Obs.Json.Str e.kind);
              ("parent", Obs.Json.Str e.parent);
              ("self_ms", num e.self_ms);
            ] );
      ]
  in
  Obs.Json.Obj
    [
      ("traceEvents", Obs.Json.Arr (List.map ev events));
      ("displayTimeUnit", Obs.Json.Str "ms");
    ]

let write_chrome t path =
  let oc = open_out path in
  output_string oc (Obs.Json.to_string (chrome_json t));
  output_char oc '\n';
  close_out oc
