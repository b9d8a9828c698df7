(* Live telemetry registry: counters, gauges, log-linear quantile
   histograms, rolling SLO windows, JSONL/Prometheus export.

   Histogram scheme: a positive value [v] is decomposed with [frexp]
   into mantissa [m] in [0.5, 1) and exponent [e]; the bucket index is
   [e * 2^s + floor ((2m - 1) * 2^s)], i.e. each power of two carries
   [2^s] linear sub-buckets.  The bucket spanning
   [(1 + k/2^s) * 2^(e-1), (1 + (k+1)/2^s) * 2^(e-1)) is represented
   by its midpoint, so the representation error is at most half a
   sub-bucket width relative to the bucket's lower bound: 2^-(s+1).
   Buckets live in a hashtable keyed by index — memory is proportional
   to the number of *occupied* buckets, and two histograms merge by
   adding tables, so per-domain histograms can be combined exactly.

   Locking: one mutex per histogram / SLO window, held for a few array
   and table writes.  Counters and gauges are bare atomics that always
   count: the registry's enabled flag gates only the instruments that
   lock.  The registry mutex only guards instrument creation and
   snapshot enumeration, never the record paths. *)

module J = Obs_json

type counter = int Atomic.t
type gauge = float Atomic.t

type histogram = {
  h_on : bool Atomic.t;
  h_bits : int;
  h_m : Mutex.t;
  h_buckets : (int, int) Hashtbl.t;
  mutable h_zero : int; (* values <= 0, represented exactly as 0. *)
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float; (* +inf when empty *)
  mutable h_max : float; (* -inf when empty *)
  mutable h_ex : (float * string) list;
      (* exemplars: most-recent-first (value, trace ref) pairs linking
         observations back to retained flight traces; capped short *)
}

type slo = {
  sl_on : bool Atomic.t;
  sl_m : Mutex.t;
  sl_window : int;
  sl_ok : Bytes.t; (* ring buffers; '\001' = true *)
  sl_met : Bytes.t;
  mutable sl_pos : int;
  mutable sl_seen : int;
  mutable sl_total : int;
}

type instrument =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram
  | Slo of slo

type registry = {
  r_m : Mutex.t;
  r_on : bool Atomic.t;
  r_tbl : (string, instrument) Hashtbl.t;
}

let create ?(enabled = true) () =
  { r_m = Mutex.create (); r_on = Atomic.make enabled; r_tbl = Hashtbl.create 32 }

let set_enabled r b = Atomic.set r.r_on b
let is_enabled r = Atomic.get r.r_on

let reset r =
  Mutex.lock r.r_m;
  Hashtbl.reset r.r_tbl;
  Mutex.unlock r.r_m

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"
  | Slo _ -> "slo"

(* Find-or-create under the registry lock; a name can hold only one
   kind of instrument for its whole life. *)
let intern r name make select =
  Mutex.lock r.r_m;
  let it =
    match Hashtbl.find_opt r.r_tbl name with
    | Some it -> it
    | None ->
      let it = make () in
      Hashtbl.add r.r_tbl name it;
      it
  in
  Mutex.unlock r.r_m;
  match select it with
  | Some x -> x
  | None ->
    invalid_arg
      (Printf.sprintf "Obs.Metrics: %S is a %s, not what was requested" name
         (kind_name it))

(* ------------------------------------------------------------------ *)
(* Counters and gauges                                                 *)

let counter r name =
  intern r name
    (fun () -> Counter (Atomic.make 0))
    (function Counter c -> Some c | _ -> None)

(* A fetch-and-add costs about what the flag load it would save costs,
   so counters and gauges ignore the enabled flag: an embedded service
   with a disabled registry still counts. *)
let incr ?(by = 1) c = ignore (Atomic.fetch_and_add c by)
let counter_value c = Atomic.get c

let gauge r name =
  intern r name
    (fun () -> Gauge (Atomic.make 0.))
    (function Gauge g -> Some g | _ -> None)

let set_gauge g v = Atomic.set g v
let gauge_value g = Atomic.get g

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)

let default_sig_bits = 7

let histogram ?(sig_bits = default_sig_bits) r name =
  if sig_bits < 1 || sig_bits > 20 then
    invalid_arg "Obs.Metrics.histogram: sig_bits must be in [1, 20]";
  intern r name
    (fun () ->
      Histogram
        {
          h_on = r.r_on;
          h_bits = sig_bits;
          h_m = Mutex.create ();
          h_buckets = Hashtbl.create 64;
          h_zero = 0;
          h_count = 0;
          h_sum = 0.;
          h_min = infinity;
          h_max = neg_infinity;
          h_ex = [];
        })
    (function Histogram h -> Some h | _ -> None)

let relative_error h = Float.ldexp 1. (-(h.h_bits + 1))

let bucket_index bits v =
  let m, e = Float.frexp v in
  (* m in [0.5, 1) => (2m - 1) in [0, 1) => sub in [0, 2^bits) *)
  let sub = int_of_float ((m *. 2. -. 1.) *. Float.ldexp 1. bits) in
  (e lsl bits) + sub

(* Midpoint of bucket [idx]: (1 + (sub + 0.5)/2^bits) * 2^(e-1). *)
let bucket_rep bits idx =
  let e = idx asr bits in
  let sub = idx - (e lsl bits) in
  Float.ldexp
    (1. +. ((float_of_int sub +. 0.5) *. Float.ldexp 1. (-bits)))
    (e - 1)

let observe h v =
  if Atomic.get h.h_on then begin
    Mutex.lock h.h_m;
    h.h_count <- h.h_count + 1;
    h.h_sum <- h.h_sum +. v;
    if v < h.h_min then h.h_min <- v;
    if v > h.h_max then h.h_max <- v;
    (if v <= 0. || not (Float.is_finite v) then h.h_zero <- h.h_zero + 1
     else
       let idx = bucket_index h.h_bits v in
       Hashtbl.replace h.h_buckets idx
         (1 + Option.value ~default:0 (Hashtbl.find_opt h.h_buckets idx)));
    Mutex.unlock h.h_m
  end

(* Walk the occupied buckets in value order (zero bucket first, then
   indices ascending) resolving every requested rank in one pass.
   Ranks must be sorted ascending. *)
let resolve_ranks_locked h ranks =
  let sorted =
    List.sort compare
      (Hashtbl.fold (fun k c acc -> (k, c) :: acc) h.h_buckets [])
  in
  let res = Array.make (List.length ranks) 0. in
  (* [cur] is the bucket whose counts [cum] already includes; the zero
     bucket (represented as [None] -> 0.) seeds the walk. *)
  let rec walk i ranks cum buckets ~cur =
    match ranks with
    | [] -> ()
    | rank :: rest ->
      if cum >= rank then begin
        res.(i) <- (match cur with None -> 0. | Some idx -> bucket_rep h.h_bits idx);
        walk (i + 1) rest cum buckets ~cur
      end
      else (
        match buckets with
        | [] ->
          res.(i) <- (match cur with None -> 0. | Some idx -> bucket_rep h.h_bits idx);
          walk (i + 1) rest cum buckets ~cur
        | (idx, c) :: more -> walk i ranks (cum + c) more ~cur:(Some idx))
  in
  walk 0 ranks h.h_zero sorted ~cur:None;
  res

let clamp_rank h q =
  let r = int_of_float (Float.ceil (q *. float_of_int h.h_count)) in
  max 1 (min h.h_count r)

let quantile h q =
  Mutex.lock h.h_m;
  let r =
    if h.h_count = 0 then 0.
    else (resolve_ranks_locked h [ clamp_rank h q ]).(0)
  in
  Mutex.unlock h.h_m;
  r

type hstats = {
  count : int;
  sum : float;
  vmin : float;
  vmax : float;
  mean : float;
  p50 : float;
  p90 : float;
  p95 : float;
  p99 : float;
  p999 : float;
}

let hstats h =
  Mutex.lock h.h_m;
  let st =
    if h.h_count = 0 then
      { count = 0; sum = 0.; vmin = 0.; vmax = 0.; mean = 0.; p50 = 0.;
        p90 = 0.; p95 = 0.; p99 = 0.; p999 = 0. }
    else begin
      let qs = [ 0.5; 0.9; 0.95; 0.99; 0.999 ] in
      let ranks = List.sort_uniq compare (List.map (clamp_rank h) qs) in
      let vals = resolve_ranks_locked h ranks in
      let at q =
        let rank = clamp_rank h q in
        let rec find i = function
          | [] -> 0.
          | r :: _ when r = rank -> vals.(i)
          | _ :: rest -> find (i + 1) rest
        in
        find 0 ranks
      in
      {
        count = h.h_count;
        sum = h.h_sum;
        vmin = h.h_min;
        vmax = h.h_max;
        mean = h.h_sum /. float_of_int h.h_count;
        p50 = at 0.5;
        p90 = at 0.9;
        p95 = at 0.95;
        p99 = at 0.99;
        p999 = at 0.999;
      }
    end
  in
  Mutex.unlock h.h_m;
  st

(* ------------------------------------------------------------------ *)
(* Exemplars: a short trail of (value, trace ref) pairs so a histogram
   snapshot can answer "show me a trace behind this distribution" —
   the flight recorder links each retained request's dump in here.
   Bounded and newest-first; never touched on the observe path. *)

let max_exemplars = 8

let rec take n = function
  | [] -> []
  | x :: tl -> if n <= 0 then [] else x :: take (n - 1) tl

let exemplar h v trace =
  if Atomic.get h.h_on then begin
    Mutex.lock h.h_m;
    h.h_ex <- (v, trace) :: take (max_exemplars - 1) h.h_ex;
    Mutex.unlock h.h_m
  end

let exemplars h =
  Mutex.lock h.h_m;
  let ex = h.h_ex in
  Mutex.unlock h.h_m;
  ex

let merge_into ~into src =
  if into.h_bits <> src.h_bits then
    invalid_arg "Obs.Metrics.merge_into: sig_bits differ";
  (* Copy the source out under its own lock, then add under the
     destination's — never hold both (concurrent opposite-direction
     merges would deadlock). *)
  Mutex.lock src.h_m;
  let buckets = Hashtbl.fold (fun k c acc -> (k, c) :: acc) src.h_buckets [] in
  let zero = src.h_zero and count = src.h_count and sum = src.h_sum in
  let mn = src.h_min and mx = src.h_max in
  let ex = src.h_ex in
  Mutex.unlock src.h_m;
  Mutex.lock into.h_m;
  List.iter
    (fun (k, c) ->
      Hashtbl.replace into.h_buckets k
        (c + Option.value ~default:0 (Hashtbl.find_opt into.h_buckets k)))
    buckets;
  into.h_zero <- into.h_zero + zero;
  into.h_count <- into.h_count + count;
  into.h_sum <- into.h_sum +. sum;
  if mn < into.h_min then into.h_min <- mn;
  if mx > into.h_max then into.h_max <- mx;
  into.h_ex <- take max_exemplars (into.h_ex @ ex);
  Mutex.unlock into.h_m

(* ------------------------------------------------------------------ *)
(* Rolling-window SLO tracker                                          *)

let slo ?(window = 512) r name =
  if window < 1 then invalid_arg "Obs.Metrics.slo: window must be >= 1";
  intern r name
    (fun () ->
      Slo
        {
          sl_on = r.r_on;
          sl_m = Mutex.create ();
          sl_window = window;
          sl_ok = Bytes.make window '\000';
          sl_met = Bytes.make window '\000';
          sl_pos = 0;
          sl_seen = 0;
          sl_total = 0;
        })
    (function Slo s -> Some s | _ -> None)

let slo_record s ~ok ~deadline_met =
  if Atomic.get s.sl_on then begin
    Mutex.lock s.sl_m;
    Bytes.unsafe_set s.sl_ok s.sl_pos (if ok then '\001' else '\000');
    Bytes.unsafe_set s.sl_met s.sl_pos (if deadline_met then '\001' else '\000');
    s.sl_pos <- (s.sl_pos + 1) mod s.sl_window;
    if s.sl_seen < s.sl_window then s.sl_seen <- s.sl_seen + 1;
    s.sl_total <- s.sl_total + 1;
    Mutex.unlock s.sl_m
  end

type slo_stats = {
  window : int;
  seen : int;
  total : int;
  ok : int;
  met : int;
  error_rate : float;
  deadline_hit_rate : float;
}

let slo_stats s =
  Mutex.lock s.sl_m;
  let count b =
    let n = ref 0 in
    for i = 0 to s.sl_seen - 1 do
      if Bytes.unsafe_get b i = '\001' then Stdlib.incr n
    done;
    !n
  in
  let ok = count s.sl_ok and met = count s.sl_met in
  let st =
    {
      window = s.sl_window;
      seen = s.sl_seen;
      total = s.sl_total;
      ok;
      met;
      error_rate =
        (if s.sl_seen = 0 then 0.
         else 1. -. (float_of_int ok /. float_of_int s.sl_seen));
      deadline_hit_rate =
        (if s.sl_seen = 0 then 1.
         else float_of_int met /. float_of_int s.sl_seen);
    }
  in
  Mutex.unlock s.sl_m;
  st

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)

let items_sorted r =
  Mutex.lock r.r_m;
  let items = Hashtbl.fold (fun k v acc -> (k, v) :: acc) r.r_tbl [] in
  Mutex.unlock r.r_m;
  List.sort (fun (a, _) (b, _) -> compare (a : string) b) items

(* float_str serializes non-finite floats as 0; feed it finite numbers
   only so snapshots round-trip through the parser. *)
let fin f = if Float.is_finite f then f else 0.

let hstats_json h =
  let st = hstats h in
  let base =
    [
      ("count", J.Num (float_of_int st.count));
      ("sum", J.Num (fin st.sum));
      ("min", J.Num (fin st.vmin));
      ("max", J.Num (fin st.vmax));
      ("mean", J.Num (fin st.mean));
      ("p50", J.Num (fin st.p50));
      ("p90", J.Num (fin st.p90));
      ("p95", J.Num (fin st.p95));
      ("p99", J.Num (fin st.p99));
      ("p999", J.Num (fin st.p999));
      ("rel_err", J.Num (relative_error h));
    ]
  in
  (* exemplars only when present, so snapshots without a flight
     recorder are byte-compatible with pre-exemplar readers *)
  match exemplars h with
  | [] -> J.Obj base
  | ex ->
    J.Obj
      (base
      @ [
          ( "exemplars",
            J.Arr
              (List.map
                 (fun (v, tr) ->
                   J.Obj [ ("value", J.Num (fin v)); ("trace", J.Str tr) ])
                 ex) );
        ])

let slo_json s =
  let st = slo_stats s in
  J.Obj
    [
      ("window", J.Num (float_of_int st.window));
      ("seen", J.Num (float_of_int st.seen));
      ("total", J.Num (float_of_int st.total));
      ("ok", J.Num (float_of_int st.ok));
      ("deadline_met", J.Num (float_of_int st.met));
      ("error_rate", J.Num (fin st.error_rate));
      ("deadline_hit_rate", J.Num (fin st.deadline_hit_rate));
    ]

let snapshot_json ?ts r =
  let ts = match ts with Some t -> t | None -> Unix.gettimeofday () in
  let items = items_sorted r in
  let section f =
    List.filter_map (fun (name, it) -> Option.map (fun v -> (name, v)) (f it)) items
  in
  J.Obj
    [
      ("ts_unix", J.Num (fin ts));
      ( "counters",
        J.Obj
          (section (function
            | Counter c -> Some (J.Num (float_of_int (counter_value c)))
            | _ -> None)) );
      ( "gauges",
        J.Obj
          (section (function
            | Gauge g -> Some (J.Num (fin (gauge_value g)))
            | _ -> None)) );
      ( "histograms",
        J.Obj
          (section (function Histogram h -> Some (hstats_json h) | _ -> None)) );
      ("slo", J.Obj (section (function Slo s -> Some (slo_json s) | _ -> None)));
    ]

(* Prometheus text exposition format. *)
let sanitize name =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c | _ -> '_')
    name

let prometheus r =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  List.iter
    (fun (name, it) ->
      let n = sanitize name in
      match it with
      | Counter c ->
        line "# TYPE %s counter" n;
        line "%s %d" n (counter_value c)
      | Gauge g ->
        line "# TYPE %s gauge" n;
        line "%s %s" n (J.float_str (fin (gauge_value g)))
      | Histogram h ->
        let st = hstats h in
        line "# TYPE %s summary" n;
        List.iter
          (fun (q, v) -> line "%s{quantile=\"%s\"} %s" n q (J.float_str (fin v)))
          [ ("0.5", st.p50); ("0.9", st.p90); ("0.95", st.p95);
            ("0.99", st.p99); ("0.999", st.p999) ];
        line "%s_sum %s" n (J.float_str (fin st.sum));
        line "%s_count %d" n st.count;
        line "%s_min %s" n (J.float_str (fin st.vmin));
        line "%s_max %s" n (J.float_str (fin st.vmax))
      | Slo s ->
        let st = slo_stats s in
        line "# TYPE %s_error_rate gauge" n;
        line "%s_error_rate %s" n (J.float_str (fin st.error_rate));
        line "# TYPE %s_deadline_hit_rate gauge" n;
        line "%s_deadline_hit_rate %s" n (J.float_str (fin st.deadline_hit_rate)))
    (items_sorted r);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Periodic exporter                                                   *)

type exporter = {
  e_stop : bool Atomic.t;
  e_dom : unit Domain.t;
  e_m : Mutex.t;
  mutable e_stopped : bool;
}

let exporter_start ?(interval_ms = 1000.) ?prom_path ~path reg =
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
  let flush_snapshot () =
    output_string oc (J.to_string (snapshot_json reg));
    output_char oc '\n';
    flush oc;
    Option.iter
      (fun p ->
        let tmp = p ^ ".tmp" in
        Out_channel.with_open_bin tmp (fun poc ->
            Out_channel.output_string poc (prometheus reg));
        Sys.rename tmp p)
      prom_path
  in
  let stop = Atomic.make false in
  let dom =
    Domain.spawn (fun () ->
        let interval = Float.max 10. interval_ms /. 1000. in
        let last = ref (Unix.gettimeofday ()) in
        while not (Atomic.get stop) do
          (* sleep in short slices so exporter_stop is prompt *)
          Unix.sleepf 0.02;
          if
            (not (Atomic.get stop))
            && Unix.gettimeofday () -. !last >= interval
          then begin
            last := Unix.gettimeofday ();
            flush_snapshot ()
          end
        done;
        (* final snapshot: even a session shorter than one interval
           leaves a complete snapshot behind *)
        flush_snapshot ();
        close_out oc)
  in
  { e_stop = stop; e_dom = dom; e_m = Mutex.create (); e_stopped = false }

let exporter_stop e =
  Mutex.lock e.e_m;
  let first = not e.e_stopped in
  e.e_stopped <- true;
  Mutex.unlock e.e_m;
  if first then begin
    Atomic.set e.e_stop true;
    Domain.join e.e_dom
  end
