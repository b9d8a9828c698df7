(* What one workload run measured, and the end-to-end metrics derived
   from it. *)

type req = {
  kind : string;
  latency_ms : float option;
      (* at reference speed for compile requests, wall time for serve
         requests; [None] for closed-loop saturation requests *)
  makespan : int option;
  optimal : bool;
  failed : bool;
}

type t = {
  setup_s : float list;  (* at reference speed *)
  reqs : req list;  (* every measured request *)
  throughput_rps : float;
  wrong : int;  (* answers the oracle rejected, warm-up included *)
  valid : bool;  (* the load generator kept to its schedule *)
  samples : Quant.table;  (* per-layer samples, by metric name *)
}

(* Set up [n] times and keep the last: [setup_s] is the median, so work
   moved into set-up shows without one slow start dominating.  Set-up is
   one caller's computation, so each is timed at reference speed, from
   the host-speed reference taken just before it (when no domain of an
   earlier set-up is left). *)
let setups n ?(teardown = ignore) f =
  let rec go i acc =
    let ref_ms = Hostspeed.reference () in
    let t0 = Unix.gettimeofday () in
    let v = f () in
    let acc = Hostspeed.normalize ~ref_ms (Unix.gettimeofday () -. t0) :: acc in
    if i + 1 >= n then (List.rev acc, v)
    else begin
      teardown v;
      go (i + 1) acc
    end
  in
  go 0 []

(* VmHWM: the process's peak resident set. *)
let peak_rss_mb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> 0.
  | s ->
    List.find_map
      (fun l -> Scanf.sscanf_opt l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.))
      (String.split_on_char '\n' s)
    |> Option.value ~default:0.

let attempted t = List.length t.reqs
let failed t = List.length (List.filter (fun r -> r.failed) t.reqs)

let end_to_end t =
  let kinds = List.sort_uniq compare (List.map (fun r -> r.kind) t.reqs) in
  let per_kind f =
    Quant.geomean
      (List.map
         (fun k -> Quant.median (List.filter_map (fun r -> if r.kind = k then f r else None) t.reqs))
         kinds)
  in
  let n = float_of_int (max 1 (attempted t)) in
  [
    ("setup_s", Quant.median t.setup_s);
    ("latency_p50_geomean_ms", per_kind (fun r -> r.latency_ms));
    ("throughput_rps", t.throughput_rps);
    ( "optimal_frac",
      float_of_int (List.length (List.filter (fun r -> r.optimal) t.reqs)) /. n );
    ("schedule_cycles_geomean", per_kind (fun r -> Option.map float_of_int r.makespan));
    ("peak_rss_mb", peak_rss_mb ());
  ]

(* Traced compile requests against their untraced twins, and the share
   of a traced request's wall time no layer span covers. *)
let trace_summary t =
  let total k = Quant.sum (Quant.get t.samples k) in
  let untraced = total "request_wall.untraced" and traced = total "request_wall.traced" in
  let unattributed =
    Hashtbl.fold
      (fun k v acc -> if String.starts_with ~prefix:"request_ms." k then acc +. Quant.sum v else acc)
      t.samples 0.
  in
  if untraced > 0. && traced > 0. then begin
    Quant.add t.samples "trace_overhead_pct" (100. *. (traced -. untraced) /. untraced);
    Quant.add t.samples "trace_unattributed_pct" (100. *. unattributed /. traced)
  end

(* Every per-layer metric is the median of its samples; 0 means the
   layer did no work of that kind in this workload. *)
let per_layer t names =
  trace_summary t;
  List.iter (Quant.add t.samples "host.ref_ms") !Hostspeed.probes;
  List.map (fun n -> (n, Quant.median (Quant.get t.samples n))) names

let sample_counts t =
  let timed = List.filter (fun r -> r.latency_ms <> None) t.reqs in
  [
    ("setups", List.length t.setup_s);
    ("requests", attempted t);
    ("timed_requests", List.length timed);
    ("kinds", List.length (List.sort_uniq compare (List.map (fun r -> r.kind) t.reqs)));
  ]
