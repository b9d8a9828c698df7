(* Obs.Metrics: the live telemetry registry.  The core property is the
   histogram's relative-error contract — any quantile estimate is
   within [relative_error h] of the exact sorted-sample quantile of
   the same rank (ceil(q*n)-th smallest) — pinned by QCheck over random
   sample sets and sig_bits.  The rest pins exact concurrent counting,
   snapshot JSON round-trips, merge, SLO window semantics and the
   disabled-registry no-op paths. *)

module M = Obs.Metrics
module J = Obs.Json

let fresh () = M.create ()

(* The histogram's own rank convention: the ceil(q*n)-th smallest,
   clamped to [1, n]. *)
let exact_q sorted q =
  let n = Array.length sorted in
  sorted.(max 1 (min n (int_of_float (Float.ceil (q *. float_of_int n)))) - 1)

(* ----------------------- QCheck: error bound ----------------------- *)

(* Positive floats across ~18 decades, mantissas everywhere in the
   sub-bucket range. *)
let gen_positive =
  QCheck2.Gen.(
    oneof
      [
        map
          (fun (m, e) -> Float.ldexp (0.5 +. (m /. 2.)) e)
          (pair (float_bound_inclusive 0.9999) (int_range (-20) 40));
        map (fun f -> f +. 1e-3) (float_bound_inclusive 1e6);
        map float_of_int (int_range 1 1_000_000);
      ])

let quantile_bound =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make
       ~name:"quantile within relative_error of exact same-rank sample"
       ~count:300
       QCheck2.Gen.(
         pair (int_range 4 9) (list_size (int_range 1 300) gen_positive))
       (fun (bits, samples) ->
         let r = fresh () in
         let h = M.histogram ~sig_bits:bits r "q" in
         List.iter (M.observe h) samples;
         let sorted = Array.of_list samples in
         Array.sort compare sorted;
         let rel = M.relative_error h in
         List.for_all
           (fun q ->
             let exact = exact_q sorted q in
             let est = M.quantile h q in
             Float.abs (est -. exact) <= (rel *. exact) +. 1e-12)
           [ 0.5; 0.9; 0.95; 0.99; 0.999 ]))

(* hstats must agree with quantile (same ranks, one lock). *)
let test_hstats_matches_quantile () =
  let r = fresh () in
  let h = M.histogram r "h" in
  for i = 1 to 1000 do
    M.observe h (float_of_int i)
  done;
  let st = M.hstats h in
  Alcotest.(check int) "count" 1000 st.M.count;
  Alcotest.(check (float 0.)) "min exact" 1. st.M.vmin;
  Alcotest.(check (float 0.)) "max exact" 1000. st.M.vmax;
  List.iter
    (fun (q, v) ->
      Alcotest.(check (float 0.)) (Printf.sprintf "p%g" (q *. 1000.)) v
        (M.quantile h q))
    [ (0.5, st.M.p50); (0.9, st.M.p90); (0.95, st.M.p95); (0.99, st.M.p99);
      (0.999, st.M.p999) ];
  let rel = M.relative_error h in
  Alcotest.(check bool) "p99 near rank-990 sample" true
    (Float.abs (st.M.p99 -. 990.) <= (rel *. 990.) +. 1e-9)

(* ----------------------- concurrency: exactness -------------------- *)

let test_concurrent_exact () =
  let r = fresh () in
  let c = M.counter r "c" in
  let h = M.histogram r "h" in
  let s = M.slo r "s" in
  let doms =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 10_000 do
              M.incr c;
              M.observe h 1.;
              M.slo_record s ~ok:true ~deadline_met:true
            done))
  in
  List.iter Domain.join doms;
  Alcotest.(check int) "counter sums exactly" 40_000 (M.counter_value c);
  let st = M.hstats h in
  Alcotest.(check int) "histogram count exact" 40_000 st.M.count;
  Alcotest.(check (float 0.)) "histogram sum exact" 40_000. st.M.sum;
  Alcotest.(check int) "slo total exact" 40_000 (M.slo_stats s).M.total

(* ----------------------- snapshot round-trip ----------------------- *)

let test_snapshot_roundtrip () =
  let r = fresh () in
  M.incr ~by:7 (M.counter r "reqs");
  M.set_gauge (M.gauge r "depth") 3.5;
  let h = M.histogram r "lat_ms" in
  List.iter (M.observe h) [ 1.; 2.5; 40.; 0.; 999.9 ];
  let s = M.slo ~window:8 r "slo" in
  M.slo_record s ~ok:true ~deadline_met:false;
  let j = M.snapshot_json ~ts:123.5 r in
  (match J.parse (J.to_string j) with
  | Ok j' -> Alcotest.(check bool) "parse (to_string j) = Ok j" true (j' = j)
  | Error e -> Alcotest.failf "snapshot does not round-trip: %s" e);
  (* sections are present and sorted by instrument name *)
  (match J.member "histograms" j with
  | Some (J.Obj [ ("lat_ms", hj) ]) ->
    Alcotest.(check bool) "rel_err exported" true
      (J.member "rel_err" hj = Some (J.Num (M.relative_error h)))
  | _ -> Alcotest.fail "histograms section malformed");
  match J.member "ts_unix" j with
  | Some (J.Num 123.5) -> ()
  | _ -> Alcotest.fail "ts_unix not honoured"

(* ----------------------- merge ------------------------------------- *)

let test_merge () =
  let r = fresh () in
  let a = M.histogram r "a" in
  let b = M.histogram r "b" in
  let whole = M.histogram r "whole" in
  for i = 1 to 100 do
    M.observe a (float_of_int i);
    M.observe whole (float_of_int i)
  done;
  for i = 1000 to 1100 do
    M.observe b (float_of_int i);
    M.observe whole (float_of_int i)
  done;
  M.merge_into ~into:a b;
  Alcotest.(check bool) "merged hstats = single-histogram hstats" true
    (M.hstats a = M.hstats whole);
  Alcotest.(check int) "source unchanged" 101 (M.hstats b).M.count;
  let r2 = fresh () in
  let coarse = M.histogram ~sig_bits:4 r2 "coarse" in
  Alcotest.check_raises "sig_bits mismatch"
    (Invalid_argument "Obs.Metrics.merge_into: sig_bits differ") (fun () ->
      M.merge_into ~into:a coarse)

(* ----------------------- SLO window -------------------------------- *)

let test_slo_window () =
  let r = fresh () in
  let s = M.slo ~window:4 r "s" in
  List.iter
    (fun (ok, met) -> M.slo_record s ~ok ~deadline_met:met)
    [ (true, true); (true, true); (false, false); (false, false);
      (false, false); (true, false) ];
  let st = M.slo_stats s in
  Alcotest.(check int) "window" 4 st.M.window;
  Alcotest.(check int) "seen caps at window" 4 st.M.seen;
  Alcotest.(check int) "total is lifetime" 6 st.M.total;
  (* the window now holds the last four outcomes: F F F T *)
  Alcotest.(check int) "ok in window" 1 st.M.ok;
  Alcotest.(check int) "met in window" 0 st.M.met;
  Alcotest.(check (float 1e-9)) "error rate" 0.75 st.M.error_rate;
  Alcotest.(check (float 1e-9)) "deadline hit rate" 0. st.M.deadline_hit_rate;
  let empty = M.slo_stats (M.slo r "empty") in
  Alcotest.(check (float 0.)) "empty error rate" 0. empty.M.error_rate;
  Alcotest.(check (float 0.)) "empty hit rate" 1. empty.M.deadline_hit_rate

(* ----------------------- zero / negative values -------------------- *)

let test_zero_bucket () =
  let r = fresh () in
  let h = M.histogram r "h" in
  List.iter (M.observe h) [ 0.; -5.; 3. ];
  let st = M.hstats h in
  Alcotest.(check int) "count includes non-positives" 3 st.M.count;
  Alcotest.(check (float 0.)) "min is exact" (-5.) st.M.vmin;
  Alcotest.(check (float 0.)) "max is exact" 3. st.M.vmax;
  Alcotest.(check (float 0.)) "median is the zero bucket" 0. (M.quantile h 0.5);
  let top = M.quantile h 0.999 in
  Alcotest.(check bool) "top quantile is the positive sample" true
    (Float.abs (top -. 3.) <= (M.relative_error h *. 3.) +. 1e-12);
  Alcotest.(check (float 0.)) "empty histogram quantile" 0.
    (M.quantile (M.histogram r "empty") 0.5)

(* ----------------------- registry semantics ------------------------ *)

(* The enabled flag gates only the locking instruments: counters and
   gauges always count, so a disabled registry still tallies. *)
let test_disabled_noop () =
  let r = M.create ~enabled:false () in
  let c = M.counter r "c" in
  let h = M.histogram r "h" in
  let g = M.gauge r "g" in
  let s = M.slo r "s" in
  M.incr c;
  M.observe h 1.;
  M.exemplar h 1. "trace";
  M.set_gauge g 9.;
  M.slo_record s ~ok:false ~deadline_met:false;
  Alcotest.(check int) "counter counts while disabled" 1 (M.counter_value c);
  Alcotest.(check (float 0.)) "gauge set while disabled" 9. (M.gauge_value g);
  Alcotest.(check int) "histogram untouched" 0 (M.hstats h).M.count;
  Alcotest.(check int) "no exemplar" 0 (List.length (M.exemplars h));
  Alcotest.(check int) "slo untouched" 0 (M.slo_stats s).M.total;
  M.set_enabled r true;
  M.incr c;
  M.observe h 1.;
  M.slo_record s ~ok:true ~deadline_met:true;
  Alcotest.(check int) "counter unaffected by the flag" 2 (M.counter_value c);
  Alcotest.(check int) "histogram records once enabled" 1 (M.hstats h).M.count;
  Alcotest.(check int) "slo records once enabled" 1 (M.slo_stats s).M.total

let test_kind_clash () =
  let r = fresh () in
  ignore (M.counter r "x");
  Alcotest.(check bool) "same-kind lookup finds the instrument" true
    (M.counter r "x" == M.counter r "x");
  match M.histogram r "x" with
  | _ -> Alcotest.fail "kind clash not detected"
  | exception Invalid_argument _ -> ()

let test_prometheus () =
  let r = fresh () in
  M.incr ~by:3 (M.counter r "serve.count");
  M.set_gauge (M.gauge r "queue.depth") 2.;
  let h = M.histogram r "serve.total_ms" in
  List.iter (M.observe h) [ 1.; 2.; 3. ];
  M.slo_record (M.slo r "serve.slo") ~ok:true ~deadline_met:true;
  let text = M.prometheus r in
  let has needle =
    let nl = String.length needle and tl = String.length text in
    let rec go i = i + nl <= tl && (String.sub text i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "contains %S" needle) true
        (has needle))
    [
      "# TYPE serve_count counter"; "serve_count 3";
      "# TYPE queue_depth gauge"; "# TYPE serve_total_ms summary";
      "serve_total_ms{quantile=\"0.99\"}"; "serve_total_ms_count 3";
      "serve_slo_error_rate 0"; "serve_slo_deadline_hit_rate 1";
    ]

let suite =
  [
    quantile_bound;
    Alcotest.test_case "hstats agrees with quantile" `Quick
      test_hstats_matches_quantile;
    Alcotest.test_case "concurrent updates sum exactly" `Quick
      test_concurrent_exact;
    Alcotest.test_case "snapshot JSON round-trips" `Quick
      test_snapshot_roundtrip;
    Alcotest.test_case "merge_into combines exactly" `Quick test_merge;
    Alcotest.test_case "slo rolling window" `Quick test_slo_window;
    Alcotest.test_case "zero/negative values" `Quick test_zero_bucket;
    Alcotest.test_case "disabled registry is a no-op" `Quick
      test_disabled_noop;
    Alcotest.test_case "instrument kind clash" `Quick test_kind_clash;
    Alcotest.test_case "prometheus exposition" `Quick test_prometheus;
  ]
