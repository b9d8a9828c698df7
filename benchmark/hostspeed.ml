(* The host's speed, for reporting single-caller compute at a fixed
   reference speed.  On a shared host the same CPU-bound work runs up to
   1.5-1.8x slower for stretches of seconds to minutes, in process CPU
   time as much as in wall time, so no estimator over the raw times
   stays within the benchmark's bounds (see README.md).

   A fixed task, made only of stdlib code and allocating heavily as the
   solver does (hash table updates, short lists), is timed next to the
   measured work; the work's time is then scaled by [nominal_ms] over
   the task's time.  The task never calls the program, so a change to
   the program cannot change it. *)

(* About what the task takes on the 2-vCPU Xeon VM the bounds were set
   on, in its fast periods: reported times stay near that machine's wall
   times. *)
let nominal_ms = 2.5

let task () =
  let h = Hashtbl.create 64 in
  for i = 0 to 20_000 do
    let k = (i * 7919) land 4095 in
    let old = Option.value (Hashtbl.find_opt h k) ~default:[] in
    Hashtbl.replace h k (List.filteri (fun j _ -> j < 3) (i :: old))
  done;
  ignore (Sys.opaque_identity h)

(* every probe taken in this process, for the per-layer [host.ref_ms] *)
let probes = ref []

(* One timing of the task, in ms. *)
let probe () =
  let t0 = Unix.gettimeofday () in
  task ();
  let ms = (Unix.gettimeofday () -. t0) *. 1000. in
  probes := ms :: !probes;
  ms

(* The median of five probes: the reference before a longer phase. *)
let reference () = Quant.median (List.init 5 (fun _ -> probe ()))

(* [ms] of work done while the task took [ref_ms], at reference speed. *)
let normalize ~ref_ms ms = ms *. nominal_ms /. ref_ms
