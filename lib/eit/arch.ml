type t = {
  n_lanes : int;
  vector_latency : int;
  vector_duration : int;
  scalar_latency : int;
  scalar_simple_latency : int;
  scalar_duration : int;
  im_latency : int;
  im_duration : int;
  banks : int;
  page_size : int;
  lines : int;
  slot_limit : int option;
  max_reads_per_cycle : int;
  max_writes_per_cycle : int;
}

let default =
  {
    n_lanes = 4;
    vector_latency = 7;
    vector_duration = 1;
    (* Calibrated: with sqrt/div at 7 cycles the MGS-QRD critical path
       lands at the paper's reported 169 cycles. *)
    scalar_latency = 7;
    scalar_simple_latency = 2;
    scalar_duration = 1;
    im_latency = 1;
    im_duration = 1;
    banks = 16;
    page_size = 4;
    lines = 4;
    slot_limit = None;
    max_reads_per_cycle = 8;
    max_writes_per_cycle = 4;
  }

let wide =
  {
    default with
    n_lanes = 8;
    vector_latency = 9;
    banks = 32;
    lines = 4;
    max_reads_per_cycle = 16;
    max_writes_per_cycle = 8;
  }

let mini =
  {
    default with
    n_lanes = 2;
    banks = 8;
    lines = 2;
    max_reads_per_cycle = 4;
    max_writes_per_cycle = 2;
  }

let presets = [ ("eit", default); ("wide", wide); ("mini", mini) ]

let slots a =
  let full = a.banks * a.lines in
  match a.slot_limit with None -> full | Some n -> min n full

let with_slots a n =
  if n <= 0 || n > a.banks * a.lines then
    invalid_arg (Printf.sprintf "Arch.with_slots: %d out of range" n);
  { a with slot_limit = Some n }

let latency a (op : Opcode.t) =
  match op with
  | V _ -> a.vector_latency
  | S (Ssqrt | Srsqrt | Sinv | Sdiv | Scordic) -> a.scalar_latency
  | S (Smul | Sadd | Ssub) -> a.scalar_simple_latency
  | IM _ -> a.im_latency

let duration a (op : Opcode.t) =
  match op with
  | V _ -> a.vector_duration
  | S _ -> a.scalar_duration
  | IM _ -> a.im_duration

let resource_limit a = function
  | Opcode.Vector_core -> a.n_lanes
  | Opcode.Scalar_accel -> 1
  | Opcode.Index_merge -> 1

let pp ppf a =
  Format.fprintf ppf
    "EIT{lanes=%d; vlat=%d; slat=%d; banks=%d; page=%d; lines=%d; slots=%d}"
    a.n_lanes a.vector_latency a.scalar_latency a.banks a.page_size a.lines
    (slots a)
