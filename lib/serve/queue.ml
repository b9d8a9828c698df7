type 'a t = {
  cap : int;
  m : Mutex.t;
  nonempty : Condition.t;
  q : 'a Stdlib.Queue.t;
  mutable closed : bool;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Serve.Queue.create: capacity < 1";
  {
    cap = capacity;
    m = Mutex.create ();
    nonempty = Condition.create ();
    q = Stdlib.Queue.create ();
    closed = false;
  }

let push t x =
  Mutex.lock t.m;
  let r =
    if t.closed then `Closed
    else if Stdlib.Queue.length t.q >= t.cap then `Full
    else begin
      Stdlib.Queue.push x t.q;
      Condition.signal t.nonempty;
      `Ok
    end
  in
  Mutex.unlock t.m;
  r

let pop t =
  Mutex.lock t.m;
  while Stdlib.Queue.is_empty t.q && not t.closed do
    Condition.wait t.nonempty t.m
  done;
  let r = Stdlib.Queue.take_opt t.q in
  Mutex.unlock t.m;
  r

let drain_if t pred =
  Mutex.lock t.m;
  let kept = Stdlib.Queue.create () and removed = ref [] in
  Stdlib.Queue.iter
    (fun x -> if pred x then removed := x :: !removed else Stdlib.Queue.push x kept)
    t.q;
  Stdlib.Queue.clear t.q;
  Stdlib.Queue.transfer kept t.q;
  Mutex.unlock t.m;
  List.rev !removed

let length t =
  Mutex.lock t.m;
  let n = Stdlib.Queue.length t.q in
  Mutex.unlock t.m;
  n

let close t =
  Mutex.lock t.m;
  t.closed <- true;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.m
