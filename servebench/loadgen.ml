(* The load generator: drives the server over protocol v4 frames (its own
   codec, so a change to the server's Frame module never changes the
   client's cost) in an open or a closed loop, and checks every reply.

   A phase drives stream positions [first, first + cap) and records, per
   request: start time (send time in a closed loop, due time in an open
   loop, so a stall is charged to every request it delays), completion
   time, status, and the ANSWER's cost and cache flags. *)

let st_pending = 0
let st_ok = 1
let st_wrong = 2
let st_busy = 3
let st_err = 4

type phase = {
  first : int;
  mutable sent : int;  (** requests sent (attempted) *)
  start : float array;  (** ns *)
  finish : float array;  (** ns; 0 = no reply *)
  lag : float array;  (** send time - due time (open loop) or - the read that freed the slot (closed), ns *)
  status : Bytes.t;
  cost : int array;  (** reductions + retrievals on the ANSWER line *)
  cached : bool array;  (** served from the cache (exact or derived) *)
  mutable t0 : float;  (** phase start, ns *)
  mutable t1 : float;  (** last reply, ns *)
}

let make_phase ~first ~cap =
  {
    first;
    sent = 0;
    start = Array.make cap 0.0;
    finish = Array.make cap 0.0;
    lag = Array.make cap 0.0;
    status = Bytes.make cap (Char.chr st_pending);
    cost = Array.make cap 0;
    cached = Array.make cap false;
    t0 = 0.0;
    t1 = 0.0;
  }

let magic = '\x84'
let k_query = '\x02'
let k_ok = 0x81
let k_busy = 0x83

let put_u32 b pos v =
  Bytes.set b pos (Char.chr ((v lsr 24) land 0xFF));
  Bytes.set b (pos + 1) (Char.chr ((v lsr 16) land 0xFF));
  Bytes.set b (pos + 2) (Char.chr ((v lsr 8) land 0xFF));
  Bytes.set b (pos + 3) (Char.chr (v land 0xFF))

let get_u32 b pos =
  (Char.code (Bytes.get b pos) lsl 24)
  lor (Char.code (Bytes.get b (pos + 1)) lsl 16)
  lor (Char.code (Bytes.get b (pos + 2)) lsl 8)
  lor Char.code (Bytes.get b (pos + 3))

let add_query buf ~id text =
  let h = Bytes.create 10 in
  Bytes.set h 0 magic;
  Bytes.set h 1 k_query;
  put_u32 h 2 id;
  put_u32 h 6 (String.length text);
  Buffer.add_bytes buf h;
  Buffer.add_string buf text

let code_at (g : Gen.t) ph i = g.Gen.stream.((ph.first + i) mod Array.length g.Gen.stream)

(* The open loop's socket is non-blocking: a full send buffer is retried. *)
let write_all fd buf =
  let b = Buffer.to_bytes buf in
  let rec go off =
    if off < Bytes.length b then
      match Unix.write fd b off (Bytes.length b - off) with
      | n -> go (off + n)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> go off
  in
  go 0

(* Record one reply frame for phase-local request [i]. *)
let record g ph i kind payload =
  ph.finish.(i) <- float_of_int (Util.now_ns ());
  let st =
    if kind = k_busy then st_busy
    else if kind <> k_ok then st_err
    else begin
      let r = Gen.check g (code_at g ph i) payload in
      ph.cost.(i) <- r.Gen.cost;
      ph.cached.(i) <- r.Gen.cached;
      if r.Gen.ok then st_ok else st_wrong
    end
  in
  Bytes.set ph.status i (Char.chr st)

(* Incremental frame reader over one socket. *)
type reader = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable len : int;
  mutable at : float;  (** when the last read returned, ns *)
}

let reader fd = { fd; buf = Bytes.create 65536; len = 0; at = 0.0 }

(* One read (raising EAGAIN when a non-blocking socket has nothing, or a
   blocking one timed out), then every complete frame goes to [f] (id,
   kind, payload). Returns false on EOF. *)
let read_frames r f =
  if r.len = Bytes.length r.buf then begin
    let nb = Bytes.create (2 * Bytes.length r.buf) in
    Bytes.blit r.buf 0 nb 0 r.len;
    r.buf <- nb
  end;
  match Unix.read r.fd r.buf r.len (Bytes.length r.buf - r.len) with
  | 0 -> false
  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> false
  | n ->
    r.at <- float_of_int (Util.now_ns ());
    r.len <- r.len + n;
    let pos = ref 0 in
    let continue = ref true in
    while !continue do
      if r.len - !pos >= 10 then begin
        let plen = get_u32 r.buf (!pos + 6) in
        if r.len - !pos >= 10 + plen then begin
          let id = get_u32 r.buf (!pos + 2) in
          let kind = Char.code (Bytes.get r.buf (!pos + 1)) in
          f id kind (Bytes.sub_string r.buf (!pos + 10) plen);
          pos := !pos + 10 + plen
        end
        else continue := false
      end
      else continue := false
    done;
    Bytes.blit r.buf !pos r.buf 0 (r.len - !pos);
    r.len <- r.len - !pos;
    true

let reply_timeout_s = 30.0

let open_conn port =
  let fd = Proc.connect port in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO reply_timeout_s;
  fd

(* Open loop on one connection, from one thread: request i is sent at
   t0 + i/rate and replies are read as soon as they land. Between sends
   the thread blocks in select (woken by a reply) until [spin_ns] before
   the next due time, then polls for that last stretch: on a virtual
   machine a timed wake-up can run milliseconds late, and that lateness
   would be charged to the server as latency, while polling all the time
   would hold a whole vCPU the server needs. *)
let spin_ns = 0.5e6

let run_open g fd ph ~rate ~count =
  let ns_per = 1e9 /. rate in
  Unix.set_nonblock fd;
  let r = reader fd in
  let buf = Buffer.create 4096 in
  let got = ref 0 and i = ref 0 and alive = ref true in
  let deadline = ref infinity in
  ph.t0 <- float_of_int (Util.now_ns ()) +. 2e6;
  let due k = ph.t0 +. (float_of_int k *. ns_per) in
  while !alive && !got < count do
    let now = float_of_int (Util.now_ns ()) in
    if !i < count && due !i <= now then begin
      Buffer.clear buf;
      while !i < count && due !i <= now do
        ph.start.(!i) <- due !i;
        ph.lag.(!i) <- now -. due !i;
        add_query buf ~id:!i (Gen.query_text ~people:g.Gen.spec.Gen.people (code_at g ph !i));
        incr i
      done;
      ph.sent <- !i;
      write_all fd buf;
      if !i = count then deadline := now +. (reply_timeout_s *. 1e9)
    end;
    let wake = if !i < count then due !i -. spin_ns else !deadline in
    let now = float_of_int (Util.now_ns ()) in
    if wake > now then begin
      try ignore (Unix.select [ fd ] [] [] (Float.min 1.0 ((wake -. now) *. 1e-9)))
      with Unix.Unix_error (Unix.EINTR, _, _) -> ()
    end;
    (match read_frames r (fun id kind payload -> record g ph id kind payload; incr got) with
    | false -> alive := false
    | true -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ());
    if float_of_int (Util.now_ns ()) > !deadline then alive := false
  done;
  Unix.clear_nonblock fd;
  ph.t1 <- float_of_int (Util.now_ns ())

(* Closed loop: one thread per connection keeps [window] requests in
   flight; positions are handed out from a shared counter. The phase
   ends at [deadline_ns] or after [count] requests, whichever is first;
   requests in flight then are still awaited. *)
let run_closed g fds ph ~window ~count ~deadline_ns =
  let next = Atomic.make 0 in
  ph.t0 <- float_of_int (Util.now_ns ());
  let conn fd =
    let r = reader fd in
    let buf = Buffer.create 4096 in
    let inflight = ref 0 in
    let stop = ref false in
    (* [lag] is the client's own turnaround: send time minus the moment
       the read that freed the window slot returned *)
    let fill ~since =
      Buffer.clear buf;
      while (not !stop) && !inflight < window do
        if Util.now_ns () >= deadline_ns then stop := true
        else begin
          let i = Atomic.fetch_and_add next 1 in
          if i >= count then stop := true
          else begin
            let now = float_of_int (Util.now_ns ()) in
            ph.start.(i) <- now;
            ph.lag.(i) <- (if since > 0.0 then now -. since else 0.0);
            add_query buf ~id:i (Gen.query_text ~people:g.Gen.spec.Gen.people (code_at g ph i));
            incr inflight
          end
        end
      done;
      if Buffer.length buf > 0 then write_all fd buf
    in
    fill ~since:0.0;
    let read () =
      try read_frames r (fun id kind payload -> record g ph id kind payload; decr inflight)
      with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> false (* receive timeout *)
    in
    while !inflight > 0 && read () do
      fill ~since:r.at
    done
  in
  let threads = List.map (fun fd -> Thread.create conn fd) (List.tl fds) in
  conn (List.hd fds);
  List.iter Thread.join threads;
  ph.sent <- min count (Atomic.get next);
  ph.t1 <- float_of_int (Util.now_ns ())

(* Summary of a phase. *)
type summary = {
  attempted : int;
  ok : int;
  wrong : int;
  busy : int;
  errs : int;
  no_reply : int;
  latencies_ms : float array;  (** correct replies only *)
  lag_ms : float array;
  misses : int;  (** ANSWERs not served from the cache *)
  miss_cost : int;  (** their summed reductions + retrievals *)
  duration_s : float;
}

let summarize ph =
  let n = ph.sent in
  let by_status = Array.make 5 0 in
  let lat = ref [] and misses = ref 0 and miss_cost = ref 0 in
  for i = n - 1 downto 0 do
    let st = Char.code (Bytes.get ph.status i) in
    by_status.(st) <- by_status.(st) + 1;
    if st = st_ok then lat := ((ph.finish.(i) -. ph.start.(i)) *. 1e-6) :: !lat;
    if (st = st_ok || st = st_wrong) && not ph.cached.(i) then begin
      incr misses;
      miss_cost := !miss_cost + ph.cost.(i)
    end
  done;
  {
    attempted = n;
    ok = by_status.(st_ok);
    wrong = by_status.(st_wrong);
    busy = by_status.(st_busy);
    errs = by_status.(st_err);
    no_reply = by_status.(st_pending);
    latencies_ms = Array.of_list !lat;
    lag_ms = Array.init n (fun i -> ph.lag.(i) *. 1e-6);
    misses = !misses;
    miss_cost = !miss_cost;
    duration_s = (ph.t1 -. ph.t0) *. 1e-9;
  }
