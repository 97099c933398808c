module D = Datalog
open Infgraph

type config = {
  host : string;
  port : int;
  max_conns : int;
  state_dir : string option;
  snapshot_interval : float;
  learner : Core.Learner.kind;
  learner_config : Core.Learner.config;
  cache_mb : int;  (* answer-cache budget; 0 disables caching + memo *)
  subsume : bool;  (* subsumption index + derived hits (needs cache_mb > 0) *)
  metrics_port : int option;  (* /metrics + /healthz HTTP port; 0 = ephemeral *)
  log_level : Obs.Log.level option;  (* None = structured logging off *)
  log_file : string option;  (* None = stderr *)
  slow_query_us : float;  (* 0. = slow retention off *)
  loops : int;  (* event loops in the reactor fleet; 0 = one per core *)
  max_write_buf : int;  (* per-conn write-buffer cap, bytes; 0 = off *)
  max_write_total : int;  (* global write-buffer cap, bytes; 0 = off *)
  idle_timeout_s : float;  (* close idle connections after; 0. = off *)
  max_conns_per_ip : int;  (* accept-time per-IP cap; 0 = off *)
  lifecycle : bool;  (* per-request lifecycle tracking (spans + stages) *)
  flight_capacity : int;  (* per-loop flight-recorder ring; 0 = off *)
}

let default_config =
  {
    host = "127.0.0.1";
    port = 4280;
    max_conns = 10_000;
    state_dir = None;
    snapshot_interval = 0.0;
    learner = `Pib;
    learner_config = Core.Learner.default_config;
    cache_mb = 64;
    subsume = true;
    metrics_port = None;
    log_level = None;
    log_file = None;
    slow_query_us = 0.0;
    loops = 0;
    max_write_buf = 64 * 1024 * 1024;
    max_write_total = 0;
    idle_timeout_s = 0.0;
    max_conns_per_ip = 0;
    lifecycle = true;
    flight_capacity = 4096;
  }

(* Tail-retained traces kept per loop, newest wins. *)
let retain = 64

(* The verdict on one request. [R_lines (lines, multi)] renders as the
   lines (END-terminated when [multi]) on a line connection and as one
   [Ok] frame with the lines joined by '\n' on a v4 connection. *)
type reply =
  | R_lines of string list * bool
  | R_err of Protocol.err_code * string
  | R_bye

(* One event loop of the reactor fleet. Each loop is its own domain
   owning a private {!Eventloop.t} (its own epoll instance and wake
   channel) and a private connection table, and executes every request
   of its connections inline — no [Conn.t] is ever shared between
   loops, so everything here is loop-thread-only apart from the
   acceptor's handoff queue and the retained-trace buffer. *)
type loop_state = {
  lid : int;
  ev : Eventloop.t;
  lh : Metrics.loop_handles;
  (* every connection this loop owns, by id *)
  conns : (int, Conn.t) Hashtbl.t;
  (* acceptor → loop handoff: freshly accepted sockets
     [(fd, peer, ip, id, accept_ns)]. The loop materializes the [Conn.t]
     and registers the fd itself — {!Eventloop.add} is loop-thread-only. *)
  inc_lock : Mutex.t;
  incoming : (Unix.file_descr * string * string * int * int64) Queue.t;
  (* connections owned (including queued handoffs), read by the acceptor
     for two-choice placement and the max-conns cap *)
  n_conns : int Atomic.t;
  mutable draining : bool;
  (* loop-thread timestamp, refreshed once per iteration when the idle
     timeout is on — per-event [Conn.touch] never calls gettimeofday *)
  mutable now : float;
  mutable last_sweep : float;
  (* hashed timer wheel for the idle timeout: each slot holds the
     connections whose deadline falls in a second congruent to it.
     Loop-thread-only. Empty (and never touched) when the timeout is
     off. *)
  wheel : Conn.t list array;
  (* the loop's flight recorder — written only by this loop's thread
     (conn events directly; request events at finalize, replayed from
     the lifecycle record's timestamps), snapshotted by anyone *)
  flight : Obs.Flight.t;
  (* lifecycle records whose response had not drained when it was
     enqueued, as [(byte mark, record, conn)], newest first; finalized
     once the conn's flushed-bytes total reaches the mark (or the conn
     died) *)
  mutable unflushed : (int * Lifecycle.t * Conn.t) list;
  (* tail-retained traces, newest first; written by the loop at
     finalize, read by FLIGHT / /debug/flight from any thread. Inserts
     keep the finalized record and render the span tree lazily at dump
     time: an eager render per insert was measured at ~30 us, paid for
     entries that are mostly evicted unread. *)
  ret_lock : Mutex.t;
  mutable retained : retained_entry list;
  mutable retained_n : int;
}

and retained_entry = {
  re_seq : int;
  re_reason : string;
  re_total_us : float;
  re_lc : Lifecycle.t;  (* immutable once finalized *)
}

type state = {
  cfg : config;
  metrics : Metrics.t;
  registry : Registry.t;
  db : D.Database.t;
  log : Obs.Log.t;
  (* global sequence over retained traces, so `strategem tail` can
     dedupe across loops *)
  retained_seq : int Atomic.t;
  (* at most one retention record per second; the rest are counted *)
  retain_limiter : Obs.Log.Limiter.t;
  conn_seq : int Atomic.t;  (* connection ids, for log correlation *)
  (* acceptor-only rotation for power-of-two-choices placement *)
  accept_rr : int Atomic.t;
  cache : Cache.Answers.t option;
  memo : D.Sld.Memo.t option;
  stopping : bool Atomic.t;
  stop_w : Unix.file_descr;  (* self-pipe: wakes acceptor + snapshotter *)
  (* the reactor fleet, one entry per event loop *)
  loops : loop_state array;
  (* write-buffer budget shared by every connection (per-conn + global
     caps; see {!Conn.limits}) *)
  limits : Conn.limits;
  (* accept-time per-IP counts, shared by acceptor (incr) and loops
     (decr at reap) *)
  ip_lock : Mutex.t;
  ip_counts : (string, int) Hashtbl.t;
  (* requests parsed whose response is not yet enqueued, across all
     loops: the pipeline-depth gauge *)
  inflight_total : int Atomic.t;
}

(* Callable from any loop and from signal handlers, so it must not take
   locks beyond the wake channels: flip the flag and wake the acceptor,
   the snapshotter, and every event loop; they do their own teardown. *)
let initiate_shutdown st =
  if not (Atomic.exchange st.stopping true) then begin
    (try ignore (Unix.write_substring st.stop_w "x" 0 1)
     with Unix.Unix_error _ -> ());
    Array.iter (fun ls -> Eventloop.wake ls.ev) st.loops
  end

let learner_string st =
  Core.Learner.kind_to_string (Registry.learner_kind st.registry)

let result_string = function
  | None -> "no"
  | Some s when D.Subst.is_empty s -> "yes"
  | Some s -> Format.asprintf "%a" D.Subst.pp s

(* The lifecycle record's label: the verb word, plus the atom for the
   query-shaped verbs. *)
let request_label = function
  | Protocol.Query a -> "QUERY " ^ a
  | Protocol.Trace a -> "TRACE " ^ a
  | Protocol.Strategy a -> "STRATEGY " ^ a
  | Protocol.Hello | Protocol.Hello_v4 -> "HELLO"
  | Protocol.Stats -> "STATS"
  | Protocol.Stats_json -> "STATS JSON"
  | Protocol.Snapshot -> "SNAPSHOT"
  | Protocol.Ping -> "PING"
  | Protocol.Help -> "HELP"
  | Protocol.Flight -> "FLIGHT"
  | Protocol.Quit -> "QUIT"
  | Protocol.Shutdown -> "SHUTDOWN"
  | Protocol.Empty -> ""
  | Protocol.Malformed _ -> "(malformed)"
  | Protocol.Unknown v -> v

(* --- response encoding --- *)

let encode_reply ~framed ~rid reply =
  if framed then
    let kind, payload =
      match reply with
      | R_lines (lines, _) -> (Frame.Ok, String.concat "\n" lines)
      | R_err (code, msg) ->
        (Frame.Err, Protocol.err_code_to_string code ^ " " ^ msg)
      | R_bye -> (Frame.Bye, "")
    in
    Frame.encode_string { Frame.id = rid; kind; payload }
  else
    match reply with
    | R_lines (lines, multi) ->
      let b = Buffer.create 64 in
      List.iter
        (fun l ->
          Buffer.add_string b l;
          Buffer.add_char b '\n')
        lines;
      if multi then (
        Buffer.add_string b Protocol.terminator;
        Buffer.add_char b '\n');
      Buffer.contents b
    | R_err (code, msg) -> Protocol.err ~code msg ^ "\n"
    | R_bye -> Protocol.bye ^ "\n"

(* --- request handlers (pure of socket I/O) --- *)

(* Answer [q] through the registry, under a [serve] root span when
   [tracer] is enabled (the TRACE verb), and record the query metrics.
   Returns the answer and its latency (exceptions escape). *)
let answer_traced st ~t0 tracer q =
  let root =
    if Trace.enabled tracer then
      Trace.root tracer ~kind:"serve" (D.Atom.to_string q)
    else Trace.dummy
  in
  let ans =
    Registry.answer ~tracer ~parent:root ?cache:st.cache ?memo:st.memo
      st.registry ~db:st.db q
  in
  Trace.finish tracer root;
  (* lifecycle attribution: which backend answered at what SLD cost,
     and — for TRACE — the exec span tree, grafted under the record's
     worker span at export *)
  (match Lifecycle.current () with
  | Some lc ->
    lc.Lifecycle.lc_backend <-
      (if ans.Core.Live.cached then
         if ans.Core.Live.derived then Lifecycle.B_cache_derived
         else Lifecycle.B_cache
       else Lifecycle.B_sld);
    lc.Lifecycle.lc_reductions <- ans.Core.Live.stats.D.Sld.reductions;
    lc.Lifecycle.lc_retrievals <- ans.Core.Live.stats.D.Sld.retrievals;
    if Trace.enabled tracer then
      lc.Lifecycle.lc_exec <- Trace.root_span tracer
  | None -> ());
  let latency_us = (Unix.gettimeofday () -. t0) *. 1e6 in
  Metrics.query st.metrics
    ~form:(Registry.key_of_form (Registry.form_of_query q))
    ~latency_us
    ~answered:(ans.Core.Live.result <> None)
    ~switched:ans.Core.Live.switched;
  (ans, latency_us)

(* The per-query debug record. Slow requests are logged at finalize,
   with tail retention. *)
let log_query st ~conn ~qid ~latency_us atom_text (ans : Core.Live.answer) =
  if Obs.Log.enabled st.log Obs.Log.Debug then
    Obs.Log.debug st.log "query answered"
      ~fields:
        [
          ("conn", Obs.Log.I conn);
          ("query", Obs.Log.I qid);
          ("q", Obs.Log.S atom_text);
          ("latency_us", Obs.Log.F latency_us);
          ("answered", Obs.Log.B (ans.Core.Live.result <> None));
          ("cached", Obs.Log.B ans.Core.Live.cached);
          ("derived", Obs.Log.B ans.Core.Live.derived);
          ("switched", Obs.Log.B ans.Core.Live.switched);
        ]

(* The paper-cost total of the trace's [exec] spans, checked against the
   cost the learner pipeline recorded — the built-in consistency check on
   the cost model (equal unless the tracer has a bug). *)
let exec_cost_of_trace tracer =
  match Trace.root_span tracer with
  | None -> 0.0
  | Some root ->
    List.fold_left
      (fun acc sp -> acc +. Trace.total_cost sp)
      0.0
      (Trace.find_kind root "exec")

let with_query st atom_text f =
  match D.Parser.parse_atom atom_text with
  | exception D.Parser.Parse_error (msg, _) ->
    Metrics.error st.metrics;
    R_err (`Parse, msg)
  | q -> (
    match f q with
    | exception Build.Not_disjunctive clause ->
      Metrics.error st.metrics;
      R_err
        ( `Unsupported,
          Format.asprintf "cannot serve this form: rule %a is conjunctive"
            D.Clause.pp clause )
    | exception Invalid_argument msg | exception Failure msg ->
      Metrics.error st.metrics;
      R_err (`Internal, msg)
    | reply -> reply)

let handle_query st ~conn ~qid ~t0 atom_text =
  with_query st atom_text (fun q ->
      let ans, latency_us = answer_traced st ~t0 Trace.null q in
      log_query st ~conn ~qid ~latency_us atom_text ans;
      R_lines
        ( [
            Protocol.answer_line ~derived:ans.Core.Live.derived
              ~result:(result_string ans.Core.Live.result)
              ~reductions:ans.Core.Live.stats.D.Sld.reductions
              ~retrievals:ans.Core.Live.stats.D.Sld.retrievals
              ~cached:ans.Core.Live.cached ~switched:ans.Core.Live.switched
              ();
          ],
          false ))

let handle_trace st ~conn ~qid ~t0 atom_text =
  with_query st atom_text (fun q ->
      let tracer = Trace.make () in
      let ans, latency_us = answer_traced st ~t0 tracer q in
      log_query st ~conn ~qid ~latency_us atom_text ans;
      let paper_cost = exec_cost_of_trace tracer in
      let monitor_cost = ans.Core.Live.cost in
      let span_json =
        match Trace.root_span tracer with
        | Some sp -> Trace.to_json sp
        | None -> "{}"
      in
      let reply =
        Printf.sprintf
          "{\"result\":\"%s\",\"reductions\":%d,\"retrievals\":%d,\
           \"cached\":%b,\"derived\":%b,\"switched\":%b,\"paper_cost\":%.17g,\
           \"monitor_cost\":%.17g,\"consistent\":%b,\"span\":%s}"
          (Trace.json_escape (result_string ans.Core.Live.result))
          ans.Core.Live.stats.D.Sld.reductions
          ans.Core.Live.stats.D.Sld.retrievals ans.Core.Live.cached
          ans.Core.Live.derived ans.Core.Live.switched paper_cost monitor_cost
          (Float.abs (paper_cost -. monitor_cost) <= 1e-9)
          span_json
      in
      R_lines ([ Protocol.trace_line reply ], false))

let handle_strategy st atom_text =
  match D.Parser.parse_atom atom_text with
  | exception D.Parser.Parse_error (msg, _) ->
    Metrics.error st.metrics;
    R_err (`Parse, msg)
  | q -> (
    match Registry.find_or_create st.registry q with
    | exception Build.Not_disjunctive _ | exception Invalid_argument _ ->
      Metrics.error st.metrics;
      R_err (`Unsupported, "cannot build a learner for this form")
    | entry ->
      R_lines
        ( [
            Printf.sprintf "OK %s %s" (Registry.key entry)
              (Registry.strategy_string entry);
          ],
          false ))

let save_snapshot st =
  match st.cfg.state_dir with
  | None -> None
  | Some dir ->
    let n = Snapshot.save ~dir st.registry in
    Metrics.snapshot_saved st.metrics ~forms:n;
    Obs.Log.debug st.log "snapshot saved" ~fields:[ ("forms", Obs.Log.I n) ];
    Some n

let handle_snapshot st =
  match save_snapshot st with
  | None ->
    Metrics.error st.metrics;
    R_err (`No_state_dir, "no state directory configured (--state-dir)")
  | Some n -> R_lines ([ Printf.sprintf "OK snapshot saved %d form(s)" n ], false)
  | exception Sys_error msg | exception Failure msg ->
    Metrics.error st.metrics;
    R_err (`Internal, msg)

(* Every loop's retained entries as [(loop, entry)], each loop's newest
   first. *)
let retained_entries st =
  Array.to_list st.loops
  |> List.concat_map (fun ls ->
         Mutex.lock ls.ret_lock;
         let r = ls.retained in
         Mutex.unlock ls.ret_lock;
         List.map (fun e -> (ls.lid, e)) r)

let retained_json (lid, e) =
  Printf.sprintf
    "{\"seq\":%d,\"loop\":%d,\"conn\":%d,\"rid\":%d,\"reason\":\"%s\",\
     \"total_us\":%.0f,\"span\":%s}"
    e.re_seq lid e.re_lc.Lifecycle.lc_conn e.re_lc.Lifecycle.lc_rid e.re_reason
    e.re_total_us
    (Trace.to_json (Lifecycle.to_span e.re_lc))

(* STATS JSON [recent_traces]: every loop's retained entries, oldest
   first by sequence number. *)
let recent_traces st =
  retained_entries st
  |> List.sort (fun (_, a) (_, b) -> compare a.re_seq b.re_seq)
  |> List.map retained_json

(* The flight-recorder dump: every loop's ring (merged, time-ordered)
   plus every loop's tail-retained traces, as one JSON object. Safe from
   any thread — ring snapshots validate sequence stamps, the retained
   buffers take their per-loop locks. Served by the FLIGHT verb, by
   GET /debug/flight, and dumped to stderr on SIGQUIT. *)
let flight_json st =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"version\":1,\"loops\":%d,\"flight_capacity\":%d,\"events\":["
       (Array.length st.loops)
       (Obs.Flight.capacity st.loops.(0).flight));
  let events =
    Array.to_list st.loops
    |> List.concat_map (fun ls -> Obs.Flight.snapshot ls.flight)
    |> List.sort (fun a b ->
           Int64.compare a.Obs.Flight.ev_ts_ns b.Obs.Flight.ev_ts_ns)
  in
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Obs.Flight.event_to_json e))
    events;
  Buffer.add_string buf "],\"retained\":[";
  Buffer.add_string buf
    (String.concat "," (List.map retained_json (retained_entries st)));
  Buffer.add_string buf "]}";
  Buffer.contents buf

(* [rid] is the client's frame id on v4, a per-connection sequence on
   lines; [framed] is captured at parse, so an upgrade never retitles a
   request that preceded it. *)
let process st ~t0 c ~framed ~rid req =
  match req with
  (* never parsed into a request: blank lines are skipped and HELLO V4
     is the connection upgrade *)
  | Protocol.Empty | Protocol.Hello_v4 -> R_lines ([], false)
  | Protocol.Hello ->
    let version = if framed then Frame.version else Protocol.version in
    R_lines ([ Protocol.hello_line ~version ~learner:(learner_string st) () ], false)
  | Protocol.Ping -> R_lines ([ Protocol.pong ], false)
  | Protocol.Help -> R_lines (Protocol.help_lines, true)
  | Protocol.Stats -> R_lines (Metrics.render_text st.metrics, true)
  | Protocol.Stats_json -> R_lines ([ Metrics.render_json st.metrics ], false)
  | Protocol.Query atom -> handle_query st ~conn:(Conn.id c) ~qid:rid ~t0 atom
  | Protocol.Trace atom -> handle_trace st ~conn:(Conn.id c) ~qid:rid ~t0 atom
  | Protocol.Strategy atom -> handle_strategy st atom
  | Protocol.Flight -> R_lines ([ flight_json st ], false)
  | Protocol.Snapshot -> handle_snapshot st
  | Protocol.Quit -> R_bye
  | Protocol.Shutdown -> R_bye
  | Protocol.Malformed msg ->
    Metrics.error st.metrics;
    R_err (`Malformed, msg)
  | Protocol.Unknown verb ->
    Metrics.error st.metrics;
    R_err (`Unknown_verb, verb)

(* --- reactor (loop thread) --- *)

let request_of_frame (f : Frame.t) =
  let no_arg req =
    if f.Frame.payload = "" then req
    else Protocol.Malformed (Frame.kind_name f.Frame.kind ^ " takes no argument")
  in
  let atom mk =
    if f.Frame.payload = "" then
      Protocol.Malformed (Frame.kind_name f.Frame.kind ^ " needs an atom")
    else mk f.Frame.payload
  in
  match f.Frame.kind with
  | Frame.Hello -> no_arg Protocol.Hello
  | Frame.Query -> atom (fun a -> Protocol.Query a)
  | Frame.Trace -> atom (fun a -> Protocol.Trace a)
  | Frame.Strategy -> atom (fun a -> Protocol.Strategy a)
  | Frame.Stats -> no_arg Protocol.Stats
  | Frame.Stats_json -> no_arg Protocol.Stats_json
  | Frame.Snapshot -> no_arg Protocol.Snapshot
  | Frame.Ping -> no_arg Protocol.Ping
  | Frame.Help -> no_arg Protocol.Help
  | Frame.Flight -> no_arg Protocol.Flight
  | Frame.Quit -> no_arg Protocol.Quit
  | Frame.Shutdown -> no_arg Protocol.Shutdown
  | Frame.Ok | Frame.Err | Frame.Busy | Frame.Bye ->
    Protocol.Malformed
      ("unexpected response frame " ^ Frame.kind_name f.Frame.kind)
  | Frame.Unknown c -> Protocol.Unknown (Printf.sprintf "0x%02X" c)

(* Release one accept-time per-IP slot (loop thread, at reap). *)
let release_ip st ip =
  if st.cfg.max_conns_per_ip > 0 then begin
    Mutex.lock st.ip_lock;
    (match Hashtbl.find_opt st.ip_counts ip with
    | Some n when n > 1 -> Hashtbl.replace st.ip_counts ip (n - 1)
    | Some _ -> Hashtbl.remove st.ip_counts ip
    | None -> ());
    Mutex.unlock st.ip_lock
  end

let reap st ls c =
  if Hashtbl.mem ls.conns (Conn.id c) then begin
    Hashtbl.remove ls.conns (Conn.id c);
    Eventloop.remove ls.ev (Conn.fd c);
    Obs.Flight.record ls.flight ~ts_ns:(Lifecycle.now_ns ())
      ~code:Obs.Flight.code_close ~loop:ls.lid ~conn:(Conn.id c) ~rid:0
      ~a:(if Conn.dead c then 1L else 0L)
      ~b:0L;
    Conn.kill c;
    (try Unix.close (Conn.fd c) with Unix.Unix_error _ -> ());
    ignore (Atomic.fetch_and_add ls.n_conns (-1));
    (* the overflow counters bump exactly once, here: [overflowed] is
       sticky and a shed connection reaches reap exactly once *)
    if Conn.overflowed c then
      Metrics.write_overflow st.metrics ~shed_bytes:(Conn.take_shed_bytes c);
    release_ip st (Conn.ip c);
    Metrics.conn_closed st.metrics;
    Metrics.loop_conn_closed ls.lh;
    if Obs.Log.enabled st.log Obs.Log.Debug then
      Obs.Log.debug st.log "connection closed"
        ~fields:[ ("conn", Obs.Log.I (Conn.id c)); ("loop", Obs.Log.I ls.lid) ]
  end

(* Flow control: a connection with unflushed output is not read, so TCP
   slows a client that does not read its replies instead of the server
   buffering or shedding them. Reading resumes once the output drains. *)
let update_interest st ls c =
  let out = Conn.has_output c in
  let read =
    (not out)
    && (not (Conn.read_closed c))
    && (not (Conn.closing c))
    && not (Atomic.get st.stopping)
  in
  Eventloop.modify ls.ev (Conn.fd c) ~read ~write:out

(* The per-connection maintenance step, run after every socket event and
   once more when the drain starts: flush pending output, close when
   drained, otherwise re-arm interest. Idempotent. *)
let service st ls c =
  if Conn.dead c then reap st ls c
  else if Conn.overflowed c then begin
    (* write cap breached: one best-effort flush of the BUSY notice,
       then disconnect — a reader that never drains costs one buffer,
       not the server's memory *)
    ignore (Conn.flush c);
    reap st ls c
  end
  else begin
    ignore (Conn.flush c);
    if Conn.dead c then reap st ls c
    else if
      (not (Conn.has_output c))
      && (Conn.closing c || Conn.read_closed c || Atomic.get st.stopping)
    then reap st ls c
    else update_interest st ls c
  end

(* --- lifecycle finalize (loop thread) --- *)

(* Keep the newest [n] of a newest-first list. *)
let rec take n = function
  | [] -> []
  | _ when n <= 0 -> []
  | x :: tl -> x :: take (n - 1) tl

(* Finalize one request's lifecycle record: replay its stamps into the
   loop's flight ring (single-writer: only this loop's thread runs
   this), feed the per-stage latency histograms, and apply tail-based
   retention — the full span tree is kept only for slow / error
   requests. *)
let finalize_lc st ls (lc : Lifecycle.t) =
  let open Lifecycle in
  let ev code ts a b =
    if not (Int64.equal ts 0L) then
      Obs.Flight.record ls.flight ~ts_ns:ts ~code ~loop:ls.lid
        ~conn:lc.lc_conn ~rid:lc.lc_rid ~a ~b
  in
  let total = total_ns lc in
  ev Obs.Flight.code_request lc.lc_frame_ns 0L 0L;
  ev Obs.Flight.code_enqueue lc.lc_queue_ns 0L 0L;
  ev Obs.Flight.code_worker lc.lc_worker_ns 0L (Int64.of_int lc.lc_page_wait_ns);
  ev Obs.Flight.code_respond lc.lc_respond_ns
    (if lc.lc_error then 1L else 0L)
    0L;
  ev Obs.Flight.code_flush lc.lc_flush_ns total 0L;
  let stage_us from till =
    if Int64.equal from 0L || Int64.equal till 0L then None
    else Some (Int64.to_float (Int64.max 0L (Int64.sub till from)) /. 1e3)
  in
  let obs stage v =
    Option.iter (fun v -> Metrics.observe_stage ls.lh ~stage v) v
  in
  obs "frame" (stage_us lc.lc_frame_ns lc.lc_queue_ns);
  obs "queue" (stage_us lc.lc_queue_ns lc.lc_worker_ns);
  obs "worker" (stage_us lc.lc_worker_ns lc.lc_respond_ns);
  obs "flush" (stage_us lc.lc_respond_ns lc.lc_flush_ns);
  Metrics.observe_stage ls.lh ~stage:"total" (Int64.to_float total /. 1e3);
  if lc.lc_page_reads > 0 then
    Metrics.observe_stage ls.lh ~stage:"page_read"
      (float_of_int lc.lc_page_wait_ns /. 1e3);
  Metrics.lifecycle_finalized st.metrics;
  (* tail-based retention, the one place a slow or failed request is
     counted, kept and logged *)
  let total_us = Int64.to_float total /. 1e3 in
  let reason =
    if lc.lc_error then Some "error"
    else if st.cfg.slow_query_us > 0.0 && total_us >= st.cfg.slow_query_us
    then Some "slow"
    else None
  in
  match reason with
  | None -> ()
  | Some reason ->
    let seq = Atomic.fetch_and_add st.retained_seq 1 in
    let entry =
      { re_seq = seq; re_reason = reason; re_total_us = total_us; re_lc = lc }
    in
    Mutex.lock ls.ret_lock;
    ls.retained <- entry :: ls.retained;
    ls.retained_n <- ls.retained_n + 1;
    if ls.retained_n > retain then begin
      ls.retained <- take retain ls.retained;
      ls.retained_n <- retain
    end;
    Mutex.unlock ls.ret_lock;
    Metrics.trace_retained st.metrics ls.lh ~reason ~seq;
    (* one rate-limited record per admission: the request's span tree
       and the loop's recent ring events, rendered only when admitted *)
    if Obs.Log.enabled st.log Obs.Log.Warn then
      match
        Obs.Log.Limiter.admit st.retain_limiter ~now:(Unix.gettimeofday ())
      with
      | None -> ()
      | Some suppressed ->
        let events = Obs.Flight.snapshot ls.flight in
        let tail =
          take 16 (List.rev events) |> List.rev
          |> List.map Obs.Flight.event_to_json
        in
        Obs.Log.warn st.log "request trace retained"
          ~fields:
            [
              ("reason", Obs.Log.S reason);
              ("request", Obs.Log.S lc.lc_label);
              ("loop", Obs.Log.I ls.lid);
              ("conn", Obs.Log.I lc.lc_conn);
              ("rid", Obs.Log.I lc.lc_rid);
              ("total_us", Obs.Log.F total_us);
              ("threshold_us", Obs.Log.F st.cfg.slow_query_us);
              ("retained_seq", Obs.Log.I seq);
              ("suppressed", Obs.Log.I suppressed);
              ("reductions", Obs.Log.I lc.lc_reductions);
              ("retrievals", Obs.Log.I lc.lc_retrievals);
              ("span", Obs.Log.J (Trace.to_json (to_span lc)));
              ("events", Obs.Log.J ("[" ^ String.concat "," tail ^ "]"));
            ]

(* Finalize [lc] once its response has drained to the socket — bytes up
   to [mark] flushed — or its connection died trying; [false] while the
   bytes are still buffered. Drained-first: a response fully flushed
   before the connection closed (QUIT, BYE) is a success, not an
   error. *)
let try_finalize st ls ~mark lc c =
  if Conn.flushed_bytes c >= mark then begin
    lc.Lifecycle.lc_flush_ns <- Lifecycle.now_ns ();
    finalize_lc st ls lc;
    true
  end
  else if Conn.dead c || Conn.overflowed c then begin
    lc.Lifecycle.lc_error <- true;
    finalize_lc st ls lc;
    true
  end
  else false

(* Finalize every parked record whose response has since drained.
   Oldest first, so ring order matches completion order. *)
let finalize_pass st ls =
  if ls.unflushed <> [] then begin
    let pend = List.rev ls.unflushed in
    ls.unflushed <- [];
    ls.unflushed <-
      List.rev
        (List.filter
           (fun (mark, lc, c) -> not (try_finalize st ls ~mark lc c))
           pend)
  end

(* --- inline execution (loop thread) --- *)

(* Enqueue the encoded response and try to flush it at once; its
   lifecycle record is finalized now if the bytes drained, or parked
   until they do. *)
let respond st ls c ~framed ~rid lc reply =
  (match lc with
  | Some l ->
    l.Lifecycle.lc_respond_ns <- Lifecycle.now_ns ();
    (match reply with R_err _ -> l.Lifecycle.lc_error <- true | _ -> ())
  | None -> ());
  let mark = Conn.send_mark c (encode_reply ~framed ~rid reply) in
  (match reply with R_bye -> Conn.set_closing c | _ -> ());
  ignore (Conn.flush c);
  match lc with
  | Some l when not (try_finalize st ls ~mark l c) ->
    ls.unflushed <- (mark, l, c) :: ls.unflushed
  | _ -> ()

(* Run one request to completion on the loop that owns its connection.
   The lifecycle record is born here, from the read and parse stamps
   taken before the read's earlier requests ran, and is exposed
   ambiently while the request executes so page faults land on it. *)
let execute st ls c ~read_ns ~parse_ns ~framed ~rid req =
  let lc =
    if st.cfg.lifecycle then begin
      let l =
        Lifecycle.create ~conn:(Conn.id c) ~rid ~loop:ls.lid ~framed
          ~label:(request_label req) ~accept_ns:(Conn.accept_ns c)
          ~frame_ns:read_ns
      in
      l.Lifecycle.lc_queue_ns <- parse_ns;
      l.Lifecycle.lc_worker_ns <- Lifecycle.now_ns ();
      Some l
    end
    else None
  in
  if lc <> None then Lifecycle.set_current lc;
  let t0 = Unix.gettimeofday () in
  let reply =
    try process st ~t0 c ~framed ~rid req
    with exn ->
      Metrics.error st.metrics;
      Obs.Log.error st.log "request handler crashed"
        ~fields:
          [
            ("conn", Obs.Log.I (Conn.id c));
            ("exn", Obs.Log.S (Printexc.to_string exn));
          ];
      R_err (`Internal, Printexc.to_string exn)
  in
  if lc <> None then Lifecycle.set_current None;
  respond st ls c ~framed ~rid lc reply;
  if req = Protocol.Shutdown then initiate_shutdown st;
  Metrics.domain_served ls.lh ~busy_us:((Unix.gettimeofday () -. t0) *. 1e6)

let run_one st ls c ~read_ns (inc, parse_ns) =
  match inc with
  | Conn.Line_req req ->
    execute st ls c ~read_ns ~parse_ns ~framed:false ~rid:(Conn.next_rid c)
      req
  | Conn.Frame_req f ->
    execute st ls c ~read_ns ~parse_ns ~framed:true ~rid:f.Frame.id
      (request_of_frame f)
  | Conn.Upgrade ->
    (* acknowledged on the line dialect before any response to frames
       that followed the upgrade in the same read *)
    Conn.send c
      (Protocol.hello_line ~version:Frame.version
         ~learner:(learner_string st) ()
      ^ "\n")
  | Conn.Junk msg ->
    Metrics.error st.metrics;
    if Conn.framed c then
      Conn.send c
        (Frame.encode_string
           { Frame.id = 0; kind = Frame.Err; payload = "malformed " ^ msg })
    else Conn.send c (Protocol.err ~code:`Malformed msg ^ "\n");
    Conn.set_closing c

(* Execute a read's requests in arrival order. The whole batch counts as
   in flight for the pipeline gauges while it runs. Requests behind a
   BYE, a protocol error or a write-cap overflow on the same connection
   are dropped, like the bytes after them. *)
let run_batch st ls c ~read_ns batch =
  let n = List.length batch in
  if n > 0 then begin
    Metrics.set_pipeline_depth st.metrics
      (Atomic.fetch_and_add st.inflight_total n + n);
    Metrics.set_loop_pipeline_depth ls.lh n;
    List.iter
      (fun item ->
        if not (Conn.closing c || Conn.dead c) then
          run_one st ls c ~read_ns item)
      batch;
    Metrics.set_pipeline_depth st.metrics
      (Atomic.fetch_and_add st.inflight_total (-n) - n);
    Metrics.set_loop_pipeline_depth ls.lh 0
  end

(* A readable socket: parse every complete request in the read, then
   execute them in order. *)
let on_conn_event st ls c ~readable ~writable:_ =
  (if
     readable && (not (Conn.read_closed c)) && (not (Conn.closing c))
     && not (Conn.dead c)
   then begin
     if st.cfg.idle_timeout_s > 0.0 then Conn.touch c ~now:ls.now;
     let stamp () = if st.cfg.lifecycle then Lifecycle.now_ns () else 0L in
     let read_ns = stamp () in
     let batch = ref [] in
     let emit = function
       | Conn.Line_req Protocol.Empty -> ()  (* blank lines never execute *)
       | inc -> batch := (inc, stamp ()) :: !batch
     in
     (match Conn.on_readable c ~emit with
     | Conn.Continue -> ()
     | Conn.Eof ->
       (* honor a final unterminated line, like the blocking server's
          [input_line] did *)
       Conn.finish_read c ~emit;
       Conn.set_read_closed c
     | Conn.Rerror msg ->
       if Obs.Log.enabled st.log Obs.Log.Debug then
         Obs.Log.debug st.log "connection read error"
           ~fields:
             [ ("conn", Obs.Log.I (Conn.id c)); ("error", Obs.Log.S msg) ];
       Conn.kill c);
     run_batch st ls c ~read_ns (List.rev !batch)
   end);
  service st ls c

(* --- the loop fleet (one domain per loop) --- *)

(* The idle-timeout wheel's circumference, in one-second buckets. A
   timeout longer than the circumference only means a connection's slot
   comes due before its deadline — the lazy re-bucket below reinserts
   it; correctness never depends on the size. *)
let wheel_slots = 256

(* Bucket [c] by the second of [at], clamped into the future so a
   connection is never filed under a second the sweep has already
   passed (it would then wait a full lap to be seen again). *)
let wheel_insert ls ~at c =
  let s = max (int_of_float at) (int_of_float ls.now + 1) in
  let slot = s mod wheel_slots in
  ls.wheel.(slot) <- c :: ls.wheel.(slot)

(* Adopt sockets the acceptor handed over: materialize the [Conn.t] and
   register the fd, both loop-thread-only operations. *)
let adopt_incoming st ls =
  let batch =
    Mutex.lock ls.inc_lock;
    let rec go acc =
      match Queue.take_opt ls.incoming with
      | None -> List.rev acc
      | Some x -> go (x :: acc)
    in
    let b = go [] in
    Mutex.unlock ls.inc_lock;
    b
  in
  List.iter
    (fun (fd, peer, ip, id, accept_ns) ->
      let c = Conn.create ~accept_ns ~id ~peer ~ip ~limits:st.limits fd in
      if st.cfg.idle_timeout_s > 0.0 then begin
        Conn.touch c ~now:ls.now;
        wheel_insert ls ~at:(ls.now +. st.cfg.idle_timeout_s) c
      end;
      Hashtbl.replace ls.conns id c;
      Obs.Flight.record ls.flight ~ts_ns:accept_ns
        ~code:Obs.Flight.code_accept ~loop:ls.lid ~conn:id ~rid:0
        ~a:(Int64.of_int ls.lid) ~b:0L;
      Metrics.loop_conn_opened ls.lh;
      Eventloop.add ls.ev fd ~read:true ~write:false
        (fun ~readable ~writable -> on_conn_event st ls c ~readable ~writable);
      if Obs.Log.enabled st.log Obs.Log.Debug then
        Obs.Log.debug st.log "connection accepted"
          ~fields:
            [
              ("conn", Obs.Log.I id);
              ("loop", Obs.Log.I ls.lid);
              ("peer", Obs.Log.S peer);
              ("loop_conns", Obs.Log.I (Hashtbl.length ls.conns));
            ];
      (* a straggler adopted mid-drain is serviced (and so closed once
         idle) immediately *)
      if Atomic.get st.stopping then service st ls c)
    batch

(* Close connections with no traffic for [idle_timeout_s], via the
   hashed timer wheel: a connection is bucketed by its deadline second
   at adopt and re-bucketed lazily when its slot comes due —
   [Conn.touch] never moves it, so servicing traffic costs nothing
   here, and each sweep walks only the buckets whose second has passed
   since the last one: O(due + expired) work, not a full O(open
   connections) table scan per second per loop. A connection that was
   touched since filing is simply re-filed at its new deadline when its
   old bucket drains; one already reaped (the entry no longer in the
   conn table) is dropped. Zero cost when the timeout is off. *)
let idle_sweep st ls =
  let timeout = st.cfg.idle_timeout_s in
  if timeout > 0.0 && ls.now -. ls.last_sweep >= 1.0 then begin
    let now_s = int_of_float ls.now in
    let first =
      (* after a stall longer than the circumference, one lap covers
         every bucket — never reprocess a slot within one sweep *)
      max (int_of_float ls.last_sweep + 1) (now_s - wheel_slots + 1)
    in
    ls.last_sweep <- ls.now;
    for s = first to now_s do
      let slot = s mod wheel_slots in
      let due = ls.wheel.(slot) in
      ls.wheel.(slot) <- [];
      List.iter
        (fun c ->
          if Hashtbl.mem ls.conns (Conn.id c) then begin
            let deadline = Conn.last_active c +. timeout in
            if deadline > ls.now then wheel_insert ls ~at:deadline c
            else begin
              Metrics.idle_closed st.metrics;
              if Obs.Log.enabled st.log Obs.Log.Debug then
                Obs.Log.debug st.log "connection closed: idle timeout"
                  ~fields:
                    [
                      ("conn", Obs.Log.I (Conn.id c));
                      ("loop", Obs.Log.I ls.lid);
                      ("idle_timeout_s", Obs.Log.F timeout);
                    ];
              Conn.kill c;
              reap st ls c
            end
          end)
        due
    done
  end

(* The loop's post-poll hook, run once per iteration: adopt handoffs,
   start the drain once stopping flips, finalize records whose responses
   drained, sweep for idle connections, refresh this loop's metric
   series. *)
let loop_tick st ls =
  if st.cfg.idle_timeout_s > 0.0 then ls.now <- Unix.gettimeofday ();
  adopt_incoming st ls;
  if Atomic.get st.stopping && not ls.draining then begin
    ls.draining <- true;
    Hashtbl.fold (fun _ c acc -> c :: acc) ls.conns []
    |> List.iter (service st ls)
  end;
  finalize_pass st ls;
  idle_sweep st ls;
  Metrics.set_loop_wakeups ls.lh (Eventloop.wakeups ls.ev)

let incoming_empty ls =
  Mutex.lock ls.inc_lock;
  let e = Queue.is_empty ls.incoming in
  Mutex.unlock ls.inc_lock;
  e

(* A loop domain's whole life: poll until told to stop and fully
   drained. The loop's [Eventloop.t] stays open after exit — a late
   wake from the acceptor or a peer loop's SHUTDOWN must hit a live
   eventfd, not a recycled descriptor — and is closed by the main
   thread once every domain has joined. *)
let loop_main st ls =
  Eventloop.on_wake ls.ev (fun () -> loop_tick st ls);
  Eventloop.run ls.ev ~stop:(fun () ->
      Atomic.get st.stopping
      && Hashtbl.length ls.conns = 0
      && incoming_empty ls);
  (* belt and braces for exceptional exits: release any survivors *)
  Hashtbl.iter
    (fun _ c ->
      Eventloop.remove ls.ev (Conn.fd c);
      Conn.kill c;
      try Unix.close (Conn.fd c) with Unix.Unix_error _ -> ())
    ls.conns;
  Hashtbl.reset ls.conns

(* --- acceptor (main thread) --- *)

let shed fd =
  let line = Protocol.busy ^ "\n" in
  (try ignore (Unix.write_substring fd line 0 (String.length line))
   with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let string_of_sockaddr = function
  | Unix.ADDR_INET (a, p) ->
    Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p
  | Unix.ADDR_UNIX p -> p

let ip_of_sockaddr = function
  | Unix.ADDR_INET (a, _) -> Unix.string_of_inet_addr a
  | Unix.ADDR_UNIX p -> p

(* Power-of-two-choices placement: probe two loops picked by a rotating
   counter and take the one owning fewer connections. Two probes get
   within a constant factor of a full least-connections scan's balance
   at O(1) cost (Mitzenmacher's classic result). Ties break to the lower
   loop id and the rotation is deterministic, so four connections
   against an idle two-loop fleet land 2/2. *)
let pick_loop st =
  let n = Array.length st.loops in
  if n = 1 then st.loops.(0)
  else begin
    let r = Atomic.fetch_and_add st.accept_rr 1 in
    let a = st.loops.(r mod n) and b = st.loops.((r + 1) mod n) in
    let load ls = (Atomic.get ls.n_conns, ls.lid) in
    if load a <= load b then a else b
  end

let total_conns st =
  Array.fold_left (fun acc ls -> acc + Atomic.get ls.n_conns) 0 st.loops

(* Claim a per-IP slot; the matching release happens at reap. *)
let try_admit_ip st ip =
  let cap = st.cfg.max_conns_per_ip in
  cap = 0
  ||
  (Mutex.lock st.ip_lock;
   let n = Option.value ~default:0 (Hashtbl.find_opt st.ip_counts ip) in
   let ok = n < cap in
   if ok then Hashtbl.replace st.ip_counts ip (n + 1);
   Mutex.unlock st.ip_lock;
   ok)

let accept_burst st sock =
  let rec go () =
    match Unix.accept ~cloexec:true sock with
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> ()
    | fd, addr ->
      let id = Atomic.fetch_and_add st.conn_seq 1 in
      let ip = ip_of_sockaddr addr in
      if total_conns st >= st.cfg.max_conns then begin
        Metrics.busy st.metrics;
        shed fd;
        Obs.Log.warn st.log "connection shed: at max-conns"
          ~fields:
            [
              ("conn", Obs.Log.I id);
              ("max_conns", Obs.Log.I st.cfg.max_conns);
            ]
      end
      else if not (try_admit_ip st ip) then begin
        Metrics.ip_limited st.metrics;
        Metrics.busy st.metrics;
        shed fd;
        Obs.Log.warn st.log "connection shed: per-ip cap"
          ~fields:
            [
              ("conn", Obs.Log.I id);
              ("ip", Obs.Log.S ip);
              ("max_conns_per_ip", Obs.Log.I st.cfg.max_conns_per_ip);
            ]
      end
      else begin
        Unix.set_nonblock fd;
        (try Unix.setsockopt fd Unix.TCP_NODELAY true
         with Unix.Unix_error _ -> ());
        let ls = pick_loop st in
        ignore (Atomic.fetch_and_add ls.n_conns 1);
        Mutex.lock ls.inc_lock;
        Queue.push
          (fd, string_of_sockaddr addr, ip, id, Lifecycle.now_ns ())
          ls.incoming;
        Mutex.unlock ls.inc_lock;
        Metrics.connection st.metrics;
        Metrics.conn_opened st.metrics;
        Eventloop.wake ls.ev
      end;
      go ()
  in
  go ()

(* The dedicated acceptor: a two-fd select needs no reactor of its own.
   [stop_r] becomes readable the moment {!initiate_shutdown} writes its
   never-drained byte, so shutdown never waits out a poll interval. *)
let acceptor st sock stop_r =
  let rec go () =
    if not (Atomic.get st.stopping) then begin
      (match Unix.select [ sock; stop_r ] [] [] (-1.0) with
      | ready, _, _ -> if List.memq sock ready then accept_burst st sock
      | exception Unix.Unix_error (EINTR, _, _) -> ());
      go ()
    end
  in
  go ()

(* Sleep the full interval in one timed wait on the shutdown self-pipe
   (the stdlib has no timed [Condition] wait; a [select] with a timeout
   on [stop_r] has the same semantics — it returns early the moment
   [initiate_shutdown] writes its wake-up byte, which is never drained).
   An idle daemon therefore wakes once per interval instead of 5×/s,
   and drain never waits out a residual sleep. *)
let snapshot_loop st stop_r =
  let interval = st.cfg.snapshot_interval in
  let rec go deadline =
    if not (Atomic.get st.stopping) then begin
      let remaining = deadline -. Unix.gettimeofday () in
      if remaining > 0.0 then begin
        (match Unix.select [ stop_r ] [] [] remaining with
        | _ -> ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
        go deadline
      end
      else begin
        (try ignore (save_snapshot st) with _ -> ());
        go (Unix.gettimeofday () +. interval)
      end
    end
  in
  go (Unix.gettimeofday () +. interval)

let default_loops () = Int.max 1 (Domain.recommended_domain_count ())

let run ?(handle_signals = false) ?(on_listen = fun _ -> ())
    ?(on_metrics_listen = fun _ -> ()) cfg ~rulebase ~db =
  if cfg.max_conns < 1 then invalid_arg "Server.run: max_conns must be >= 1";
  if cfg.loops < 0 then invalid_arg "Server.run: loops must be >= 0";
  if cfg.max_write_buf < 0 || cfg.max_write_total < 0 then
    invalid_arg "Server.run: write-buffer caps must be >= 0";
  if cfg.idle_timeout_s < 0.0 then
    invalid_arg "Server.run: idle_timeout_s must be >= 0";
  if cfg.max_conns_per_ip < 0 then
    invalid_arg "Server.run: max_conns_per_ip must be >= 0";
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ | Sys_error _ -> ());
  let log =
    match cfg.log_level with
    | None -> Obs.Log.null
    | Some level -> (
      match cfg.log_file with
      | Some path -> Obs.Log.open_file ~level path
      | None -> Obs.Log.to_channel ~level stderr)
  in
  if cfg.log_level <> None then Obs.Log.install_logs_reporter log;
  let metrics = Metrics.create () in
  let registry =
    Registry.create ~learner:cfg.learner ~config:cfg.learner_config ~rulebase
      metrics
  in
  (match cfg.state_dir with
  | Some dir ->
    let n = Snapshot.load ~dir registry in
    if n > 0 then begin
      Metrics.forms_loaded metrics n;
      Registry.publish_strategies registry;
      Obs.Log.info log "strategies restored from snapshots"
        ~fields:[ ("forms", Obs.Log.I n) ]
    end
  | None -> ());
  let stop_r, stop_w = Unix.pipe () in
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  (* The fleet: one event loop per core unless pinned by --loops. Each
     loop is a domain with a private epoll instance and wake channel,
     and executes its connections' requests inline. *)
  let n_loops = if cfg.loops = 0 then default_loops () else cfg.loops in
  let fleet =
    Array.init n_loops (fun lid ->
        {
          lid;
          ev = Eventloop.create ();
          lh = Metrics.loop_handles metrics ~loop:lid;
          conns = Hashtbl.create 64;
          inc_lock = Mutex.create ();
          incoming = Queue.create ();
          n_conns = Atomic.make 0;
          draining = false;
          now = 0.0;
          last_sweep = 0.0;
          wheel = Array.make wheel_slots [];
          flight = Obs.Flight.create ~capacity:cfg.flight_capacity;
          unflushed = [];
          ret_lock = Mutex.create ();
          retained = [];
          retained_n = 0;
        })
  in
  let cache =
    if cfg.cache_mb > 0 then
      Some
        (Cache.Answers.create ~subsume:cfg.subsume
           ~capacity_bytes:(cfg.cache_mb * 1024 * 1024) ())
    else None
  in
  let memo = if cfg.cache_mb > 0 then Some (D.Sld.Memo.create ()) else None in
  let st =
    {
      cfg;
      metrics;
      registry;
      db;
      log;
      retained_seq = Atomic.make 0;
      retain_limiter = Obs.Log.Limiter.create ~min_interval_s:1.0;
      conn_seq = Atomic.make 1;
      accept_rr = Atomic.make 0;
      cache;
      memo;
      stopping = Atomic.make false;
      stop_w;
      loops = fleet;
      limits =
        Conn.limits ~max_buf:cfg.max_write_buf ~global_max:cfg.max_write_total
          ();
      ip_lock = Mutex.create ();
      ip_counts = Hashtbl.create 16;
      inflight_total = Atomic.make 0;
    }
  in
  (* Page-fault attribution: while a loop executes a request, the
     buffer-pool page faults it causes are charged to the ambient
     lifecycle record. The observer is process-global, cleared on the
     way out. *)
  if cfg.lifecycle then
    Store.Hooks.install (fun ns ->
        Option.iter (fun lc -> Lifecycle.add_page_wait lc ns)
          (Lifecycle.current ()));
  Metrics.attach metrics ~loops:n_loops
    ~backend:(Eventloop.backend fleet.(0).ev)
    ~db ~cache ~memo
    ~retained:(fun () -> recent_traces st);
  (* The metrics responder is created inside the protected body (after
     the main socket binds, so a busy serve port can't leak it) but must
     be torn down on any exit path, hence the ref. *)
  let http = ref None in
  (* The listener closes at drain start (so clients see refusals, not
     hangs) but also on every exceptional path; the ref keeps the close
     single-shot — a second close of a recycled fd number would hit an
     innocent bystander. *)
  let sock_open = ref true in
  let close_sock () =
    if !sock_open then begin
      sock_open := false;
      try Unix.close sock with Unix.Unix_error _ -> ()
    end
  in
  Fun.protect
    ~finally:(fun () ->
      if cfg.lifecycle then Store.Hooks.clear ();
      Option.iter (fun h -> try Obs.Http.stop h with _ -> ()) !http;
      (* loops have joined (or never started) by now: their eventloops
         are closed here, centrally, so a late wake can never hit a
         recycled descriptor *)
      Array.iter (fun ls -> Eventloop.close ls.ev) fleet;
      close_sock ();
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        [ stop_r; stop_w ];
      Obs.Log.close log)
    (fun () ->
      Unix.setsockopt sock Unix.SO_REUSEADDR true;
      Unix.bind sock
        (Unix.ADDR_INET (Unix.inet_addr_of_string cfg.host, cfg.port));
      Unix.listen sock 256;
      Unix.set_nonblock sock;
      let port =
        match Unix.getsockname sock with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> assert false
      in
      if handle_signals then begin
        List.iter
          (fun s ->
            try
              Sys.set_signal s
                (Sys.Signal_handle (fun _ -> initiate_shutdown st))
            with Invalid_argument _ | Sys_error _ -> ())
          [ Sys.sigint; Sys.sigterm ];
        (* SIGQUIT: dump the flight recorder to stderr and keep serving
           — the operator's "what is this fleet doing right now" *)
        try
          Sys.set_signal Sys.sigquit
            (Sys.Signal_handle (fun _ -> prerr_endline (flight_json st)))
        with Invalid_argument _ | Sys_error _ -> ()
      end;
      (match cfg.metrics_port with
      | None -> ()
      | Some mp ->
        let handler ~meth:_ ~path =
          match path with
          | "/metrics" ->
            Some
              {
                Obs.Http.status = 200;
                content_type = "text/plain; version=0.0.4; charset=utf-8";
                body = Metrics.render_prometheus metrics;
              }
          | "/healthz" ->
            Some
              (if Atomic.get st.stopping then Obs.Http.text 503 "draining\n"
               else Obs.Http.text 200 "ready\n")
          | "/debug/flight" ->
            Some
              {
                Obs.Http.status = 200;
                content_type = "application/json";
                body = flight_json st;
              }
          | _ -> None
        in
        let h = Obs.Http.start ~host:cfg.host ~port:mp ~handler () in
        http := Some h;
        on_metrics_listen (Obs.Http.port h));
      let snapshotter =
        if cfg.snapshot_interval > 0.0 && cfg.state_dir <> None then
          Some (Thread.create (fun () -> snapshot_loop st stop_r) ())
        else None
      in
      (* Spawn the fleet: one domain per event loop. *)
      let loop_domains =
        Array.map (fun ls -> Domain.spawn (fun () -> loop_main st ls)) fleet
      in
      on_listen port;
      Obs.Log.info log "accepting connections"
        ~fields:
          [
            ("host", Obs.Log.S cfg.host);
            ("port", Obs.Log.I port);
            ("backend", Obs.Log.S (Eventloop.backend fleet.(0).ev));
            ("loops", Obs.Log.I n_loops);
            ("max_conns", Obs.Log.I cfg.max_conns);
            ( "learner",
              Obs.Log.S (Core.Learner.kind_to_string cfg.learner) );
            ( "metrics_port",
              match !http with
              | Some h -> Obs.Log.I (Obs.Http.port h)
              | None -> Obs.Log.J "null" );
          ];
      (* The main thread is the dedicated acceptor until shutdown. *)
      acceptor st sock stop_r;
      (* Drain: stop accepting and wake every loop so each finishes the
         requests it has parsed and flushes its own connections. The
         metrics responder stays up through the drain so /healthz
         reports "draining" to probes. *)
      Obs.Log.info log "shutdown initiated: draining"
        ~fields:[ ("conns_open", Obs.Log.I (total_conns st)) ];
      close_sock ();
      Array.iter (fun ls -> Eventloop.wake ls.ev) fleet;
      Array.iter Domain.join loop_domains;
      Option.iter Thread.join snapshotter;
      (try ignore (save_snapshot st) with _ -> ());
      Obs.Log.info log "server stopped"
        ~fields:
          [
            ("queries_total", Obs.Log.I (Metrics.queries_total metrics));
            ("climbs_total", Obs.Log.I (Metrics.climbs_total metrics));
          ])
