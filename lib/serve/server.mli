(** The `strategem serve` daemon: a sharded reactor fleet — one
    {!Eventloop} (epoll on Linux, [select] elsewhere) per domain — that
    owns every socket and runs each request to completion on the loop
    that owns its connection, answering queries through the {!Registry}
    of per-form {!Core.Live} learners.

    A dedicated acceptor (the main thread) distributes new connections
    across the fleet by power-of-two-choices on open connections. Each
    loop owns its epoll instance, wake channel, and connection table
    outright — no [Conn.t] is ever shared between loops — and each read
    is handled whole on its loop: every complete request in the read is
    parsed, then the requests execute in arrival order, each reply
    flushed as soon as it is ready. A request crosses no thread: there
    is no admission queue, no worker pool, and no completion handoff.
    Per-loop [{loop="i"}] conns/wakeups/pipeline-depth series and the
    additive [loops] STATS-JSON block expose the fleet's balance.

    Connections speak either dialect of {!Protocol} on the same port,
    told apart by sniffing the first byte: {!Frame.magic} (0x84) selects
    the framed v4 protocol — length-prefixed frames with client-chosen
    request ids, so one connection can pipeline many requests — while
    printable ASCII selects the v2/v3 line protocol (a line client can
    also upgrade mid-stream with [HELLO V4]). Replies on one connection
    come back in request order in both dialects.

    Loops are OCaml 5 domains: [--loops N] runs [N] of them ([0], the
    default, one per core as given by [Domain.recommended_domain_count]),
    so the SLD + exec + learn hot path runs on real cores in parallel.
    The count is exported as the [strategem_loops] and
    [strategem_domains] gauges and the additive [loops]/[domains] STATS
    fields; each loop also exports request and busy-time counters
    labelled [{domain="i"}]. Learning stays sequentially consistent per
    query form — every form's learner is driven under its per-entry
    mutex — so multicore serving provably does not change what is
    learned (see the loop conformance tests).

    Back-pressure is flow control, not shedding: a loop stops reading a
    connection while that connection has unflushed output, so TCP slows
    a client that does not read its replies. [BUSY] remains only where
    a connection itself is refused — past the [max_conns] or
    [max_conns_per_ip] cap at accept — and where a reply would overflow
    a write-buffer cap ([BUSY], then disconnect). Graceful shutdown (the
    [SHUTDOWN] command, or SIGINT/SIGTERM when [handle_signals]): the
    listener closes, parsed requests are still served and their
    responses flushed, the loops drain and join, and — when a state
    directory is configured — a final snapshot is written, so nothing
    learned is lost. *)

type config = {
  host : string;            (** bind address (default ["127.0.0.1"]) *)
  port : int;               (** [0] picks an ephemeral port *)
  max_conns : int;          (** open-connection cap (≥ 1); connections
                                past it are shed with [BUSY] at accept *)
  state_dir : string option;      (** snapshot directory *)
  snapshot_interval : float;      (** seconds; [0.] = periodic off *)
  learner : Core.Learner.kind;    (** per-form learner ([--learner]) *)
  learner_config : Core.Learner.config;
  cache_mb : int;
      (** answer-cache budget in MiB ([--cache-mb]); [0] ([--no-cache])
          disables both the answer cache and subgoal memoization. Cached
          answers skip SLD but the form's learner still observes every
          query, so learning is unaffected. *)
  subsume : bool;
      (** subsumption-based answer reuse ([--subsume] / [--no-subsume],
          default on; moot under [--no-cache]): the cache keeps a
          per-predicate generality index over its keys, answers
          exact-key misses by filtering a θ-more-general entry's
          enumerated answer set (a {e derived hit},
          [ANSWER ... cached=derived]), and seeds the subgoal memo with
          the ground instances a general fill proved. Learner
          trajectories are byte-identical either way — only where
          answers come from changes, never what the learner sees. *)
  metrics_port : int option;
      (** serve [GET /metrics] (Prometheus text 0.0.4) and
          [GET /healthz] ([200 ready] / [503 draining]) on this port
          ([--metrics-port]; [0] picks an ephemeral port, read back via
          [on_metrics_listen]); [None] = no HTTP responder. *)
  log_level : Obs.Log.level option;
      (** JSONL structured-log threshold ([--log-level]); [None] turns
          structured logging off entirely. *)
  log_file : string option;
      (** structured-log destination ([--log-file]); [None] = stderr. *)
  slow_query_us : float;
      (** requests whose end-to-end latency (read to flush) is at or
          over this many microseconds are slow ([--slow-query-ms]; [0.]
          = off): tail retention keeps their span trees, counts them in
          [strategem_slow_queries_total], and logs them at [warn] —
          rate limited to one record per second, each record carrying
          the request's span tree. Needs [lifecycle]. *)
  loops : int;
      (** event loops in the reactor fleet ([--loops]); [0] (the
          default) runs one per core
          ([Domain.recommended_domain_count ()]). Each loop is its own
          domain with a private epoll instance and wake channel, and
          executes its connections' requests inline. *)
  max_write_buf : int;
      (** per-connection write-buffer cap in bytes
          ([--max-write-buf-mb]); a {!Conn.send} that would buffer past
          it sheds the connection's output, answers one [BUSY], and
          disconnects. [0] = uncapped; default 64 MiB. *)
  max_write_total : int;
      (** global cap on the sum of all buffered response bytes
          ([--max-write-total-mb]); breaching it sheds the offending
          connection the same way. [0] (the default) = uncapped. *)
  idle_timeout_s : float;
      (** close connections with no traffic for this long
          ([--idle-timeout-s]); swept at most once per second per loop,
          off the poll deadline. [0.] (the default) = off, at zero
          per-request cost. *)
  max_conns_per_ip : int;
      (** accept-time cap on open connections per peer IP
          ([--max-conns-per-ip]); connections past it are shed with
          [BUSY] and counted in [strategem_ip_limited_total]. [0] (the
          default) = off. *)
  lifecycle : bool;
      (** per-request lifecycle tracking (default [true];
          [--no-lifecycle] turns it off): every executed request gets a
          {!Lifecycle} record stamped through
          read → parse → execute → respond → flush, with page-fault
          waits attributed while it executes. Finalized records feed
          [strategem_stage_latency_us{stage, loop}], the flight
          recorder, and tail-based retention (the full span tree is
          kept only for slow / error requests, the newest 64 per loop,
          served by [FLIGHT], [/debug/flight] and the [STATS JSON]
          [recent_traces] array). *)
  flight_capacity : int;
      (** per-loop flight-recorder ring capacity in events
          ([--flight-capacity], rounded up to a power of two; default
          4096 ≈ 192 KiB per loop; [0] disables the ring). Always-on
          and lock-free: the owning loop writes, anyone snapshots. *)
}

(** 127.0.0.1:4280, one loop per core, max 10_000 connections, no per-IP cap, 64 MiB per-conn
    write cap (global cap and idle timeout off), no state dir, periodic
    snapshots off, PIB with {!Core.Learner.default_config}, 64 MiB
    answer cache, no metrics responder, structured logging and slow
    retention off. Lifecycle tracking on, a 4096-event flight ring per
    loop. *)
val default_config : config

(** The loop count [loops = 0] resolves to: one per core
    ([Domain.recommended_domain_count ()], at least 1). *)
val default_loops : unit -> int

(** [run ?handle_signals ?on_listen ?on_metrics_listen config ~rulebase
    ~db] — bind, serve, and block until shutdown. [on_listen] receives
    the actual bound port (useful with [port = 0]) once the server is
    accepting; [on_metrics_listen] likewise receives the metrics
    responder's bound port when [metrics_port] is set.
    [handle_signals] (default [false]) installs SIGINT/SIGTERM handlers
    that trigger the same graceful shutdown as [SHUTDOWN].

    Raises [Invalid_argument] on a nonsensical config and lets
    [Unix.Unix_error] from [bind]/[listen] escape. *)
val run :
  ?handle_signals:bool ->
  ?on_listen:(int -> unit) ->
  ?on_metrics_listen:(int -> unit) ->
  config ->
  rulebase:Datalog.Rulebase.t ->
  db:Datalog.Database.t ->
  unit
