(** Server observability: a thin facade over an {!Obs.Registry}, and
    the one place a metric is defined. One ordered key table gives each
    reported number its [STATS] key, its [STATS JSON] block and key, the
    Prometheus family it is mirrored into, and its reader; the [STATS] /
    [STATS JSON] renderers (byte-stable for existing clients — new
    fields are only ever additive) and the [/metrics] collect hook
    ({!render_prometheus}) all walk it. Every family is registered here.
    Metric names and labels are inventoried in [docs/OBSERVABILITY.md].

    All operations are thread-safe; hot-path updates are lock-sharded
    per time series (see {!Obs.Registry}). Per-form state is created on
    first use. Latencies go into fixed log-scale buckets — bucket [i]
    holds observations in [[2^i, 2^(i+1)) µs) — so percentile reads are
    O(buckets) and never allocate per observation. *)

type t

val create : unit -> t

(** Version of the frozen [STATS JSON] schema (the [schema] field;
    documented field-by-field in [docs/SERVING.md]). *)
val schema_version : int

(** The whole registry in Prometheus text exposition format 0.0.4 —
    the [GET /metrics] body. Runs the collect hook, which mirrors the
    key table's externally kept readings (uptime, forms, loops, cache,
    memo, store) into their families. *)
val render_prometheus : t -> string

(** Attach what the server reads but does not count itself: its fleet
    size (the [strategem_loops] and [strategem_domains] gauges, the
    [loops] and [domains] STATS fields — the loops are the domains), its
    reactor backend ("epoll" / "select", in the STATS JSON [protocol]
    block), its database (a paged one adds the [store] rows), its answer
    cache and
    subgoal memo (the [cache] rows render from attach on, zeroed and
    [enabled 0] when [cache] is [None]), and its tail-retained traces
    (the [STATS JSON] [recent_traces] array, oldest first, present
    exactly when non-empty). Until attached — a bare [create ()] — none
    of those rows render. The readers are called outside the metrics
    lock. *)
val attach :
  t ->
  loops:int ->
  backend:string ->
  db:Datalog.Database.t ->
  cache:Cache.Answers.t option ->
  memo:Datalog.Sld.Memo.t option ->
  retained:(unit -> string list) ->
  unit

(** {1 Events} *)

val connection : t -> unit

(** A connection shed with [BUSY] at accept (the [max_conns] or
    [max_conns_per_ip] cap). *)
val busy : t -> unit

val error : t -> unit
val snapshot_saved : t -> forms:int -> unit

(** [n] forms' learned strategies were reloaded from snapshots at
    startup. *)
val forms_loaded : t -> int -> unit

(** A subsumption probe (candidate walk + answer-set filtering) took
    [us] microseconds. Observed on derived hits and on probes that fell
    through to SLD — exact hits never pay the filter, so they are not
    observed. Feeds [strategem_cache_filter_latency_us]. *)
val cache_filter : t -> float -> unit

(** {1 Reactor (protocol v4)} *)

(** The [strategem_conns_open] gauge: sockets the reactor currently
    holds open (also the additive [conns_open] STATS field). *)
val conn_opened : t -> unit

val conn_closed : t -> unit

(** The [strategem_pipeline_depth] gauge: requests parsed whose
    responses have not yet been enqueued (the reads the loops are
    executing), across all connections; an all-time high water is kept
    as [strategem_pipeline_depth_high_water]. *)
val set_pipeline_depth : t -> int -> unit

(** {1 Reactor fleet}

    One event loop per domain: each loop registers its handles at spawn
    and updates only its own [{loop="i"}] series, so the hot path never
    contends. Rendered as the additive [loops] STATS field and the
    [loops] block ([count] plus a [per_loop] array) in [STATS JSON]. *)

(** Per-loop hot-path handles: [strategem_loop_conns_open{loop}],
    [strategem_loop_wakeups_total{loop}],
    [strategem_loop_pipeline_depth{loop}], and — every loop being a
    domain that executes its requests inline —
    [strategem_domain_connections_total{domain}] and
    [strategem_domain_busy_us_total{domain}]. *)
type loop_handles

val loop_handles : t -> loop:int -> loop_handles

(** One request executed by this loop's domain, which spent [busy_us]
    on it (head-of-line wait excluded). Before the event-loop front end
    the unit was a whole connection; the metric names are frozen, the
    granularity is not. *)
val domain_served : loop_handles -> busy_us:float -> unit
val loop_conn_opened : loop_handles -> unit
val loop_conn_closed : loop_handles -> unit

(** Mirror the loop's monotonic coalesced-wake count
    ({!Eventloop.wakeups}) into its counter series. *)
val set_loop_wakeups : loop_handles -> int -> unit

(** Requests of the read this loop is executing right now. *)
val set_loop_pipeline_depth : loop_handles -> int -> unit

(** One stage of a finalized request's lifecycle, in microseconds:
    [strategem_stage_latency_us{stage, loop}]. Stage vocabulary:
    [frame], [queue], [worker], [flush], [total], plus [page_read] when
    the store faulted pages in. Loop thread only (the per-stage child
    cache is unlocked). *)
val observe_stage : loop_handles -> stage:string -> float -> unit

(** A request's lifecycle record was finalized
    ([strategem_lifecycle_requests_total]). *)
val lifecycle_finalized : t -> unit

(** A finalized request's trace was kept by tail-based retention
    ([strategem_traces_retained_total{reason}]); [seq] becomes the
    loop's exemplar gauge ([strategem_trace_retained_exemplar{loop}]).
    [reason] is one of [slow], [error]; a [slow] retention also counts
    [strategem_slow_queries_total], so the two always agree. *)
val trace_retained : t -> loop_handles -> reason:string -> seq:int -> unit

(** A connection breached a write-buffer cap: its buffered output
    ([shed_bytes]) was dropped, one [BUSY] took its place, and the loop
    disconnected it ([strategem_write_overflow_total],
    [strategem_write_shed_bytes_total]). *)
val write_overflow : t -> shed_bytes:int -> unit

(** A connection hit [--idle-timeout-s] ([strategem_idle_closed_total]). *)
val idle_closed : t -> unit

(** An accept was refused by [--max-conns-per-ip]
    ([strategem_ip_limited_total]). *)
val ip_limited : t -> unit

(** One answered query: latency, whether an answer was found, and whether
    it triggered a strategy climb. *)
val query :
  t -> form:string -> latency_us:float -> answered:bool -> switched:bool ->
  unit

(** The form's current strategy, pre-rendered (shown by [STATS]). *)
val set_form_strategy : t -> form:string -> string -> unit

(** Update the form's [strategem_learner_*] convergence gauges from a
    {!Core.Learner.progress} reading (fields passed positionally so this
    module stays core-agnostic). Called from the learner event hook on
    every observation. *)
val learner_progress :
  t ->
  form:string ->
  samples:int ->
  samples_total:int ->
  climbs:int ->
  epsilon:float ->
  delta:float ->
  finished:bool ->
  unit

(** {1 Reads} *)

val queries_total : t -> int
val climbs_total : t -> int
val busy_total : t -> int

(** [STATS] body: one [key value] line per key-table row with a text
    key, then one [form ...] line per query form (sorted by form key).
    Deterministic field order. *)
val render_text : t -> string list

(** The same data as a single JSON object (one line). *)
val render_json : t -> string
