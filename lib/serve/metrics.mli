(** Server observability: a thin facade over an {!Obs.Registry}. Every
    number the daemon reports lives in a registry instrument, so the
    same underlying counters feed the TCP [STATS]/[STATS JSON] renderers
    (byte-stable for existing clients — new fields are only ever
    additive) and the Prometheus [/metrics] endpoint
    ({!render_prometheus}). Metric names and labels are inventoried in
    [docs/OBSERVABILITY.md].

    All operations are thread-safe; hot-path updates are lock-sharded
    per time series (see {!Obs.Registry}). Per-form state is created on
    first use. Latencies go into fixed log-scale buckets — bucket [i]
    holds observations in [[2^i, 2^(i+1)) µs) — so percentile reads are
    O(buckets) and never allocate per observation. *)

type t

(** [trace_capacity > 0] keeps a ring of the last that many rendered
    query traces (the daemon's [--trace-sample N]), exposed in the
    [STATS JSON] [recent_traces] array; [0] (the default) disables
    sampling. *)
val create : ?trace_capacity:int -> unit -> t

(** Version of the frozen [STATS JSON] schema (the [schema] field;
    documented field-by-field in [docs/SERVING.md] — derived from the
    registry since the observability layer landed). *)
val schema_version : int

(** The backing registry, for callers that add their own instruments
    (the server's slow-query counter) or render it directly. *)
val registry : t -> Obs.Registry.t

(** The whole registry in Prometheus text exposition format 0.0.4 —
    the [GET /metrics] body. Runs the collect hooks (cache mirror,
    uptime). *)
val render_prometheus : t -> string

(** {1 Domains}

    Every event loop is a domain that executes its requests inline, so
    the domain count is the loop count ({!set_loops}), rendered as the
    [strategem_domains] gauge and the additive [domains] STATS field. *)

val domains : t -> int

(** Per-domain hot-path handles, obtained once by each loop at spawn:
    [strategem_domain_connections_total{domain}] and
    [strategem_domain_busy_us_total{domain}]. *)
type domain_handles

val domain_handles : t -> domain:int -> domain_handles

(** One request executed by this domain, which spent [busy_us] on it
    (head-of-line wait excluded). Before the event-loop front end the
    unit was a whole connection; the metric names are frozen, the
    granularity is not. *)
val domain_served : domain_handles -> busy_us:float -> unit

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
val conns_open : t -> int

(** The [strategem_pipeline_depth] gauge: requests parsed whose
    responses have not yet been enqueued (the reads the loops are
    executing), across all connections; an all-time high water is kept
    as [strategem_pipeline_depth_high_water]. *)
val set_pipeline_depth : t -> int -> unit

(** The reactor backend ("epoll" / "select"), surfaced in the STATS JSON
    [protocol] block. *)
val set_backend : t -> string -> unit

(** {1 Reactor fleet}

    One event loop per domain: each loop registers its handles at spawn
    and updates only its own [{loop="i"}] series, so the hot path never
    contends. Rendered as the additive [loops] STATS field and the
    [loops] block ([count] plus a [per_loop] array) in [STATS JSON]. *)

(** Record the fleet size ([strategem_loops] and [strategem_domains]
    gauges, [loops] and [domains] STATS fields). *)
val set_loops : t -> int -> unit

val loops : t -> int

(** Per-loop hot-path handles: [strategem_loop_conns_open{loop}],
    [strategem_loop_wakeups_total{loop}],
    [strategem_loop_pipeline_depth{loop}]. *)
type loop_handles

val loop_handles : t -> loop:int -> loop_handles
val loop_conn_opened : loop_handles -> unit
val loop_conn_closed : loop_handles -> unit
val loop_conns : loop_handles -> int

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

val lifecycle_requests : t -> int

(** A finalized request's trace was kept by tail-based retention
    ([strategem_traces_retained_total{reason}]); [seq] becomes the
    loop's exemplar gauge ([strategem_trace_retained_exemplar{loop}]).
    [reason] is one of [slow], [error]. *)
val trace_retained : t -> loop_handles -> reason:string -> seq:int -> unit

(** Traces retained across all reasons since start. *)
val traces_retained : t -> int

(** A connection breached a write-buffer cap: its buffered output
    ([shed_bytes]) was dropped, one [BUSY] took its place, and the loop
    disconnected it ([strategem_write_overflow_total],
    [strategem_write_shed_bytes_total]). *)
val write_overflow : t -> shed_bytes:int -> unit

(** Late-reported shed bytes (flushed after the overflow was counted). *)
val write_shed_bytes : t -> int -> unit

(** A connection hit [--idle-timeout-s] ([strategem_idle_closed_total]). *)
val idle_closed : t -> unit

(** An accept was refused by [--max-conns-per-ip]
    ([strategem_ip_limited_total]). *)
val ip_limited : t -> unit

(** Is trace sampling on ([trace_capacity > 0])? *)
val trace_sampling : t -> bool

(** Add one rendered trace (a {!Trace.to_json} line) to the sample ring;
    no-op when sampling is off. *)
val trace : t -> string -> unit

(** Sampled traces, oldest first ([[]] when sampling is off). *)
val recent_traces : t -> string list

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

(** {1 Cache} *)

(** A point-in-time view of the serving caches, pulled from the cache's
    own counters when rendering (the cache layer is below [Serve] and
    keeps its own thread-safe counters; metrics never double-count). *)
type cache_stats = {
  enabled : bool;
  hits : int;  (** answer-cache hits *)
  misses : int;
  evictions : int;
  invalidations : int;  (** entries dropped after a DB mutation *)
  entries : int;
  bytes : int;  (** estimated resident bytes *)
  capacity_bytes : int;
  memo_hits : int;  (** subgoal-memo hits (SLD tabling-lite) *)
  memo_misses : int;
  memo_invalidations : int;
  memo_entries : int;
  subsume : bool;  (** subsumption index / derived hits enabled *)
  derived_hits : int;
      (** lookups answered by filtering a more general entry's answer set *)
  derived_scan_entries : int;
      (** candidate generalizations examined across subsumption probes *)
  subsume_misses : int;  (** probes that found no usable generalization *)
  index_keys : int;  (** keys registered in the subsumption index *)
}

(** All-zero, [enabled = false] — what a cacheless server reports. *)
val no_cache_stats : cache_stats

(** Install the provider the renderers pull {!cache_stats} through. The
    provider is called outside the metrics lock. *)
val set_cache_provider : t -> (unit -> cache_stats) -> unit

(** Current cache stats via the provider, if one is installed. *)
val cache_stats : t -> cache_stats option

(** Version of the [cache] block inside [STATS JSON] (independent of
    {!schema_version}; the block is additive). *)
val cache_block_version : int

(** {1 Paged store}

    When the daemon serves from a paged database ([--data-dir]), its
    {!Store.stats} counters are mirrored into [strategem_store_*]
    instruments on every collect, appended as additive [store_*] lines
    to [STATS], and rendered as the [store] block in [STATS JSON]. An
    in-memory daemon installs no provider and reports none of them. *)

type store_stats = Store.stats

(** Install the provider the renderers pull {!store_stats} through
    (typically [Database.store_stats] partially applied). Called outside
    the metrics lock. *)
val set_store_provider : t -> (unit -> store_stats) -> unit

(** Current store stats via the provider, if one is installed. *)
val store_stats : t -> store_stats option

(** Version of the [store] block inside [STATS JSON]. *)
val store_block_version : int

(** {1 Reads} *)

val queries_total : t -> int
val climbs_total : t -> int
val busy_total : t -> int

(** [STATS] body: one [key value] line per counter, then one [form ...]
    line per query form (sorted by form key). Deterministic field order. *)
val render_text : t -> string list

(** The same data as a single JSON object (one line). *)
val render_json : t -> string
