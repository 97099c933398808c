(* The STATS facade: every counter the daemon reports lives in an
   Obs.Registry instrument, so the same underlying numbers feed both
   the TCP STATS/STATS JSON renderers (byte-stable for existing
   clients) and the Prometheus /metrics endpoint. This module owns the
   metric-name inventory (everything is prefixed [strategem_]; see
   docs/OBSERVABILITY.md) plus the few STATS-only bits a scraper has no
   use for: per-form strategy strings and the sampled-trace ring. *)

module R = Obs.Registry

type cache_stats = {
  enabled : bool;
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;
  entries : int;
  bytes : int;
  capacity_bytes : int;
  memo_hits : int;
  memo_misses : int;
  memo_invalidations : int;
  memo_entries : int;
  subsume : bool;
  derived_hits : int;
  derived_scan_entries : int;
  subsume_misses : int;
  index_keys : int;
}

let no_cache_stats =
  {
    enabled = false;
    hits = 0;
    misses = 0;
    evictions = 0;
    invalidations = 0;
    entries = 0;
    bytes = 0;
    capacity_bytes = 0;
    memo_hits = 0;
    memo_misses = 0;
    memo_invalidations = 0;
    memo_entries = 0;
    subsume = false;
    derived_hits = 0;
    derived_scan_entries = 0;
    subsume_misses = 0;
    index_keys = 0;
  }

(* The paged store's counters, pulled straight from [Store.stats] (the
   store keeps its own counters under its own lock; metrics never
   double-count). *)
type store_stats = Store.stats

(* Per-loop hot-path handles, obtained once by each event loop of the
   reactor fleet at spawn — the loop updates only its own (uncontended)
   series. *)
type loop_handles = {
  loop_id : int;
  lg_conns : R.Gauge.t;
  lc_wakeups : R.Counter.t;
  lg_pipeline : R.Gauge.t;
  (* stage -> child of the {stage, loop} latency histogram family;
     filled lazily, loop thread only *)
  lh_stage_fam : R.Histogram.fam;
  lh_stages : (string, R.Histogram.t) Hashtbl.t;
  lg_exemplar : R.Gauge.t;
}

type form_handles = {
  c_queries : R.Counter.t;
  c_answered : R.Counter.t;
  c_climbs : R.Counter.t;
  h_latency : R.Histogram.t;
  g_eps : R.Gauge.t;
  g_delta : R.Gauge.t;
  g_samples : R.Gauge.t;
  g_samples_total : R.Gauge.t;
  g_learner_climbs : R.Gauge.t;
  g_finished : R.Gauge.t;
  mutable strategy : string;
}

type t = {
  reg : R.t;
  started : float;
  lock : Mutex.t;  (* guards [forms] creation and [cache_provider] *)
  forms : (string, form_handles) Hashtbl.t;
  trace_lock : Mutex.t;
  traces : Trace.Ring.t option;
  mutable cache_provider : (unit -> cache_stats) option;
  mutable store_provider : (unit -> store_stats) option;
  g_domains : R.Gauge.t;
  f_domain_conns : R.Counter.fam;
  f_domain_busy_us : R.Counter.fam;
  c_connections : R.Counter.t;
  c_busy : R.Counter.t;
  c_errors : R.Counter.t;
  c_snapshots : R.Counter.t;
  c_snapshot_forms : R.Counter.t;
  c_forms_loaded : R.Counter.t;
  g_uptime : R.Gauge.t;
  g_forms_active : R.Gauge.t;
  g_conns_open : R.Gauge.t;
  g_pipeline_depth : R.Gauge.t;
  g_pipeline_hwm : R.Gauge.t;
  g_loops : R.Gauge.t;
  f_loop_conns : R.Gauge.fam;
  f_loop_wakeups : R.Counter.fam;
  f_loop_pipeline : R.Gauge.fam;
  f_stage_latency : R.Histogram.fam;
  f_retained : R.Counter.fam;
  (* the reason set is closed (slow / error): pre-labeled handles
     so the per-retention hot path skips the family mutex + hash *)
  retained_by : (string * R.Counter.t) list;
  f_retained_exemplar : R.Gauge.fam;
  c_lifecycle : R.Counter.t;
  retained_count : int Atomic.t;  (* sum over reasons, for STATS *)
  mutable loop_list : loop_handles list;  (* guarded by [lock] *)
  c_write_overflow : R.Counter.t;
  c_write_shed_bytes : R.Counter.t;
  c_idle_closed : R.Counter.t;
  c_ip_limited : R.Counter.t;
  mutable backend : string;  (* reactor backend: "epoll" / "select" *)
  g_cache_enabled : R.Gauge.t;
  c_cache_hits : R.Counter.t;
  c_cache_misses : R.Counter.t;
  c_cache_evictions : R.Counter.t;
  c_cache_invalidations : R.Counter.t;
  g_cache_entries : R.Gauge.t;
  g_cache_bytes : R.Gauge.t;
  g_cache_capacity : R.Gauge.t;
  c_memo_hits : R.Counter.t;
  c_memo_misses : R.Counter.t;
  c_memo_invalidations : R.Counter.t;
  g_memo_entries : R.Gauge.t;
  g_cache_subsume : R.Gauge.t;
  c_cache_derived_hits : R.Counter.t;
  c_cache_derived_scan : R.Counter.t;
  c_cache_subsume_misses : R.Counter.t;
  g_cache_index_keys : R.Gauge.t;
  h_cache_filter : R.Histogram.t;
  g_store_enabled : R.Gauge.t;
  g_store_page_size : R.Gauge.t;
  g_store_pages : R.Gauge.t;
  g_store_pool_pages : R.Gauge.t;
  c_store_pool_hits : R.Counter.t;
  c_store_pool_misses : R.Counter.t;
  c_store_pool_evictions : R.Counter.t;
  c_store_page_reads : R.Counter.t;
  c_store_page_writes : R.Counter.t;
  g_store_wal_bytes : R.Gauge.t;
  c_store_wal_appends : R.Counter.t;
  c_store_wal_syncs : R.Counter.t;
  c_store_checkpoints : R.Counter.t;
  g_store_checkpoint_age : R.Gauge.t;
  g_store_facts : R.Gauge.t;
  g_store_symbols : R.Gauge.t;
  g_store_generation : R.Gauge.t;
  f_queries : R.Counter.fam;
  f_answered : R.Counter.fam;
  f_climbs : R.Counter.fam;
  f_latency : R.Histogram.fam;
  f_learner_eps : R.Gauge.fam;
  f_learner_delta : R.Gauge.fam;
  f_learner_samples : R.Gauge.fam;
  f_learner_samples_total : R.Gauge.fam;
  f_learner_climbs : R.Gauge.fam;
  f_learner_finished : R.Gauge.fam;
}

let mirror_cache t cs =
  R.Gauge.set t.g_cache_enabled (if cs.enabled then 1.0 else 0.0);
  R.Counter.set t.c_cache_hits cs.hits;
  R.Counter.set t.c_cache_misses cs.misses;
  R.Counter.set t.c_cache_evictions cs.evictions;
  R.Counter.set t.c_cache_invalidations cs.invalidations;
  R.Gauge.set t.g_cache_entries (float_of_int cs.entries);
  R.Gauge.set t.g_cache_bytes (float_of_int cs.bytes);
  R.Gauge.set t.g_cache_capacity (float_of_int cs.capacity_bytes);
  R.Counter.set t.c_memo_hits cs.memo_hits;
  R.Counter.set t.c_memo_misses cs.memo_misses;
  R.Counter.set t.c_memo_invalidations cs.memo_invalidations;
  R.Gauge.set t.g_memo_entries (float_of_int cs.memo_entries);
  R.Gauge.set t.g_cache_subsume (if cs.subsume then 1.0 else 0.0);
  R.Counter.set t.c_cache_derived_hits cs.derived_hits;
  R.Counter.set t.c_cache_derived_scan cs.derived_scan_entries;
  R.Counter.set t.c_cache_subsume_misses cs.subsume_misses;
  R.Gauge.set t.g_cache_index_keys (float_of_int cs.index_keys)

let mirror_store t (ss : store_stats) =
  R.Gauge.set t.g_store_enabled 1.0;
  R.Gauge.set t.g_store_page_size (float_of_int ss.Store.page_size);
  R.Gauge.set t.g_store_pages (float_of_int ss.Store.pages);
  R.Gauge.set t.g_store_pool_pages (float_of_int ss.Store.pool_pages);
  R.Counter.set t.c_store_pool_hits ss.Store.pool_hits;
  R.Counter.set t.c_store_pool_misses ss.Store.pool_misses;
  R.Counter.set t.c_store_pool_evictions ss.Store.pool_evictions;
  R.Counter.set t.c_store_page_reads ss.Store.page_reads;
  R.Counter.set t.c_store_page_writes ss.Store.page_writes;
  R.Gauge.set t.g_store_wal_bytes (float_of_int ss.Store.wal_bytes);
  R.Counter.set t.c_store_wal_appends ss.Store.wal_appends;
  R.Counter.set t.c_store_wal_syncs ss.Store.wal_syncs;
  R.Counter.set t.c_store_checkpoints ss.Store.checkpoints;
  R.Gauge.set t.g_store_checkpoint_age
    (Float.max 0.0 (Unix.gettimeofday () -. ss.Store.checkpoint_unix));
  R.Gauge.set t.g_store_facts (float_of_int ss.Store.facts);
  R.Gauge.set t.g_store_symbols (float_of_int ss.Store.symbols);
  R.Gauge.set t.g_store_generation (float_of_int ss.Store.generation)

let create ?(trace_capacity = 0) () =
  let reg = R.create () in
  let counter help name = R.Counter.solo (R.Counter.v reg ~help name) in
  let gauge help name = R.Gauge.solo (R.Gauge.v reg ~help name) in
  let f_retained =
    R.Counter.v reg
      ~help:
        "Request traces retained by tail-based sampling, by reason \
         (slow / error)"
      ~labels:[ "reason" ] "strategem_traces_retained_total"
  in
  let t =
    {
      reg;
      started = Unix.gettimeofday ();
      lock = Mutex.create ();
      forms = Hashtbl.create 8;
      trace_lock = Mutex.create ();
      traces =
        (if trace_capacity > 0 then
           Some (Trace.Ring.create ~capacity:trace_capacity)
         else None);
      cache_provider = None;
      store_provider = None;
      g_domains =
        gauge "Domains serving requests (one per event loop)"
          "strategem_domains";
      f_domain_conns =
        R.Counter.v reg ~help:"Requests served, per loop domain"
          ~labels:[ "domain" ] "strategem_domain_connections_total";
      f_domain_busy_us =
        R.Counter.v reg
          ~help:"Microseconds spent executing requests, per loop domain"
          ~labels:[ "domain" ] "strategem_domain_busy_us_total";
      c_connections =
        counter "Connections admitted" "strategem_connections_total";
      c_busy = counter "Connections shed with BUSY" "strategem_busy_total";
      c_errors = counter "Protocol-level errors" "strategem_errors_total";
      c_snapshots =
        counter "Strategy snapshots written" "strategem_snapshots_total";
      c_snapshot_forms =
        counter "Forms written across all snapshots"
          "strategem_snapshot_forms_total";
      c_forms_loaded =
        counter "Forms whose strategies were reloaded at startup"
          "strategem_forms_loaded_total";
      g_uptime = gauge "Seconds since the daemon started" "strategem_uptime_seconds";
      g_forms_active =
        gauge "Query forms with a live learner" "strategem_forms_active";
      g_conns_open = gauge "Connections currently open" "strategem_conns_open";
      g_pipeline_depth =
        gauge
          "Requests in flight across all connections (parsed, response \
           not yet enqueued)"
          "strategem_pipeline_depth";
      g_pipeline_hwm =
        gauge "All-time high water of in-flight requests"
          "strategem_pipeline_depth_high_water";
      g_loops =
        gauge "Event loops in the reactor fleet" "strategem_loops";
      f_loop_conns =
        R.Gauge.v reg ~help:"Connections currently owned, per event loop"
          ~labels:[ "loop" ] "strategem_loop_conns_open";
      f_loop_wakeups =
        R.Counter.v reg
          ~help:"Coalesced wake deliveries drained, per event loop"
          ~labels:[ "loop" ] "strategem_loop_wakeups_total";
      f_loop_pipeline =
        R.Gauge.v reg
          ~help:"Requests of the read this loop is executing"
          ~labels:[ "loop" ] "strategem_loop_pipeline_depth";
      f_stage_latency =
        R.Histogram.v reg
          ~help:
            "Request-lifecycle latency decomposition (microseconds), per \
             stage per owning event loop"
          ~labels:[ "stage"; "loop" ] "strategem_stage_latency_us";
      f_retained;
      retained_by =
        List.map
          (fun reason -> (reason, R.Counter.labels f_retained [ reason ]))
          [ "slow"; "error" ];
      f_retained_exemplar =
        R.Gauge.v reg
          ~help:
            "Sequence number of the loop's most recently retained trace \
             (exemplar: quote it to FLIGHT / /debug/flight)"
          ~labels:[ "loop" ] "strategem_trace_retained_exemplar";
      c_lifecycle =
        counter "Requests finalized by the lifecycle tracker"
          "strategem_lifecycle_requests_total";
      retained_count = Atomic.make 0;
      loop_list = [];
      c_write_overflow =
        counter
          "Connections disconnected for breaching a write-buffer cap"
          "strategem_write_overflow_total";
      c_write_shed_bytes =
        counter "Buffered response bytes dropped by write-cap overflows"
          "strategem_write_shed_bytes_total";
      c_idle_closed =
        counter "Connections closed by the idle timeout"
          "strategem_idle_closed_total";
      c_ip_limited =
        counter "Connections refused by the per-IP cap"
          "strategem_ip_limited_total";
      backend = "";
      g_cache_enabled =
        gauge "1 when the answer cache is on" "strategem_cache_enabled";
      c_cache_hits = counter "Answer-cache hits" "strategem_cache_hits_total";
      c_cache_misses =
        counter "Answer-cache misses" "strategem_cache_misses_total";
      c_cache_evictions =
        counter "Answer-cache LRU evictions" "strategem_cache_evictions_total";
      c_cache_invalidations =
        counter "Answer-cache entries dropped after DB mutations"
          "strategem_cache_invalidations_total";
      g_cache_entries =
        gauge "Answer-cache resident entries" "strategem_cache_entries";
      g_cache_bytes =
        gauge "Answer-cache resident bytes (estimated)" "strategem_cache_bytes";
      g_cache_capacity =
        gauge "Answer-cache capacity in bytes" "strategem_cache_capacity_bytes";
      c_memo_hits = counter "Subgoal-memo hits" "strategem_memo_hits_total";
      c_memo_misses =
        counter "Subgoal-memo misses" "strategem_memo_misses_total";
      c_memo_invalidations =
        counter "Subgoal-memo invalidations" "strategem_memo_invalidations_total";
      g_memo_entries =
        gauge "Subgoal-memo resident entries" "strategem_memo_entries";
      g_cache_subsume =
        gauge "1 when subsumption-based answer reuse is on"
          "strategem_cache_subsume_enabled";
      c_cache_derived_hits =
        counter
          "Answer-cache derived hits (answered by filtering a more \
           general cached entry's answer set)"
          "strategem_cache_derived_hits_total";
      c_cache_derived_scan =
        counter
          "Candidate generalizations examined across subsumption probes"
          "strategem_cache_derived_scan_entries_total";
      c_cache_subsume_misses =
        counter
          "Subsumption probes that found no usable generalization"
          "strategem_cache_subsume_misses_total";
      g_cache_index_keys =
        gauge "Keys registered in the subsumption index"
          "strategem_cache_index_keys";
      h_cache_filter =
        R.Histogram.solo
          (R.Histogram.v reg
             ~help:
               "Latency of subsumption probes (candidate walk + answer-set \
                filtering) on exact-key misses (microseconds)"
             "strategem_cache_filter_latency_us");
      g_store_enabled =
        gauge "1 when the database is backed by the paged store"
          "strategem_store_enabled";
      g_store_page_size =
        gauge "Paged-store page size" "strategem_store_page_size_bytes";
      g_store_pages =
        gauge "Pages allocated (checkpoint image plus growth)"
          "strategem_store_pages";
      g_store_pool_pages =
        gauge "Buffer-pool frames" "strategem_store_pool_pages";
      c_store_pool_hits =
        counter "Buffer-pool hits" "strategem_store_pool_hits_total";
      c_store_pool_misses =
        counter "Buffer-pool misses" "strategem_store_pool_misses_total";
      c_store_pool_evictions =
        counter "Buffer-pool evictions" "strategem_store_pool_evictions_total";
      c_store_page_reads =
        counter "Pages read from disk" "strategem_store_page_reads_total";
      c_store_page_writes =
        counter "Dirty pages spilled to disk"
          "strategem_store_page_writes_total";
      g_store_wal_bytes =
        gauge "WAL bytes since the last checkpoint" "strategem_store_wal_bytes";
      c_store_wal_appends =
        counter "WAL records appended" "strategem_store_wal_appends_total";
      c_store_wal_syncs =
        counter "WAL group-commit fsyncs" "strategem_store_wal_syncs_total";
      c_store_checkpoints =
        counter "Checkpoints taken this run" "strategem_store_checkpoints_total";
      g_store_checkpoint_age =
        gauge "Seconds since the last checkpoint (or open)"
          "strategem_store_checkpoint_age_seconds";
      g_store_facts = gauge "Facts in the paged store" "strategem_store_facts";
      g_store_symbols =
        gauge "Symbols in the persistent catalog" "strategem_store_symbols";
      g_store_generation =
        gauge "Persistent database generation" "strategem_store_generation";
      f_queries =
        R.Counter.v reg ~help:"Queries answered" ~labels:[ "form" ]
          "strategem_queries_total";
      f_answered =
        R.Counter.v reg ~help:"Queries that found an answer"
          ~labels:[ "form" ] "strategem_answers_total";
      f_climbs =
        R.Counter.v reg ~help:"Strategy climbs adopted" ~labels:[ "form" ]
          "strategem_climbs_total";
      f_latency =
        R.Histogram.v reg ~help:"Query latency (microseconds)"
          ~labels:[ "form" ] "strategem_query_latency_us";
      f_learner_eps =
        R.Gauge.v reg
          ~help:
            "Learner accuracy bound epsilon (per-learner definition; \
             converges toward 0 as evidence accumulates)"
          ~labels:[ "form" ] "strategem_learner_epsilon";
      f_learner_delta =
        R.Gauge.v reg ~help:"Learner confidence budget delta"
          ~labels:[ "form" ] "strategem_learner_delta";
      f_learner_samples =
        R.Gauge.v reg ~help:"Learner current sample set size"
          ~labels:[ "form" ] "strategem_learner_samples";
      f_learner_samples_total =
        R.Gauge.v reg ~help:"Observations fed to the learner"
          ~labels:[ "form" ] "strategem_learner_samples_total";
      f_learner_climbs =
        R.Gauge.v reg
          ~help:"Climbs by the current learner (resets on reseed)"
          ~labels:[ "form" ] "strategem_learner_climbs";
      f_learner_finished =
        R.Gauge.v reg ~help:"1 once the learner finished/converged"
          ~labels:[ "form" ] "strategem_learner_finished";
    }
  in
  R.on_collect reg (fun () ->
      R.Gauge.set t.g_uptime (Unix.gettimeofday () -. t.started);
      Mutex.lock t.lock;
      let n_forms = Hashtbl.length t.forms in
      let provider = t.cache_provider in
      let sprovider = t.store_provider in
      Mutex.unlock t.lock;
      R.Gauge.set t.g_forms_active (float_of_int n_forms);
      (* The providers have their own locks; called outside ours. *)
      (match provider with Some f -> mirror_cache t (f ()) | None -> ());
      match sprovider with Some f -> mirror_store t (f ()) | None -> ());
  t

let registry t = t.reg
let render_prometheus t = Obs.Expo.render t.reg

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let form_handles t key =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.forms key with
      | Some fh -> fh
      | None ->
        let l = [ key ] in
        let fh =
          {
            c_queries = R.Counter.labels t.f_queries l;
            c_answered = R.Counter.labels t.f_answered l;
            c_climbs = R.Counter.labels t.f_climbs l;
            h_latency = R.Histogram.labels t.f_latency l;
            g_eps = R.Gauge.labels t.f_learner_eps l;
            g_delta = R.Gauge.labels t.f_learner_delta l;
            g_samples = R.Gauge.labels t.f_learner_samples l;
            g_samples_total = R.Gauge.labels t.f_learner_samples_total l;
            g_learner_climbs = R.Gauge.labels t.f_learner_climbs l;
            g_finished = R.Gauge.labels t.f_learner_finished l;
            strategy = "";
          }
        in
        (* A new form's epsilon starts at +inf: no evidence yet. *)
        R.Gauge.set fh.g_eps Float.infinity;
        Hashtbl.add t.forms key fh;
        fh)

let domains t = int_of_float (R.Gauge.value t.g_domains)

type domain_handles = {
  dh_connections : R.Counter.t;
  dh_busy_us : R.Counter.t;
}

(* Cached by each loop at spawn, so the per-request updates touch only
   the two (uncontended, per-domain) counters. *)
let domain_handles t ~domain =
  let l = [ string_of_int domain ] in
  {
    dh_connections = R.Counter.labels t.f_domain_conns l;
    dh_busy_us = R.Counter.labels t.f_domain_busy_us l;
  }

let domain_served dh ~busy_us =
  R.Counter.inc dh.dh_connections;
  R.Counter.add dh.dh_busy_us (int_of_float busy_us)

(* The loops are the domains: one count feeds both gauges. *)
let set_loops t n =
  R.Gauge.set t.g_loops (float_of_int n);
  R.Gauge.set t.g_domains (float_of_int n)

let loops t = int_of_float (R.Gauge.value t.g_loops)

let loop_handles t ~loop =
  let l = [ string_of_int loop ] in
  let lh =
    {
      loop_id = loop;
      lg_conns = R.Gauge.labels t.f_loop_conns l;
      lc_wakeups = R.Counter.labels t.f_loop_wakeups l;
      lg_pipeline = R.Gauge.labels t.f_loop_pipeline l;
      lh_stage_fam = t.f_stage_latency;
      lh_stages = Hashtbl.create 8;
      lg_exemplar = R.Gauge.labels t.f_retained_exemplar l;
    }
  in
  with_lock t (fun () -> t.loop_list <- lh :: t.loop_list);
  lh

(* Loop thread only (like every [lh] update): the per-stage child cache
   needs no lock. *)
let observe_stage lh ~stage us =
  let h =
    match Hashtbl.find_opt lh.lh_stages stage with
    | Some h -> h
    | None ->
      let h =
        R.Histogram.labels lh.lh_stage_fam
          [ stage; string_of_int lh.loop_id ]
      in
      Hashtbl.add lh.lh_stages stage h;
      h
  in
  R.Histogram.observe h us

let lifecycle_finalized t = R.Counter.inc t.c_lifecycle
let lifecycle_requests t = R.Counter.value t.c_lifecycle

let trace_retained t lh ~reason ~seq =
  (match List.assoc_opt reason t.retained_by with
  | Some c -> R.Counter.inc c
  | None -> R.Counter.inc (R.Counter.labels t.f_retained [ reason ]));
  R.Gauge.set lh.lg_exemplar (float_of_int seq);
  ignore (Atomic.fetch_and_add t.retained_count 1)

let traces_retained t = Atomic.get t.retained_count

let loop_conn_opened lh = R.Gauge.add lh.lg_conns 1.0
let loop_conn_closed lh = R.Gauge.add lh.lg_conns (-1.0)
let loop_conns lh = int_of_float (R.Gauge.value lh.lg_conns)

(* The loop owns the monotonic count (Eventloop.wakeups); the series
   mirrors it. *)
let set_loop_wakeups lh n = R.Counter.set lh.lc_wakeups n
let set_loop_pipeline_depth lh n = R.Gauge.set lh.lg_pipeline (float_of_int n)

let write_overflow t ~shed_bytes =
  R.Counter.inc t.c_write_overflow;
  R.Counter.add t.c_write_shed_bytes shed_bytes

let write_shed_bytes t n = R.Counter.add t.c_write_shed_bytes n
let idle_closed t = R.Counter.inc t.c_idle_closed
let ip_limited t = R.Counter.inc t.c_ip_limited

let sorted_loops t =
  with_lock t (fun () -> t.loop_list)
  |> List.sort (fun a b -> compare a.loop_id b.loop_id)

let connection t = R.Counter.inc t.c_connections
let busy t = R.Counter.inc t.c_busy
let error t = R.Counter.inc t.c_errors
let conn_opened t = R.Gauge.add t.g_conns_open 1.0
let conn_closed t = R.Gauge.add t.g_conns_open (-1.0)
let conns_open t = int_of_float (R.Gauge.value t.g_conns_open)

let set_pipeline_depth t d =
  let d = float_of_int d in
  R.Gauge.set t.g_pipeline_depth d;
  R.Gauge.set_max t.g_pipeline_hwm d

let set_backend t s = t.backend <- s

let snapshot_saved t ~forms =
  R.Counter.inc t.c_snapshots;
  R.Counter.add t.c_snapshot_forms forms

let forms_loaded t n = R.Counter.add t.c_forms_loaded n

let cache_filter t us = R.Histogram.observe t.h_cache_filter us

let trace_sampling t = t.traces <> None

let trace t json =
  match t.traces with
  | None -> ()
  | Some ring ->
    Mutex.lock t.trace_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.trace_lock)
      (fun () -> Trace.Ring.add ring json)

let recent_traces t =
  match t.traces with
  | None -> []
  | Some ring ->
    Mutex.lock t.trace_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.trace_lock)
      (fun () -> Trace.Ring.to_list ring)

let query t ~form ~latency_us ~answered ~switched =
  let fh = form_handles t form in
  R.Counter.inc fh.c_queries;
  if answered then R.Counter.inc fh.c_answered;
  if switched then R.Counter.inc fh.c_climbs;
  R.Histogram.observe fh.h_latency latency_us

let set_form_strategy t ~form s =
  let fh = form_handles t form in
  with_lock t (fun () -> fh.strategy <- s)

let learner_progress t ~form ~samples ~samples_total ~climbs ~epsilon ~delta
    ~finished =
  let fh = form_handles t form in
  R.Gauge.set fh.g_eps epsilon;
  R.Gauge.set fh.g_delta delta;
  R.Gauge.set fh.g_samples (float_of_int samples);
  R.Gauge.set fh.g_samples_total (float_of_int samples_total);
  R.Gauge.set fh.g_learner_climbs (float_of_int climbs);
  R.Gauge.set fh.g_finished (if finished then 1.0 else 0.0)

let set_cache_provider t f = with_lock t (fun () -> t.cache_provider <- Some f)

let cache_stats t =
  match with_lock t (fun () -> t.cache_provider) with
  | None -> None
  | Some f -> Some (f ())

let set_store_provider t f =
  with_lock t (fun () -> t.store_provider <- Some f)

let store_stats t =
  match with_lock t (fun () -> t.store_provider) with
  | None -> None
  | Some f -> Some (f ())

let sorted_forms t =
  with_lock t (fun () ->
      Hashtbl.fold (fun k fh acc -> (k, fh) :: acc) t.forms [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let sum_forms forms f = List.fold_left (fun n (_, fh) -> n + f fh) 0 forms

let queries_total t =
  sum_forms (sorted_forms t) (fun fh -> R.Counter.value fh.c_queries)

let climbs_total t =
  sum_forms (sorted_forms t) (fun fh -> R.Counter.value fh.c_climbs)

let busy_total t = R.Counter.value t.c_busy

let cache_lines cs =
  [
    Printf.sprintf "cache_enabled %d" (if cs.enabled then 1 else 0);
    Printf.sprintf "cache_hits %d" cs.hits;
    Printf.sprintf "cache_misses %d" cs.misses;
    Printf.sprintf "cache_evictions %d" cs.evictions;
    Printf.sprintf "cache_invalidations %d" cs.invalidations;
    Printf.sprintf "cache_entries %d" cs.entries;
    Printf.sprintf "cache_bytes %d" cs.bytes;
    Printf.sprintf "cache_capacity_bytes %d" cs.capacity_bytes;
    Printf.sprintf "memo_hits %d" cs.memo_hits;
    Printf.sprintf "memo_misses %d" cs.memo_misses;
    Printf.sprintf "memo_invalidations %d" cs.memo_invalidations;
    Printf.sprintf "memo_entries %d" cs.memo_entries;
    (* Additive (subsumption-based answer reuse). *)
    Printf.sprintf "cache_subsume_enabled %d" (if cs.subsume then 1 else 0);
    Printf.sprintf "cache_derived_hits %d" cs.derived_hits;
    Printf.sprintf "cache_derived_scan_entries %d" cs.derived_scan_entries;
    Printf.sprintf "cache_subsume_misses %d" cs.subsume_misses;
    Printf.sprintf "cache_index_keys %d" cs.index_keys;
  ]

(* Additive, like [cache_lines]: present only when serving from a paged
   store. *)
let store_lines (ss : store_stats) =
  [
    Printf.sprintf "store_enabled 1";
    Printf.sprintf "store_page_size_bytes %d" ss.Store.page_size;
    Printf.sprintf "store_pages %d" ss.Store.pages;
    Printf.sprintf "store_pool_pages %d" ss.Store.pool_pages;
    Printf.sprintf "store_pool_hits %d" ss.Store.pool_hits;
    Printf.sprintf "store_pool_misses %d" ss.Store.pool_misses;
    Printf.sprintf "store_pool_evictions %d" ss.Store.pool_evictions;
    Printf.sprintf "store_page_reads %d" ss.Store.page_reads;
    Printf.sprintf "store_page_writes %d" ss.Store.page_writes;
    Printf.sprintf "store_wal_bytes %d" ss.Store.wal_bytes;
    Printf.sprintf "store_wal_appends %d" ss.Store.wal_appends;
    Printf.sprintf "store_wal_syncs %d" ss.Store.wal_syncs;
    Printf.sprintf "store_checkpoints %d" ss.Store.checkpoints;
    Printf.sprintf "store_checkpoint_age_seconds %d"
      (int_of_float
         (Float.max 0.0 (Unix.gettimeofday () -. ss.Store.checkpoint_unix)));
    Printf.sprintf "store_facts %d" ss.Store.facts;
    Printf.sprintf "store_symbols %d" ss.Store.symbols;
    Printf.sprintf "store_generation %d" ss.Store.generation;
  ]

(* Every STATS field and its order is part of the frozen text contract;
   values are read out of the registry instruments. New fields are only
   ever appended next to their kin. *)
let render_text t =
  let cache = cache_stats t in
  let store = store_stats t in
  let forms = sorted_forms t in
  let counters =
    [
      Printf.sprintf "uptime_seconds %d"
        (int_of_float (Unix.gettimeofday () -. t.started));
      Printf.sprintf "connections_total %d" (R.Counter.value t.c_connections);
      Printf.sprintf "queries_total %d"
        (sum_forms forms (fun fh -> R.Counter.value fh.c_queries));
      Printf.sprintf "answered_total %d"
        (sum_forms forms (fun fh -> R.Counter.value fh.c_answered));
      Printf.sprintf "climbs_total %d"
        (sum_forms forms (fun fh -> R.Counter.value fh.c_climbs));
      Printf.sprintf "busy_total %d" (R.Counter.value t.c_busy);
      Printf.sprintf "errors_total %d" (R.Counter.value t.c_errors);
      Printf.sprintf "snapshots_total %d" (R.Counter.value t.c_snapshots);
      Printf.sprintf "forms_loaded %d" (R.Counter.value t.c_forms_loaded);
      Printf.sprintf "forms_active %d" (List.length forms);
      (* Additive (multicore serving): domains serving requests. *)
      Printf.sprintf "domains %d" (domains t);
      (* Additive (event-loop front end): reactor connection and
         pipelining state. *)
      Printf.sprintf "conns_open %d" (conns_open t);
      Printf.sprintf "pipeline_depth %d"
        (int_of_float (R.Gauge.value t.g_pipeline_depth));
      Printf.sprintf "pipeline_depth_high_water %d"
        (int_of_float (R.Gauge.value t.g_pipeline_hwm));
      (* Additive (reactor fleet): loop count plus the write-cap, idle
         and per-IP shedding counters. *)
      Printf.sprintf "loops %d" (loops t);
      Printf.sprintf "write_overflow_total %d"
        (R.Counter.value t.c_write_overflow);
      Printf.sprintf "write_shed_bytes_total %d"
        (R.Counter.value t.c_write_shed_bytes);
      Printf.sprintf "idle_closed_total %d" (R.Counter.value t.c_idle_closed);
      Printf.sprintf "ip_limited_total %d" (R.Counter.value t.c_ip_limited);
      (* Additive (request-lifecycle tracing): requests finalized by the
         lifecycle tracker and traces kept by tail-based retention. *)
      Printf.sprintf "lifecycle_requests_total %d"
        (R.Counter.value t.c_lifecycle);
      Printf.sprintf "traces_retained_total %d"
        (Atomic.get t.retained_count);
    ]
  in
  let counters =
    match cache with None -> counters | Some cs -> counters @ cache_lines cs
  in
  let counters =
    match store with None -> counters | Some ss -> counters @ store_lines ss
  in
  let form_lines =
    List.map
      (fun (key, fh) ->
        let h = R.Histogram.snapshot fh.h_latency in
        Printf.sprintf
          "form %s queries %d answered %d climbs %d mean_us %.0f \
           p50_us %d p95_us %d p99_us %d strategy %s"
          key
          (R.Counter.value fh.c_queries)
          (R.Counter.value fh.c_answered)
          (R.Counter.value fh.c_climbs)
          (R.Histogram.mean h)
          (R.Histogram.quantile h 0.50)
          (R.Histogram.quantile h 0.95)
          (R.Histogram.quantile h 0.99)
          (with_lock t (fun () -> fh.strategy)))
      forms
  in
  counters @ form_lines

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* 2: the admission-queue fields ([queue_high_water], [queue_depth],
   [queue_high_water_window], [queue_wait]) are gone with the queue. *)
let schema_version = 2

(* Versioned independently of the top-level schema: the [cache] block is
   additive (no schema bump) but carries its own version so its fields can
   evolve without a top-level bump. *)
let cache_block_version = 1

let cache_json cs =
  (* The [subsume] sub-block is additive under cache-block version 1, like
     the fields before it. *)
  Printf.sprintf
    "\"cache\":{\"version\":%d,\"enabled\":%b,\"hits\":%d,\"misses\":%d,\
     \"evictions\":%d,\"invalidations\":%d,\"entries\":%d,\"bytes\":%d,\
     \"capacity_bytes\":%d,\"memo\":{\"hits\":%d,\"misses\":%d,\
     \"invalidations\":%d,\"entries\":%d},\"subsume\":{\"enabled\":%b,\
     \"derived_hits\":%d,\"derived_scan_entries\":%d,\"subsume_misses\":%d,\
     \"index_keys\":%d}},"
    cache_block_version cs.enabled cs.hits cs.misses cs.evictions
    cs.invalidations cs.entries cs.bytes cs.capacity_bytes cs.memo_hits
    cs.memo_misses cs.memo_invalidations cs.memo_entries cs.subsume
    cs.derived_hits cs.derived_scan_entries cs.subsume_misses cs.index_keys

(* Like the [cache] block: additive, independently
   versioned. *)
let store_block_version = 1

let store_json (ss : store_stats) =
  Printf.sprintf
    "\"store\":{\"version\":%d,\"page_size_bytes\":%d,\"pages\":%d,\
     \"pool_pages\":%d,\"pool_hits\":%d,\"pool_misses\":%d,\
     \"pool_evictions\":%d,\"page_reads\":%d,\"page_writes\":%d,\
     \"wal_bytes\":%d,\"wal_appends\":%d,\"wal_syncs\":%d,\
     \"checkpoints\":%d,\"checkpoint_age_seconds\":%d,\"facts\":%d,\
     \"symbols\":%d,\"generation\":%d},"
    store_block_version ss.Store.page_size ss.Store.pages ss.Store.pool_pages
    ss.Store.pool_hits ss.Store.pool_misses ss.Store.pool_evictions
    ss.Store.page_reads ss.Store.page_writes ss.Store.wal_bytes
    ss.Store.wal_appends ss.Store.wal_syncs ss.Store.checkpoints
    (int_of_float
       (Float.max 0.0 (Unix.gettimeofday () -. ss.Store.checkpoint_unix)))
    ss.Store.facts ss.Store.symbols ss.Store.generation

let render_json t =
  let cache = cache_stats t in
  let store = store_stats t in
  let forms = sorted_forms t in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"schema\":%d,\"uptime_seconds\":%d,\"connections_total\":%d,\
        \"queries_total\":%d,\"answered_total\":%d,\
        \"climbs_total\":%d,\"busy_total\":%d,\"errors_total\":%d,\
        \"snapshots_total\":%d,\"forms_loaded\":%d,\
        \"forms_active\":%d,\"domains\":%d,"
       schema_version
       (int_of_float (Unix.gettimeofday () -. t.started))
       (R.Counter.value t.c_connections)
       (sum_forms forms (fun fh -> R.Counter.value fh.c_queries))
       (sum_forms forms (fun fh -> R.Counter.value fh.c_answered))
       (sum_forms forms (fun fh -> R.Counter.value fh.c_climbs))
       (R.Counter.value t.c_busy)
       (R.Counter.value t.c_errors)
       (R.Counter.value t.c_snapshots)
       (R.Counter.value t.c_forms_loaded)
       (List.length forms) (domains t));
  (* Additive block: the v4 reactor's transport-level
     state, absent only from pre-v4 builds. *)
  Buffer.add_string buf
    (Printf.sprintf
       "\"protocol\":{\"backend\":\"%s\",\"frame_version\":%d,\
        \"conns_open\":%d,\"pipeline_depth\":%d,\
        \"pipeline_depth_high_water\":%d},"
       (json_escape t.backend) Frame.version (conns_open t)
       (int_of_float (R.Gauge.value t.g_pipeline_depth))
       (int_of_float (R.Gauge.value t.g_pipeline_hwm)));
  (* Additive block: the reactor fleet — per-loop
     connection/wakeup/pipeline readings plus the shedding counters. *)
  Buffer.add_string buf
    (Printf.sprintf
       "\"loops\":{\"count\":%d,\"write_overflow_total\":%d,\
        \"write_shed_bytes_total\":%d,\"idle_closed_total\":%d,\
        \"ip_limited_total\":%d,\"per_loop\":["
       (loops t)
       (R.Counter.value t.c_write_overflow)
       (R.Counter.value t.c_write_shed_bytes)
       (R.Counter.value t.c_idle_closed)
       (R.Counter.value t.c_ip_limited));
  List.iteri
    (fun i lh ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"id\":%d,\"conns\":%d,\"wakeups\":%d,\"pipeline_depth\":%d}"
           lh.loop_id
           (int_of_float (R.Gauge.value lh.lg_conns))
           (R.Counter.value lh.lc_wakeups)
           (int_of_float (R.Gauge.value lh.lg_pipeline))))
    (sorted_loops t);
  Buffer.add_string buf "]},";
  (* Additive block: request-lifecycle tracing. *)
  Buffer.add_string buf
    (Printf.sprintf
       "\"lifecycle\":{\"requests_total\":%d,\"traces_retained_total\":%d},"
       (R.Counter.value t.c_lifecycle)
       (Atomic.get t.retained_count));
  (match cache with
  | None -> ()
  | Some cs -> Buffer.add_string buf (cache_json cs));
  (match store with
  | None -> ()
  | Some ss -> Buffer.add_string buf (store_json ss));
  Buffer.add_string buf "\"forms\":{";
  List.iteri
    (fun i (key, fh) ->
      if i > 0 then Buffer.add_char buf ',';
      let h = R.Histogram.snapshot fh.h_latency in
      Buffer.add_string buf
        (Printf.sprintf
           "\"%s\":{\"queries\":%d,\"answered\":%d,\"climbs\":%d,\
            \"mean_us\":%.1f,\"p50_us\":%d,\"p95_us\":%d,\
            \"p99_us\":%d,\"strategy\":\"%s\"}"
           (json_escape key)
           (R.Counter.value fh.c_queries)
           (R.Counter.value fh.c_answered)
           (R.Counter.value fh.c_climbs)
           (R.Histogram.mean h)
           (R.Histogram.quantile h 0.50)
           (R.Histogram.quantile h 0.95)
           (R.Histogram.quantile h 0.99)
           (json_escape (with_lock t (fun () -> fh.strategy)))))
    forms;
  Buffer.add_string buf "}";
  (match t.traces with
  | None -> ()
  | Some _ ->
    Buffer.add_string buf ",\"recent_traces\":[";
    List.iteri
      (fun i json ->
        if i > 0 then Buffer.add_char buf ',';
        (* Entries are already rendered JSON objects. *)
        Buffer.add_string buf json)
      (recent_traces t);
    Buffer.add_char buf ']');
  Buffer.add_char buf '}';
  Buffer.contents buf
