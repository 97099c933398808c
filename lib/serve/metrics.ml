(* The STATS facade and the one place a metric is defined. One ordered
   key table gives every number the daemon reports its STATS text key,
   its STATS JSON block and key, its Prometheus family, and its reader;
   STATS, STATS JSON and the /metrics collect hook all walk it. Counters
   the serve path bumps itself are registry instruments; the cache, memo
   and store keep their own counters, which the table reads directly
   and the collect hook mirrors. Everything is prefixed [strategem_];
   see docs/OBSERVABILITY.md. *)

module R = Obs.Registry
module D = Datalog

(* Per-loop hot-path handles, obtained once by each event loop of the
   reactor fleet at spawn — the loop updates only its own (uncontended)
   series. A loop is a domain, so the {domain} series live here too. *)
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
  lc_served : R.Counter.t;
  lc_busy_us : R.Counter.t;
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

(* The counters the serve path bumps itself. *)
type own_counter =
  | Connections | Busy | Errors | Snapshots | Snapshot_forms | Forms_loaded
  | Slow | Lifecycle | Write_overflow | Shed_bytes | Idle_closed | Ip_limited

(* What the server attaches: its fleet, the owners of the counters it
   does not bump itself, and its tail-retained traces. *)
type sources = {
  loops : int;
  backend : string;  (* reactor backend: "epoll" / "select" *)
  db : D.Database.t;
  cache : Cache.Answers.t option;
  memo : D.Sld.Memo.t option;
  retained : unit -> string list;
}

type t = {
  reg : R.t;
  started : float;
  lock : Mutex.t;  (* guards [forms], [sources] and [loop_list] *)
  forms : (string, form_handles) Hashtbl.t;
  mutable sources : sources option;
  mutable loop_list : loop_handles list;
  new_form : string -> form_handles;  (* children of the {form} families *)
  new_loop : int -> loop_handles;  (* children of the {loop} families *)
  owned : (own_counter * R.Counter.t) list;
  g_conns_open : R.Gauge.t;
  g_pipeline_depth : R.Gauge.t;
  g_pipeline_hwm : R.Gauge.t;
  (* the reason set is closed (slow / error): pre-labeled handles
     so the per-retention hot path skips the family mutex + hash *)
  retained_by : (string * R.Counter.t) list;
  h_cache_filter : R.Histogram.t;
}

(* ---------- the key table ---------- *)

(* One render's readings, taken once so every row sees the same instant.
   The cache rows render from attach on, zeroed without a cache. *)
type snap = {
  m : t;
  now : float;
  sorted : (string * form_handles) list;
  attached : bool;
  loops : int;
  backend : string;
  answers : Cache.Answers.counters option;
  memo_counters : D.Sld.Memo.counters option;
  subsume : bool;
  store : Store.stats option;
  traces : unit -> string list;
}

(* [B] renders 1/0 in STATS and true/false in JSON; [F] renders whole in
   STATS and JSON and unrounded in its gauge; [M], a latency mean, with
   no decimal in STATS and one in JSON; [J] is rendered JSON. *)
type value =
  | I of int | F of float | M of float | B of bool | S of string | J of string

(* A family, by name and help: one the serve path bumps ([Own]), or one
   the collect hook mirrors the row's reading into ([C], [G]). *)
type prom =
  | Own of own_counter * string * string
  | C of string * string
  | G of string * string

type row = {
  text : string option;  (* STATS key *)
  json : (string list * string) option;  (* STATS JSON block path, key *)
  prom : prom option;
  read : snap -> value option;  (* [None]: absent from this render *)
}

(* 2: the admission-queue fields ([queue_high_water], [queue_depth],
   [queue_high_water_window], [queue_wait]) are gone with the queue. *)
let schema_version = 2

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let sum_forms forms f = List.fold_left (fun n (_, fh) -> n + f fh) 0 forms
let row ?text ?json ?prom read = { text; json; prom; read }
let counter_of t o = List.assq o t.owned  (* constant constructors: [==] *)

(* Row shapes by reader: a top-level key, an own counter (top level
   unless [json] says otherwise), a gauge, a per-form sum, and the cache,
   memo and store. *)
let top ?prom key read = row ~text:key ~json:([], key) ?prom read

let own ?key ?json o (name, help) =
  let json =
    if Option.is_some json then json else Option.map (fun k -> ([], k)) key
  in
  row ?text:key ?json ~prom:(Own (o, name, help)) (fun s ->
      Some (I (R.Counter.value (counter_of s.m o))))

let level f s = Some (I (int_of_float (R.Gauge.value (f s.m))))
let sum f s = Some (I (sum_forms s.sorted (fun fh -> R.Counter.value (f fh))))
let cached s v = if s.attached then Some v else None
let in_store s f = Option.map f s.store

let answers ?(blk = [ "cache" ]) text key f prom =
  row ~text ~json:(blk, key) ~prom (fun s ->
      cached s (I (Option.fold ~none:0 ~some:f s.answers)))

let memo text key f prom =
  row ~text ~json:([ "cache"; "memo" ], key) ~prom (fun s ->
      cached s (I (Option.fold ~none:0 ~some:f s.memo_counters)))

let store text key f prom =
  row ~text ~json:([ "store" ], key) ~prom (fun s ->
      in_store s (fun ss -> I (f ss)))

let json_list l = "[" ^ String.concat "," l ^ "]"

let per_loop s =
  with_lock s.m (fun () -> s.m.loop_list)
  |> List.sort (fun a b -> compare a.loop_id b.loop_id)
  |> List.map (fun lh ->
         Printf.sprintf
           "{\"id\":%d,\"conns\":%d,\"wakeups\":%d,\"pipeline_depth\":%d}"
           lh.loop_id
           (int_of_float (R.Gauge.value lh.lg_conns))
           (R.Counter.value lh.lc_wakeups)
           (int_of_float (R.Gauge.value lh.lg_pipeline)))
  |> fun l -> Some (J (json_list l))

let text_of_value = function
  | I n -> string_of_int n
  | F f -> string_of_int (int_of_float f)
  | M f -> Printf.sprintf "%.0f" f
  | B b -> if b then "1" else "0"
  | S s | J s -> s

let json_of_value = function
  | M f -> Printf.sprintf "%.1f" f
  | B b -> string_of_bool b
  | S s -> "\"" ^ Trace.json_escape s ^ "\""
  | v -> text_of_value v

(* One form's fields in their frozen order: [form KEY k v ...] in STATS,
   ["KEY":{"k":v,...}] in STATS JSON. *)
let form_fields t fh =
  let h = R.Histogram.snapshot fh.h_latency in
  let q p = I (R.Histogram.quantile h p) in
  [
    ("queries", I (R.Counter.value fh.c_queries));
    ("answered", I (R.Counter.value fh.c_answered));
    ("climbs", I (R.Counter.value fh.c_climbs));
    ("mean_us", M (R.Histogram.mean h));
    ("p50_us", q 0.50);
    ("p95_us", q 0.95);
    ("p99_us", q 0.99);
    ("strategy", S (with_lock t (fun () -> fh.strategy)));
  ]

let forms_json s =
  let field (k, v) = "\"" ^ k ^ "\":" ^ json_of_value v in
  let form (key, fh) =
    Printf.sprintf "\"%s\":{%s}" (Trace.json_escape key)
      (String.concat "," (List.map field (form_fields s.m fh)))
  in
  Some (J ("{" ^ String.concat "," (List.map form s.sorted) ^ "}"))

(* Every STATS field and its order is part of the frozen text contract,
   and the frozen JSON schema follows the same order; new fields are
   only ever appended next to their kin. *)
let table =
  let proto k = ([ "protocol" ], k) and fleet k = ([ "loops" ], k) in
  let life k = ([ "lifecycle" ], k) and subsume = [ "cache"; "subsume" ] in
  [
    row ~json:([], "schema") (fun _ -> Some (I schema_version));
    top "uptime_seconds" (fun s -> Some (F (s.now -. s.m.started)))
      ~prom:
        (G ("strategem_uptime_seconds", "Seconds since the daemon started"));
    own ~key:"connections_total" Connections
      ("strategem_connections_total", "Connections admitted");
    top "queries_total" (sum (fun fh -> fh.c_queries));
    top "answered_total" (sum (fun fh -> fh.c_answered));
    top "climbs_total" (sum (fun fh -> fh.c_climbs));
    own ~key:"busy_total" Busy
      ("strategem_busy_total", "Connections shed with BUSY");
    own ~key:"errors_total" Errors
      ("strategem_errors_total", "Protocol-level errors");
    own ~key:"snapshots_total" Snapshots
      ("strategem_snapshots_total", "Strategy snapshots written");
    own Snapshot_forms
      ("strategem_snapshot_forms_total", "Forms written across all snapshots");
    own ~key:"forms_loaded" Forms_loaded
      ( "strategem_forms_loaded_total",
        "Forms whose strategies were reloaded at startup" );
    top "forms_active" (fun s -> Some (I (List.length s.sorted)))
      ~prom:(G ("strategem_forms_active", "Query forms with a live learner"));
    (* Additive (multicore serving): one domain per event loop. *)
    top "domains" (fun s -> Some (I s.loops))
      ~prom:
        (G
           ( "strategem_domains",
             "Domains serving requests (one per event loop)" ));
    (* Additive block: the v4 reactor's transport-level state. *)
    row ~json:(proto "backend") (fun s -> Some (S s.backend));
    row ~json:(proto "frame_version") (fun _ -> Some (I Frame.version));
    row ~text:"conns_open" ~json:(proto "conns_open")
      (level (fun m -> m.g_conns_open));
    row ~text:"pipeline_depth" ~json:(proto "pipeline_depth")
      (level (fun m -> m.g_pipeline_depth));
    row ~text:"pipeline_depth_high_water"
      ~json:(proto "pipeline_depth_high_water")
      (level (fun m -> m.g_pipeline_hwm));
    (* Additive (reactor fleet): loop count, per-loop readings, and the
       write-cap, idle and per-IP shedding counters. *)
    row ~text:"loops" ~json:(fleet "count") (fun s -> Some (I s.loops))
      ~prom:(G ("strategem_loops", "Event loops in the reactor fleet"));
    own ~key:"write_overflow_total" ~json:(fleet "write_overflow_total")
      Write_overflow
      ( "strategem_write_overflow_total",
        "Connections disconnected for breaching a write-buffer cap" );
    own ~key:"write_shed_bytes_total" ~json:(fleet "write_shed_bytes_total")
      Shed_bytes
      ( "strategem_write_shed_bytes_total",
        "Buffered response bytes dropped by write-cap overflows" );
    own ~key:"idle_closed_total" ~json:(fleet "idle_closed_total") Idle_closed
      ("strategem_idle_closed_total", "Connections closed by the idle timeout");
    own ~key:"ip_limited_total" ~json:(fleet "ip_limited_total") Ip_limited
      ("strategem_ip_limited_total", "Connections refused by the per-IP cap");
    row ~json:(fleet "per_loop") per_loop;
    (* Additive (request-lifecycle tracing): requests finalized by the
       lifecycle tracker and traces kept by tail-based retention. *)
    own ~key:"lifecycle_requests_total" ~json:(life "requests_total") Lifecycle
      ( "strategem_lifecycle_requests_total",
        "Requests finalized by the lifecycle tracker" );
    row ~text:"traces_retained_total" ~json:(life "traces_retained_total")
      (fun s ->
        let add n (_, c) = n + R.Counter.value c in
        Some (I (List.fold_left add 0 s.m.retained_by)));
    own Slow
      ( "strategem_slow_queries_total",
        "Queries at or over the slow-query threshold" );
    (* Additive block, versioned on its own (1). *)
    row ~json:([ "cache" ], "version") (fun s -> cached s (I 1));
    row ~text:"cache_enabled" ~json:([ "cache" ], "enabled")
      (fun s -> cached s (B (Option.is_some s.answers)))
      ~prom:(G ("strategem_cache_enabled", "1 when the answer cache is on"));
    answers "cache_hits" "hits" (fun a -> a.hits)
      (C ("strategem_cache_hits_total", "Answer-cache hits"));
    answers "cache_misses" "misses" (fun a -> a.misses)
      (C ("strategem_cache_misses_total", "Answer-cache misses"));
    answers "cache_evictions" "evictions" (fun a -> a.evictions)
      (C ("strategem_cache_evictions_total", "Answer-cache LRU evictions"));
    answers "cache_invalidations" "invalidations" (fun a -> a.invalidations)
      (C
         ( "strategem_cache_invalidations_total",
           "Answer-cache entries dropped after DB mutations" ));
    answers "cache_entries" "entries" (fun a -> a.entries)
      (G ("strategem_cache_entries", "Answer-cache resident entries"));
    answers "cache_bytes" "bytes" (fun a -> a.bytes)
      (G ("strategem_cache_bytes", "Answer-cache resident bytes (estimated)"));
    answers "cache_capacity_bytes" "capacity_bytes" (fun a -> a.capacity_bytes)
      (G ("strategem_cache_capacity_bytes", "Answer-cache capacity in bytes"));
    memo "memo_hits" "hits" (fun m -> m.hits)
      (C ("strategem_memo_hits_total", "Subgoal-memo hits"));
    memo "memo_misses" "misses" (fun m -> m.misses)
      (C ("strategem_memo_misses_total", "Subgoal-memo misses"));
    memo "memo_invalidations" "invalidations" (fun m -> m.invalidations)
      (C ("strategem_memo_invalidations_total", "Subgoal-memo invalidations"));
    memo "memo_entries" "entries" (fun m -> m.entries)
      (G ("strategem_memo_entries", "Subgoal-memo resident entries"));
    (* Additive (subsumption-based answer reuse). *)
    row ~text:"cache_subsume_enabled" ~json:(subsume, "enabled")
      (fun s -> cached s (B s.subsume))
      ~prom:
        (G
           ( "strategem_cache_subsume_enabled",
             "1 when subsumption-based answer reuse is on" ));
    answers ~blk:subsume "cache_derived_hits" "derived_hits"
      (fun a -> a.derived_hits)
      (C
         ( "strategem_cache_derived_hits_total",
           "Answer-cache derived hits (answered by filtering a more general \
            cached entry's answer set)" ));
    answers ~blk:subsume "cache_derived_scan_entries" "derived_scan_entries"
      (fun a -> a.derived_scanned)
      (C
         ( "strategem_cache_derived_scan_entries_total",
           "Candidate generalizations examined across subsumption probes" ));
    answers ~blk:subsume "cache_subsume_misses" "subsume_misses"
      (fun a -> a.subsume_misses)
      (C
         ( "strategem_cache_subsume_misses_total",
           "Subsumption probes that found no usable generalization" ));
    answers ~blk:subsume "cache_index_keys" "index_keys" (fun a -> a.index_keys)
      (G
         ( "strategem_cache_index_keys",
           "Keys registered in the subsumption index" ));
    (* Additive, like the cache block: present only when serving from a
       paged store, versioned on its own (1). *)
    row ~json:([ "store" ], "version") (fun s -> in_store s (fun _ -> I 1));
    row ~text:"store_enabled" (fun s -> in_store s (fun _ -> B true))
      ~prom:
        (G
           ( "strategem_store_enabled",
             "1 when the database is backed by the paged store" ));
    store "store_page_size_bytes" "page_size_bytes" (fun ss -> ss.page_size)
      (G ("strategem_store_page_size_bytes", "Paged-store page size"));
    store "store_pages" "pages" (fun ss -> ss.pages)
      (G
         ( "strategem_store_pages",
           "Pages allocated (checkpoint image plus growth)" ));
    store "store_pool_pages" "pool_pages" (fun ss -> ss.pool_pages)
      (G ("strategem_store_pool_pages", "Buffer-pool frames"));
    store "store_pool_hits" "pool_hits" (fun ss -> ss.pool_hits)
      (C ("strategem_store_pool_hits_total", "Buffer-pool hits"));
    store "store_pool_misses" "pool_misses" (fun ss -> ss.pool_misses)
      (C ("strategem_store_pool_misses_total", "Buffer-pool misses"));
    store "store_pool_evictions" "pool_evictions" (fun ss -> ss.pool_evictions)
      (C ("strategem_store_pool_evictions_total", "Buffer-pool evictions"));
    store "store_page_reads" "page_reads" (fun ss -> ss.page_reads)
      (C ("strategem_store_page_reads_total", "Pages read from disk"));
    store "store_page_writes" "page_writes" (fun ss -> ss.page_writes)
      (C ("strategem_store_page_writes_total", "Dirty pages spilled to disk"));
    store "store_wal_bytes" "wal_bytes" (fun ss -> ss.wal_bytes)
      (G ("strategem_store_wal_bytes", "WAL bytes since the last checkpoint"));
    store "store_wal_appends" "wal_appends" (fun ss -> ss.wal_appends)
      (C ("strategem_store_wal_appends_total", "WAL records appended"));
    store "store_wal_syncs" "wal_syncs" (fun ss -> ss.wal_syncs)
      (C ("strategem_store_wal_syncs_total", "WAL group-commit fsyncs"));
    store "store_checkpoints" "checkpoints" (fun ss -> ss.checkpoints)
      (C ("strategem_store_checkpoints_total", "Checkpoints taken this run"));
    row ~text:"store_checkpoint_age_seconds"
      ~json:([ "store" ], "checkpoint_age_seconds")
      (fun s ->
        in_store s (fun ss ->
            F (Float.max 0.0 (s.now -. ss.Store.checkpoint_unix))))
      ~prom:
        (G
           ( "strategem_store_checkpoint_age_seconds",
             "Seconds since the last checkpoint (or open)" ));
    store "store_facts" "facts" (fun ss -> ss.facts)
      (G ("strategem_store_facts", "Facts in the paged store"));
    store "store_symbols" "symbols" (fun ss -> ss.symbols)
      (G ("strategem_store_symbols", "Symbols in the persistent catalog"));
    store "store_generation" "generation" (fun ss -> ss.generation)
      (G ("strategem_store_generation", "Persistent database generation"));
    row ~json:([], "forms") forms_json;
    (* Present exactly when some request is retained; oldest first. *)
    row ~json:([], "recent_traces") (fun s ->
        match s.traces () with [] -> None | l -> Some (J (json_list l)));
  ]

let sorted_forms t =
  with_lock t (fun () ->
      Hashtbl.fold (fun k fh acc -> (k, fh) :: acc) t.forms [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* The cache, memo and store keep their own locks; read outside ours. *)
let snap t =
  let src = with_lock t (fun () -> t.sources) in
  let get ~none (f : sources -> _) = Option.fold ~none ~some:f src in
  let cache = get ~none:None (fun s -> s.cache) in
  {
    m = t;
    now = Unix.gettimeofday ();
    sorted = sorted_forms t;
    attached = Option.is_some src;
    loops = get ~none:0 (fun s -> s.loops);
    backend = get ~none:"" (fun s -> s.backend);
    answers = Option.map Cache.Answers.counters cache;
    memo_counters =
      Option.map D.Sld.Memo.counters (get ~none:None (fun s -> s.memo));
    subsume = Option.fold ~none:false ~some:Cache.Answers.subsume_enabled cache;
    store = get ~none:None (fun s -> D.Database.store_stats s.db);
    traces = get ~none:(fun () -> []) (fun s -> s.retained);
  }

let float_of_value = function
  | I n -> float_of_int n
  | F f | M f -> f
  | B b -> if b then 1.0 else 0.0
  | S _ | J _ -> Float.nan

(* ---------- construction ---------- *)

let create () =
  let reg = R.create () in
  let counter name help = R.Counter.solo (R.Counter.v reg ~help name) in
  let gauge name help = R.Gauge.solo (R.Gauge.v reg ~help name) in
  (* a labeled family, returned as its child constructor *)
  let counters label name help =
    let f = R.Counter.v reg ~help ~labels:[ label ] name in
    fun v -> R.Counter.labels f [ v ]
  in
  let gauges label name help =
    let f = R.Gauge.v reg ~help ~labels:[ label ] name in
    fun v -> R.Gauge.labels f [ v ]
  in
  let queries = counters "form" "strategem_queries_total" "Queries answered" in
  let answered =
    counters "form" "strategem_answers_total" "Queries that found an answer"
  in
  let climbs =
    counters "form" "strategem_climbs_total" "Strategy climbs adopted"
  in
  let latency =
    R.Histogram.v reg ~help:"Query latency (microseconds)" ~labels:[ "form" ]
      "strategem_query_latency_us"
  in
  let eps =
    gauges "form" "strategem_learner_epsilon"
      "Learner accuracy bound epsilon (per-learner definition; converges \
       toward 0 as evidence accumulates)"
  in
  let delta =
    gauges "form" "strategem_learner_delta" "Learner confidence budget delta"
  in
  let samples =
    gauges "form" "strategem_learner_samples" "Learner current sample set size"
  in
  let samples_total =
    gauges "form" "strategem_learner_samples_total"
      "Observations fed to the learner"
  in
  let learner_climbs =
    gauges "form" "strategem_learner_climbs"
      "Climbs by the current learner (resets on reseed)"
  in
  let finished =
    gauges "form" "strategem_learner_finished"
      "1 once the learner finished/converged"
  in
  let new_form key =
    let fh =
      {
        c_queries = queries key;
        c_answered = answered key;
        c_climbs = climbs key;
        h_latency = R.Histogram.labels latency [ key ];
        g_eps = eps key;
        g_delta = delta key;
        g_samples = samples key;
        g_samples_total = samples_total key;
        g_learner_climbs = learner_climbs key;
        g_finished = finished key;
        strategy = "";
      }
    in
    (* A new form's epsilon starts at +inf: no evidence yet. *)
    R.Gauge.set fh.g_eps Float.infinity;
    fh
  in
  let conns =
    gauges "loop" "strategem_loop_conns_open"
      "Connections currently owned, per event loop"
  in
  let wakeups =
    counters "loop" "strategem_loop_wakeups_total"
      "Coalesced wake deliveries drained, per event loop"
  in
  let pipeline =
    gauges "loop" "strategem_loop_pipeline_depth"
      "Requests of the read this loop is executing"
  in
  let stages =
    R.Histogram.v reg ~labels:[ "stage"; "loop" ] "strategem_stage_latency_us"
      ~help:
        "Request-lifecycle latency decomposition (microseconds), per stage \
         per owning event loop"
  in
  let exemplar =
    gauges "loop" "strategem_trace_retained_exemplar"
      "Sequence number of the loop's most recently retained trace \
       (exemplar: quote it to FLIGHT / /debug/flight)"
  in
  let served =
    counters "domain" "strategem_domain_connections_total"
      "Requests served, per loop domain"
  in
  let busy_us =
    counters "domain" "strategem_domain_busy_us_total"
      "Microseconds spent executing requests, per loop domain"
  in
  let new_loop loop =
    let l = string_of_int loop in
    {
      loop_id = loop;
      lg_conns = conns l;
      lc_wakeups = wakeups l;
      lg_pipeline = pipeline l;
      lh_stage_fam = stages;
      lh_stages = Hashtbl.create 8;
      lg_exemplar = exemplar l;
      lc_served = served l;
      lc_busy_us = busy_us l;
    }
  in
  let retained =
    counters "reason" "strategem_traces_retained_total"
      "Request traces retained by tail-based sampling, by reason (slow / \
       error)"
  in
  let owned =
    List.filter_map
      (fun r ->
        match r.prom with
        | Some (Own (o, name, help)) -> Some (o, counter name help)
        | _ -> None)
      table
  in
  let t =
    {
      reg;
      started = Unix.gettimeofday ();
      lock = Mutex.create ();
      forms = Hashtbl.create 8;
      sources = None;
      loop_list = [];
      new_form;
      new_loop;
      owned;
      g_conns_open = gauge "strategem_conns_open" "Connections currently open";
      g_pipeline_depth =
        gauge "strategem_pipeline_depth"
          "Requests in flight across all connections (parsed, response not \
           yet enqueued)";
      g_pipeline_hwm =
        gauge "strategem_pipeline_depth_high_water"
          "All-time high water of in-flight requests";
      retained_by = List.map (fun r -> (r, retained r)) [ "slow"; "error" ];
      h_cache_filter =
        R.Histogram.solo
          (R.Histogram.v reg "strategem_cache_filter_latency_us"
             ~help:
               "Latency of subsumption probes (candidate walk + answer-set \
                filtering) on exact-key misses (microseconds)");
    }
  in
  let mirror r =
    match r.prom with
    | Some (C (name, help)) ->
      let c = counter name help in
      Some (r.read, function I n -> R.Counter.set c n | _ -> ())
    | Some (G (name, help)) ->
      let g = gauge name help in
      Some (r.read, fun v -> R.Gauge.set g (float_of_value v))
    | Some (Own _) | None -> None
  in
  let mirrors = List.filter_map mirror table in
  R.on_collect reg (fun () ->
      let s = snap t in
      List.iter (fun (read, set) -> Option.iter set (read s)) mirrors);
  t

let render_prometheus t = Obs.Expo.render t.reg

let attach t ~loops ~backend ~db ~cache ~memo ~retained =
  with_lock t (fun () ->
      t.sources <- Some { loops; backend; db; cache; memo; retained })

(* ---------- rendering ---------- *)

(* [STATS]: the table's text rows, then one line per form. *)
let render_text t =
  let s = snap t in
  let line r =
    Option.bind r.text (fun key ->
        Option.map (fun v -> key ^ " " ^ text_of_value v) (r.read s))
  in
  let form_line (key, fh) =
    let field (k, v) = k ^ " " ^ text_of_value v in
    String.concat " " ("form" :: key :: List.map field (form_fields t fh))
  in
  List.filter_map line table @ List.map form_line s.sorted

(* [STATS JSON]: the table's JSON rows, nested by block path. A block
   opens at its first present row, so an absent block renders nothing. *)
let render_json t =
  let s = snap t in
  let buf = Buffer.create 1024 in
  let fresh = ref true in
  let key k =
    if not !fresh then Buffer.add_char buf ',';
    Buffer.add_string buf ("\"" ^ k ^ "\":");
    fresh := false
  in
  let rec shared a b =
    match (a, b) with x :: a, y :: b when x = y -> 1 + shared a b | _ -> 0
  in
  let emit at r =
    match (r.json, r.read s) with
    | Some (path, k), Some v ->
      let keep = shared at path in
      Buffer.add_string buf (String.make (List.length at - keep) '}');
      List.iteri
        (fun i blk ->
          if i >= keep then (
            key blk;
            Buffer.add_char buf '{';
            fresh := true))
        path;
      key k;
      Buffer.add_string buf (json_of_value v);
      path
    | _ -> at
  in
  let rows = List.filter (fun r -> r.json <> None) table in
  let at = List.fold_left emit [] rows in
  "{" ^ Buffer.contents buf ^ String.make (List.length at) '}' ^ "}"

(* ---------- hot-path updates ---------- *)

let form_handles t key =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.forms key with
      | Some fh -> fh
      | None ->
        let fh = t.new_form key in
        Hashtbl.add t.forms key fh;
        fh)

let loop_handles t ~loop =
  let lh = t.new_loop loop in
  with_lock t (fun () -> t.loop_list <- lh :: t.loop_list);
  lh

let domain_served lh ~busy_us =
  R.Counter.inc lh.lc_served;
  R.Counter.add lh.lc_busy_us (int_of_float busy_us)

(* Loop thread only (like every [lh] update): the per-stage child cache
   needs no lock. *)
let observe_stage lh ~stage us =
  let h =
    match Hashtbl.find_opt lh.lh_stages stage with
    | Some h -> h
    | None ->
      let l = [ stage; string_of_int lh.loop_id ] in
      let h = R.Histogram.labels lh.lh_stage_fam l in
      Hashtbl.add lh.lh_stages stage h;
      h
  in
  R.Histogram.observe h us

let bump t o = R.Counter.inc (counter_of t o)
let lifecycle_finalized t = bump t Lifecycle

let trace_retained t lh ~reason ~seq =
  R.Counter.inc (List.assoc reason t.retained_by);
  if reason = "slow" then bump t Slow;
  R.Gauge.set lh.lg_exemplar (float_of_int seq)

let loop_conn_opened lh = R.Gauge.add lh.lg_conns 1.0
let loop_conn_closed lh = R.Gauge.add lh.lg_conns (-1.0)

(* The loop owns the monotonic count (Eventloop.wakeups); the series
   mirrors it. *)
let set_loop_wakeups lh n = R.Counter.set lh.lc_wakeups n
let set_loop_pipeline_depth lh n = R.Gauge.set lh.lg_pipeline (float_of_int n)

let write_overflow t ~shed_bytes =
  bump t Write_overflow;
  R.Counter.add (counter_of t Shed_bytes) shed_bytes

let idle_closed t = bump t Idle_closed
let ip_limited t = bump t Ip_limited
let connection t = bump t Connections
let busy t = bump t Busy
let error t = bump t Errors
let conn_opened t = R.Gauge.add t.g_conns_open 1.0
let conn_closed t = R.Gauge.add t.g_conns_open (-1.0)

let set_pipeline_depth t d =
  let d = float_of_int d in
  R.Gauge.set t.g_pipeline_depth d;
  R.Gauge.set_max t.g_pipeline_hwm d

let snapshot_saved t ~forms =
  bump t Snapshots;
  R.Counter.add (counter_of t Snapshot_forms) forms

let forms_loaded t n = R.Counter.add (counter_of t Forms_loaded) n
let cache_filter t us = R.Histogram.observe t.h_cache_filter us

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

(* ---------- reads ---------- *)

let total t f = sum_forms (sorted_forms t) (fun fh -> R.Counter.value (f fh))
let queries_total t = total t (fun fh -> fh.c_queries)
let climbs_total t = total t (fun fh -> fh.c_climbs)
let busy_total t = R.Counter.value (counter_of t Busy)
