(* The daemon's telemetry surface as one contract: a fixed error-free
   script through an in-process 1-loop server (answer cache on, paged
   store in a temp data directory) must render byte-identical STATS and
   STATS JSON replies and the same set of Prometheus families. Only the
   readings that depend on the clock are masked: uptime, checkpoint age,
   and the per-form latency mean and quantiles. *)

open Helpers
module D = Datalog

let kb_text =
  "instructor(X) :- prof(X).\n\
   instructor(X) :- grad(X).\n\
   prof(russ).\n\
   prof(kim).\n\
   grad(manolis).\n\
   grad(ana).\n"

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let with_temp_dir f =
  let dir = Filename.temp_file "strategem" ".golden" in
  Sys.remove dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* Replace the number after every occurrence of [key] with "_". *)
let mask_after key s =
  let b = Buffer.create (String.length s) in
  let n = String.length s and k = String.length key in
  let is_num c = (c >= '0' && c <= '9') || c = '.' || c = '-' || c = 'e' in
  let rec go i =
    if i >= n then ()
    else if i + k <= n && String.sub s i k = key then begin
      Buffer.add_string b key;
      let j = ref (i + k) in
      while !j < n && is_num s.[!j] do incr j done;
      Buffer.add_char b '_';
      go !j
    end
    else begin
      Buffer.add_char b s.[i];
      go (i + 1)
    end
  in
  go 0;
  Buffer.contents b

let mask s =
  List.fold_left
    (fun s key -> mask_after key s)
    s
    [
      "uptime_seconds "; "store_checkpoint_age_seconds "; "mean_us ";
      "p50_us "; "p95_us "; "p99_us "; "\"uptime_seconds\":";
      "\"checkpoint_age_seconds\":"; "\"mean_us\":"; "\"p50_us\":";
      "\"p95_us\":"; "\"p99_us\":";
    ]

let script =
  [
    "PING";
    "QUERY instructor(X)";
    "QUERY instructor(manolis)";
    "QUERY instructor(manolis)";
    "QUERY instructor(russ)";
    "QUERY instructor(fred)";
    "QUERY prof(kim)";
    "STRATEGY instructor(q)";
  ]

let expected_stats =
  {|uptime_seconds _
connections_total 1
queries_total 6
answered_total 5
climbs_total 0
busy_total 0
errors_total 0
snapshots_total 0
forms_loaded 0
forms_active 3
domains 1
conns_open 1
pipeline_depth 1
pipeline_depth_high_water 1
loops 1
write_overflow_total 0
write_shed_bytes_total 0
idle_closed_total 0
ip_limited_total 0
lifecycle_requests_total 8
traces_retained_total 0
cache_enabled 1
cache_hits 1
cache_misses 2
cache_evictions 0
cache_invalidations 0
cache_entries 5
cache_bytes 1632
cache_capacity_bytes 67108864
memo_hits 0
memo_misses 0
memo_invalidations 0
memo_entries 4
cache_subsume_enabled 1
cache_derived_hits 3
cache_derived_scan_entries 3
cache_subsume_misses 2
cache_index_keys 1
store_enabled 1
store_page_size_bytes 4096
store_pages 2
store_pool_pages 4
store_pool_hits 11
store_pool_misses 4
store_pool_evictions 0
store_page_reads 2
store_page_writes 0
store_wal_bytes 0
store_wal_appends 10
store_wal_syncs 1
store_checkpoints 1
store_checkpoint_age_seconds _
store_facts 4
store_symbols 6
store_generation 4
form instructor_1_b queries 4 answered 3 climbs 0 mean_us _ p50_us _ p95_us _ p99_us _ strategy ⟨R_instructor_prof D_prof R_instructor_grad D_grad⟩
form instructor_1_f queries 1 answered 1 climbs 0 mean_us _ p50_us _ p95_us _ p99_us _ strategy ⟨R_instructor_prof D_prof R_instructor_grad D_grad⟩
form prof_1_b queries 1 answered 1 climbs 0 mean_us _ p50_us _ p95_us _ p99_us _ strategy ⟨D_prof⟩|}

let expected_json =
  {|{"schema":2,"uptime_seconds":_,"connections_total":1,"queries_total":6,"answered_total":5,"climbs_total":0,"busy_total":0,"errors_total":0,"snapshots_total":0,"forms_loaded":0,"forms_active":3,"domains":1,"protocol":{"backend":"epoll","frame_version":4,"conns_open":1,"pipeline_depth":1,"pipeline_depth_high_water":1},"loops":{"count":1,"write_overflow_total":0,"write_shed_bytes_total":0,"idle_closed_total":0,"ip_limited_total":0,"per_loop":[{"id":0,"conns":1,"wakeups":1,"pipeline_depth":1}]},"lifecycle":{"requests_total":9,"traces_retained_total":0},"cache":{"version":1,"enabled":true,"hits":1,"misses":2,"evictions":0,"invalidations":0,"entries":5,"bytes":1632,"capacity_bytes":67108864,"memo":{"hits":0,"misses":0,"invalidations":0,"entries":4},"subsume":{"enabled":true,"derived_hits":3,"derived_scan_entries":3,"subsume_misses":2,"index_keys":1}},"store":{"version":1,"page_size_bytes":4096,"pages":2,"pool_pages":4,"pool_hits":11,"pool_misses":4,"pool_evictions":0,"page_reads":2,"page_writes":0,"wal_bytes":0,"wal_appends":10,"wal_syncs":1,"checkpoints":1,"checkpoint_age_seconds":_,"facts":4,"symbols":6,"generation":4},"forms":{"instructor_1_b":{"queries":4,"answered":3,"climbs":0,"mean_us":_,"p50_us":_,"p95_us":_,"p99_us":_,"strategy":"⟨R_instructor_prof D_prof R_instructor_grad D_grad⟩"},"instructor_1_f":{"queries":1,"answered":1,"climbs":0,"mean_us":_,"p50_us":_,"p95_us":_,"p99_us":_,"strategy":"⟨R_instructor_prof D_prof R_instructor_grad D_grad⟩"},"prof_1_b":{"queries":1,"answered":1,"climbs":0,"mean_us":_,"p50_us":_,"p95_us":_,"p99_us":_,"strategy":"⟨D_prof⟩"}}}|}

let expected_types =
  {|# TYPE strategem_answers_total counter
# TYPE strategem_busy_total counter
# TYPE strategem_cache_bytes gauge
# TYPE strategem_cache_capacity_bytes gauge
# TYPE strategem_cache_derived_hits_total counter
# TYPE strategem_cache_derived_scan_entries_total counter
# TYPE strategem_cache_enabled gauge
# TYPE strategem_cache_entries gauge
# TYPE strategem_cache_evictions_total counter
# TYPE strategem_cache_filter_latency_us histogram
# TYPE strategem_cache_hits_total counter
# TYPE strategem_cache_index_keys gauge
# TYPE strategem_cache_invalidations_total counter
# TYPE strategem_cache_misses_total counter
# TYPE strategem_cache_subsume_enabled gauge
# TYPE strategem_cache_subsume_misses_total counter
# TYPE strategem_climbs_total counter
# TYPE strategem_connections_total counter
# TYPE strategem_conns_open gauge
# TYPE strategem_domain_busy_us_total counter
# TYPE strategem_domain_connections_total counter
# TYPE strategem_domains gauge
# TYPE strategem_errors_total counter
# TYPE strategem_forms_active gauge
# TYPE strategem_forms_loaded_total counter
# TYPE strategem_idle_closed_total counter
# TYPE strategem_ip_limited_total counter
# TYPE strategem_learner_climbs gauge
# TYPE strategem_learner_delta gauge
# TYPE strategem_learner_epsilon gauge
# TYPE strategem_learner_finished gauge
# TYPE strategem_learner_samples gauge
# TYPE strategem_learner_samples_total gauge
# TYPE strategem_lifecycle_requests_total counter
# TYPE strategem_loop_conns_open gauge
# TYPE strategem_loop_pipeline_depth gauge
# TYPE strategem_loop_wakeups_total counter
# TYPE strategem_loops gauge
# TYPE strategem_memo_entries gauge
# TYPE strategem_memo_hits_total counter
# TYPE strategem_memo_invalidations_total counter
# TYPE strategem_memo_misses_total counter
# TYPE strategem_pipeline_depth gauge
# TYPE strategem_pipeline_depth_high_water gauge
# TYPE strategem_queries_total counter
# TYPE strategem_query_latency_us histogram
# TYPE strategem_slow_queries_total counter
# TYPE strategem_snapshot_forms_total counter
# TYPE strategem_snapshots_total counter
# TYPE strategem_stage_latency_us histogram
# TYPE strategem_store_checkpoint_age_seconds gauge
# TYPE strategem_store_checkpoints_total counter
# TYPE strategem_store_enabled gauge
# TYPE strategem_store_facts gauge
# TYPE strategem_store_generation gauge
# TYPE strategem_store_page_reads_total counter
# TYPE strategem_store_page_size_bytes gauge
# TYPE strategem_store_page_writes_total counter
# TYPE strategem_store_pages gauge
# TYPE strategem_store_pool_evictions_total counter
# TYPE strategem_store_pool_hits_total counter
# TYPE strategem_store_pool_misses_total counter
# TYPE strategem_store_pool_pages gauge
# TYPE strategem_store_symbols gauge
# TYPE strategem_store_wal_appends_total counter
# TYPE strategem_store_wal_bytes gauge
# TYPE strategem_store_wal_syncs_total counter
# TYPE strategem_trace_retained_exemplar gauge
# TYPE strategem_traces_retained_total counter
# TYPE strategem_uptime_seconds gauge
# TYPE strategem_write_overflow_total counter
# TYPE strategem_write_shed_bytes_total counter|}

(* Open the paged store the way [strategem serve --data-dir] does on a
   cold start: bulk-load the program's facts, then checkpoint. *)
let paged_db dir facts =
  let db = D.Database.open_paged ~dir ~buffer_pages:4 ~wal_sync:Store.Never () in
  List.iter (fun f -> ignore (D.Database.add db f)) facts;
  D.Database.checkpoint db;
  db

let golden_stats () =
  with_temp_dir (fun dir ->
      let rules, facts, _ = D.Parser.parse_kb kb_text in
      let db = paged_db dir facts in
      Fun.protect
        ~finally:(fun () -> D.Database.close db)
        (fun () ->
          let cfg =
            {
              Serve.Server.default_config with
              port = 0;
              loops = 1;
              metrics_port = Some 0;
            }
          in
          let thread, port, mport =
            Test_serve.spawn_server cfg ~rulebase:(D.Rulebase.of_list rules)
              ~db
          in
          let c = Serve.Client.connect ~proto:`Lines ~port () in
          List.iter (fun r -> ignore (Serve.Client.request c r)) script;
          let stats = Serve.Client.command c "STATS" in
          let json = Serve.Client.request c "STATS JSON" in
          let types =
            Test_serve.http_get ~port:mport "/metrics"
            |> String.split_on_char '\n'
            |> List.filter (fun l ->
                   String.length l > 7 && String.sub l 0 7 = "# TYPE ")
            |> List.sort compare
          in
          check_string "shutdown" "BYE" (Serve.Client.request c "SHUTDOWN");
          Serve.Client.close c;
          Thread.join thread;
          check_string "STATS" expected_stats (mask (String.concat "\n" stats));
          check_string "STATS JSON" expected_json (mask json);
          check_string "/metrics families" expected_types
            (String.concat "\n" types)))

(* The slow-request record: with a threshold every request crosses and
   warn-level logging to a file, two bursts of queries more than the
   limiter's second apart must log exactly one record each, and each
   must carry the retained request's lifecycle span tree. The slow
   counter and the slow-retention counter count the same requests. *)
let slow_records () =
  let rules, facts, _ = D.Parser.parse_kb kb_text in
  let log_path = Filename.temp_file "strategem" ".log" in
  Fun.protect
    ~finally:(fun () -> Sys.remove log_path)
    (fun () ->
      let cfg =
        {
          Serve.Server.default_config with
          port = 0;
          loops = 1;
          metrics_port = Some 0;
          slow_query_us = 0.001;
          log_level = Some Obs.Log.Warn;
          log_file = Some log_path;
        }
      in
      let thread, port, mport =
        Test_serve.spawn_server cfg ~rulebase:(D.Rulebase.of_list rules)
          ~db:(D.Database.of_list facts)
      in
      let burst = 20 in
      let c = Serve.Client.connect ~proto:`V4 ~port () in
      let send_burst () =
        for _ = 1 to burst do
          ignore (Serve.Client.request c "QUERY instructor(manolis)")
        done
      in
      send_burst ();
      Thread.delay 1.2;
      send_burst ();
      let counter samples name labels =
        List.fold_left
          (fun acc s ->
            if s.Obs.Expo.metric = name && s.Obs.Expo.labels = labels then
              acc +. s.Obs.Expo.value
            else acc)
          0.0 samples
      in
      (* finalization follows the flush, so the last reply can beat its
         retention by a moment *)
      let deadline = Unix.gettimeofday () +. 10.0 in
      let rec scrape () =
        let samples =
          Obs.Expo.parse_samples (Test_serve.http_get ~port:mport "/metrics")
        in
        let retained =
          counter samples "strategem_traces_retained_total"
            [ ("reason", "slow") ]
        in
        if retained < float_of_int (2 * burst) && Unix.gettimeofday () < deadline
        then begin
          Thread.delay 0.02;
          scrape ()
        end
        else (samples, retained)
      in
      let samples, retained = scrape () in
      check_int "every query retained as slow" (2 * burst)
        (int_of_float retained);
      check_int "slow counter = slow retentions" (int_of_float retained)
        (int_of_float (counter samples "strategem_slow_queries_total" []));
      check_string "shutdown" "BYE" (Serve.Client.request c "SHUTDOWN");
      Serve.Client.close c;
      Thread.join thread;
      let records =
        In_channel.with_open_bin log_path In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (fun l -> l <> "")
        |> List.map (fun l ->
               match Trace.Json.parse l with
               | Trace.Json.Obj fields -> fields
               | _ -> Alcotest.failf "log line is not an object: %s" l)
        |> List.filter (fun r ->
               List.assoc_opt "level" r = Some (Trace.Json.Str "warn"))
      in
      (* the closing SHUTDOWN is slow too; it may or may not be admitted *)
      let queries =
        List.filter
          (fun r ->
            List.assoc_opt "request" r
            <> Some (Trace.Json.Str "SHUTDOWN"))
          records
      in
      check_int "one warn record per limiter admission" 2
        (List.length queries);
      List.iter
        (fun r ->
          check_bool "record names the slow reason" true
            (List.assoc_opt "reason" r = Some (Trace.Json.Str "slow"));
          match List.assoc_opt "span" r with
          | Some (Trace.Json.Obj _ as v) ->
            check_string "span rooted at the request" "request"
              (Trace.kind (Trace.of_json_value v))
          | _ -> Alcotest.fail "retention record without a span tree")
        queries;
      match List.assoc_opt "suppressed" (List.nth queries 1) with
      | Some (Trace.Json.Num n) ->
        check_bool "the second record counts the suppressed" true
          (int_of_string n > 0)
      | _ -> Alcotest.fail "retention record without suppressed")

let suite =
  [
    ( "telemetry",
      [
        slow_case "golden STATS, STATS JSON and families" golden_stats;
        slow_case "one slow record per admission, with its span" slow_records;
      ] );
  ]
