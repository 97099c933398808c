(* E24 — protocol v4 pipelining vs the v3 line protocol.

   Three phases against fresh in-process `strategem serve` instances
   (fresh server per phase, same seeds, so the learning trajectories
   and cache states are comparable), each on one connection running
   2000 queries, on a fleet of one loop per core:

   A. v3 closed loop — sequential line requests (window 1). Its
      throughput is the offered-load anchor and its p99 the latency
      bar.

   B. v4 pipelined — the same queries with 32 requests in flight. The
      tentpole claim is throughput: one pipelined connection must
      sustain >= E24_SPEEDUP_MIN (default 2) times the sequential v3
      rate, because the window lets the owning loop run a whole read's
      worth of requests per wakeup where the line dialect leaves it
      idle for a full RTT per request.

   C. v4 open loop — requests posted on a fixed schedule at exactly
      phase A's achieved rate (equal offered load), responses collected
      by a second thread, latency measured from the scheduled send time.
      The gate: open-loop v4 p99 <= E24_P99_FACTOR (default 1.0) x the
      v3 closed-loop p99.

   Knobs: the table in EXPERIMENTS.md. E24_REQUIRE_GATE (non-empty)
   exits 1 when either gate fails — the CI smoke gate. The p99 bar is
   max(factor x closed p99, E24_P99_FLOOR_MS): the floor keeps the gate
   meaningful on small/shared hosts where open-loop p99 is dominated by
   sender scheduling jitter rather than server queueing; it still
   catches lost-wakeup-class stalls, which show up as hundreds of ms. *)

let total_queries = 2_000
let window = 32
let n_people () = Servekit.env_int "E24_PEOPLE" 5_000

let json_of_phase (name, s) =
  Printf.sprintf "{\"phase\":\"%s\",%s}" name (Servekit.summary_json s)

let run () =
  let rulebase, db, people =
    Servekit.genealogy ~seed:23L ~n_people:(n_people ())
  in
  let pool = Servekit.bound_pool people in
  let n = total_queries in
  (* the default config runs one loop per core *)
  let loops = Serve.Server.default_loops () in
  let run_phase client =
    let server = Servekit.start Serve.Server.default_config ~rulebase ~db in
    let s =
      Servekit.summary
        (client server.Servekit.port (Servekit.zipf_draw pool ~seed:7))
    in
    Servekit.stop server;
    s
  in
  let a = run_phase (Servekit.line_client ~n) in
  let b = run_phase (Servekit.pipelined_client ~n ~window) in
  let o = run_phase (Servekit.open_loop_client ~n ~rate:a.qps) in
  let rows =
    [
      ("v3 closed loop", a);
      (Printf.sprintf "v4 window %d" window, b);
      (Printf.sprintf "v4 open loop @ %.0f/s" a.qps, o);
    ]
  in
  Table.print
    ~title:
      (Printf.sprintf
         "E24: protocol v4 pipelining, one connection (%d queries, \
          Zipf-%g pool of %d, %d people, %d loops; latency in phase C \
          measured from the scheduled send time)"
         n Servekit.zipf_s Servekit.pool_size (n_people ()) loops)
    ~header:("phase" :: Servekit.summary_header)
    (List.map (fun (name, s) -> name :: Servekit.summary_cells s) rows);
  let speedup = b.qps /. a.qps in
  Table.note
    "pipelining speedup (v4 window %d / v3 sequential): %.2fx throughput; \
     open-loop p99 %.3f ms vs closed-loop %.3f ms\n"
    window speedup o.p99_ms a.p99_ms;
  Servekit.write_output "E24_JSON"
    (Printf.sprintf
       "{\"experiment\":\"e24\",\"queries\":%d,\"window\":%d,\"people\":%d,\
        \"loops\":%d,\"pool\":%d,\"zipf_s\":%g,\"rows\":[%s],\
        \"speedup\":%.2f,\"open_p99_ms\":%.3f,\"closed_p99_ms\":%.3f}"
       n window (n_people ()) loops Servekit.pool_size Servekit.zipf_s
       (String.concat "," (List.map json_of_phase rows))
       speedup o.p99_ms a.p99_ms);
  let speedup_min = Servekit.env_float "E24_SPEEDUP_MIN" 2.0 in
  let p99_factor = Servekit.env_float "E24_P99_FACTOR" 1.0 in
  let p99_floor = Servekit.env_float "E24_P99_FLOOR_MS" 0.0 in
  let p99_bar = Float.max (a.p99_ms *. p99_factor) p99_floor in
  Servekit.gate "E24_REQUIRE_GATE" ~passed:"pipelining gates passed"
    [
      ( speedup < speedup_min,
        Printf.sprintf
          "E24: pipelined throughput %.1f q/s is %.2fx the sequential %.1f \
           q/s (< %.2fx)"
          b.qps speedup a.qps speedup_min );
      ( o.p99_ms > p99_bar,
        Printf.sprintf
          "E24: open-loop v4 p99 %.3f ms exceeds the bar %.3f ms (max of \
           %.2fx closed-loop p99 %.3f ms and floor %.1f ms)"
          o.p99_ms p99_bar p99_factor a.p99_ms p99_floor );
    ]
