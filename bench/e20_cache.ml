(* E20 — answer caching & subgoal memoization on the serve path.

   A closed-loop Zipf-repeated genealogy mix against an in-process
   `strategem serve` instance, cache off vs cache on, same workload and
   seeds. The query pool has 32 entries: rank 1 is the free query
   relative(X) — expensive, because a free retrieval eagerly materializes
   every match in the relation — and ranks 2..32 are bound relative(name)
   queries (indexed, cheap). Zipf skew means the heavy head query repeats
   constantly, which is precisely the traffic an answer cache turns
   near-free; the learner still observes every query either way.

   Knobs: see EXPERIMENTS.md. *)

let total_queries () = Servekit.env_int "E20_QUERIES" 4_000
let n_clients () = Servekit.env_int "E20_CLIENTS" 4
let n_people () = Servekit.env_int "E20_PEOPLE" 20_000

type row = {
  cache : bool;
  s : Servekit.summary;
  hit_rate : float;
  memo_hits : int;
  climbs : int;
}

let run_row ~cache ~db ~rulebase ~pool =
  let clients = n_clients () in
  let server =
    Servekit.start
      {
        Serve.Server.default_config with
        loops = 2;
        cache_mb = (if cache then 64 else 0);
      }
      ~rulebase ~db
  in
  let s =
    Servekit.summary
      (Servekit.fan_in ~clients (fun k ->
           Servekit.line_client server.port ~n:(total_queries () / clients)
             (Servekit.zipf_draw pool ~seed:(100 + k))))
  in
  let stat = Servekit.stats_then_stop server in
  let queries_total = stat "queries_total" in
  {
    cache;
    s;
    hit_rate =
      (if queries_total = 0 then 0.0
       else float_of_int (stat "cache_hits") /. float_of_int queries_total);
    memo_hits = stat "memo_hits";
    climbs = stat "climbs_total";
  }

let json_of_row r =
  Printf.sprintf "{\"cache\":%b,%s,\"hit_rate\":%.3f,\"memo_hits\":%d,\
                  \"climbs\":%d}"
    r.cache (Servekit.summary_json r.s) r.hit_rate r.memo_hits r.climbs

let run () =
  let rulebase, db, people =
    Servekit.genealogy ~seed:23L ~n_people:(n_people ())
  in
  let pool = Servekit.free_head_pool people in
  let off = run_row ~cache:false ~db ~rulebase ~pool in
  let on = run_row ~cache:true ~db ~rulebase ~pool in
  let rows = [ off; on ] in
  Table.print
    ~title:
      (Printf.sprintf
         "E20: answer cache on the serve path (%d people, Zipf-%g pool of \
          %d, %d clients)"
         (n_people ()) Servekit.zipf_s Servekit.pool_size (n_clients ()))
    ~header:
      (("cache" :: Servekit.summary_header)
      @ [ "hit rate"; "memo hits"; "climbs" ])
    (List.map
       (fun r ->
         (Table.yesno r.cache :: Servekit.summary_cells r.s)
         @ [ Table.pct r.hit_rate; Table.i r.memo_hits; Table.i r.climbs ])
       rows);
  Table.note "speedup (cache on / off): %.2fx throughput, p99 %.3f -> %.3f ms\n"
    (on.s.qps /. off.s.qps) off.s.p99_ms on.s.p99_ms;
  Servekit.write_output "E20_JSON"
    (Printf.sprintf
       "{\"experiment\":\"e20\",\"queries\":%d,\"clients\":%d,\"people\":%d,\
        \"pool\":%d,\"zipf_s\":%g,\"rows\":[%s],\"throughput_speedup\":%.2f}"
       (total_queries ()) (n_clients ()) (n_people ()) Servekit.pool_size
       Servekit.zipf_s
       (String.concat "," (List.map json_of_row rows))
       (on.s.qps /. off.s.qps))
