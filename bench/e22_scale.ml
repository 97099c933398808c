(* E22 — multicore scaling of the serve path.

   The same closed-loop Zipf genealogy mix as E20, served by reactor
   fleets of 1 and 2 loops. Each row starts a fresh in-process
   `strategem serve` with `loops = d`: d event-loop domains, each
   running its connections' requests to completion. The row also
   records the domain count the server reports (the additive `domains`
   STATS field). The scaling claim is throughput: with the symbol table,
   database counters and registry hot paths domain-safe, q/s should
   rise with loops up to the physical core count.

   Knobs: the table in EXPERIMENTS.md. E22_REQUIRE_GATE (non-empty)
   exits 1 unless the 2-loop row's throughput is at least
   E22_SPEEDUP_MIN times the 1-loop row's — the CI smoke gate. *)

let total_queries () = Servekit.env_int "E22_QUERIES" 4_000
let n_clients () = Servekit.env_int "E22_CLIENTS" 8
let n_people () = Servekit.env_int "E22_PEOPLE" 20_000
let cache_mb = 64

type row = {
  loops : int;  (* --loops value *)
  domains : int;  (* domains the server reports *)
  s : Servekit.summary;
  climbs : int;
}

let run_row ~loops ~db ~rulebase ~pool =
  let clients = n_clients () in
  let server =
    Servekit.start
      { Serve.Server.default_config with loops; cache_mb }
      ~rulebase ~db
  in
  let s =
    Servekit.summary
      (Servekit.fan_in ~clients (fun k ->
           Servekit.line_client server.port ~n:(total_queries () / clients)
             (Servekit.zipf_draw pool ~seed:(100 + k))))
  in
  let stat = Servekit.stats_then_stop server in
  { loops; domains = stat "domains"; s; climbs = stat "climbs_total" }

let json_of_row r =
  Printf.sprintf "{\"loops\":%d,\"domains\":%d,%s,\"climbs\":%d}" r.loops
    r.domains (Servekit.summary_json r.s) r.climbs

let run () =
  let rulebase, db, people =
    Servekit.genealogy ~seed:23L ~n_people:(n_people ())
  in
  let pool = Servekit.free_head_pool people in
  let one = run_row ~loops:1 ~db ~rulebase ~pool in
  let two = run_row ~loops:2 ~db ~rulebase ~pool in
  let rows = [ one; two ] in
  Table.print
    ~title:
      (Printf.sprintf
         "E22: serve-path scaling over event loops (%d people, Zipf-%g \
          pool of %d, %d clients; host recommends %d domain(s))"
         (n_people ()) Servekit.zipf_s Servekit.pool_size (n_clients ())
         (Domain.recommended_domain_count ()))
    ~header:(("loops" :: "domains" :: Servekit.summary_header) @ [ "climbs" ])
    (List.map
       (fun r ->
         (Table.i r.loops :: Table.i r.domains :: Servekit.summary_cells r.s)
         @ [ Table.i r.climbs ])
       rows);
  let speedup_2 = two.s.qps /. one.s.qps in
  Table.note "speedup at 2 loops vs 1: %.2fx throughput\n" speedup_2;
  Servekit.write_output "E22_JSON"
    (Printf.sprintf
       "{\"experiment\":\"e22\",\"queries\":%d,\"clients\":%d,\"people\":%d,\
        \"pool\":%d,\"zipf_s\":%g,\"cache_mb\":%d,\
        \"recommended_domains\":%d,\"rows\":[%s],\"speedup_2_vs_1\":%.2f}"
       (total_queries ()) (n_clients ()) (n_people ()) Servekit.pool_size
       Servekit.zipf_s cache_mb
       (Domain.recommended_domain_count ())
       (String.concat "," (List.map json_of_row rows))
       speedup_2);
  let min_ratio = Servekit.env_float "E22_SPEEDUP_MIN" 1.0 in
  Servekit.gate "E22_REQUIRE_GATE" ~passed:"speedup gate passed"
    [
      ( two.s.qps < one.s.qps *. min_ratio,
        Printf.sprintf
          "E22: 2-loop throughput %.1f q/s below %.2fx the 1-loop %.1f q/s"
          two.s.qps min_ratio one.s.qps );
    ]
