(* E18 — the serve daemon under closed-loop load.

   An in-process `strategem serve` instance (ephemeral port, 2 loops)
   answers genealogy queries from N concurrent closed-loop clients, each
   holding one connection and issuing its next query as soon as the
   previous reply lands. A fresh server per row keeps the learning
   trajectories comparable; the climb count comes from the server's own
   STATS. *)

let total_queries = 2_000
let client_counts = [ 1; 2; 4; 8 ]

let run () =
  let rows =
    List.map
      (fun clients ->
        let rulebase, db, people =
          Servekit.genealogy ~seed:19L ~n_people:300
        in
        let server =
          Servekit.start
            { Serve.Server.default_config with loops = 2 }
            ~rulebase ~db
        in
        (* The line dialect keeps this row comparable with historical
           runs (pipelined v4 load is E24's subject). *)
        let wall, lats =
          Servekit.fan_in ~clients (fun k ->
              let rng = Stats.Rng.create (Int64.of_int (100 + k)) in
              Servekit.line_client server.port ~n:(total_queries / clients)
                (fun () ->
                  Servekit.relative
                    people.(Stats.Rng.int rng (Array.length people))))
        in
        let climbs = Servekit.stats_then_stop server "climbs_total" in
        let sorted = Servekit.sorted lats in
        let n = Array.length sorted in
        let mean = Array.fold_left ( +. ) 0.0 sorted /. float_of_int n in
        [
          Table.i clients;
          Table.i n;
          Table.f2 wall;
          Table.f2 (float_of_int n /. wall);
          Table.f2 mean;
          Table.f2 (Servekit.percentile sorted 0.95);
          Table.i climbs;
        ])
      client_counts
  in
  Table.print
    ~title:
      "E18: serve daemon, closed-loop genealogy clients (2 loops, fresh \
       server per row)"
    ~header:
      [ "clients"; "queries"; "wall s"; "q/s"; "mean ms"; "p95 ms"; "climbs" ]
    rows
