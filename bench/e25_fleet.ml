(* E25 — reactor-fleet fan-in: throughput and tail latency of many
   concurrent connections as the event-loop count grows.

   E24 measures one pipelined connection; here the bottleneck under test
   is the reactor itself: 8 v4 connections drive the server at
   once, and each loop runs its connections' requests to completion, so
   with a single event loop every read/parse/execute/flush serializes on
   one domain. Sharding the reactor (--loops N, one loop per domain)
   spreads them; this experiment reports how fan-in scales across fleet
   sizes.

   For each fleet size in E25_LOOPS_LIST (default "1,2,4"), against a
   fresh in-process server (same seeds, comparable trajectories):

   S. single-form closed loop — 8 connections, each pipelining 16
      requests over the E24-style Zipf pool of
      relative(person) queries. Aggregate q/s is the fan-in throughput.

   M. mixed-form closed loop — the same fan-in, but the pool is Zipf
      over query *forms* (relative, sibling, ancestor_of_probe, inlaw,
      parent_of_probe, grandparent_of_probe — hot forms dominate, cold
      forms keep missing the per-form caches), the open-loop E24
      traffic shape generalized to many forms. Stresses the registry
      and cache cross-section rather than one learner.

   O. mixed-form open loop — the mixed pool again, but offered on a
      fixed schedule at the 1-loop single-form rate (equal offered load
      across fleet sizes), each connection sending its share. Latency
      is measured from the scheduled send time (no coordinated
      omission), so the p99 column shows queueing delay the fleet does
      or does not absorb.

   Knobs: the table in EXPERIMENTS.md. E25_REQUIRE_GATE (non-empty)
   exits 1 when the gate fails — the CI smoke gate: mixed-form closed
   q/s at 2 loops must be >= 0.9x the 1-loop rate. The gate is a
   no-regression bar, not a scaling claim — closed phases are best-of-2
   to shrug off scheduler preemption, and on a single-core host the
   gate is advisory, since a second loop domain can only timeshare
   there. *)

let total_queries () = Servekit.env_int "E25_QUERIES" 2_000
let n_people () = Servekit.env_int "E25_PEOPLE" 5_000
let conns = 8
let window = 16
let speedup_min = 0.9

let loops_list () =
  match Sys.getenv_opt "E25_LOOPS_LIST" with
  | None | Some "" -> [ 1; 2; 4 ]
  | Some s ->
    String.split_on_char ',' s
    |> List.filter_map (fun x -> int_of_string_opt (String.trim x))
    |> List.filter (fun l -> l >= 1)

let json_of_phase (name, loops, s) =
  Printf.sprintf "{\"phase\":\"%s\",\"loops\":%d,%s}" name loops
    (Servekit.summary_json s)

let run () =
  let rulebase, db, people =
    Servekit.genealogy ~seed:23L ~n_people:(n_people ())
  in
  let single = Servekit.bound_pool people in
  let mixed = Servekit.mixed_form_pool people in
  let n = total_queries () in
  let per = Int.max 1 (n / conns) in
  let fan_in client =
    Servekit.summary (Servekit.fan_in ~clients:conns client)
  in
  let closed pool port =
    let one seed0 =
      fan_in (fun k ->
          Servekit.pipelined_client port ~n:per ~window
            (Servekit.zipf_draw pool ~seed:(seed0 + k)))
    in
    let a = one 7 in
    let b = one 107 in
    Servekit.best (fun (s : Servekit.summary) -> s.qps) [ a; b ]
  in
  let anchor_rate = ref 0.0 in
  let rows =
    List.concat_map
      (fun loops ->
        let server =
          Servekit.start
            { Serve.Server.default_config with loops }
            ~rulebase ~db
        in
        let s = closed single server.port in
        if !anchor_rate = 0.0 then anchor_rate := s.qps;
        let m = closed mixed server.port in
        let rate = !anchor_rate /. float_of_int conns in
        let o =
          fan_in (fun k ->
              Servekit.open_loop_client server.port ~n:per ~rate
                (Servekit.zipf_draw mixed ~seed:(7 + k)))
        in
        Servekit.stop server;
        [
          ("single closed", loops, s);
          ("mixed closed", loops, m);
          (Printf.sprintf "mixed open @ %.0f/s" !anchor_rate, loops, o);
        ])
      (loops_list ())
  in
  Table.print
    ~title:
      (Printf.sprintf
         "E25: reactor-fleet fan-in, %d conns x window %d (%d queries per \
          phase, %d people; open-loop latency measured from the \
          scheduled send time)"
         conns window n (n_people ()))
    ~header:("phase" :: "loops" :: Servekit.summary_header)
    (List.map
       (fun (name, loops, s) ->
         name :: Table.i loops :: Servekit.summary_cells s)
       rows);
  let mixed_at l =
    List.find_map
      (fun (name, loops, s) ->
        if loops = l && name = "mixed closed" then Some s.Servekit.qps
        else None)
      rows
  in
  let ratio =
    match (mixed_at 1, mixed_at 2) with
    | Some one, Some two -> Some (two /. one)
    | _ -> None
  in
  Option.iter
    (Table.note "fleet fan-in (mixed-form closed, 2 loops / 1 loop): %.2fx\n")
    ratio;
  Servekit.write_output "E25_JSON"
    (Printf.sprintf
       "{\"experiment\":\"e25\",\"queries\":%d,\"conns\":%d,\"window\":%d,\
        \"people\":%d,\"zipf_s\":%g,\"rows\":[%s]%s}"
       n conns window (n_people ()) Servekit.zipf_s
       (String.concat "," (List.map json_of_phase rows))
       (match ratio with
       | Some x -> Printf.sprintf ",\"mixed_2loop_over_1loop\":%.3f" x
       | None -> ""));
  Servekit.gate "E25_REQUIRE_GATE"
    ~advisory:(ratio <> None && Servekit.single_core ())
    ~passed:"fleet fan-in gate passed"
    (match ratio with
    | None ->
      [ (true, "E25: gate needs loop counts 1 and 2 in E25_LOOPS_LIST") ]
    | Some x ->
      [
        ( x < speedup_min,
          Printf.sprintf
            "E25: mixed-form fan-in at 2 loops is %.2fx the 1-loop rate \
             (< %.2fx)"
            x speedup_min );
      ])
