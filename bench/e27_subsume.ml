(* E27 — subsumption-derived cache hits on the serve path.

   The workload is a binary disjunction tree of depth D (2^D extensional
   leaves under a membership form r(X)) over a sparse database: M
   members spread across the leaves, probed with ground r(name) queries
   drawn from a much larger name universe, so almost every probe is
   distinct and most answers are "no". A ground "no" is the expensive
   case for SLD — every branch is refuted, a reduction per internal node
   plus a retrieval per leaf — while the full answer set of the free
   query r(X) is only M rows, exactly the shape where filtering a cached
   general entry beats re-deriving.

   Phase A (derived-hit phase): warm each server with r(X) — its
   complete M-row answer set is enumerated into the cache — then hammer
   it with the ground probes over a pipelined v4 connection per client.
   With subsumption off every probe is an exact-key miss and pays the
   full SLD refutation; with it on every probe is answered by filtering
   the warm entry. The gate: subsume-on throughput >=
   1.3 x subsume-off.

   Phase B (miss-path overhead): fresh servers, never warmed, and a
   shared stream of all-distinct ground probes — no subsumable
   generalization exists (ground fills are not indexed), so every query
   is a cold miss in both arms and the subsume arm additionally pays the
   index probe and the filter-latency clock on each one. The gate: that
   always-failing probe costs <= 3% of throughput. Each arm runs three
   times and keeps its best rate, so the gates measure the probe, not
   scheduler jitter.

   Both phases run 3000 queries per arm over 2 clients, each a v4
   connection with 32 requests in flight. Knobs: the table in
   EXPERIMENTS.md. E27_REQUIRE_GATE (non-empty) exits 1 when a gate
   fails — the CI smoke gate. *)

module D = Datalog

let total_queries = 3_000
let n_clients = 2
let window = 32
let depth = 4
let n_members = 64
let repeats = 3
let speedup_min = 1.3
let overhead_max = 0.03

(* Probes come from a name universe 256x the member count, so random
   draws are almost always non-members and almost always distinct. *)
let universe = 256 * n_members

(* A binary disjunction tree of depth [depth]: r = t1, each internal
   t<i> has rules t<i>(X) :- t<2i>(X) and t<i>(X) :- t<2i+1>(X), and
   each of the 2^depth leaves retrieves its own extensional relation.
   Binary fan-out keeps every node at two siblings (the learner's
   reordering work stays linear in the graph), while a ground "no"
   probe still pays a reduction per internal node plus a retrieval per
   leaf — reduction arcs are not blockable, so the learner's context
   build skips them and only probes the leaves. *)
let make_kb () =
  let leaves = 1 lsl depth in
  let buf = Buffer.create (leaves * 64) in
  Buffer.add_string buf "r(X) :- t1(X).\n";
  for i = 1 to leaves - 1 do
    Buffer.add_string buf (Printf.sprintf "t%d(X) :- t%d(X).\n" i (2 * i));
    Buffer.add_string buf (Printf.sprintf "t%d(X) :- t%d(X).\n" i ((2 * i) + 1))
  done;
  for i = leaves to (2 * leaves) - 1 do
    Buffer.add_string buf (Printf.sprintf "t%d(X) :- leaf%d(X).\n" i (i - leaves))
  done;
  let rules, _, _ = D.Parser.parse_kb (Buffer.contents buf) in
  let facts =
    List.init n_members (fun j ->
        D.Parser.parse_atom (Printf.sprintf "leaf%d(p%d)" (j mod leaves) j))
  in
  (D.Rulebase.of_list rules, D.Database.of_list facts)

type row = {
  phase : string;
  subsume : bool;
  s : Servekit.summary;
  hits : int;
  derived : int;
  misses : int;
}

(* One measured run: [n_clients] pipelined clients over one server,
   drawing queries [query_of 0], [query_of 1], ... between them. *)
let run_once ~phase ~subsume ~warm ~query_of ~db ~rulebase =
  let server =
    Servekit.start
      { Serve.Server.default_config with loops = 2; cache_mb = 64; subsume }
      ~rulebase ~db
  in
  if warm then ignore (Servekit.command server "QUERY r(X)");
  let next = Atomic.make 0 in
  let s =
    Servekit.summary
      (Servekit.fan_in ~clients:n_clients (fun _ ->
           Servekit.pipelined_client server.port
             ~n:(total_queries / n_clients) ~window (fun () ->
               query_of (Atomic.fetch_and_add next 1))))
  in
  let stat = Servekit.stats_then_stop server in
  {
    phase;
    subsume;
    s;
    hits = stat "cache_hits";
    derived = stat "cache_derived_hits";
    misses = stat "cache_misses";
  }

(* Both arms of a phase, best-of-[repeats] by throughput. The arm order
   alternates between repeats and the heap is compacted before each
   run, so slow drift in the shared process (GC pressure, allocator
   state) cannot systematically favor either arm. *)
let run_pair ~phase ~warm ~query_of ~db ~rulebase =
  let one subsume =
    Gc.compact ();
    run_once ~phase ~subsume ~warm ~query_of ~db ~rulebase
  in
  let runs =
    List.concat
      (List.init repeats (fun rep ->
           if rep mod 2 = 0 then
             let off = one false in
             [ off; one true ]
           else
             let on = one true in
             [ on; one false ]))
  in
  let arm subsume =
    Servekit.best
      (fun r -> r.s.qps)
      (List.filter (fun r -> r.subsume = subsume) runs)
  in
  (arm false, arm true)

let json_of_row r =
  Printf.sprintf
    "{\"phase\":%S,\"subsume\":%b,\"queries\":%d,\"wall_s\":%.3f,\
     \"qps\":%.1f,\"hits\":%d,\"derived_hits\":%d,\"misses\":%d}"
    r.phase r.subsume r.s.queries r.s.wall_s r.s.qps r.hits r.derived
    r.misses

let run () =
  let rulebase, db = make_kb () in
  (* Phase A: random ground probes, drawn identically in both arms.
     19 in 20 from the full universe (almost surely "no" and almost
     surely distinct), 1 in 20 a member (a derived "yes" on the subsume
     arm). *)
  let rng = Stats.Rng.create 27L in
  let probes =
    Array.init total_queries (fun _ ->
        if Stats.Rng.int rng 20 = 0 then
          Printf.sprintf "QUERY r(p%d)" (Stats.Rng.int rng n_members)
        else Printf.sprintf "QUERY r(p%d)" (Stats.Rng.int rng universe))
  in
  let random_probe k = probes.(k mod Array.length probes) in
  let a_off, a_on =
    run_pair ~phase:"derived" ~warm:true ~query_of:random_probe ~db ~rulebase
  in
  (* Phase B: all-distinct non-member probes against a cold cache. *)
  let distinct_probe k = Printf.sprintf "QUERY r(q%d)" k in
  let b_off, b_on =
    run_pair ~phase:"miss" ~warm:false ~query_of:distinct_probe ~db ~rulebase
  in
  let rows = [ a_off; a_on; b_off; b_on ] in
  Table.print
    ~title:
      (Printf.sprintf
         "E27: subsumption-derived hits (depth-%d tree, %d members, %d \
          queries/arm, %d clients x window %d, best of %d)"
         depth n_members total_queries n_clients window repeats)
    ~header:
      [
        "phase"; "subsume"; "queries"; "wall s"; "q/s"; "hits"; "derived";
        "misses";
      ]
    (List.map
       (fun r ->
         [
           r.phase;
           Table.yesno r.subsume;
           Table.i r.s.queries;
           Table.f2 r.s.wall_s;
           Table.f1 r.s.qps;
           Table.i r.hits;
           Table.i r.derived;
           Table.i r.misses;
         ])
       rows);
  let speedup = a_on.s.qps /. a_off.s.qps in
  let overhead = 1.0 -. (b_on.s.qps /. b_off.s.qps) in
  Table.note
    "derived-hit speedup (subsume on / off): %.2fx (gate >= %.2fx)\n\
     miss-path overhead: %.1f%% (gate <= %.1f%%)\n"
    speedup speedup_min (100.0 *. overhead) (100.0 *. overhead_max);
  Servekit.write_output "E27_JSON"
    (Printf.sprintf
       "{\"experiment\":\"e27\",\"queries\":%d,\"clients\":%d,\"window\":%d,\
        \"depth\":%d,\"members\":%d,\"repeats\":%d,\"rows\":[%s],\
        \"derived_speedup\":%.2f,\"miss_overhead\":%.4f,\
        \"speedup_min\":%.2f,\"overhead_max\":%.4f}"
       total_queries n_clients window depth n_members repeats
       (String.concat "," (List.map json_of_row rows))
       speedup overhead speedup_min overhead_max);
  Servekit.gate "E27_REQUIRE_GATE" ~passed:"subsumption gates passed"
    [
      (a_on.derived = 0, "E27: derived phase served no derived hits");
      ( speedup < speedup_min,
        Printf.sprintf "E27: derived-hit speedup gate failed (%.2fx < %.2fx)"
          speedup speedup_min );
      ( overhead > overhead_max,
        Printf.sprintf "E27: miss-path overhead gate failed (%.1f%% > %.1f%%)"
          (100.0 *. overhead) (100.0 *. overhead_max) );
    ]
