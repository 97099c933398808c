(* E26 — observability overhead of the always-on request-lifecycle
   layer: flight recorder + lifecycle spans + stage histograms on vs
   off under the E25 mixed-form closed-loop workload.

   The lifecycle layer stamps every executed request through
   accept → frame → queue → worker → flush, writes a flight-recorder
   event per transition into the owning loop's lock-free ring, and on
   finalize replays the ring slice into per-stage histograms (plus a
   retained span tree when the request was slow / errored).
   All of that is on by default, so its cost is a tax on every
   request; this experiment measures that tax and gates it.

   Two arms against otherwise-identical in-process servers:

   off. lifecycle = false, flight_capacity = 0 — the serving path
        without the lifecycle layer (and so without tail retention).
   on.  the default config — lifecycle on, a 4096-event ring per
        loop, 64 retained traces per loop.

   Each arm is the E25 mixed-form closed loop (8 pipelined v4
   connections, window 16, Zipf over query forms) on a 2-loop fleet,
   best-of-3 (throughput noise on a timeshared host is downward-only,
   so the best rep is the truest reading). Arms alternate off/on per
   rep so slow drift (page cache, CPU frequency) hits both equally.

   overhead% = (off q/s / on q/s - 1) x 100.

   Knobs: the table in EXPERIMENTS.md. E26_FLIGHT_DUMP (path) gets the
   last on-arm server's FLIGHT envelope before shutdown — the CI
   failure artifact. E26_REQUIRE_GATE (non-empty) exits 1 when
   overhead% > 3; advisory on a single-core host where the arms can
   only timeshare. *)

let total_queries = 2_000
let n_people () = Servekit.env_int "E26_PEOPLE" 5_000
let conns = 8
let window = 16
let loops = 2
let reps = 3
let max_overhead_pct = 3.0

let config ~lifecycle =
  let base = { Serve.Server.default_config with loops } in
  if lifecycle then base
  else { base with lifecycle = false; flight_capacity = 0 }

let run () =
  let rulebase, db, people =
    Servekit.genealogy ~seed:23L ~n_people:(n_people ())
  in
  let pool = Servekit.mixed_form_pool people in
  let per = Int.max 1 (total_queries / conns) in
  (* alternate arms per rep so slow host drift taxes both equally;
     best-of across reps per arm *)
  let runs =
    List.init (2 * reps) (fun r ->
        let lifecycle = r mod 2 = 1 in
        let server = Servekit.start (config ~lifecycle) ~rulebase ~db in
        let s =
          Servekit.summary
            (Servekit.fan_in ~clients:conns (fun k ->
                 Servekit.pipelined_client server.port ~n:per ~window
                   (Servekit.zipf_draw pool ~seed:(7 + (100 * r) + k))))
        in
        if r = (2 * reps) - 1 && Servekit.env_set "E26_FLIGHT_DUMP" then
          Servekit.write_output "E26_FLIGHT_DUMP"
            (String.concat "\n" (Servekit.command server "FLIGHT"));
        Servekit.stop server;
        (lifecycle, s))
  in
  let arm lifecycle =
    Servekit.best
      (fun (s : Servekit.summary) -> s.qps)
      (List.filter_map
         (fun (l, s) -> if l = lifecycle then Some s else None)
         runs)
  in
  let off = arm false and on = arm true in
  let overhead_pct = ((off.qps /. on.qps) -. 1.0) *. 100.0 in
  Table.print
    ~title:
      (Printf.sprintf
         "E26: lifecycle + flight-recorder overhead, mixed-form closed loop \
          (%d conns x window %d, %d queries per rep, best of %d reps, %d \
          loops)"
         conns window total_queries reps loops)
    ~header:[ "arm"; "queries"; "wall s"; "q/s"; "p99 ms" ]
    (List.map
       (fun (arm, (s : Servekit.summary)) ->
         [
           arm; Table.i s.queries; Table.f2 s.wall_s; Table.f1 s.qps;
           Table.f3 s.p99_ms;
         ])
       [ ("lifecycle off", off); ("lifecycle on", on) ]);
  Table.note
    "always-on lifecycle overhead: %.2f%% (off %.1f q/s, on %.1f q/s)\n"
    overhead_pct off.qps on.qps;
  Servekit.write_output "E26_JSON"
    (Printf.sprintf
       "{\"experiment\":\"e26\",\"queries\":%d,\"conns\":%d,\"window\":%d,\
        \"people\":%d,\"loops\":%d,\"reps\":%d,\
        \"off_qps\":%.1f,\"on_qps\":%.1f,\"off_p99_ms\":%.3f,\
        \"on_p99_ms\":%.3f,\"overhead_pct\":%.2f}"
       total_queries conns window (n_people ()) loops reps off.qps on.qps
       off.p99_ms on.p99_ms overhead_pct);
  Servekit.gate "E26_REQUIRE_GATE" ~advisory:(Servekit.single_core ())
    ~passed:
      (Printf.sprintf "overhead gate passed (%.2f%% <= %.2f%%)" overhead_pct
         max_overhead_pct)
    [
      ( overhead_pct > max_overhead_pct,
        Printf.sprintf "E26: always-on lifecycle overhead %.2f%% exceeds %.2f%%"
          overhead_pct max_overhead_pct );
    ]
