(* servebench: the end-to-end serve benchmark.

   bench.exe --workload W --seed N --seconds S --trace 0|1 --exe STRATEGEM

   Generates workload W's genealogy program and request stream from the
   seed, starts `strategem serve` as a subprocess fed only that program,
   times its set-up, warms it up (and checks the warm-up took), drives it
   for S seconds from this process over protocol v4, checks every reply
   against the bottom-up model, and reads the server's own telemetry
   around the measured phase. With --trace 1 it then replays the stream
   in-process, layer by layer (see replay.ml).

   The last stdout line is the result:
   {"correct":..,"attempted":..,"failed":..,"metrics":{..}} — the
   end-to-end metrics with --trace 0, the per-layer ones with --trace 1.
   Lines before it are the human-readable report and the run record. *)

(* Each run measures several fresh server instances, one after another:
   every instance is timed for set-up, warmed up, then measured for an
   equal slice of the run. On a small virtual machine a server's
   figures move with where its domains land and with bursts of host
   contention lasting seconds, so throughput and latency are trimmed
   means over the instances; set-up time and peak RSS are medians. *)
let instances = 10

(* warm-up steps tried before a run is declared invalid *)
let warm_steps = 8

(* An open-loop run whose generator fell this far behind its schedule
   (p99) did not offer the load it claims: it is reported invalid. Ten
   send intervals at 500 q/s: a send that late went out in a burst with
   the ones after it. Lateness below that is charged to latency (it is
   timed from the due time), not to the offered load; a generator that
   sleeps between sends runs a few ms late at p99 on a busy 2-vCPU
   guest. *)
let lag_bound_ms = 20.0

type args = {
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
  exe : string;
  workdir : string;
}

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let exe = ref "" and workdir = ref ".bench_run" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_int seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--exe", Arg.Set_string exe, "path to strategem.exe");
      ("--workdir", Arg.Set_string workdir, "working directory");
    ]
    (fun a -> raise (Arg.Bad ("unexpected " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1 --exe PATH";
  if !exe = "" || !seconds < 1 then (prerr_endline "bench: --exe and --seconds >= 1 are required"; exit 2);
  { workload = !workload; seed = !seed; seconds = !seconds; trace = !trace = 1; exe = !exe; workdir = !workdir }

let nproc () = try Domain.recommended_domain_count () with _ -> 1

(* git commit when run from a work tree; otherwise a digest of the
   sources that build the server, so a result still names its code. *)
let source_id () =
  let commit =
    try
      let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
      let l = try input_line ic with End_of_file -> "" in
      ignore (Unix.close_process_in ic);
      l
    with _ -> ""
  in
  let rec files dir =
    if Sys.file_exists dir && Sys.is_directory dir then
      Sys.readdir dir |> Array.to_list |> List.sort compare
      |> List.concat_map (fun f -> files (Filename.concat dir f))
    else if Sys.file_exists dir then [ dir ]
    else []
  in
  let digest =
    files "lib" @ files "bin"
    |> List.map (fun f -> f ^ ":" ^ Digest.to_hex (Digest.file f))
    |> String.concat "\n" |> Digest.string |> Digest.to_hex
  in
  (commit, digest)

let json_str s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Full precision; JSON cannot carry NaN or infinity, so a metric with no
   samples reads 0. *)
let json_number f =
  if not (Float.is_finite f) then "0"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

(* Counter and histogram movement over one measured slice: each series'
   value after minus before. Slices pool by concatenation. *)
let scrape_delta before after =
  List.map
    (fun (series, v) -> (series, v -. (try List.assoc series before with Not_found -> 0.0)))
    after

(* A quantile of a histogram's pooled bucket deltas, as the upper bound of
   the bucket holding it. *)
let hist_quantile deltas ~name q =
  let prefix = name ^ "_bucket{" in
  let by_le = Hashtbl.create 32 in
  List.iter
    (fun (series, v) ->
      if Util.find series prefix = Some 0 then
        match Util.find series "le=\"" with
        | Some i ->
          let j = i + 4 in
          let le = String.sub series j (String.index_from series j '"' - j) in
          let le = if le = "+Inf" then infinity else float_of_string le in
          Hashtbl.replace by_le le (v +. Option.value ~default:0.0 (Hashtbl.find_opt by_le le))
        | None -> ())
    deltas;
  let d = List.sort compare (Hashtbl.fold (fun le c acc -> (le, c) :: acc) by_le []) in
  match List.rev d with
  | (_, total) :: _ when total > 0.0 -> (
    match List.find_opt (fun (_, c) -> c >= q *. total) d with Some (le, _) -> le | None -> nan)
  | _ -> nan

(* One server instance's share of a run. *)
type slice = {
  setup_s : float;
  warm : Loadgen.summary list;
  warm_ok : bool;
  m : Loadgen.summary;
  scrape : (string * float) list;  (** telemetry deltas over the measured phase *)
  server_cpu_s : float;
  client_cpu_s : float;
  rss_mb : float;
}

let client_cpu () =
  let tm = Unix.times () in
  tm.Unix.tms_utime +. tm.Unix.tms_stime

(* Start an instance, warm it up until the workload's check holds, and
   measure it for [slice_s] seconds. *)
let run_instance (g : Gen.t) ~spawn ~slice_s =
  let spec = g.Gen.spec in
  let server = spawn () in
  Fun.protect ~finally:(fun () -> Proc.stop server) @@ fun () ->
  let conns = match spec.Gen.mode with Gen.Open_loop _ -> 1 | Gen.Closed_loop { conns; _ } -> conns in
  let fds = List.init conns (fun _ -> Loadgen.open_conn server.Proc.port) in
  Fun.protect ~finally:(fun () -> List.iter Unix.close fds) @@ fun () ->
  let drive ~first ~count ~seconds =
    let ph = Loadgen.make_phase ~first ~cap:count in
    (match spec.Gen.mode with
    | Gen.Open_loop { rate } -> Loadgen.run_open g (List.hd fds) ph ~rate ~count
    | Gen.Closed_loop { window; _ } ->
      let deadline_ns = Util.now_ns () + int_of_float (seconds *. 1e9) in
      Loadgen.run_closed g fds ph ~window ~count ~deadline_ns);
    Loadgen.summarize ph
  in
  (* the warm-up is done when: every hot query is cached (hot_open), the
     cache has started evicting (cold_closed), derived hits occur (paged) *)
  let warmed () =
    let series name = Proc.series_sum (Proc.scrape server) ~name () in
    if spec.Gen.hot_pool > 0 then series "strategem_cache_entries" >= float_of_int spec.Gen.hot_pool
    else if spec.Gen.paged then series "strategem_cache_derived_hits_total" > 0.0
    else series "strategem_cache_evictions_total" > 0.0
  in
  let rec warm_up pos acc steps =
    let w = drive ~first:pos ~count:spec.Gen.warmup ~seconds:60.0 in
    let pos = pos + spec.Gen.warmup and acc = w :: acc in
    if warmed () then (pos, acc, true)
    else if steps + 1 >= warm_steps then (pos, acc, false)
    else warm_up pos acc (steps + 1)
  in
  let pos, warm, warm_ok = warm_up 0 [] 0 in
  let scrape0 = Proc.scrape server in
  let cpu0 = Proc.cpu_s server.Proc.pid and ccpu0 = client_cpu () in
  let count =
    match spec.Gen.mode with
    | Gen.Open_loop { rate } -> int_of_float (rate *. slice_s)
    | Gen.Closed_loop _ -> int_of_float (spec.Gen.max_rate *. slice_s)
  in
  let m = drive ~first:pos ~count ~seconds:slice_s in
  let ccpu1 = client_cpu () and cpu1 = Proc.cpu_s server.Proc.pid in
  let scrape1 = Proc.scrape server in
  {
    setup_s = server.Proc.setup_s;
    warm;
    warm_ok;
    m;
    scrape = scrape_delta scrape0 scrape1;
    server_cpu_s = cpu1 -. cpu0;
    client_cpu_s = ccpu1 -. ccpu0;
    rss_mb = Proc.peak_rss_mb server.Proc.pid;
  }

let () =
  let args = parse_args () in
  let spec =
    match Gen.find args.workload with
    | Some s -> s
    | None ->
      Printf.eprintf "bench: unknown workload %S (have: %s)\n" args.workload
        (String.concat ", " (List.map (fun s -> s.Gen.name) Gen.specs));
      exit 2
  in
  if not (Sys.file_exists args.exe) then (Printf.eprintf "bench: no server binary at %s\n" args.exe; exit 2);
  (try Unix.mkdir args.workdir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let run_dir = Filename.concat args.workdir (Printf.sprintf "%s-%d-%d" spec.Gen.name args.seed (Unix.getpid ())) in
  Util.rm_rf run_dir;
  Unix.mkdir run_dir 0o755;
  let slice_s = float_of_int args.seconds /. float_of_int instances in
  let g = Gen.generate spec ~seed:args.seed ~seconds:args.seconds in
  let program = Filename.concat run_dir "program.dl" in
  Util.write_file program g.Gen.program;
  let data_dir = Filename.concat run_dir "data" in
  (* the pool is sized against the store this program makes *)
  let buffer_pages =
    if spec.Gen.paged then begin
      let probe = Filename.concat run_dir "size" in
      let _, _, db, _ = Replay.load_db g ~paged_dir:probe ~buffer_pages:256 in
      let pages = (Option.get (Datalog.Database.store_stats db)).Store.pages in
      Datalog.Database.close db;
      Util.rm_rf probe;
      max 2 (pages / 4)
    end
    else 0
  in
  let server_args =
    [ "serve"; program; "--port"; "0"; "--metrics-port"; "0"; "--cache-mb"; string_of_int spec.Gen.cache_mb ]
    @
    if spec.Gen.paged then [ "--data-dir"; data_dir; "--buffer-pages"; string_of_int buffer_pages ] else []
  in
  let spawn () =
    Util.rm_rf data_dir;
    Proc.spawn ~exe:args.exe ~args:server_args ~log:(Filename.concat run_dir "server.log")
  in
  let slices = List.init instances (fun _ -> run_instance g ~spawn ~slice_s) in
  let replay =
    if args.trace then
      Some
        (Replay.run g ~paged_dir:(Filename.concat run_dir "replay")
           ~buffer_pages:(if spec.Gen.paged then buffer_pages else 256)
           ~n:spec.Gen.replay)
    else None
  in
  let open Loadgen in
  let ms = List.map (fun s -> s.m) slices in
  let sum f = List.fold_left (fun a s -> a + f s) 0 ms in
  let attempted = sum (fun m -> m.attempted) and ok = sum (fun m -> m.ok) in
  let wrong = sum (fun m -> m.wrong) in
  let failed = attempted - ok in
  let med f = Util.median (Array.of_list (List.map f slices)) in
  let across f = Util.trimmed_mean (Array.of_list (List.map f slices)) in
  let pooled f = Array.concat (List.map f ms) in
  (* validity *)
  let invalid =
    List.concat
      [
        (if List.for_all (fun s -> s.warm_ok) slices then [] else [ "warm-up check never held" ]);
        (let n = sum (fun m -> m.misses) in
         if spec.Gen.hot_pool > 0 && n > 0 then [ Printf.sprintf "%d measured requests missed the cache" n ] else []);
        (let lag = Util.percentile (pooled (fun m -> m.lag_ms)) 99.0 in
         match spec.Gen.mode with
         | Gen.Open_loop _ when lag > lag_bound_ms ->
           [ Printf.sprintf "load generator lag p99 %.3f ms > %.1f ms" lag lag_bound_ms ]
         | _ -> []);
      ]
  in
  (* sld cost over the measured misses; hot_open has none after its
     warm-up, so there it is the warm-up fills' cost *)
  let miss_cost, misses =
    let measured = (sum (fun m -> m.miss_cost), sum (fun m -> m.misses)) in
    if snd measured > 0 then measured
    else
      List.fold_left
        (fun (c, n) w -> (c + w.miss_cost, n + w.misses))
        (0, 0) (List.concat_map (fun s -> s.warm) slices)
  in
  let end_to_end =
    [
      ("setup_s", med (fun s -> s.setup_s), "s");
      ("throughput_qps", across (fun s -> float_of_int s.m.ok /. s.m.duration_s), "1/s");
      ("latency_p50_ms", across (fun s -> Util.percentile s.m.latencies_ms 50.0), "ms");
      ("success_rate", float_of_int ok /. float_of_int (max 1 attempted), "ratio");
      ("sld_cost_per_miss", float_of_int miss_cost /. float_of_int (max 1 misses), "count");
      ( "server_cpu_ms_per_kq",
        List.fold_left (fun a s -> a +. s.server_cpu_s) 0.0 slices *. 1e6 /. float_of_int (max 1 ok),
        "ms" );
      ("server_peak_rss_mb", med (fun s -> s.rss_mb), "MiB");
    ]
  in
  (* The tail is reported without a bound: host-scheduling noise on a
     2-vCPU guest moves it by more than any bound the benchmark may set
     (see README). *)
  let tail = [ ("latency_p99_ms", across (fun s -> Util.percentile s.m.latencies_ms 99.0), "ms") ] in
  let deltas = List.concat_map (fun s -> s.scrape) slices in
  let total name ?label () = Proc.series_sum deltas ~name ?label () in
  let stage s =
    let label = Printf.sprintf "stage=%S" s in
    total "strategem_stage_latency_us_sum" ~label () /. total "strategem_stage_latency_us_count" ~label ()
  in
  let st = List.map (fun s -> (s, stage s)) [ "frame"; "queue"; "worker"; "flush"; "total"; "page_read" ] in
  let per_q name = total name () /. float_of_int (max 1 attempted) in
  let lat_mean_us = 1000.0 *. Util.mean (pooled (fun m -> m.latencies_ms)) in
  let exported =
    List.filter_map
      (fun (s, v) -> if s = "page_read" then None else Some ("serve.stage." ^ s ^ "_us", v, "us"))
      st
    @ [
        ( "serve.stage_coverage",
          List.fold_left (fun a s -> a +. List.assoc s st) 0.0 [ "frame"; "queue"; "worker"; "flush" ]
          /. lat_mean_us,
          "ratio" );
        ("serve.busy_ratio", per_q "strategem_busy_total", "ratio");
        ("serve.queue_wait_p95_us", hist_quantile deltas ~name:"strategem_queue_wait_us" 0.95, "us");
        ("serve.loop_wakeups_per_query", per_q "strategem_loop_wakeups_total", "count");
        ("serve.domain_busy_us_per_query", per_q "strategem_domain_busy_us_total", "us");
        ("loadgen.lag_p99_ms", Util.percentile (pooled (fun m -> m.lag_ms)) 99.0, "ms");
        ("loadgen.cpu_s", List.fold_left (fun a s -> a +. s.client_cpu_s) 0.0 slices, "s");
      ]
  in
  let per_layer = tail @ (match replay with Some r -> r.Replay.metrics | None -> []) @ exported in
  (* human-readable report *)
  let pr (n, v, u) = Printf.printf "%-36s %14.6g %s\n" n v u in
  Printf.printf "workload %s seed %d: %d attempted, %d ok, %d wrong, %d busy, %d err, %d no reply\n"
    spec.Gen.name args.seed attempted ok wrong (sum (fun m -> m.busy)) (sum (fun m -> m.errs))
    (sum (fun m -> m.no_reply));
  List.iter pr end_to_end;
  let per_slice name f =
    Printf.printf "%-36s %s\n" ("  per instance: " ^ name)
      (String.concat " " (List.map (fun s -> Printf.sprintf "%.4g" (f s)) slices))
  in
  per_slice "latency_p50_ms" (fun s -> Util.percentile s.m.latencies_ms 50.0);
  per_slice "latency_p99_ms" (fun s -> Util.percentile s.m.latencies_ms 99.0);
  per_slice "throughput_qps" (fun s -> float_of_int s.m.ok /. s.m.duration_s);
  pr ("error_rate", float_of_int failed /. float_of_int (max 1 attempted), "ratio");
  List.iter pr per_layer;
  pr ("serve.stage.page_read_us", List.assoc "page_read" st, "us");
  List.iter (fun why -> Printf.printf "INVALID: %s\n" why) invalid;
  (* run record *)
  let commit, digest = source_id () in
  let mode =
    match spec.Gen.mode with
    | Gen.Open_loop { rate } -> Printf.sprintf "{\"loop\":\"open\",\"rate_qps\":%s,\"conns\":1}" (json_number rate)
    | Gen.Closed_loop { conns; window } ->
      Printf.sprintf "{\"loop\":\"closed\",\"conns\":%d,\"window\":%d}" conns window
  in
  let ints l = "[" ^ String.concat "," (List.map string_of_int l) ^ "]" in
  Printf.printf
    "record {\"workload\":%s,\"seed\":%d,\"seconds\":%d,\"trace\":%b,\"population\":%d,\"mode\":%s,\
     \"cache_mb\":%d,\"buffer_pages\":%d,\"instances\":%d,\"nproc\":%d,\"ocaml\":%s,\"commit\":%s,\
     \"source_digest\":%s,\"latency_samples\":%s,\"lag_samples\":%d,\"warmup_requests\":%s,\
     \"replay_requests\":%d,\"misses_for_cost\":%d,\"valid\":%b}\n"
    (json_str spec.Gen.name) args.seed args.seconds args.trace spec.Gen.people mode spec.Gen.cache_mb
    buffer_pages instances (nproc ()) (json_str Sys.ocaml_version) (json_str commit) (json_str digest)
    (ints (List.map (fun m -> Array.length m.latencies_ms) ms))
    attempted
    (ints (List.map (fun s -> List.fold_left (fun a w -> a + w.attempted) 0 s.warm) slices))
    (match replay with Some r -> r.Replay.requests | None -> 0)
    misses (invalid = []);
  let body =
    List.map
      (fun (n, v, u) -> Printf.sprintf "%s:{\"value\":%s,\"unit\":%s}" (json_str n) (json_number v) (json_str u))
      (if args.trace then per_layer else end_to_end)
  in
  Util.rm_rf run_dir;
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    (wrong = 0 && invalid = []) attempted failed (String.concat "," body)
