(* The kit the serve-path drivers (E18–E27) share: the genealogy setup
   and its query pools, an in-process server, three client shapes,
   fan-in over client threads, one latency summary, env parsing, the
   result file and the CI gate. Latencies are in ms, walls in seconds. *)

let now = Unix.gettimeofday

(* ---------- environment ---------- *)

let env_int name default =
  match Sys.getenv_opt name with
  | Some v -> ( try int_of_string v with _ -> default)
  | None -> default

let env_float name default =
  match Sys.getenv_opt name with
  | Some v -> ( try float_of_string v with _ -> default)
  | None -> default

let env_set name =
  match Sys.getenv_opt name with None | Some "" -> false | Some _ -> true

(* [write_output var content]: when [var] names a path, write [content]
   and a newline there. *)
let write_output var content =
  match Sys.getenv_opt var with
  | None | Some "" -> ()
  | Some path ->
    let oc = open_out path in
    output_string oc content;
    output_char oc '\n';
    close_out oc;
    Table.note "wrote %s\n" path

let single_core () = Domain.recommended_domain_count () < 2

(* The CI gate: when [var] is set non-empty, every failed check's
   message goes to stderr and the run exits 1. With [advisory] the
   failures are only noted — on a single-core host, where a second loop
   domain (or arm) can only timeshare, a ratio is scheduler noise. *)
let gate ?(advisory = false) var ~passed checks =
  if env_set var then
    match List.filter_map (fun (bad, msg) -> if bad then Some msg else None)
            checks
    with
    | [] -> Table.note "%s\n" passed
    | msgs when advisory ->
      List.iter (Table.note "gate advisory on a single-core host: %s\n") msgs
    | msgs ->
      List.iter prerr_endline msgs;
      exit 1

(* ---------- workload ---------- *)

let genealogy ~seed ~n_people =
  let rulebase = Workload.Genealogy.rulebase () in
  let pop = Workload.Genealogy.populate (Stats.Rng.create seed) ~n_people in
  ( rulebase,
    Workload.Genealogy.db pop,
    Array.of_list (Workload.Genealogy.people pop) )

let pool_size = 32
let zipf_s = 1.1

let zipf_weights n =
  Array.init n (fun i -> 1.0 /. Float.pow (float_of_int (i + 1)) zipf_s)

let relative name = Printf.sprintf "QUERY relative(%s)" name

(* E20–E22: rank 1 is the free query relative(X) — expensive, because a
   free retrieval eagerly materializes every match in the relation —
   and ranks 2..32 are bound queries spread evenly through the
   population so they don't collide. *)
let free_head_pool people =
  let n = Array.length people in
  Array.init pool_size (fun i ->
      if i = 0 then relative "X"
      else relative people.((i - 1) * n / (pool_size - 1) mod n))

(* E24–E25: one form, Zipf over constants. *)
let bound_pool people =
  let n = Array.length people in
  Array.init pool_size (fun i -> relative people.(i * n / pool_size mod n))

(* Zipf over forms x a few constants per form. The Zipf walks the forms
   first, so the head of the distribution is the hot form and the tail
   keeps touching every learner. *)
let mixed_forms =
  [|
    "relative"; "sibling"; "ancestor_of_probe"; "inlaw"; "parent_of_probe";
    "grandparent_of_probe";
  |]

let mixed_form_pool people =
  let n = Array.length people in
  let per_form = pool_size / Array.length mixed_forms in
  Array.init (Array.length mixed_forms * per_form) (fun i ->
      let form = mixed_forms.(i / per_form) in
      let person = people.(i * n / pool_size mod n) in
      Printf.sprintf "QUERY %s(%s)" form person)

(* A query source drawing Zipf ranks of [pool] from its own stream. *)
let zipf_draw pool ~seed =
  let rng = Stats.Rng.create (Int64.of_int seed) in
  let weights = zipf_weights (Array.length pool) in
  fun () -> pool.(Stats.Rng.categorical rng weights)

(* ---------- the server ---------- *)

type server = { thread : Thread.t; port : int; metrics_port : int }

(* Runs [config] on an ephemeral port in a thread of this process. *)
let start config ~rulebase ~db =
  let port = Atomic.make 0 and metrics_port = Atomic.make 0 in
  let thread =
    Thread.create
      (fun () ->
        Serve.Server.run ~on_listen:(Atomic.set port)
          ~on_metrics_listen:(Atomic.set metrics_port)
          { config with Serve.Server.port = 0 }
          ~rulebase ~db)
      ()
  in
  while Atomic.get port = 0 do
    Thread.delay 0.01
  done;
  { thread; port = Atomic.get port; metrics_port = Atomic.get metrics_port }

(* One line-dialect command on a connection of its own. *)
let command s line =
  let c = Serve.Client.connect ~proto:`Lines ~port:s.port () in
  let reply = Serve.Client.command c line in
  Serve.Client.close c;
  reply

let stop s =
  ignore (command s "SHUTDOWN");
  Thread.join s.thread

(* Reads STATS, then stops the server; the result looks up an integer
   counter by name (0 when absent). *)
let stats_then_stop s =
  let lines = command s "STATS" in
  stop s;
  fun name ->
    List.fold_left
      (fun acc l ->
        match String.split_on_char ' ' l with
        | [ k; v ] when k = name -> ( try int_of_string v with _ -> acc)
        | _ -> acc)
      0 lines

(* ---------- clients ----------

   Each client issues [n] queries drawn from [next] on one connection
   and returns [(wall, latencies)], the wall running from the first
   send to the last reply. *)

(* Closed loop on the line dialect: one request at a time. *)
let line_client port ~n next =
  let c = Serve.Client.connect ~proto:`Lines ~port () in
  let lat = Array.make n 0.0 in
  let t0 = now () in
  for i = 0 to n - 1 do
    let q = next () in
    let s = now () in
    ignore (Serve.Client.request c q);
    lat.(i) <- (now () -. s) *. 1e3
  done;
  let wall = now () -. t0 in
  Serve.Client.close c;
  (wall, lat)

(* Closed loop on protocol v4 with [window] requests in flight: post
   the first [window], then one more as each response lands. *)
let pipelined_client port ~n ~window next =
  let c = Serve.Client.connect ~proto:`V4 ~port () in
  let start = Hashtbl.create window in
  let lat = Array.make n 0.0 in
  let issued = ref 0 in
  let post_one () =
    let id = Serve.Client.post c (next ()) in
    Hashtbl.replace start id (now ());
    incr issued
  in
  let t0 = now () in
  while !issued < Int.min window n do
    post_one ()
  done;
  for k = 0 to n - 1 do
    let id, _ = Serve.Client.recv c in
    lat.(k) <- (now () -. Hashtbl.find start id) *. 1e3;
    Hashtbl.remove start id;
    if !issued < n then post_one ()
  done;
  let wall = now () -. t0 in
  Serve.Client.close c;
  (wall, lat)

(* Open loop on protocol v4 at [rate] req/s, replies collected by a
   second thread. Request k (client ids run from 1, so id = k+1) is due
   at t0 + k/rate, and its latency is measured from that due time
   whether or not the sender kept schedule, so sender stalls cannot
   hide queueing delay (no coordinated omission). *)
let open_loop_client port ~n ~rate next =
  let c = Serve.Client.connect ~proto:`V4 ~port () in
  let lat = Array.make n 0.0 in
  let t0 = now () +. 0.01 in
  let receiver =
    Thread.create
      (fun () ->
        for _ = 1 to n do
          let id, _ = Serve.Client.recv c in
          let due = t0 +. (float_of_int (id - 1) /. rate) in
          lat.(id - 1) <- (now () -. due) *. 1e3
        done)
      ()
  in
  for k = 0 to n - 1 do
    let due = t0 +. (float_of_int k /. rate) in
    let slack = due -. now () in
    if slack > 0.0 then Thread.delay slack;
    ignore (Serve.Client.post c (next ()))
  done;
  Thread.join receiver;
  let wall = now () -. t0 in
  Serve.Client.close c;
  (wall, lat)

(* [fan_in ~clients client] runs [client k] for every k < [clients] on
   concurrent threads; the wall spans all of them. *)
let fan_in ~clients client =
  let lats = Array.make clients [||] in
  let t0 = now () in
  let threads =
    List.init clients (fun k ->
        Thread.create (fun () -> lats.(k) <- snd (client k)) ())
  in
  List.iter Thread.join threads;
  (now () -. t0, Array.concat (Array.to_list lats))

(* ---------- summary ---------- *)

let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

let percentile sorted p =
  let n = Array.length sorted in
  sorted.(Int.min (n - 1) (int_of_float (float_of_int n *. p)))

let median xs = percentile (sorted (Array.of_list xs)) 0.5

type summary = {
  queries : int;
  wall_s : float;
  qps : float;
  p50_ms : float;
  p99_ms : float;
}

let summary (wall, lats) =
  let s = sorted lats in
  {
    queries = Array.length lats;
    wall_s = wall;
    qps = float_of_int (Array.length lats) /. wall;
    p50_ms = percentile s 0.50;
    p99_ms = percentile s 0.99;
  }

(* The fastest of [runs] by [qps], the earliest on ties: throughput
   noise on a timeshared host only ever slows a run down, so the best
   run is the truest reading. *)
let best qps runs =
  List.fold_left
    (fun b r -> if qps r > qps b then r else b)
    (List.hd runs) (List.tl runs)

let summary_header = [ "queries"; "wall s"; "q/s"; "p50 ms"; "p99 ms" ]

let summary_cells s =
  [
    Table.i s.queries; Table.f2 s.wall_s; Table.f1 s.qps; Table.f3 s.p50_ms;
    Table.f3 s.p99_ms;
  ]

let summary_json s =
  Printf.sprintf
    "\"queries\":%d,\"wall_s\":%.3f,\"qps\":%.1f,\"p50_ms\":%.3f,\
     \"p99_ms\":%.3f"
    s.queries s.wall_s s.qps s.p50_ms s.p99_ms
