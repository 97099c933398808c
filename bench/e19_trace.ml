(* E19 — tracing overhead on the serve path.

   The acceptance bar for lib/trace: with tracing {e disabled} the serve
   path (Registry.answer, the code every QUERY goes through) must cost
   < 5% over an untraced run. "Disabled" means the null tracer is
   threaded through SLD, the executor, and the learner pipeline but every
   hook is a single tag test.

   Three modes over the same query stream, interleaved round-robin so
   drift hits all modes equally, fresh registry per repetition so the
   learning trajectory (one early climb) is identical:

   - off     Registry.answer with no tracer — the default serve path.
   - off2    the same again — an independent sample of the same
             configuration; |off − off2| is the measurement noise floor
             the <5% bar must be read against.
   - on      a fresh collecting tracer per query, rooted serve span
             (what the TRACE verb pays to collect its tree).
   - on+json the above plus Trace.to_json — the full TRACE verb cost. *)

module D = Datalog

let queries_per_rep = 30_000
let reps = 5

type mode = Off | Off2 | On | On_json

let mode_name = function
  | Off -> "off"
  | Off2 -> "off2"
  | On -> "on"
  | On_json -> "on+json"

let fresh_registry () =
  let rb = Workload.University.rulebase () in
  let metrics = Serve.Metrics.create () in
  Serve.Registry.create ~rulebase:rb metrics

(* The Figure 1 stream: grad-heavy, with misses and a free-form query
   mixed in, so the SLD engine, the executor, and the learner all run. *)
let queries =
  [|
    D.Atom.make "instructor" [ D.Term.const "manolis" ];
    D.Atom.make "instructor" [ D.Term.const "manolis" ];
    D.Atom.make "instructor" [ D.Term.const "russ" ];
    D.Atom.make "instructor" [ D.Term.const "manolis" ];
    D.Atom.make "instructor" [ D.Term.const "fred" ];
  |]

let run_rep mode =
  let reg = fresh_registry () in
  let db = Workload.University.db1 () in
  let n = queries_per_rep in
  let t0 = Unix.gettimeofday () in
  for i = 0 to n - 1 do
    let q = queries.(i mod Array.length queries) in
    match mode with
    | Off | Off2 -> ignore (Serve.Registry.answer reg ~db q)
    | On ->
      let tracer = Trace.make () in
      let root = Trace.root tracer ~kind:"serve" (D.Atom.to_string q) in
      ignore (Serve.Registry.answer ~tracer ~parent:root reg ~db q);
      Trace.finish tracer root
    | On_json ->
      let tracer = Trace.make () in
      let root = Trace.root tracer ~kind:"serve" (D.Atom.to_string q) in
      ignore (Serve.Registry.answer ~tracer ~parent:root reg ~db q);
      Trace.finish tracer root;
      ignore (Trace.to_json root)
  done;
  float_of_int n /. (Unix.gettimeofday () -. t0)

let run () =
  let modes = [ Off; Off2; On; On_json ] in
  (* Warm-up: touch every mode once so allocator/caches settle. *)
  List.iter (fun m -> ignore (run_rep m)) modes;
  let samples =
    List.map
      (fun m ->
        (m, List.init reps (fun _ -> run_rep m)))
      modes
  in
  let qps m = Servekit.median (List.assoc m samples) in
  let base = qps Off in
  let rows =
    List.map
      (fun m ->
        let v = qps m in
        [
          mode_name m;
          Table.f1 (v /. 1000.);
          Table.pct ((base -. v) /. base);
        ])
      modes
  in
  Table.print
    ~title:
      (Printf.sprintf
         "E19: tracing overhead, Registry.answer on Figure 1 (%d queries x \
          %d reps, median)"
         queries_per_rep reps)
    ~header:[ "tracing"; "kq/s"; "overhead" ] rows;
  let noise = Float.abs (base -. qps Off2) /. base in
  Table.note
    "       off2 is a second untraced run: |off-off2|/off = %.1f%% is the \
     noise floor.\n"
    (100. *. noise)
