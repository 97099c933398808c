(* The traced replay: the workload's request stream answered in-process,
   straight through [Serve.Registry.answer] (before and after the traced
   pass) and decomposed into the public calls of each layer, each call
   timed (ns) and charged its minor-heap words. All passes must agree on
   every answer, cost and final per-form strategy; the traced pass's wall
   time against the mean of the two plain ones is the tracing overhead.
   No code of the server is changed to do this: the spans are taken here,
   around the calls. *)

module D = Datalog

(* One layer boundary's samples. *)
type span = { mutable ns : float array; mutable n : int; mutable words : float }

let span () = { ns = Array.make 1024 0.0; n = 0; words = 0.0 }

let clock_overhead_ns =
  lazy
    (let a = Array.init 10_001 (fun _ ->
         let t0 = Util.now_ns () in
         float_of_int (Util.now_ns () - t0))
     in
     Util.median a)

let words_overhead =
  lazy
    (let w0 = Gc.minor_words () in
     let w1 = Gc.minor_words () in
     w1 -. w0)

let add sp ~ns ~words =
  if sp.n = Array.length sp.ns then begin
    let a = Array.make (2 * sp.n) 0.0 in
    Array.blit sp.ns 0 a 0 sp.n;
    sp.ns <- a
  end;
  sp.ns.(sp.n) <- Float.max 0.0 (ns -. Lazy.force clock_overhead_ns);
  sp.n <- sp.n + 1;
  sp.words <- sp.words +. Float.max 0.0 (words -. Lazy.force words_overhead)

(* [timed sp f] — run [f ()] inside a span. The closure is allocated by
   the caller before the first reading, so it is not charged. *)
let timed sp f =
  let w0 = Gc.minor_words () in
  let t0 = Util.now_ns () in
  let r = f () in
  let t1 = Util.now_ns () in
  let w1 = Gc.minor_words () in
  add sp ~ns:(float_of_int (t1 - t0)) ~words:(w1 -. w0);
  r

(* The median per call, as the mean of the samples between the 45th and
   55th percentiles: robust like the median, but not stuck on whole
   nanoseconds. *)
let median_ns sp =
  if sp.n = 0 then nan
  else begin
    let a = Array.sub sp.ns 0 sp.n in
    Array.sort Float.compare a;
    let lo = sp.n * 45 / 100 and hi = max (sp.n * 55 / 100) (sp.n * 45 / 100 + 1) in
    let sum = ref 0.0 in
    for i = lo to hi - 1 do sum := !sum +. a.(i) done;
    !sum /. float_of_int (hi - lo)
  end
let words_per_call sp = if sp.n = 0 then nan else sp.words /. float_of_int sp.n

(* What the wire would carry back, for comparing the two passes. *)
type outcome = {
  result : string;
  reductions : int;
  retrievals : int;
  cost : float;
  cached : bool;
  derived : bool;
  switched : bool;
}

let outcome (a : Core.Live.answer) =
  {
    result =
      (match a.Core.Live.result with
      | None -> "no"
      | Some s when D.Subst.is_empty s -> "yes"
      | Some s -> Format.asprintf "%a" D.Subst.pp s);
    reductions = a.Core.Live.stats.D.Sld.reductions;
    retrievals = a.Core.Live.stats.D.Sld.retrievals;
    cost = a.Core.Live.cost;
    cached = a.Core.Live.cached;
    derived = a.Core.Live.derived;
    switched = a.Core.Live.switched;
  }

let reply_line o =
  Serve.Protocol.answer_line ~derived:o.derived ~result:o.result
    ~reductions:o.reductions ~retrievals:o.retrievals ~cached:o.cached
    ~switched:o.switched ()

(* Fresh serving state, configured as the server configures it. *)
type state = {
  registry : Serve.Registry.t;
  cache : Cache.Answers.t;
  memo : D.Sld.Memo.t;
}

let fresh_state (g : Gen.t) rulebase =
  {
    registry = Serve.Registry.create ~rulebase (Serve.Metrics.create ());
    cache =
      Cache.Answers.create ~subsume:true
        ~capacity_bytes:(g.Gen.spec.Gen.cache_mb * 1024 * 1024) ();
    memo = D.Sld.Memo.create ();
  }

(* Mirrors the server's cap and rule for which fills enumerate. *)
let enumerate_cap = 1024

let enumerable (q : D.Atom.t) =
  q.D.Atom.args <> [] && List.for_all (fun t -> not (D.Term.is_const t)) q.D.Atom.args

type spans = {
  parse : span;
  codec : span;
  atom : span;
  find : span;
  hit : span;
  miss : span;
  derived : span;
  store : span;
  answer : span;
  cached_answer : span;
}

type counts = {
  mutable misses : int;
  mutable reductions : int;
  mutable retrievals : int;
}

(* The traced decomposition of [Serve.Registry.answer]: same calls, same
   order, each inside a span. *)
let traced_answer sp cnt st ~db q =
  let entry = timed sp.find (fun () -> Serve.Registry.find_or_create st.registry q) in
  Serve.Registry.with_live entry (fun live ->
      let w0 = Gc.minor_words () in
      let t0 = Util.now_ns () in
      let hit = Cache.Answers.find st.cache ~db q in
      let t1 = Util.now_ns () in
      let w1 = Gc.minor_words () in
      let ns = float_of_int (t1 - t0) and words = w1 -. w0 in
      match hit with
      | Some h ->
        add (if h.Cache.Answers.derived then sp.derived else sp.hit) ~ns ~words;
        timed sp.cached_answer (fun () ->
            Core.Live.answer_cached ~derived:h.Cache.Answers.derived live ~db
              ~result:h.Cache.Answers.result q)
      | None ->
        add sp.miss ~ns ~words;
        let enumerate = if enumerable q then enumerate_cap else 0 in
        let a =
          timed sp.answer (fun () ->
              Core.Live.answer ~memo:st.memo ~enumerate live ~db q)
        in
        cnt.misses <- cnt.misses + 1;
        cnt.reductions <- cnt.reductions + a.Core.Live.stats.D.Sld.reductions;
        cnt.retrievals <- cnt.retrievals + a.Core.Live.stats.D.Sld.retrievals;
        if not a.Core.Live.stats.D.Sld.truncated then begin
          let answers =
            Option.map
              (fun (e : D.Sld.enum) -> (e.D.Sld.answers, e.D.Sld.complete))
              a.Core.Live.enumerated
          in
          timed sp.store (fun () ->
              Cache.Answers.store st.cache ~db ?answers q ~result:a.Core.Live.result
                ~reductions:a.Core.Live.stats.D.Sld.reductions
                ~retrievals:a.Core.Live.stats.D.Sld.retrievals
                ~cost:a.Core.Live.cost);
          match a.Core.Live.enumerated with
          | Some en ->
            let token = D.Database.token db and gen = D.Database.generation db in
            List.iter
              (fun s ->
                let inst = D.Subst.apply_atom s q in
                if D.Atom.is_ground inst then D.Sld.Memo.add st.memo ~token ~gen inst true)
              en.D.Sld.answers
          | None -> ()
        end;
        a)

let strategies st =
  List.map
    (fun e -> (Serve.Registry.key e, Serve.Registry.strategy_string e))
    (Serve.Registry.entries st.registry)

type result = {
  metrics : (string * float * string) list;  (** name, value, unit *)
  requests : int;
}

(* The database exactly as the server builds it from the program text:
   parsed, then (paged) bulk-loaded into a fresh store and checkpointed.
   Returns the load and checkpoint times and the WAL bytes per fact. *)
let load_db (g : Gen.t) ~paged_dir ~buffer_pages =
  let rules, facts, _ = D.Parser.parse_kb g.Gen.program in
  let rulebase = D.Rulebase.of_list rules in
  let mem = D.Database.of_list facts in
  let t0 = Util.now_s () in
  let paged = D.Database.open_paged ~dir:paged_dir ~buffer_pages () in
  D.Database.iter (fun f -> ignore (D.Database.add paged f)) mem;
  let t1 = Util.now_s () in
  let wal = (Option.get (D.Database.store_stats paged)).Store.wal_bytes in
  D.Database.checkpoint paged;
  let t2 = Util.now_s () in
  let per_fact = float_of_int wal /. float_of_int (max 1 (D.Database.size mem)) in
  (rulebase, mem, paged, (t1 -. t0, t2 -. t1, per_fact))

(* Each pass gets its own freshly loaded database (and store, under
   [paged_dir ^ "-" ^ pass], with its pool as the bulk load left it), so
   no pass inherits the warm state another left behind. *)
let run (g : Gen.t) ~paged_dir ~buffer_pages ~n =
  let load pass =
    let rulebase, mem, paged, times =
      load_db g ~paged_dir:(paged_dir ^ "-" ^ pass) ~buffer_pages
    in
    (rulebase, paged, (if g.Gen.spec.Gen.paged then paged else mem), times)
  in
  let people = g.Gen.spec.Gen.people in
  let texts =
    Array.init n (fun i ->
        Gen.query_text ~people g.Gen.stream.(i mod Array.length g.Gen.stream))
  in
  let frames =
    Array.mapi
      (fun i a ->
        Bytes.of_string
          (Serve.Frame.encode_string { Serve.Frame.id = i; kind = Serve.Frame.Query; payload = a }))
      texts
  in
  let lines = Array.map (fun a -> Bytes.of_string ("QUERY " ^ a)) texts in
  let payload_of = function
    | Serve.Frame.Frame (f, _) -> f.Serve.Frame.payload
    | _ -> failwith "replay: undecodable request frame"
  in
  let atom_of = function
    | Serve.Protocol.Query a -> a
    | _ -> failwith "replay: request did not parse as QUERY"
  in
  let reply_buf = Buffer.create 256 in
  let encode_reply i line =
    Buffer.clear reply_buf;
    Serve.Frame.encode reply_buf { Serve.Frame.id = i; kind = Serve.Frame.Ok; payload = line }
  in
  (* untraced, straight through the registry; run once before and once
     after the traced pass, so the overhead carries no order bias *)
  let plain_pass pass =
    let rulebase, paged, db, _ = load pass in
    Gc.compact ();
    let st = fresh_state g rulebase in
    let out = Array.make n None in
    let t0 = Util.now_s () in
    for i = 0 to n - 1 do
      let b = frames.(i) in
      let text = payload_of (Serve.Frame.decode b ~pos:0 ~limit:(Bytes.length b)) in
      ignore (atom_of (Serve.Protocol.parse_sub lines.(i) ~pos:0 ~len:(Bytes.length lines.(i))));
      let q = D.Parser.parse_atom text in
      let a = Serve.Registry.answer ~cache:st.cache ~memo:st.memo st.registry ~db q in
      let o = outcome a in
      encode_reply i (reply_line o);
      out.(i) <- Some o
    done;
    let s = Util.now_s () -. t0 in
    let strat = strategies st in
    D.Database.close paged;
    (out, s, strat)
  in
  let plain_out, plain1_s, plain_strategies = plain_pass "plain1" in
  (* the traced pass: each layer call inside a span *)
  let sp =
    {
      parse = span (); codec = span (); atom = span (); find = span ();
      hit = span (); miss = span (); derived = span (); store = span ();
      answer = span (); cached_answer = span ();
    }
  in
  let cnt = { misses = 0; reductions = 0; retrievals = 0 } in
  let rulebase, paged, db, (load_s, checkpoint_s, wal_per_fact) = load "traced" in
  let traced = fresh_state g rulebase in
  let store0 = D.Database.store_stats db in
  Gc.compact ();
  let t0 = Util.now_s () in
  let mismatches = ref 0 in
  for i = 0 to n - 1 do
    let b = frames.(i) in
    let w0 = Gc.minor_words () in
    let c0 = Util.now_ns () in
    let decoded = Serve.Frame.decode b ~pos:0 ~limit:(Bytes.length b) in
    let c1 = Util.now_ns () in
    let w1 = Gc.minor_words () in
    let text = payload_of decoded in
    ignore (atom_of (timed sp.parse (fun () ->
        Serve.Protocol.parse_sub lines.(i) ~pos:0 ~len:(Bytes.length lines.(i)))));
    let q = timed sp.atom (fun () -> D.Parser.parse_atom text) in
    let o = outcome (traced_answer sp cnt traced ~db q) in
    let line = reply_line o in
    let w2 = Gc.minor_words () in
    let c2 = Util.now_ns () in
    encode_reply i line;
    let c3 = Util.now_ns () in
    let w3 = Gc.minor_words () in
    add sp.codec ~ns:(float_of_int (c1 - c0 + (c3 - c2))) ~words:(w1 -. w0 +. (w3 -. w2));
    if plain_out.(i) <> Some o then incr mismatches
  done;
  let traced_s = Util.now_s () -. t0 in
  let plain2_out, plain2_s, plain2_strategies = plain_pass "plain2" in
  if plain2_out <> plain_out || plain2_strategies <> plain_strategies then
    failwith "replay: the two untraced passes differ";
  let plain_s = (plain1_s +. plain2_s) /. 2.0 in
  if !mismatches > 0 then
    failwith (Printf.sprintf "replay: %d answers differ between the plain and traced passes" !mismatches);
  if plain_strategies <> strategies traced then
    failwith "replay: final per-form strategies differ between the plain and traced passes";
  (* Derived lookups need a general entry whose rows answer the probe. A
     stream without fully-free queries never makes one, so time derived
     lookups of the rows of the hottest form's general query, filled into
     a separate cache. *)
  if sp.derived.n = 0 then begin
    let general = D.Parser.parse_atom (Gen.forms.(0) ^ "(X)") in
    let live =
      Core.Live.create ~rulebase ~query_form:(Serve.Registry.form_of_query general) ()
    in
    let a = Core.Live.answer ~enumerate:enumerate_cap live ~db general in
    let cache = Cache.Answers.create ~subsume:true ~capacity_bytes:(64 * 1024 * 1024) () in
    let rows = match a.Core.Live.enumerated with Some e -> e.D.Sld.answers | None -> [] in
    Cache.Answers.store cache ~db ~answers:(rows, false) general ~result:a.Core.Live.result
      ~reductions:0 ~retrievals:0 ~cost:a.Core.Live.cost;
    List.iter
      (fun s ->
        let q = D.Subst.apply_atom s general in
        let w0 = Gc.minor_words () in
        let t0 = Util.now_ns () in
        let hit = Cache.Answers.find cache ~db q in
        let t1 = Util.now_ns () in
        let w1 = Gc.minor_words () in
        match hit with
        | Some h when h.Cache.Answers.derived -> add sp.derived ~ns:(float_of_int (t1 - t0)) ~words:(w1 -. w0)
        | _ -> ())
      rows
  end;
  let cc = Cache.Answers.counters traced.cache in
  let mc = D.Sld.Memo.counters traced.memo in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let lookups = cc.Cache.Answers.hits + cc.Cache.Answers.derived_hits + cc.Cache.Answers.misses in
  let store_delta f =
    match (store0, D.Database.store_stats db) with
    | Some a, Some b -> f b - f a
    | _ -> 0
  in
  let pool_hits = store_delta (fun s -> s.Store.pool_hits)
  and pool_misses = store_delta (fun s -> s.Store.pool_misses) in
  let climbs =
    List.fold_left
      (fun acc e -> acc + Serve.Registry.with_live e Core.Live.climbs)
      0 (Serve.Registry.entries traced.registry)
  in
  D.Database.close paged;
  let timing name s =
    [ (name ^ "_ns", median_ns s, "ns"); (name ^ "_words", words_per_call s, "words") ]
  in
  {
    requests = n;
    metrics =
      timing "serve.protocol.parse" sp.parse
      @ timing "serve.frame.codec" sp.codec
      @ timing "datalog.parser.atom" sp.atom
      @ timing "serve.registry.find" sp.find
      @ timing "cache.find_hit" sp.hit
      @ timing "cache.find_miss" sp.miss
      @ timing "cache.find_derived" sp.derived
      @ timing "cache.store" sp.store
      @ timing "core.live.answer" sp.answer
      @ timing "core.live.answer_cached" sp.cached_answer
      @ [
          ("store.load_s", load_s, "s");
          ("store.checkpoint_s", checkpoint_s, "s");
          ("store.wal_bytes_per_fact", wal_per_fact, "bytes");
          ("cache.hit_ratio", ratio cc.Cache.Answers.hits lookups, "ratio");
          ( "cache.derived_ratio",
            ratio cc.Cache.Answers.derived_hits (lookups - cc.Cache.Answers.hits),
            "ratio" );
          ("cache.evictions_per_kq", 1000.0 *. ratio cc.Cache.Answers.evictions n, "count/kq");
          ( "datalog.sld.memo_hit_ratio",
            ratio mc.D.Sld.Memo.hits (mc.D.Sld.Memo.hits + mc.D.Sld.Memo.misses),
            "ratio" );
          ("datalog.sld.reductions_per_miss", ratio cnt.reductions cnt.misses, "count");
          ("datalog.sld.retrievals_per_miss", ratio cnt.retrievals cnt.misses, "count");
          ("core.climbs", float_of_int climbs, "count");
          ( "store.page_reads_per_miss",
            ratio (store_delta (fun s -> s.Store.page_reads)) cnt.misses,
            "count" );
          ("store.pool_hit_ratio", ratio pool_hits (pool_hits + pool_misses), "ratio");
          ("trace_overhead_pct", 100.0 *. (traced_s -. plain_s) /. plain_s, "%");
        ];
  }
