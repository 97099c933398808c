(* Workload definitions and seeded generation: the genealogy population,
   the program text the server is fed, the request stream, and the
   expected answer of every query, read off the bottom-up model. *)

module D = Datalog

type mode =
  | Open_loop of { rate : float }  (** one connection, requests due on a fixed schedule *)
  | Closed_loop of { conns : int; window : int }
      (** each connection keeps [window] requests in flight *)

type spec = {
  name : string;
  people : int;
  cache_mb : int;
  paged : bool;  (** serve from a paged store in a fresh [--data-dir] *)
  mode : mode;
  free_share : float;  (** share of fully-free [form(X)] queries *)
  hot_pool : int;  (** > 0: draw only from this many [relative(person)] queries *)
  warmup : int;  (** requests per warm-up step *)
  max_rate : float;  (** q/s the stream and a measured slice are sized for *)
  replay : int;  (** requests replayed in-process by the traced run *)
}

(* Why each workload exists, and which layer it isolates:
   - hot_open: after warm-up every query is an exact cache hit, so the
     worker only looks the answer up and feeds the learner, and the front
     end (frame/protocol parsing, admission queue, loop wakeups, flush)
     carries the rest. Open loop, because shedding and queue wait only
     show when arrivals do not wait for replies. At 500 q/s the per-loop admission quota (32) absorbs a
     64 ms server stall; at 1000 q/s a 30 ms host stall on a 2-vCPU guest
     already shed requests.
   - cold_closed: the key space is >= 10x what the 1 MiB cache holds, so
     nearly every request runs SLD + learner observation + cache fill and
     eviction under the per-form lock. Closed loop below the admission
     quota, so it never sheds and throughput is the server's.
   - paged_general: the only workload on the paged store and the only one
     with derived (subsumption) hits; window 1 makes latency service time.
     The cache is 8 MiB because the server's LRU splits its budget over 8
     shards: at 1 MiB a shard, the six general entries (~100 KiB each at
     1024 rows) stay resident, while ground probes still miss often. *)
let specs =
  [
    {
      name = "hot_open";
      people = 5_000;
      cache_mb = 64;
      paged = false;
      mode = Open_loop { rate = 500.0 };
      free_share = 0.0;
      hot_pool = 32;
      warmup = 500;
      max_rate = 500.0;
      replay = 12_000;
    };
    {
      name = "cold_closed";
      people = 100_000;
      cache_mb = 1;
      paged = false;
      mode = Closed_loop { conns = 2; window = 8 };
      free_share = 0.0;
      hot_pool = 0;
      warmup = 5_000;
      max_rate = 30_000.0;
      replay = 12_000;
    };
    {
      name = "paged_general";
      people = 15_000;
      cache_mb = 8;
      paged = true;
      mode = Closed_loop { conns = 2; window = 1 };
      free_share = 0.10;
      hot_pool = 0;
      warmup = 4_000;
      max_rate = 30_000.0;
      replay = 20_000;
    };
  ]

let find name = List.find_opt (fun s -> s.name = name) specs

(* The genealogy knowledge base's intensional predicates, hottest first:
   queries pick a form by Zipf rank. *)
let forms =
  [|
    "relative"; "sibling"; "inlaw"; "ancestor_of_probe"; "parent_of_probe";
    "grandparent_of_probe";
  |]

let zipf_s = 1.1

(* A query is coded as an int: [form * people + person] for the ground
   probe [form(person<k+1>)], and [-(form + 1)] for the fully-free
   [form(X)]. *)
let person_name p = "person" ^ string_of_int (p + 1)

let query_text ~people code =
  if code < 0 then forms.(-code - 1) ^ "(X)"
  else forms.(code / people) ^ "(" ^ person_name (code mod people) ^ ")"

type t = {
  spec : spec;
  program : string;  (** rules + facts, the only input the server gets *)
  rulebase : D.Rulebase.t;
  db : D.Database.t;  (** the facts, in memory *)
  holds : bool array array;  (** [holds.(form).(person)] in the model *)
  stream : int array;  (** query codes, in send order *)
}

let zipf_cdf k =
  let w = Array.init k (fun i -> 1.0 /. Float.pow (float_of_int (i + 1)) zipf_s) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map (fun x -> acc := !acc +. (x /. total); !acc) w

let draw cdf rng =
  let u = Stats.Rng.float rng in
  let rec go i = if i >= Array.length cdf - 1 || u < cdf.(i) then i else go (i + 1) in
  go 0

(* Requests the stream must hold: warm-up steps plus the measured phase
   at the workload's highest plausible rate. A closed loop that outruns
   it wraps around (see [Loadgen]). *)
let stream_length spec ~seconds =
  (4 * spec.warmup) + int_of_float (spec.max_rate *. float_of_int seconds)

let make_stream spec rng ~seconds =
  let n = stream_length spec ~seconds in
  let form_cdf = zipf_cdf (Array.length forms) in
  if spec.hot_pool > 0 then begin
    (* distinct people for the pool; the stream opens with each pool
       query once so the warm-up fills every entry *)
    let picked = Hashtbl.create spec.hot_pool in
    let pool = Array.make spec.hot_pool 0 in
    let i = ref 0 in
    while !i < spec.hot_pool do
      let p = Stats.Rng.int rng spec.people in
      if not (Hashtbl.mem picked p) then begin
        Hashtbl.add picked p ();
        pool.(!i) <- p;
        incr i
      end
    done;
    let pool_cdf = zipf_cdf spec.hot_pool in
    Array.init n (fun j ->
        if j < spec.hot_pool then pool.(j) else pool.(draw pool_cdf rng))
  end
  else
    Array.init n (fun _ ->
        let f = draw form_cdf rng in
        if Stats.Rng.float rng < spec.free_share then -(f + 1)
        else (f * spec.people) + Stats.Rng.int rng spec.people)

let generate spec ~seed ~seconds =
  let rng = Stats.Rng.create (Int64.of_int seed) in
  let pop_rng = Stats.Rng.split rng in
  let pop = Workload.Genealogy.populate pop_rng ~n_people:spec.people in
  let db = Workload.Genealogy.db pop in
  let rulebase = Workload.Genealogy.rulebase () in
  let b = Buffer.create (spec.people * 16) in
  Buffer.add_string b Workload.Genealogy.rules_text;
  D.Database.iter
    (fun a ->
      Buffer.add_string b (D.Atom.to_string a);
      Buffer.add_string b ".\n")
    db;
  (* Expected answers come from the bottom-up model of the same rules
     and facts, independent of the SLD engine under test; [holds] is the
     per-query memo. *)
  let model = D.Seminaive.model rulebase db in
  let holds =
    Array.map
      (fun f ->
        Array.init spec.people (fun p ->
            D.Database.mem model (D.Atom.make f [ D.Term.const (person_name p) ])))
      forms
  in
  {
    spec;
    program = Buffer.contents b;
    rulebase;
    db;
    holds;
    stream = make_stream spec rng ~seconds;
  }

(* The verdict on one ANSWER payload. *)
type reply = { ok : bool; cost : int; cached : bool }

let int_after s key =
  match Util.find s key with
  | None -> 0
  | Some i ->
    let j = ref (i + String.length key) in
    let v = ref 0 in
    while !j < String.length s && s.[!j] >= '0' && s.[!j] <= '9' do
      v := (!v * 10) + Char.code s.[!j] - 48;
      incr j
    done;
    !v

(* [check t code payload] — a ground probe must say exactly yes/no as the
   model does; a fully-free query's answer must bind X to a member of the
   model. *)
let check t code payload =
  let bad = { ok = false; cost = 0; cached = false } in
  let n = String.length payload in
  if n < 8 || String.sub payload 0 7 <> "ANSWER " then bad
  else
    let sp = try String.index_from payload 7 ' ' with Not_found -> n in
    let result = String.sub payload 7 (sp - 7) in
    let ok =
      if code >= 0 then
        let expect = t.holds.(code / t.spec.people).(code mod t.spec.people) in
        result = if expect then "yes" else "no"
      else
        let prefix = "{X=person" in
        let lp = String.length prefix in
        String.length result > lp + 1
        && String.sub result 0 lp = prefix
        &&
        match int_of_string_opt (String.sub result lp (String.length result - lp - 1)) with
        | Some k when k >= 1 && k <= t.spec.people -> t.holds.(-code - 1).(k - 1)
        | _ -> false
    in
    {
      ok;
      cost = int_after payload "reductions=" + int_after payload "retrievals=";
      cached = Util.find payload " cached" <> None;
    }
