(* The lib/cache layer: canonical keys, the sharded LRU, the answer
   cache's token/generation validity rules, SLD subgoal memoization, and
   the conformance guarantee that cached traffic leaves the learner's
   trajectory unchanged. *)

open Helpers
module D = Datalog

let atom = D.Parser.parse_atom

(* ---------- Key ---------- *)

let key_canonical_basics () =
  let k1, v1 = Cache.Key.of_atom (atom "anc(X, Y)") in
  let k2, v2 = Cache.Key.of_atom (atom "anc(A, B)") in
  check_bool "alpha-equivalent atoms share a key" true (D.Atom.equal k1 k2);
  check_int "two vars" 2 (Array.length v1);
  check_bool "original vars preserved, in order" true
    (v1.(0).D.Term.name = "X" && v1.(1).D.Term.name = "Y"
    && v2.(0).D.Term.name = "A" && v2.(1).D.Term.name = "B");
  (* A repeated variable is a different query than two distinct ones. *)
  let k3, v3 = Cache.Key.of_atom (atom "anc(X, X)") in
  check_bool "anc(X,X) distinct from anc(X,Y)" false (D.Atom.equal k1 k3);
  check_int "one var" 1 (Array.length v3);
  (* Ground atoms are their own key. *)
  let g = atom "anc(a, b)" in
  let kg, vg = Cache.Key.of_atom g in
  check_bool "ground key is the atom" true (D.Atom.equal g kg);
  check_int "no vars" 0 (Array.length vg);
  (* First-occurrence order with interleaved constants and repeats. *)
  let k4, v4 = Cache.Key.of_atom (atom "p(a, X, b, X, Y)") in
  check_int "two distinct vars" 2 (Array.length v4);
  check_bool "canonical shape" true
    (D.Atom.equal k4
       (D.Atom.make "p"
          [
            D.Term.const "a";
            D.Term.Var (Cache.Key.canonical_var 0);
            D.Term.const "b";
            D.Term.Var (Cache.Key.canonical_var 0);
            D.Term.Var (Cache.Key.canonical_var 1);
          ]));
  check_bool "index_of_canonical inverts canonical_var" true
    (Cache.Key.index_of_canonical (Cache.Key.canonical_var 3) = Some 3);
  check_bool "source vars are not canonical" true
    (Cache.Key.index_of_canonical { D.Term.name = "X"; gen = 0 } = None)

let gen_args =
  let open QCheck2.Gen in
  let term =
    oneof
      [
        map (fun i -> D.Term.const (Printf.sprintf "c%d" (i mod 3))) small_nat;
        map (fun i -> D.Term.var (Printf.sprintf "V%d" (i mod 4))) small_nat;
      ]
  in
  list_size (int_range 1 5) term

let key_alpha_equivalence =
  qcheck "renaming variables never changes the key" ~count:300 gen_args
    (fun args ->
      let renamed =
        List.map
          (function
            | D.Term.Var v -> D.Term.var ("r_" ^ v.D.Term.name)
            | t -> t)
          args
      in
      let k, vars = Cache.Key.of_atom (D.Atom.make "p" args) in
      let k', vars' = Cache.Key.of_atom (D.Atom.make "p" renamed) in
      D.Atom.equal k k' && Array.length vars = Array.length vars')

let key_canonical_fixpoint =
  qcheck "canonicalization is idempotent" ~count:300 gen_args (fun args ->
      let k, _ = Cache.Key.of_atom (D.Atom.make "p" args) in
      D.Atom.equal k (fst (Cache.Key.of_atom k)))

(* ---------- Lru ---------- *)

module Int_lru = Cache.Lru.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

let lru_eviction_order () =
  let t = Int_lru.create ~shards:1 ~capacity_bytes:300 () in
  Int_lru.add t 1 "a" ~bytes:100;
  Int_lru.add t 2 "b" ~bytes:100;
  Int_lru.add t 3 "c" ~bytes:100;
  check_int "full" 3 (Int_lru.length t);
  check_int "accounted" 300 (Int_lru.bytes t);
  (* Touching 1 makes 2 the least recently used. *)
  check_bool "find promotes" true (Int_lru.find t 1 = Some "a");
  Int_lru.add t 4 "d" ~bytes:100;
  check_bool "LRU entry evicted" true (Int_lru.find t 2 = None);
  check_bool "touched entry kept" true (Int_lru.find t 1 = Some "a");
  check_bool "3 kept" true (Int_lru.find t 3 = Some "c");
  check_bool "4 kept" true (Int_lru.find t 4 = Some "d");
  check_int "one eviction" 1 (Int_lru.evictions t);
  (* Replacing re-accounts the byte size. *)
  Int_lru.add t 4 "D" ~bytes:50;
  check_bool "replaced" true (Int_lru.find t 4 = Some "D");
  check_int "bytes after replace" 250 (Int_lru.bytes t);
  (* An oversized entry is admitted alone (never evicts itself). *)
  Int_lru.add t 9 "huge" ~bytes:1000;
  check_bool "oversized admitted" true (Int_lru.find t 9 = Some "huge");
  check_int "alone" 1 (Int_lru.length t);
  check_int "three more evictions" 4 (Int_lru.evictions t);
  check_bool "remove present" true (Int_lru.remove t 9);
  check_bool "remove absent" false (Int_lru.remove t 9);
  check_int "empty" 0 (Int_lru.length t);
  check_int "no bytes" 0 (Int_lru.bytes t)

(* ---------- Answers ---------- *)

let answers_roundtrip () =
  let db = D.Database.of_list [ atom "par(a, b)" ] in
  let c = Cache.Answers.create ~capacity_bytes:(1 lsl 16) () in
  let q = atom "anc(X, Y)" in
  check_bool "cold miss" true (Cache.Answers.find c ~db q = None);
  let result =
    D.Subst.empty
    |> D.Subst.bind { D.Term.name = "X"; gen = 0 } (D.Term.const "a")
    |> D.Subst.bind { D.Term.name = "Y"; gen = 0 } (D.Term.const "b")
  in
  Cache.Answers.store c ~db q ~result:(Some result) ~reductions:3
    ~retrievals:2 ~cost:5.0;
  (* Look up through an alpha-variant: the hit rebases onto ITS vars. *)
  (match Cache.Answers.find c ~db (atom "anc(P, Q)") with
  | None -> Alcotest.fail "expected a hit"
  | Some h ->
    check_int "fill reductions" 3 h.Cache.Answers.reductions;
    check_int "fill retrievals" 2 h.Cache.Answers.retrievals;
    check_float "fill cost" 5.0 h.Cache.Answers.cost;
    (match h.Cache.Answers.result with
    | None -> Alcotest.fail "expected an answer substitution"
    | Some s ->
      check_bool "P = a" true
        (D.Term.equal (D.Subst.apply s (D.Term.var "P")) (D.Term.const "a"));
      check_bool "Q = b" true
        (D.Term.equal (D.Subst.apply s (D.Term.var "Q")) (D.Term.const "b"))));
  (* "No" answers are cached too (they were not truncated). *)
  let qn = atom "anc(z, z)" in
  Cache.Answers.store c ~db qn ~result:None ~reductions:7 ~retrievals:4
    ~cost:11.0;
  (match Cache.Answers.find c ~db qn with
  | Some { Cache.Answers.result = None; _ } -> ()
  | _ -> Alcotest.fail "expected a cached 'no'");
  let cs = Cache.Answers.counters c in
  check_int "hits" 2 cs.Cache.Answers.hits;
  check_int "misses" 1 cs.Cache.Answers.misses;
  check_int "entries" 2 cs.Cache.Answers.entries

let answers_invalidation () =
  let db = D.Database.of_list [ atom "par(a, b)" ] in
  let c = Cache.Answers.create ~capacity_bytes:(1 lsl 16) () in
  let q = atom "anc(X, Y)" in
  Cache.Answers.store c ~db q ~result:None ~reductions:1 ~retrievals:1
    ~cost:2.0;
  check_bool "warm" true (Cache.Answers.find c ~db q <> None);
  (* Mutation bumps the generation; the stale entry drops on lookup. *)
  check_bool "fact added" true (D.Database.add db (atom "par(b, c)"));
  check_bool "stale entry dropped" true (Cache.Answers.find c ~db q = None);
  let cs = Cache.Answers.counters c in
  check_int "invalidations" 1 cs.Cache.Answers.invalidations;
  check_int "entries" 0 cs.Cache.Answers.entries;
  (* A different database instance never matches, whatever its state. *)
  Cache.Answers.store c ~db q ~result:None ~reductions:1 ~retrievals:1
    ~cost:2.0;
  let db2 = D.Database.of_list (D.Database.to_list db) in
  check_bool "other instance misses" true
    (Cache.Answers.find c ~db:db2 q = None)

(* ---------- Subsume ---------- *)

let subsume_theta_basics () =
  let some g s =
    Option.is_some (Cache.Subsume.theta_subsumes ~general:(atom g) (atom s))
  in
  check_bool "free pair subsumes ground" true (some "p(X, Y)" "p(a, b)");
  check_bool "repeated var accepts equal args" true (some "p(X, X)" "p(a, a)");
  check_bool "repeated var rejects unequal args" false
    (some "p(X, X)" "p(a, b)");
  check_bool "distinct vars subsume the repeated-var query" true
    (some "p(X, Y)" "p(W, W)");
  check_bool "constants must coincide positionally" false
    (some "p(a, X)" "p(b, c)");
  check_bool "matching constant position" true (some "p(a, X)" "p(a, c)");
  check_bool "var maps to a var" true (some "p(X, Y)" "p(U, V)");
  check_bool "more bound never subsumes less bound" false
    (some "p(a, X)" "p(Y, c)");
  check_bool "ground subsumes only itself" true (some "p(a)" "p(a)");
  check_bool "ground mismatch" false (some "p(a)" "p(b)");
  match
    Cache.Subsume.theta_subsumes ~general:(atom "p(X, Y, X)")
      (atom "p(a, b, a)")
  with
  | None -> Alcotest.fail "expected a witness"
  | Some s ->
    check_bool "witness instantiates general to specific" true
      (D.Atom.equal
         (D.Subst.apply_atom s (atom "p(X, Y, X)"))
         (atom "p(a, b, a)"))

let subsume_index_candidates () =
  let ix = Cache.Subsume.create () in
  let key a = fst (Cache.Key.of_atom (atom a)) in
  let k_free = key "p(X, Y)" in
  let k_b1 = key "p(a, Y)" in
  let k_rep = key "p(X, X)" in
  Cache.Subsume.add ix k_free;
  Cache.Subsume.add ix k_b1;
  Cache.Subsume.add ix k_rep;
  Cache.Subsume.add ix k_free;
  check_int "add is idempotent" 3 (Cache.Subsume.length ix);
  (* A fully bound probe admits every mask; most-bound candidate first. *)
  let cands = Cache.Subsume.candidates ix (atom "p(a, b)") in
  check_int "all three are candidates" 3 (List.length cands);
  check_bool "most specific first" true (D.Atom.equal (List.hd cands) k_b1);
  (* p(Z, b) binds only position 1: the position-0-bound key cannot
     subsume it and is pre-filtered by the mask test. *)
  let cands = Cache.Subsume.candidates ix (atom "p(Z, b)") in
  check_bool "bound-elsewhere key filtered out" false
    (List.exists (D.Atom.equal k_b1) cands);
  (* The probe's own exact key never comes back as its generalization. *)
  let cands = Cache.Subsume.candidates ix ~exclude:k_free (atom "p(U, V)") in
  check_bool "exact key excluded" false
    (List.exists (D.Atom.equal k_free) cands);
  (* Equal masks stay in: p($c0, $c1) genuinely subsumes p(W, W) even
     though both adornments are fully free. *)
  let cands = Cache.Subsume.candidates ix ~exclude:k_rep (atom "p(W, W)") in
  check_bool "equal-mask candidate kept" true
    (List.exists (D.Atom.equal k_free) cands);
  (* Other predicates and arities never mix. *)
  check_int "different predicate: no candidates" 0
    (List.length (Cache.Subsume.candidates ix (atom "q(a, b)")));
  check_int "different arity: no candidates" 0
    (List.length (Cache.Subsume.candidates ix (atom "p(a, b, c)")));
  Cache.Subsume.remove ix k_b1;
  check_int "remove" 2 (Cache.Subsume.length ix)

let subsume_filter_row () =
  let general = fst (Cache.Key.of_atom (atom "p(X, Y)")) in
  let row = [ (0, D.Term.const "a"); (1, D.Term.const "b") ] in
  (match Cache.Subsume.filter_row ~general ~row (atom "p(a, Q)") with
  | None -> Alcotest.fail "matching row must filter through"
  | Some s ->
    check_bool "Q = b" true
      (D.Term.equal (D.Subst.apply s (D.Term.var "Q")) (D.Term.const "b")));
  check_bool "mismatched constant rejects the row" true
    (Cache.Subsume.filter_row ~general ~row (atom "p(z, Q)") = None);
  (* A repeated query variable needs equal row terms. *)
  check_bool "p(W, W) rejects the (a, b) row" true
    (Cache.Subsume.filter_row ~general ~row (atom "p(W, W)") = None);
  let row_aa = [ (0, D.Term.const "a"); (1, D.Term.const "a") ] in
  (match Cache.Subsume.filter_row ~general ~row:row_aa (atom "p(W, W)") with
  | None -> Alcotest.fail "equal row must match the repeated var"
  | Some s ->
    check_bool "W = a" true
      (D.Term.equal (D.Subst.apply s (D.Term.var "W")) (D.Term.const "a")));
  (* instantiate materializes the row for memo seeding. *)
  check_bool "instantiate applies the row" true
    (D.Atom.equal
       (Cache.Subsume.instantiate general row)
       (atom "p(a, b)"))

(* Brute-force θ-subsumption reference: enumerate every assignment of
   the general side's variables to terms occurring in the specific atom
   and test whether any instantiates general to specific exactly. Slow
   and independent of the one-pass matcher under test. *)
let brute_subsumes ~general specific =
  let gvars = D.Term.Var_set.elements (D.Atom.var_set general) in
  let universe = specific.D.Atom.args in
  let rec assign env = function
    | [] -> D.Atom.equal (D.Subst.apply_atom env general) specific
    | v :: rest ->
      List.exists (fun t -> assign (D.Subst.bind v t env) rest) universe
  in
  match gvars with
  | [] -> D.Atom.equal general specific
  | vs -> assign D.Subst.empty vs

(* Variable pools are disjoint between the two sides, mirroring real
   probes: cache keys are canonicalized into their own namespace, so a
   general entry never shares a variable with the query it subsumes
   (shared names would make substitution application chain). *)
let gen_atom_pair =
  let open QCheck2.Gen in
  int_range 1 4 >>= fun n ->
  let term prefix =
    oneof
      [
        map (fun i -> D.Term.const (Printf.sprintf "c%d" (i mod 3))) small_nat;
        map
          (fun i -> D.Term.var (Printf.sprintf "%s%d" prefix (i mod 3)))
          small_nat;
      ]
  in
  pair (list_repeat n (term "G")) (list_repeat n (term "V"))

let subsume_theta_matches_brute =
  qcheck "fast θ-subsumption agrees with the brute-force reference"
    ~count:500 gen_atom_pair (fun (gargs, sargs) ->
      let general = D.Atom.make "p" gargs in
      let specific = D.Atom.make "p" sargs in
      match Cache.Subsume.theta_subsumes ~general specific with
      | None -> not (brute_subsumes ~general specific)
      | Some s ->
        brute_subsumes ~general specific
        && D.Atom.equal (D.Subst.apply_atom s general) specific)

let answers_derived_verdicts () =
  let db = D.Database.of_list [ atom "e(a, b)" ] in
  let c = Cache.Answers.create ~subsume:true ~capacity_bytes:(1 lsl 16) () in
  check_bool "subsume enabled" true (Cache.Answers.subsume_enabled c);
  let bind name cst s =
    D.Subst.bind { D.Term.name; gen = 0 } (D.Term.const cst) s
  in
  let g = atom "p(X, Y)" in
  let s1 = D.Subst.empty |> bind "X" "a" |> bind "Y" "b" in
  let s2 = D.Subst.empty |> bind "X" "c" |> bind "Y" "d" in
  Cache.Answers.store c ~db ~answers:([ s1; s2 ], true) g ~result:(Some s1)
    ~reductions:5 ~retrievals:4 ~cost:9.0;
  (* Derived yes: the row (a, b) filters down to the specialization. *)
  (match Cache.Answers.find c ~db (atom "p(a, Q)") with
  | None -> Alcotest.fail "expected a derived hit"
  | Some h ->
    check_bool "derived" true h.Cache.Answers.derived;
    check_int "parent fill reductions" 5 h.Cache.Answers.reductions;
    (match h.Cache.Answers.result with
    | None -> Alcotest.fail "expected an answer"
    | Some s ->
      check_bool "Q = b" true
        (D.Term.equal (D.Subst.apply s (D.Term.var "Q")) (D.Term.const "b"))));
  (* The verdict was promoted under its own key: the alpha-variant
     repeat is an exact hit, no probe. *)
  (match Cache.Answers.find c ~db (atom "p(a, Z)") with
  | None -> Alcotest.fail "expected the promoted entry to hit"
  | Some h -> check_bool "promoted repeat is exact" false h.Cache.Answers.derived);
  (* Derived no: the complete set has no row with b first. *)
  (match Cache.Answers.find c ~db (atom "p(b, Q)") with
  | Some { Cache.Answers.result = None; derived = true; _ } -> ()
  | _ -> Alcotest.fail "expected a derived 'no'");
  (* A ground specialization derives too. *)
  (match Cache.Answers.find c ~db (atom "p(c, d)") with
  | Some { Cache.Answers.result = Some _; derived = true; _ } -> ()
  | _ -> Alcotest.fail "expected a derived ground 'yes'");
  let cs = Cache.Answers.counters c in
  check_int "derived hits" 3 cs.Cache.Answers.derived_hits;
  check_int "exact hits" 1 cs.Cache.Answers.hits;
  check_int "no plain misses" 0 cs.Cache.Answers.misses;
  check_bool "index keys counted" true (cs.Cache.Answers.index_keys >= 1);
  check_bool "probe scans counted" true (cs.Cache.Answers.derived_scanned >= 3)

let answers_incomplete_never_derives_no () =
  let db = D.Database.of_list [ atom "e(a, b)" ] in
  let c = Cache.Answers.create ~subsume:true ~capacity_bytes:(1 lsl 16) () in
  let bind name cst s =
    D.Subst.bind { D.Term.name; gen = 0 } (D.Term.const cst) s
  in
  let g = atom "p(X, Y)" in
  let s1 = D.Subst.empty |> bind "X" "a" |> bind "Y" "b" in
  (* The enumeration was cut by its cap: the set proves membership but
     never absence. *)
  Cache.Answers.store c ~db ~answers:([ s1 ], false) g ~result:(Some s1)
    ~reductions:1 ~retrievals:1 ~cost:1.0;
  (match Cache.Answers.find c ~db (atom "p(a, Q)") with
  | Some { Cache.Answers.result = Some _; derived = true; _ } -> ()
  | _ -> Alcotest.fail "membership still derives from an incomplete set");
  check_bool "absence never derives from an incomplete set" true
    (Cache.Answers.find c ~db (atom "p(z, Q)") = None);
  let cs = Cache.Answers.counters c in
  check_int "failed probe counted" 1 cs.Cache.Answers.subsume_misses

let answers_parent_no_derives_no () =
  let db = D.Database.of_list [ atom "e(a, b)" ] in
  let c = Cache.Answers.create ~subsume:true ~capacity_bytes:(1 lsl 16) () in
  let g = atom "q(X, Y)" in
  (* The general query failed outright (and was not truncated): every
     specialization inherits the "no". *)
  Cache.Answers.store c ~db ~answers:([], true) g ~result:None ~reductions:2
    ~retrievals:2 ~cost:3.0;
  match Cache.Answers.find c ~db (atom "q(a, Z)") with
  | Some { Cache.Answers.result = None; derived = true; _ } -> ()
  | _ -> Alcotest.fail "expected the parent's 'no' to derive"

let answers_derived_invalidation () =
  let db = D.Database.of_list [ atom "e(a, b)" ] in
  let c = Cache.Answers.create ~subsume:true ~capacity_bytes:(1 lsl 16) () in
  let bind name cst s =
    D.Subst.bind { D.Term.name; gen = 0 } (D.Term.const cst) s
  in
  let g = atom "p(X, Y)" in
  let s1 = D.Subst.empty |> bind "X" "a" |> bind "Y" "b" in
  Cache.Answers.store c ~db ~answers:([ s1 ], true) g ~result:(Some s1)
    ~reductions:1 ~retrievals:1 ~cost:1.0;
  check_bool "derived hit before mutation" true
    (match Cache.Answers.find c ~db (atom "p(a, Q)") with
    | Some h -> h.Cache.Answers.derived
    | None -> false);
  (* The mutation bumps the generation: the parent is stale, so both
     the promoted child and any fresh derivation die with it — exactly
     when an SLD re-run could differ. *)
  check_bool "fact added" true (D.Database.add db (atom "e(z, w)"));
  check_bool "promoted child gone with its parent" true
    (Cache.Answers.find c ~db (atom "p(a, Q)") = None);
  check_bool "fresh specialization finds no generalization" true
    (Cache.Answers.find c ~db (atom "p(z, Q)") = None);
  let cs = Cache.Answers.counters c in
  check_bool "stale entries counted as invalidations" true
    (cs.Cache.Answers.invalidations >= 1)

(* Derived service must agree with running SLD directly, on random
   databases and random specializations of a cached general query. *)
let gen_db_and_query =
  let open QCheck2.Gen in
  let name = map (fun i -> Printf.sprintf "n%d" (i mod 4)) small_nat in
  let edges = list_size (int_range 0 10) (pair name name) in
  let qterm =
    oneof
      [
        map (fun c -> D.Term.const c) name;
        map (fun i -> D.Term.var (Printf.sprintf "Q%d" (i mod 2))) small_nat;
      ]
  in
  pair edges (list_repeat 2 qterm)

let subsume_filter_matches_sld =
  qcheck "filtering a cached general answer set agrees with direct SLD"
    ~count:200 gen_db_and_query (fun (edges, qargs) ->
      let rules, _, _ =
        D.Parser.parse_kb "p(X, Y) :- e(X, Y).\np(X, Y) :- e(Y, X).\n"
      in
      let rulebase = D.Rulebase.of_list rules in
      let db =
        D.Database.of_list
          (List.map
             (fun (x, y) ->
               D.Atom.make "e" [ D.Term.const x; D.Term.const y ])
             edges)
      in
      let cfg = D.Sld.config ~rulebase ~db () in
      let c = Cache.Answers.create ~subsume:true ~capacity_bytes:(1 lsl 20) () in
      let g = atom "p(GX, GY)" in
      let r, st, en = D.Sld.solve_first_enum ~limit:256 cfg [ D.Clause.Pos g ] in
      if st.D.Sld.truncated then true
      else begin
        Cache.Answers.store c ~db
          ~answers:(en.D.Sld.answers, en.D.Sld.complete)
          g ~result:r ~reductions:st.D.Sld.reductions
          ~retrievals:st.D.Sld.retrievals ~cost:1.0;
        let q = D.Atom.make "p" qargs in
        let direct, _ = D.Sld.solve_first cfg [ D.Clause.Pos q ] in
        match Cache.Answers.find c ~db q with
        | None -> false (* the set is complete: find must always answer *)
        | Some h ->
          Option.is_some h.Cache.Answers.result = Option.is_some direct
          && (match h.Cache.Answers.result with
             | None -> true
             | Some s ->
               (* the filtered answer names a real instance *)
               D.Sld.provable cfg [ D.Clause.Pos (D.Subst.apply_atom s q) ])
      end)

(* ---------- Sld.Memo ---------- *)

let memo_seeded_verdicts () =
  let m = D.Sld.Memo.create () in
  let a = atom "p(a, b)" in
  D.Sld.Memo.add m ~token:1 ~gen:1 a true;
  check_bool "seeded verdict found" true
    (D.Sld.Memo.find m ~token:1 ~gen:1 a = Some true);
  check_bool "different generation misses" true
    (D.Sld.Memo.find m ~token:1 ~gen:2 a = None);
  check_bool "different token misses" true
    (D.Sld.Memo.find m ~token:2 ~gen:1 a = None)

let registry_seeds_memo () =
  let rules, facts, _ = D.Parser.parse_kb "p(X) :- e(X).\ne(a).\ne(b).\n" in
  let rulebase = D.Rulebase.of_list rules in
  let db = D.Database.of_list facts in
  let reg = Serve.Registry.create ~rulebase (Serve.Metrics.create ()) in
  let cache = Cache.Answers.create ~subsume:true ~capacity_bytes:(1 lsl 20) () in
  let memo = D.Sld.Memo.create () in
  ignore (Serve.Registry.answer reg ~cache ~memo ~db (atom "p(X)"));
  let token = D.Database.token db and gen = D.Database.generation db in
  check_bool "first enumerated instance seeded" true
    (D.Sld.Memo.find memo ~token ~gen (atom "p(a)") = Some true);
  check_bool "every enumerated instance seeded" true
    (D.Sld.Memo.find memo ~token ~gen (atom "p(b)") = Some true)

let memo_kb () =
  let rules, facts, _ =
    D.Parser.parse_kb
      "anc(X, Y) :- par(X, Y).\n\
       anc(X, Y) :- par(X, Z), anc(Z, Y).\n\
       par(a, b). par(b, c). par(c, d).\n"
  in
  (D.Rulebase.of_list rules, D.Database.of_list facts)

let memo_same_answers () =
  let rulebase, db = memo_kb () in
  let plain = D.Sld.config ~rulebase ~db () in
  let memo = D.Sld.Memo.create () in
  let memoized = D.Sld.config ~memo ~rulebase ~db () in
  List.iter
    (fun q ->
      let goal = D.Parser.parse_query q in
      check_bool q (D.Sld.provable plain goal) (D.Sld.provable memoized goal))
    [ "anc(a, d)"; "anc(b, d)"; "anc(d, a)"; "anc(a, a)"; "par(a, b)" ];
  (* The repeat of a memoized ground query is pure table lookup. *)
  let _, stats = D.Sld.solve_first memoized (D.Parser.parse_query "anc(a, d)") in
  check_int "repeat costs no reductions" 0 stats.D.Sld.reductions;
  check_int "repeat costs no retrievals" 0 stats.D.Sld.retrievals;
  let cs = D.Sld.Memo.counters memo in
  check_bool "hits recorded" true (cs.D.Sld.Memo.hits > 0);
  check_bool "entries recorded" true (cs.D.Sld.Memo.entries > 0)

let memo_invalidation () =
  let rulebase, db = memo_kb () in
  let memo = D.Sld.Memo.create () in
  let cfg = D.Sld.config ~memo ~rulebase ~db () in
  let q = D.Parser.parse_query "anc(a, e)" in
  check_bool "not derivable yet" false (D.Sld.provable cfg q);
  check_bool "fact added" true (D.Database.add db (atom "par(d, e)"));
  (* Without generation checking this would serve the stale 'no'. *)
  check_bool "derivable after mutation" true (D.Sld.provable cfg q);
  check_bool "stable on repeat" true (D.Sld.provable cfg q);
  let cs = D.Sld.Memo.counters memo in
  check_bool "stale verdicts invalidated" true
    (cs.D.Sld.Memo.invalidations > 0)

let memo_never_caches_truncated () =
  let rulebase, db = memo_kb () in
  let memo = D.Sld.Memo.create () in
  let shallow = D.Sld.config ~memo ~depth_limit:2 ~rulebase ~db () in
  let q = D.Parser.parse_query "anc(a, d)" in
  let r, stats = D.Sld.solve_first shallow q in
  check_bool "cut by the depth limit" true
    (r = None && stats.D.Sld.truncated);
  (* The truncated 'no' is "unknown": it must not poison a deep search
     sharing the same table. *)
  let deep = D.Sld.config ~memo ~rulebase ~db () in
  check_bool "deep search still proves it" true (D.Sld.provable deep q)

(* The memo holds derived goals only. A genealogy stream over derived and
   base-fact forms, bound and free, goes through [Registry.answer] three
   ways: plain, with a memo, and with a subsuming cache plus a memo (whose
   fills seed the memo). No memo may hold a base-fact goal, and the memo
   arms must give the plain arm's answers and learner trajectories. *)
let memo_derived_goals_only () =
  let rulebase = Workload.Genealogy.rulebase () in
  let pop = Workload.Genealogy.populate (Stats.Rng.create 5L) ~n_people:200 in
  let db = Workload.Genealogy.db pop in
  let people = Array.of_list (Workload.Genealogy.people pop) in
  let arm ~cache ~memo =
    let reg = Serve.Registry.create ~rulebase (Serve.Metrics.create ()) in
    let cache =
      if cache then
        Some (Cache.Answers.create ~subsume:true ~capacity_bytes:(1 lsl 20) ())
      else None
    in
    (reg, cache, (if memo then Some (D.Sld.Memo.create ()) else None))
  in
  let plain = arm ~cache:false ~memo:false in
  let memo_only = arm ~cache:false ~memo:true in
  let cached = arm ~cache:true ~memo:true in
  let preds = [| "relative"; "sibling"; "spouse" |] in
  let rng = Stats.Rng.create 9L in
  let queries =
    List.init 400 (fun i ->
        if i mod 17 = 0 then "relative(X)"
        else if i mod 19 = 0 then "mother_probe(X)"
        else
          Printf.sprintf "%s(%s)" preds.(Stats.Rng.int rng 3)
            people.(Stats.Rng.int rng 40))
  in
  let go (reg, cache, memo) q = Serve.Registry.answer reg ?cache ?memo ~db q in
  List.iteri
    (fun i text ->
      let q = atom text in
      let p = go plain q in
      List.iter
        (fun (name, a) ->
          let tag = Printf.sprintf "query %d (%s, %s)" i text name in
          check_bool (tag ^ ": same answer") true
            (Option.is_some a.Core.Live.result
            = Option.is_some p.Core.Live.result);
          check_float (tag ^ ": same paper cost") p.Core.Live.cost
            a.Core.Live.cost;
          check_bool (tag ^ ": same switch decision") true
            (a.Core.Live.switched = p.Core.Live.switched))
        [ ("memo", go memo_only q); ("cache+memo", go cached q) ])
    queries;
  let snap (reg, _, _) form =
    let e = Serve.Registry.find_or_create reg (atom form) in
    Serve.Registry.with_live e (fun live ->
        Core.Learner.serialize (Core.Live.learner live))
  in
  List.iter
    (fun form ->
      check_string (form ^ ": memo arm learner") (snap plain form)
        (snap memo_only form);
      check_string (form ^ ": cache+memo arm learner") (snap plain form)
        (snap cached form))
    [ "relative(q)"; "relative(X)"; "sibling(q)"; "spouse(q)"; "mother_probe(X)" ];
  let token = D.Database.token db and gen = D.Database.generation db in
  let edb = D.Rulebase.edb_preds rulebase in
  List.iter
    (fun (name, (_, _, memo)) ->
      let memo = Option.get memo in
      check_bool (name ^ ": derived goals memoized") true
        ((D.Sld.Memo.counters memo).D.Sld.Memo.entries > 0);
      (* Every goal the stream can pose of a rule-free predicate. *)
      Array.iter
        (fun person ->
          List.iter
            (fun pred ->
              let goal = D.Atom.make_sym pred [ D.Term.const person ] in
              if D.Sld.Memo.find memo ~token ~gen goal <> None then
                Alcotest.failf "%s: base-fact goal %s memoized" name
                  (D.Atom.to_string goal))
            edb)
        people)
    [ ("memo", memo_only); ("cache+memo", cached) ]

(* ---------- Learner conformance ---------- *)

(* The acceptance criterion of the caching layer: an identical query
   stream answered with the cache + memo on must leave the learner in an
   identical state — same per-query paper cost (what the statistics are
   built from), same climb points, same final strategy. *)
let learner_trajectory_unchanged () =
  let kb_text =
    "instructor(X) :- prof(X).\n\
     instructor(X) :- grad(X).\n\
     prof(russ).\n\
     grad(manolis).\n"
  in
  let mk () =
    let rules, facts, _ = D.Parser.parse_kb kb_text in
    (D.Rulebase.of_list rules, D.Database.of_list facts)
  in
  let rulebase, db = mk () in
  let rulebase', db' = mk () in
  let plain = Serve.Registry.create ~rulebase (Serve.Metrics.create ()) in
  let caching =
    Serve.Registry.create ~rulebase:rulebase' (Serve.Metrics.create ())
  in
  let cache = Cache.Answers.create ~capacity_bytes:(1 lsl 20) () in
  let memo = D.Sld.Memo.create () in
  (* A grad-heavy stream mixing hits, misses and a 'no' answer. *)
  let queries =
    List.init 300 (fun i ->
        if i mod 7 = 3 then "instructor(russ)"
        else if i mod 11 = 5 then "instructor(fred)"
        else "instructor(manolis)")
  in
  List.iteri
    (fun i text ->
      let q = atom text in
      let a = Serve.Registry.answer plain ~db q in
      let b = Serve.Registry.answer caching ~cache ~memo ~db:db' q in
      let tag = Printf.sprintf "query %d (%s)" i text in
      check_bool (tag ^ ": answered alike") true
        (Option.is_some a.Core.Live.result
        = Option.is_some b.Core.Live.result);
      check_float (tag ^ ": same paper cost") a.Core.Live.cost
        b.Core.Live.cost;
      check_bool (tag ^ ": same switch decision") true
        (a.Core.Live.switched = b.Core.Live.switched))
    queries;
  let e1 = Serve.Registry.find_or_create plain (atom "instructor(manolis)") in
  let e2 =
    Serve.Registry.find_or_create caching (atom "instructor(manolis)")
  in
  check_string "same final strategy" (Serve.Registry.strategy_string e1)
    (Serve.Registry.strategy_string e2);
  let serialized e =
    Serve.Registry.with_live e (fun live ->
        Core.Learner.serialize (Core.Live.learner live))
  in
  check_string "same serialized learner" (serialized e1) (serialized e2);
  let climbs e = Serve.Registry.with_live e Core.Live.climbs in
  check_int "same climb count" (climbs e1) (climbs e2);
  (* ... and the cache really did serve the bulk of the traffic. *)
  let cs = Cache.Answers.counters cache in
  check_bool "cache served most queries" true (cs.Cache.Answers.hits > 250);
  check_int "three distinct fills" 3 cs.Cache.Answers.entries

(* The acceptance criterion of the subsumption layer: serving answers by
   filtering a more general cached set must leave every learner exactly
   where plain SLD — or the exact-only cache — would have left it. The
   stream mixes a free generalization root with bound hits, misses and a
   'no', so both derived and exact service paths are exercised. *)
let learner_trajectory_subsume_invariant () =
  let kb_text =
    "instructor(X) :- prof(X).\n\
     instructor(X) :- grad(X).\n\
     prof(russ).\n\
     grad(manolis).\n"
  in
  let mk () =
    let rules, facts, _ = D.Parser.parse_kb kb_text in
    (D.Rulebase.of_list rules, D.Database.of_list facts)
  in
  let arm subsume =
    let rulebase, db = mk () in
    let reg = Serve.Registry.create ~rulebase (Serve.Metrics.create ()) in
    let cache =
      if subsume = `Plain then None
      else
        Some
          (Cache.Answers.create
             ~subsume:(subsume = `Subsume)
             ~capacity_bytes:(1 lsl 20) ())
    in
    (reg, cache, D.Sld.Memo.create (), db)
  in
  let p_reg, p_cache, p_memo, p_db = arm `Plain in
  let e_reg, e_cache, e_memo, e_db = arm `Exact in
  let s_reg, s_cache, s_memo, s_db = arm `Subsume in
  let queries =
    List.init 300 (fun i ->
        if i mod 13 = 0 then "instructor(X)"
        else if i mod 7 = 3 then "instructor(russ)"
        else if i mod 11 = 5 then "instructor(fred)"
        else "instructor(manolis)")
  in
  List.iteri
    (fun i text ->
      let q = atom text in
      let go (reg, cache, memo, db) =
        Serve.Registry.answer reg ?cache ~memo ~db q
      in
      let p = go (p_reg, p_cache, p_memo, p_db) in
      let e = go (e_reg, e_cache, e_memo, e_db) in
      let s = go (s_reg, s_cache, s_memo, s_db) in
      let tag = Printf.sprintf "query %d (%s)" i text in
      List.iter
        (fun (arm, a) ->
          check_bool (tag ^ ": answered alike (" ^ arm ^ ")") true
            (Option.is_some a.Core.Live.result
            = Option.is_some p.Core.Live.result);
          check_float (tag ^ ": same paper cost (" ^ arm ^ ")")
            p.Core.Live.cost a.Core.Live.cost;
          check_bool (tag ^ ": same switch decision (" ^ arm ^ ")") true
            (a.Core.Live.switched = p.Core.Live.switched))
        [ ("exact", e); ("subsume", s) ])
    queries;
  (* Both forms' learners must agree across all three arms. *)
  List.iter
    (fun form ->
      let snap reg =
        let e = Serve.Registry.find_or_create reg (atom form) in
        ( Serve.Registry.strategy_string e,
          Serve.Registry.with_live e Core.Live.climbs,
          Serve.Registry.with_live e (fun live ->
              Core.Learner.serialize (Core.Live.learner live)) )
      in
      let sp, cp, lp = snap p_reg in
      let se, ce, le = snap e_reg in
      let ss, cs, ls = snap s_reg in
      check_string (form ^ ": exact strategy") sp se;
      check_string (form ^ ": subsume strategy") sp ss;
      check_int (form ^ ": exact climbs") cp ce;
      check_int (form ^ ": subsume climbs") cp cs;
      check_string (form ^ ": exact serialized learner") lp le;
      check_string (form ^ ": subsume serialized learner") lp ls)
    [ "instructor(manolis)"; "instructor(X)" ];
  (* ... and the subsuming arm really did serve derived hits. *)
  let cs = Cache.Answers.counters (Option.get s_cache) in
  check_bool "derived hits occurred" true (cs.Cache.Answers.derived_hits > 0);
  let ec = Cache.Answers.counters (Option.get e_cache) in
  check_int "exact arm derived nothing" 0 ec.Cache.Answers.derived_hits

(* The acceptance criterion of the domain pool: serving a stream from
   four worker domains must leave every form's learner exactly where
   one domain would have left it. Each form's queries are textually
   identical, so its observation sequence is order-insensitive — any
   divergence means a race (lost update, torn strategy, double climb),
   not an interleaving artifact. *)
let learner_conformance_across_domains () =
  let kb_text =
    "instructor(X) :- prof(X).\n\
     instructor(X) :- grad(X).\n\
     prof(russ).\n\
     grad(manolis).\n"
  in
  let mk () =
    let rules, facts, _ = D.Parser.parse_kb kb_text in
    (D.Rulebase.of_list rules, D.Database.of_list facts)
  in
  (* 300 queries over two forms: bound (instructor_1_b) and free
     (instructor_1_f), interleaved 2:1. *)
  let queries =
    Array.init 300 (fun i ->
        atom (if i mod 3 = 2 then "instructor(X)" else "instructor(manolis)"))
  in
  let rulebase, db = mk () in
  let seq = Serve.Registry.create ~rulebase (Serve.Metrics.create ()) in
  Array.iter (fun q -> ignore (Serve.Registry.answer seq ~db q)) queries;
  let rulebase', db' = mk () in
  let par = Serve.Registry.create ~rulebase:rulebase' (Serve.Metrics.create ()) in
  let next = Atomic.make 0 in
  let worker () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < Array.length queries then begin
        ignore (Serve.Registry.answer par ~db:db' queries.(i));
        loop ()
      end
    in
    loop ()
  in
  let domains = List.init 4 (fun _ -> Domain.spawn worker) in
  List.iter Domain.join domains;
  let summarize reg =
    List.map
      (fun e ->
        ( Serve.Registry.key e,
          Serve.Registry.strategy_string e,
          Serve.Registry.with_live e Core.Live.climbs,
          Serve.Registry.with_live e Core.Live.queries,
          Serve.Registry.with_live e (fun live ->
              Core.Learner.serialize (Core.Live.learner live)) ))
      (Serve.Registry.entries reg)
  in
  let a = summarize seq and b = summarize par in
  check_int "same number of forms" (List.length a) (List.length b);
  List.iter2
    (fun (ka, sa, ca, qa, la) (kb, sb, cb, qb, lb) ->
      check_string "same form key" ka kb;
      check_string (ka ^ ": same final strategy") sa sb;
      check_int (ka ^ ": same climb count") ca cb;
      check_int (ka ^ ": same query count") qa qb;
      check_string (ka ^ ": same serialized learner") la lb)
    a b

let suite =
  [
    ( "cache.key",
      [
        case "canonicalization" key_canonical_basics;
        key_alpha_equivalence;
        key_canonical_fixpoint;
      ] );
    ("cache.lru", [ case "eviction order and accounting" lru_eviction_order ]);
    ( "cache.answers",
      [
        case "store/find through alpha-variants" answers_roundtrip;
        case "generation invalidation" answers_invalidation;
        case "derived verdicts and promotion" answers_derived_verdicts;
        case "incomplete sets never derive 'no'"
          answers_incomplete_never_derives_no;
        case "a failed general query derives 'no'" answers_parent_no_derives_no;
        case "derived entries die with their parent" answers_derived_invalidation;
      ] );
    ( "cache.subsume",
      [
        case "theta-subsumption basics" subsume_theta_basics;
        case "index candidates and masks" subsume_index_candidates;
        case "row filtering and instantiation" subsume_filter_row;
        subsume_theta_matches_brute;
        subsume_filter_matches_sld;
      ] );
    ( "cache.memo",
      [
        case "same answers with and without" memo_same_answers;
        case "invalidation after mutation" memo_invalidation;
        case "truncated results never recorded" memo_never_caches_truncated;
        case "seeded verdicts are token/generation scoped" memo_seeded_verdicts;
        case "registry seeds ground instances from fills" registry_seeds_memo;
        slow_case "derived goals only, same answers and learners"
          memo_derived_goals_only;
      ] );
    ( "cache.conformance",
      [
        slow_case "learner trajectory unchanged" learner_trajectory_unchanged;
        slow_case "learner invariant under subsumption service"
          learner_trajectory_subsume_invariant;
        slow_case "learning identical across worker domains"
          learner_conformance_across_domains;
      ] );
  ]
