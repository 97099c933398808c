open Helpers
module D = Datalog

let atom = D.Parser.parse_atom
let clause = D.Parser.parse_clause
let clauses = D.Parser.parse_clauses

(* ---------- Symbol / Term / Atom ---------- *)

let symbol_interning () =
  let a = D.Symbol.intern "foo" and b = D.Symbol.intern "foo" in
  check_bool "same id" true (D.Symbol.equal a b);
  check_int "same" 0 (D.Symbol.compare a b);
  let c = D.Symbol.intern "bar" in
  check_bool "distinct" false (D.Symbol.equal a c);
  check_string "round trip" "foo" (D.Symbol.to_string a)

(* The interned fast path is the per-atom cost every parsed query pays on
   every worker domain: it must not allocate (no Some boxing, no closure)
   so it cannot contend on the minor heap or the symbol mutex. Warm the
   names, then meter a re-intern loop with the GC's own allocation
   counter; the slack absorbs the two boxed floats the meter itself
   allocates. *)
let symbol_fast_path_no_alloc () =
  let names = Array.init 64 (fun i -> Printf.sprintf "alloc_probe_%d" i) in
  Array.iter (fun n -> ignore (D.Symbol.intern n)) names;
  let rounds = 10_000 in
  let before = Gc.minor_words () in
  for i = 0 to rounds - 1 do
    ignore (Sys.opaque_identity (D.Symbol.intern names.(i land 63)))
  done;
  let allocated = Gc.minor_words () -. before in
  check_bool
    (Printf.sprintf "re-interning allocates nothing (%.0f words for %d ops)"
       allocated rounds)
    true
    (allocated < 64.0)

(* Concurrent intern of the same names from several domains must yield
   exactly one symbol per name: every domain agrees on each id, and the
   ids are pairwise distinct. *)
let symbol_concurrent_intern () =
  let n_domains = 4 and n_names = 400 in
  let names =
    List.init n_names (fun i -> Printf.sprintf "ccintern_%d" i)
  in
  let started = Atomic.make 0 in
  let run () =
    Atomic.incr started;
    (* start line: maximize overlap so racing inserts actually race *)
    while Atomic.get started < n_domains do
      Domain.cpu_relax ()
    done;
    List.map (fun n -> D.Symbol.id (D.Symbol.intern n)) names
  in
  let domains = List.init n_domains (fun _ -> Domain.spawn run) in
  let results = List.map Domain.join domains in
  let first = List.hd results in
  List.iteri
    (fun i ids ->
      check_bool (Printf.sprintf "domain %d agrees on every id" (i + 1)) true
        (ids = first))
    (List.tl results);
  check_int "one id per name" n_names
    (List.length (List.sort_uniq Int.compare first));
  check_bool "count covers them all" true
    (D.Symbol.count () > List.fold_left Int.max 0 first);
  List.iter2
    (fun name id ->
      check_int ("re-intern of " ^ name ^ " is stable") id
        (D.Symbol.id (D.Symbol.intern name)))
    names first

let term_compare () =
  let c1 = D.Term.const "a" and c2 = D.Term.const "a" in
  check_bool "const equal" true (D.Term.equal c1 c2);
  check_bool "const vs var" false (D.Term.equal c1 (D.Term.var "A"));
  let v = D.Term.var "X" in
  let v' = D.Term.rename 3 v in
  check_bool "renamed differs" false (D.Term.equal v v');
  check_bool "rename idempotent on consts" true
    (D.Term.equal c1 (D.Term.rename 5 c1))

let atom_basics () =
  let a = atom "edge(a, B)" in
  check_int "arity" 2 (D.Atom.arity a);
  check_bool "not ground" false (D.Atom.is_ground a);
  check_bool "ground" true (D.Atom.is_ground (atom "edge(a, b)"));
  check_int "vars" 1 (List.length (D.Atom.vars a));
  check_string "to_string" "edge(a, B)" (D.Atom.to_string a)

let atom_adornment () =
  let a = atom "q(a, X, b)" in
  Alcotest.(check (list string))
    "adornment" [ "b"; "f"; "b" ]
    (List.map (function `B -> "b" | `F -> "f") (D.Atom.adornment a));
  check_string "query form" "q^(b,f,b)"
    (Format.asprintf "%a" D.Atom.pp_query_form a)

let atom_vars_dedup () =
  let a = atom "p(X, Y, X)" in
  check_int "dedup" 2 (List.length (D.Atom.vars a))

(* ---------- Subst / unification ---------- *)

let unify_basic () =
  let x = D.Term.var "X" and a = D.Term.const "a" in
  match D.Subst.unify x a D.Subst.empty with
  | None -> Alcotest.fail "should unify"
  | Some s -> check_bool "bound" true (D.Term.equal (D.Subst.apply s x) a)

let unify_atoms_cases () =
  let check_unifies expected p q =
    let r = D.Subst.unify_atoms (atom p) (atom q) D.Subst.empty in
    check_bool (p ^ " ~ " ^ q) expected (r <> None)
  in
  check_unifies true "p(X, b)" "p(a, Y)";
  check_unifies false "p(a)" "p(b)";
  check_unifies false "p(a)" "q(a)";
  check_unifies false "p(a)" "p(a, b)";
  check_unifies true "p(X, X)" "p(a, a)";
  check_unifies false "p(X, X)" "p(a, b)"

let unify_apply_equalizes =
  qcheck "unifier equalizes atoms" ~count:300
    (let open QCheck2.Gen in
     let term =
       oneof
         [
           map (fun i -> D.Term.const (Printf.sprintf "c%d" (i mod 3))) small_nat;
           map (fun i -> D.Term.var (Printf.sprintf "V%d" (i mod 3))) small_nat;
         ]
     in
     pair (list_size (int_range 1 3) term) (list_size (int_range 1 3) term))
    (fun (args1, args2) ->
      let a = D.Atom.make "p" args1 and b = D.Atom.make "p" args2 in
      match D.Subst.unify_atoms a b D.Subst.empty with
      | None -> true
      | Some s ->
        D.Atom.equal (D.Subst.apply_atom s a) (D.Subst.apply_atom s b))

let match_one_sided () =
  let pattern = atom "p(X, b)" in
  (match D.Subst.match_atom ~pattern ~ground:(atom "p(a, b)") D.Subst.empty with
  | Some s ->
    check_bool "X=a" true
      (D.Atom.equal (D.Subst.apply_atom s pattern) (atom "p(a, b)"))
  | None -> Alcotest.fail "should match");
  check_bool "mismatch" true
    (D.Subst.match_atom ~pattern ~ground:(atom "p(a, c)") D.Subst.empty = None)

let subst_idempotent () =
  let s =
    D.Subst.empty
    |> D.Subst.bind { D.Term.name = "X"; gen = 0 } (D.Term.var "Y")
    |> D.Subst.bind { D.Term.name = "Y"; gen = 0 } (D.Term.const "a")
  in
  check_bool "X resolves fully" true
    (D.Term.equal (D.Subst.apply s (D.Term.var "X")) (D.Term.const "a"))

let subst_walk_chain () =
  let x = { D.Term.name = "X"; gen = 0 } and y = { D.Term.name = "Y"; gen = 0 } in
  let s = D.Subst.bind x (D.Term.var "Y") D.Subst.empty in
  (* [find] returns the raw stored binding; [walk] resolves the chain. *)
  check_bool "raw binding kept" true (D.Subst.find x s = Some (D.Term.var "Y"));
  let s = D.Subst.bind y (D.Term.const "a") s in
  check_bool "walk resolves through Y" true
    (D.Term.equal (D.Subst.walk s (D.Term.var "X")) (D.Term.const "a"));
  check_bool "to_alist resolves too" true
    (List.for_all
       (fun (_, t) -> D.Term.equal t (D.Term.const "a"))
       (D.Subst.to_alist s));
  (* Rebinding to the same resolved value is a no-op... *)
  check_int "consistent rebind is a no-op" 2
    (D.Subst.size (D.Subst.bind x (D.Term.const "a") s));
  (* ...while a conflicting rebinding is a programming error. *)
  check_bool "conflicting rebind raises" true
    (try
       ignore (D.Subst.bind x (D.Term.const "b") s);
       false
     with Invalid_argument _ -> true)

let subst_apply_atom_no_alloc () =
  let a = atom "p(X, a)" in
  check_bool "empty subst returns the atom itself" true
    (D.Subst.apply_atom D.Subst.empty a == a)

(* ---------- Clause ---------- *)

let clause_safety () =
  check_bool "safe rule" true
    (D.Clause.check_safe (clause "p(X) :- q(X).") = Ok ());
  check_bool "unsafe head var" true
    (match D.Clause.check_safe (clause "p(X, Y) :- q(X).") with
    | Error [ v ] -> v.D.Term.name = "Y"
    | _ -> false);
  check_bool "unsafe negation" true
    (D.Clause.check_safe (clause "p(X) :- q(X), not r(Y).") <> Ok ());
  check_bool "safe negation" true
    (D.Clause.check_safe (clause "p(X) :- q(X), not r(X).") = Ok ())

let clause_accessors () =
  let c = clause "p(X) :- q(X), not r(X), s(X)." in
  check_int "positive" 2 (List.length (D.Clause.positive_body c));
  check_int "negative" 1 (List.length (D.Clause.negative_body c));
  check_bool "not fact" false (D.Clause.is_fact c);
  check_bool "fact" true (D.Clause.is_fact (clause "p(a)."))

(* ---------- Parser ---------- *)

let parser_program () =
  let items =
    D.Parser.parse_program
      "% a comment\n\
       parent(tom, bob).\n\
       ancestor(X, Y) :- parent(X, Y).\n\
       ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).\n\
       ?- ancestor(tom, Who).\n"
  in
  check_int "4 items" 4 (List.length items)

let parser_round_trip =
  qcheck "print/parse round trip" ~count:100
    (let open QCheck2.Gen in
     let name = map (fun i -> Printf.sprintf "p%d" (i mod 5)) small_nat in
     let term =
       oneof
         [
           map (fun i -> D.Term.const (Printf.sprintf "c%d" (i mod 4))) small_nat;
           map (fun i -> D.Term.var (Printf.sprintf "V%d" (i mod 4))) small_nat;
         ]
     in
     let gen_atom = map2 (fun n args -> D.Atom.make n args) name (list_size (int_range 0 3) term) in
     let lit =
       oneof
         [
           map (fun a -> D.Clause.Pos a) gen_atom;
           map (fun a -> D.Clause.Neg a) gen_atom;
         ]
     in
     map2 (fun h b -> D.Clause.make h b) gen_atom (list_size (int_range 0 3) lit))
    (fun c ->
      let printed = D.Clause.to_string c in
      let reparsed = clause printed in
      D.Clause.equal c reparsed)

let parser_errors () =
  check_bool "unterminated" true
    (try
       ignore (D.Parser.parse_clause "p(a");
       false
     with D.Parser.Parse_error _ | D.Lexer.Lex_error _ -> true);
  check_bool "bad token" true
    (try
       ignore (D.Parser.parse_clause "p(a) :- & q(a).");
       false
     with D.Parser.Parse_error _ | D.Lexer.Lex_error _ -> true)

let parser_quoted_and_numbers () =
  let a = atom "likes('Mary Jane', 42)" in
  check_int "arity" 2 (D.Atom.arity a);
  check_bool "ground" true (D.Atom.is_ground a)

let parser_naf_synonym () =
  let c1 = clause "p(X) :- q(X), not r(X)." in
  let c2 = clause "p(X) :- q(X), \\+ r(X)." in
  check_bool "not = \\+" true (D.Clause.equal c1 c2)

let parser_kb () =
  let rules, facts, queries =
    D.Parser.parse_kb "p(a). r(X) :- p(X). ?- r(a)."
  in
  check_int "rules" 1 (List.length rules);
  check_int "facts" 1 (List.length facts);
  check_int "queries" 1 (List.length queries)

(* The items a program parses to, pinned as a count and a digest of the
   printed items. The digests were taken with the earlier token-list
   lexer, so they show the pull lexer parses the same programs to the
   same items. *)
let item_string = function
  | D.Parser.Clause c -> D.Clause.to_string c
  | D.Parser.Query q ->
    "?- " ^ String.concat ", " (List.map (Format.asprintf "%a" D.Clause.pp_lit) q)

let items_summary text =
  let items = D.Parser.parse_program text in
  ( List.length items,
    Digest.to_hex (Digest.string (String.concat "\n" (List.map item_string items)))
  )

(* A genealogy program as servebench writes one: rules, then one fact a
   line (sorted by text, so the order does not depend on symbol ids). *)
let genealogy_program ~n_people =
  let pop =
    Workload.Genealogy.populate (Stats.Rng.create 7L) ~n_people
  in
  let facts =
    D.Database.to_list (Workload.Genealogy.db pop)
    |> List.map (fun a -> D.Atom.to_string a ^ ".")
    |> List.sort String.compare
  in
  Workload.Genealogy.rules_text ^ String.concat "\n" facts ^ "\n"

let parser_pinned_items () =
  let read_file path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let check name text expected =
    Alcotest.(check (pair int string)) name expected (items_summary text)
  in
  check "university.dl"
    (read_file "../examples/data/university.dl")
    (7, "e8539b251d9a3f5b77cb7040c42f106f");
  check "genealogy rules" Workload.Genealogy.rules_text
    (13, "bb07354eb46175c141817f1a19f49101");
  check "10k-person genealogy program"
    (genealogy_program ~n_people:10_000)
    (6003, "2a8f914a16f3d0aee462746092238051")

(* Syntax errors carry the line and column where the bad token starts.
   A lexical error is a [Parse_error] too, so a caller that catches only
   [Parse_error] (the serve path's query parser) catches it. *)
let parser_error_positions () =
  let position name f text expected =
    match f text with
    | _ -> Alcotest.failf "%s: parsed without error" name
    | exception D.Parser.Parse_error (_, p) ->
      Alcotest.(check (pair int int)) name expected (p.D.Lexer.line, p.D.Lexer.col)
  in
  let clause t = ignore (D.Parser.parse_clause t) in
  let atom_only t = ignore (D.Parser.parse_atom t) in
  position "':' without '-'" clause "p(X) : q(X)." (1, 6);
  position "missing '.'" clause "p(a)\nq(b)." (2, 1);
  position "trailing input after an atom" atom_only "p(a) q" (1, 6);
  position "bad character" atom_only "p(&)" (1, 3)

(* [fold_program] hands each item over as soon as it is parsed: the items
   before a syntax error have been seen when the error is raised. *)
let parser_fold_streams () =
  let seen = ref 0 in
  (match
     D.Parser.fold_program
       (fun () _ -> incr seen)
       () "p(a).\nq(X) :- p(X).\n?- q(a).\nr(b) oops."
   with
  | () -> Alcotest.fail "parsed without error"
  | exception D.Parser.Parse_error _ -> ());
  check_int "items seen before the error" 3 !seen

(* ---------- Database ---------- *)

let database_basics () =
  let db = D.Database.create () in
  check_bool "add new" true (D.Database.add db (atom "p(a, b)"));
  check_bool "add dup" false (D.Database.add db (atom "p(a, b)"));
  check_bool "mem" true (D.Database.mem db (atom "p(a, b)"));
  check_int "size" 1 (D.Database.size db);
  check_bool "remove" true (D.Database.remove db (atom "p(a, b)"));
  check_bool "remove gone" false (D.Database.remove db (atom "p(a, b)"));
  check_int "size" 0 (D.Database.size db)

let database_matching () =
  let db =
    D.Database.of_list [ atom "e(a, b)"; atom "e(a, c)"; atom "e(b, c)" ]
  in
  check_int "bound first arg" 2 (List.length (D.Database.matching db (atom "e(a, X)")));
  check_int "free" 3 (List.length (D.Database.matching db (atom "e(X, Y)")));
  check_int "bound second" 2 (List.length (D.Database.matching db (atom "e(X, c)")));
  check_int "no match" 0 (List.length (D.Database.matching db (atom "e(c, X)")));
  check_bool "first_match" true (D.Database.first_match db (atom "e(a, X)") <> None);
  check_int "repeated var" 0 (List.length (D.Database.matching db (atom "e(X, X)")))

let database_counts () =
  let db = D.Database.of_list [ atom "p(a)"; atom "p(b)"; atom "q(a)" ] in
  check_int "count p" 2 (D.Database.count_pred db "p");
  check_int "count q" 1 (D.Database.count_pred db "q");
  check_int "count missing" 0 (D.Database.count_pred db "zzz");
  check_int "count p by id" 2
    (D.Database.count_pred_id db (D.Symbol.id (D.Symbol.intern "p")));
  check_int "count missing by id" 0
    (D.Database.count_pred_id db (D.Symbol.id (D.Symbol.intern "zzz")));
  check_int "predicates" 2 (List.length (D.Database.predicates db))

let database_generation_and_token () =
  let db = D.Database.create () and db2 = D.Database.create () in
  check_bool "instances have distinct tokens" true
    (D.Database.token db <> D.Database.token db2);
  let g0 = D.Database.generation db in
  check_bool "add" true (D.Database.add db (atom "p(a)"));
  check_bool "add bumps generation" true (D.Database.generation db > g0);
  let g1 = D.Database.generation db in
  check_bool "duplicate add" false (D.Database.add db (atom "p(a)"));
  check_int "no-op add keeps generation" g1 (D.Database.generation db);
  check_bool "remove absent" false (D.Database.remove db (atom "q(a)"));
  check_int "no-op remove keeps generation" g1 (D.Database.generation db);
  check_bool "remove" true (D.Database.remove db (atom "p(a)"));
  check_bool "remove bumps generation" true (D.Database.generation db > g1);
  check_bool "copy gets a fresh token" true
    (D.Database.token (D.Database.copy db) <> D.Database.token db)

(* Serve-path cache invalidation reads [generation]/[size] from worker
   domains while the owner may be mid-[add]; both are atomics, so a
   racing reader must only ever see monotonic, untorn values. One domain
   adds [n] facts while the other spins on the counters; [size] is
   bumped before [generation], so with reads ordered size-then-
   generation the reader must always observe generation >= size - 1. *)
let database_concurrent_generation () =
  let db = D.Database.create () in
  let n = 2_000 in
  let facts =
    Array.init n (fun i -> atom (Printf.sprintf "cgen(x%d)" i))
  in
  let stop = Atomic.make false in
  let started = Atomic.make false in
  let reader =
    Domain.spawn (fun () ->
        let ok = ref true and last_gen = ref 0 and reads = ref 0 in
        Atomic.set started true;
        while not (Atomic.get stop) do
          let s = D.Database.size db in
          let g = D.Database.generation db in
          incr reads;
          if g < !last_gen then ok := false; (* torn or non-monotonic *)
          if g < 0 || g > n || s < 0 || s > n then ok := false;
          if g < s - 1 then ok := false;
          last_gen := Int.max !last_gen g
        done;
        (!ok, !reads))
  in
  (* Don't start writing until the reader is live, or a slow
     [Domain.spawn] lets the writer finish unobserved. *)
  while not (Atomic.get started) do Domain.cpu_relax () done;
  Array.iter (fun f -> ignore (D.Database.add db f)) facts;
  Atomic.set stop true;
  let ok, reads = Domain.join reader in
  check_bool "reader saw only monotonic, in-range values" true ok;
  check_bool "reader actually raced the writer" true (reads > 0);
  check_int "final generation" n (D.Database.generation db);
  check_int "final size" n (D.Database.size db)

let database_nonground_rejected () =
  let db = D.Database.create () in
  check_bool "raises" true
    (try
       ignore (D.Database.add db (atom "p(X)"));
       false
     with Invalid_argument _ -> true)

let database_index_consistent =
  qcheck "index lookup equals scan" ~count:100
    (let open QCheck2.Gen in
     list_size (int_range 0 30)
       (pair (int_range 0 3) (pair (int_range 0 4) (int_range 0 4))))
    (fun specs ->
      let facts =
        List.map
          (fun (p, (x, y)) ->
            D.Atom.make
              (Printf.sprintf "p%d" p)
              [
                D.Term.const (Printf.sprintf "a%d" x);
                D.Term.const (Printf.sprintf "b%d" y);
              ])
          specs
      in
      let db = D.Database.of_list facts in
      let pattern = atom "p1(a2, Y)" in
      let via_index = List.length (D.Database.matching db pattern) in
      let via_scan =
        List.length
          (List.sort_uniq D.Atom.compare facts
          |> List.filter (fun f ->
                 D.Subst.match_atom ~pattern ~ground:f D.Subst.empty <> None))
      in
      via_index = via_scan)

let database_copy_independent () =
  let db = D.Database.of_list [ atom "p(a)" ] in
  let db2 = D.Database.copy db in
  ignore (D.Database.add db2 (atom "p(b)"));
  ignore (D.Database.remove db2 (atom "p(a)"));
  check_bool "original keeps p(a)" true (D.Database.mem db (atom "p(a)"));
  check_bool "original lacks p(b)" false (D.Database.mem db (atom "p(b)"));
  check_int "sizes diverge" 1 (D.Database.size db)

let database_fold_iter () =
  let db = D.Database.of_list [ atom "p(a)"; atom "q(b)"; atom "p(c)" ] in
  check_int "fold counts" 3 (D.Database.fold (fun _ n -> n + 1) db 0);
  let seen = ref 0 in
  D.Database.iter (fun _ -> incr seen) db;
  check_int "iter counts" 3 !seen;
  check_int "to_list" 3 (List.length (D.Database.to_list db))

let sld_lazy_first_answer () =
  (* solve_first must not enumerate past the first answer: with the first
     rule succeeding, the second branch is never retrieved. *)
  let rb = D.Rulebase.of_list (clauses "p(X) :- a(X). p(X) :- b(X).") in
  let db = D.Database.of_list [ atom "a(k)"; atom "b(k)" ] in
  let cfg = D.Sld.config ~rulebase:rb ~db () in
  let _, stats = D.Sld.solve_first cfg (D.Parser.parse_query "p(k)") in
  check_int "one retrieval only" 1 stats.D.Sld.retrievals;
  check_int "one reduction only" 1 stats.D.Sld.reductions

(* ---------- Rulebase ---------- *)

let rulebase_recursion () =
  let rb = D.Rulebase.of_list (clauses "p(X) :- q(X). q(X) :- r(X).") in
  check_bool "non-recursive" false (D.Rulebase.is_recursive rb);
  let rb2 =
    D.Rulebase.of_list
      (clauses "anc(X, Y) :- par(X, Y). anc(X, Y) :- par(X, Z), anc(Z, Y).")
  in
  check_bool "recursive" true (D.Rulebase.is_recursive rb2);
  check_bool "pred recursive" true
    (D.Rulebase.pred_recursive rb2 (D.Symbol.intern "anc"));
  let rb3 = D.Rulebase.of_list (clauses "a(X) :- b(X). b(X) :- a(X).") in
  check_bool "mutual recursion" true (D.Rulebase.is_recursive rb3)

let rulebase_stratify () =
  let rb =
    D.Rulebase.of_list
      (clauses
         "reach(X) :- edge(X). reach(X) :- reach(Y), edge2(Y, X).\n\
          unreach(X) :- node(X), not reach(X).")
  in
  (match D.Rulebase.stratify rb with
  | Ok strata ->
    check_int "two strata" 2 (List.length strata);
    let names = List.map (List.map D.Symbol.to_string) strata in
    check_bool "reach below unreach" true
      (names = [ [ "reach" ]; [ "unreach" ] ])
  | Error _ -> Alcotest.fail "should stratify");
  let bad = D.Rulebase.of_list (clauses "win(X) :- move(X, Y), not win(Y).") in
  check_bool "unstratifiable" true
    (match D.Rulebase.stratify bad with Error _ -> true | Ok _ -> false)

let rulebase_edb_idb () =
  let rb = D.Rulebase.of_list (clauses "p(X) :- q(X). p(X) :- r(X). q(X) :- s(X).") in
  check_int "idb" 2 (List.length (D.Rulebase.idb_preds rb));
  check_int "edb" 2 (List.length (D.Rulebase.edb_preds rb));
  check_int "rules for p" 2
    (List.length (D.Rulebase.rules_for rb (D.Symbol.intern "p")))

let rulebase_resolving () =
  let rb = D.Rulebase.of_list (clauses "p(X) :- q(X). p(a) :- r(a).") in
  let both = D.Rulebase.resolving rb ~gen:1 (atom "p(a)") in
  check_int "both apply to p(a)" 2 (List.length both);
  let one = D.Rulebase.resolving rb ~gen:2 (atom "p(b)") in
  check_int "only general applies to p(b)" 1 (List.length one)

(* ---------- SLD ---------- *)

let university_cfg () =
  let rb =
    D.Rulebase.of_list
      (clauses "instructor(X) :- prof(X). instructor(X) :- grad(X).")
  in
  let db = D.Database.of_list [ atom "prof(russ)"; atom "grad(manolis)" ] in
  D.Sld.config ~rulebase:rb ~db ()

let sld_ground_queries () =
  let cfg = university_cfg () in
  check_bool "russ yes" true (D.Sld.provable cfg (D.Parser.parse_query "instructor(russ)"));
  check_bool "manolis yes" true
    (D.Sld.provable cfg (D.Parser.parse_query "instructor(manolis)"));
  check_bool "fred no" false
    (D.Sld.provable cfg (D.Parser.parse_query "instructor(fred)"))

let sld_open_query () =
  let cfg = university_cfg () in
  let answers, _ = D.Sld.solve_all cfg (D.Parser.parse_query "instructor(X)") in
  check_int "two instructors" 2 (List.length answers)

let sld_stats_counted () =
  let cfg = university_cfg () in
  let _, stats = D.Sld.solve_first cfg (D.Parser.parse_query "instructor(fred)") in
  check_int "two reductions" 2 stats.D.Sld.reductions;
  check_int "two retrievals" 2 stats.D.Sld.retrievals;
  check_int "no hits" 0 stats.D.Sld.retrieval_hits;
  let _, stats2 = D.Sld.solve_first cfg (D.Parser.parse_query "instructor(russ)") in
  (* Satisficing: stops after the first success (prof tried first). *)
  check_int "one reduction" 1 stats2.D.Sld.reductions;
  check_int "one retrieval" 1 stats2.D.Sld.retrievals

let sld_rule_order_matters () =
  let rb =
    D.Rulebase.of_list
      (clauses "instructor(X) :- prof(X). instructor(X) :- grad(X).")
  in
  let db = D.Database.of_list [ atom "grad(manolis)" ] in
  let reversed = D.Sld.config ~rule_order:(fun _ rules -> List.rev rules) ~rulebase:rb ~db () in
  let _, stats =
    D.Sld.solve_first reversed (D.Parser.parse_query "instructor(manolis)")
  in
  (* grad tried first: one reduction, one retrieval. *)
  check_int "grad first" 1 stats.D.Sld.reductions

let sld_recursion () =
  let rb =
    D.Rulebase.of_list
      (clauses
         "ancestor(X, Y) :- parent(X, Y).\n\
          ancestor(X, Y) :- parent(X, Z), ancestor(Z, Y).")
  in
  let db =
    D.Database.of_list
      [ atom "parent(a, b)"; atom "parent(b, c)"; atom "parent(c, d)" ]
  in
  let cfg = D.Sld.config ~rulebase:rb ~db () in
  check_bool "transitive" true (D.Sld.provable cfg (D.Parser.parse_query "ancestor(a, d)"));
  check_bool "not backwards" false
    (D.Sld.provable cfg (D.Parser.parse_query "ancestor(d, a)"));
  let answers, _ = D.Sld.solve_all cfg (D.Parser.parse_query "ancestor(a, X)") in
  check_int "three descendants" 3 (List.length answers)

let sld_depth_limit () =
  let rb = D.Rulebase.of_list (clauses "loop(X) :- loop(X).") in
  let db = D.Database.create () in
  let cfg = D.Sld.config ~depth_limit:32 ~rulebase:rb ~db () in
  let result, stats = D.Sld.solve_first cfg (D.Parser.parse_query "loop(a)") in
  check_bool "no answer" true (result = None);
  check_bool "truncated" true stats.D.Sld.truncated

let sld_naf () =
  let rb =
    D.Rulebase.of_list
      (clauses
         "pauper(X) :- person(X), not has_thing(X).\n\
          has_thing(X) :- owns(X, Y).")
  in
  let db =
    D.Database.of_list
      [ atom "person(poe)"; atom "person(rich)"; atom "owns(rich, boat)" ]
  in
  let cfg = D.Sld.config ~rulebase:rb ~db () in
  check_bool "poe pauper" true (D.Sld.provable cfg (D.Parser.parse_query "pauper(poe)"));
  check_bool "rich not" false (D.Sld.provable cfg (D.Parser.parse_query "pauper(rich)"));
  let answers, _ = D.Sld.solve_all cfg (D.Parser.parse_query "pauper(X)") in
  check_int "one pauper" 1 (List.length answers)

let sld_floundering () =
  let rb = D.Rulebase.of_list (clauses "bad(X) :- not p(Y).") in
  let db = D.Database.create () in
  let cfg = D.Sld.config ~rulebase:rb ~db () in
  check_bool "flounders" true
    (try
       ignore (D.Sld.provable cfg (D.Parser.parse_query "bad(a)"));
       false
     with D.Sld.Floundering _ -> true)

let sld_solve_limit () =
  let db = D.Database.of_list [ atom "n(i1)"; atom "n(i2)"; atom "n(i3)" ] in
  let cfg = D.Sld.config ~rulebase:(D.Rulebase.create ()) ~db () in
  let answers, _ = D.Sld.solve_all ~limit:2 cfg (D.Parser.parse_query "n(X)") in
  check_int "limited" 2 (List.length answers)

(* ---------- Semi-naive + cross-check ---------- *)

let seminaive_transitive_closure () =
  let rb =
    D.Rulebase.of_list
      (clauses
         "tc(X, Y) :- edge(X, Y). tc(X, Y) :- tc(X, Z), edge(Z, Y).")
  in
  let db =
    D.Database.of_list
      [ atom "edge(a, b)"; atom "edge(b, c)"; atom "edge(c, a)"; atom "edge(d, d)" ]
  in
  let m = D.Seminaive.model rb db in
  (* Full closure of the 3-cycle: 9 pairs, plus (d,d). *)
  check_int "tc size" 10 (List.length (D.Database.matching m (atom "tc(X, Y)")));
  check_bool "holds" true (D.Seminaive.holds rb db (atom "tc(a, a)"));
  check_bool "not across" false (D.Seminaive.holds rb db (atom "tc(a, d)"))

let seminaive_stratified_negation () =
  let rb =
    D.Rulebase.of_list
      (clauses
         "reach(X) :- start(X). reach(Y) :- reach(X), edge(X, Y).\n\
          blocked(X) :- node(X), not reach(X).")
  in
  let db =
    D.Database.of_list
      [
        atom "start(a)"; atom "edge(a, b)"; atom "node(a)"; atom "node(b)";
        atom "node(c)";
      ]
  in
  let m = D.Seminaive.model rb db in
  check_bool "c blocked" true (D.Database.mem m (atom "blocked(c)"));
  check_bool "b not blocked" false (D.Database.mem m (atom "blocked(b)"))

let seminaive_unstratifiable () =
  let rb = D.Rulebase.of_list (clauses "w(X) :- m(X, Y), not w(Y).") in
  check_bool "raises" true
    (try
       ignore (D.Seminaive.model rb (D.Database.create ()));
       false
     with D.Seminaive.Unstratifiable _ -> true)

(* On random non-recursive programs, SLD and semi-naive must agree on every
   ground query. *)
let sld_vs_seminaive =
  qcheck "SLD agrees with semi-naive" ~count:60
    QCheck2.Gen.(int_range 0 10_000)
    (fun seed ->
      let r = rng seed in
      (* random EDB over e0, e1 with constants k0..k4 *)
      let const () = Printf.sprintf "k%d" (Stats.Rng.int r 5) in
      let facts =
        List.init (5 + Stats.Rng.int r 15) (fun _ ->
            D.Atom.make
              (Printf.sprintf "e%d" (Stats.Rng.int r 2))
              [ D.Term.const (const ()) ])
      in
      let db = D.Database.of_list facts in
      (* fixed small rule set: two levels of disjunction *)
      let rb =
        D.Rulebase.of_list
          (clauses
             "mid(X) :- e0(X). mid(X) :- e1(X).\n\
              top(X) :- mid(X). top(X) :- e0(X).")
      in
      let cfg = D.Sld.config ~rulebase:rb ~db () in
      let m = D.Seminaive.model rb db in
      List.for_all
        (fun i ->
          let q = D.Atom.make "top" [ D.Term.const (Printf.sprintf "k%d" i) ] in
          D.Sld.provable cfg [ D.Clause.Pos q ] = D.Database.mem m q)
        [ 0; 1; 2; 3; 4 ])

(* ---------- Adornment + magic sets ---------- *)

let adorn_university () =
  let rb =
    D.Rulebase.of_list
      (clauses "instructor(X) :- prof(X). instructor(X) :- grad(X).")
  in
  let p = D.Adorn.adorn rb ~query_form:(atom "instructor(q)") in
  check_string "query apred" "instructor^b"
    (Format.asprintf "%a" D.Adorn.pp_apred p.D.Adorn.query);
  check_int "two specialized rules" 2 (List.length p.D.Adorn.rules);
  check_int "two edb preds" 2 (List.length p.D.Adorn.edb)

let adorn_ancestor_bf () =
  let rb =
    D.Rulebase.of_list
      (clauses
         "anc(X, Y) :- par(X, Y). anc(X, Y) :- par(X, Z), anc(Z, Y).")
  in
  let p = D.Adorn.adorn rb ~query_form:(atom "anc(q, Y)") in
  (* Left-to-right SIP: par(X,Z) binds Z, so the recursive call stays bf:
     exactly one adorned predicate, two rules. *)
  check_int "one adorned pred, two rules" 2 (List.length p.D.Adorn.rules);
  let recursive_rule = snd (List.nth p.D.Adorn.rules 1) in
  let body_preds =
    List.map
      (fun l -> D.Symbol.to_string (D.Clause.lit_atom l).D.Atom.pred)
      recursive_rule.D.Clause.body
  in
  Alcotest.(check (list string)) "recursive body" [ "par"; "anc_bf" ] body_preds

let adorn_free_query () =
  let rb = D.Rulebase.of_list (clauses "p(X) :- e(X).") in
  let p = D.Adorn.adorn rb ~query_form:(atom "p(X)") in
  check_string "ff adornment" "p^f"
    (Format.asprintf "%a" D.Adorn.pp_apred p.D.Adorn.query)

let magic_chain_db n =
  D.Database.of_list
    (List.init n (fun i ->
         D.Atom.make "par"
           [
             D.Term.const (Printf.sprintf "n%d" i);
             D.Term.const (Printf.sprintf "n%d" (i + 1));
           ]))

let magic_ancestor_answers () =
  let rb =
    D.Rulebase.of_list
      (clauses
         "anc(X, Y) :- par(X, Y). anc(X, Y) :- par(X, Z), anc(Z, Y).")
  in
  let db = magic_chain_db 20 in
  let query = atom "anc(n5, Y)" in
  let via_magic = D.Magic.answers rb db ~query in
  let via_sld =
    let cfg = D.Sld.config ~rulebase:rb ~db () in
    let subs, _ = D.Sld.solve_all cfg [ D.Clause.Pos query ] in
    List.map (fun s -> D.Subst.apply_atom s query) subs
    |> List.sort_uniq D.Atom.compare
  in
  check_int "15 descendants" 15 (List.length via_magic);
  check_bool "magic = SLD" true (List.equal D.Atom.equal via_magic via_sld)

let magic_is_goal_directed () =
  (* On a long chain, a bound query near the end must derive far fewer
     facts under magic than full bottom-up evaluation of the program. *)
  let rb =
    D.Rulebase.of_list
      (clauses
         "anc(X, Y) :- par(X, Y). anc(X, Y) :- par(X, Z), anc(Z, Y).")
  in
  let db = magic_chain_db 60 in
  let query = atom "anc(n55, Y)" in
  let magic_facts = D.Magic.derived_size rb db ~query in
  let full_model = D.Seminaive.model rb db in
  let full_facts = D.Database.size full_model - D.Database.size db in
  check_bool
    (Printf.sprintf "magic %d << full %d" magic_facts full_facts)
    true
    (magic_facts * 4 < full_facts)

let magic_same_generation () =
  (* The classical magic-sets showcase. *)
  let rb =
    D.Rulebase.of_list
      (clauses
         "sg(X, Y) :- flat(X, Y).\n\
          sg(X, Y) :- up(X, Z), sg(Z, W), down(W, Y).")
  in
  let db =
    D.Database.of_list
      (List.map atom
         [
           "up(a, b)"; "up(b, c)"; "flat(c, c2)"; "flat(b, b2)";
           "down(c2, d)"; "down(d, e)"; "down(b2, f)";
         ])
  in
  let query = atom "sg(a, Y)" in
  let via_magic = D.Magic.answers rb db ~query in
  let via_sld =
    let cfg = D.Sld.config ~rulebase:rb ~db () in
    let subs, _ = D.Sld.solve_all cfg [ D.Clause.Pos query ] in
    List.map (fun s -> D.Subst.apply_atom s query) subs
    |> List.sort_uniq D.Atom.compare
  in
  check_bool "magic = SLD on same-generation" true
    (List.equal D.Atom.equal via_magic via_sld);
  check_bool "nonempty" true (via_magic <> [])

let magic_negative_edb_ok () =
  let rb =
    D.Rulebase.of_list
      (clauses "safe(X) :- node(X), not bad(X).\nok(X) :- safe(X).")
  in
  let db = D.Database.of_list (List.map atom [ "node(a)"; "node(b)"; "bad(b)" ]) in
  let ans = D.Magic.answers rb db ~query:(atom "ok(a)") in
  check_int "a is ok" 1 (List.length ans);
  check_int "b is not" 0 (List.length (D.Magic.answers rb db ~query:(atom "ok(b)")))

let magic_negative_idb_rejected () =
  let rb =
    D.Rulebase.of_list
      (clauses "p(X) :- e(X), not q(X). q(X) :- f(X).")
  in
  check_bool "raises" true
    (try
       ignore (D.Magic.transform rb ~query:(atom "p(a)"));
       false
     with Invalid_argument _ -> true)

let magic_vs_seminaive =
  qcheck "magic answers = plain semi-naive answers" ~count:60
    QCheck2.Gen.(int_range 0 100_000)
    (fun seed ->
      let r = rng seed in
      let const () = Printf.sprintf "k%d" (Stats.Rng.int r 6) in
      let facts =
        List.init
          (8 + Stats.Rng.int r 20)
          (fun _ ->
            D.Atom.make
              (Printf.sprintf "e%d" (Stats.Rng.int r 2))
              [ D.Term.const (const ()); D.Term.const (const ()) ])
      in
      let db = D.Database.of_list facts in
      let rb =
        D.Rulebase.of_list
          (clauses
             "path(X, Y) :- e0(X, Y).\n\
              path(X, Y) :- e1(X, Y).\n\
              path(X, Y) :- e0(X, Z), path(Z, Y).")
      in
      let query = D.Atom.make "path" [ D.Term.const (const ()); D.Term.var "Y" ] in
      let via_magic = D.Magic.answers rb db ~query in
      let via_sn =
        D.Seminaive.query rb db query |> List.sort_uniq D.Atom.compare
      in
      List.equal D.Atom.equal via_magic via_sn)

let suite =
  [
    ( "datalog.syntax",
      [
        case "symbol interning" symbol_interning;
        case "symbol fast path allocates nothing" symbol_fast_path_no_alloc;
        slow_case "symbol concurrent intern across domains"
          symbol_concurrent_intern;
        case "term compare" term_compare;
        case "atom basics" atom_basics;
        case "atom adornment" atom_adornment;
        case "atom vars dedup" atom_vars_dedup;
      ] );
    ( "datalog.subst",
      [
        case "unify basic" unify_basic;
        case "unify atoms" unify_atoms_cases;
        unify_apply_equalizes;
        case "one-sided match" match_one_sided;
        case "idempotent bindings" subst_idempotent;
        case "chained bindings walk" subst_walk_chain;
        case "apply_atom no-alloc on empty" subst_apply_atom_no_alloc;
      ] );
    ( "datalog.clause",
      [ case "safety" clause_safety; case "accessors" clause_accessors ] );
    ( "datalog.parser",
      [
        case "program" parser_program;
        parser_round_trip;
        case "errors" parser_errors;
        case "quoted and numbers" parser_quoted_and_numbers;
        case "naf synonym" parser_naf_synonym;
        case "kb split" parser_kb;
        case "same items as the token-list parser" parser_pinned_items;
        case "error positions" parser_error_positions;
        case "fold hands items over as parsed" parser_fold_streams;
      ] );
    ( "datalog.database",
      [
        case "basics" database_basics;
        case "matching" database_matching;
        case "counts" database_counts;
        case "non-ground rejected" database_nonground_rejected;
        case "generation and token" database_generation_and_token;
        slow_case "concurrent add and generation reads across domains"
          database_concurrent_generation;
        case "copy independence" database_copy_independent;
        case "fold and iter" database_fold_iter;
        database_index_consistent;
      ] );
    ( "datalog.rulebase",
      [
        case "recursion" rulebase_recursion;
        case "stratify" rulebase_stratify;
        case "edb/idb" rulebase_edb_idb;
        case "resolving" rulebase_resolving;
      ] );
    ( "datalog.sld",
      [
        case "ground queries" sld_ground_queries;
        case "open query" sld_open_query;
        case "stats counted" sld_stats_counted;
        case "rule order matters" sld_rule_order_matters;
        case "recursion" sld_recursion;
        case "depth limit" sld_depth_limit;
        case "negation as failure" sld_naf;
        case "floundering" sld_floundering;
        case "answer limit" sld_solve_limit;
        case "lazy first answer" sld_lazy_first_answer;
      ] );
    ( "datalog.seminaive",
      [
        case "transitive closure" seminaive_transitive_closure;
        case "stratified negation" seminaive_stratified_negation;
        case "unstratifiable" seminaive_unstratifiable;
        sld_vs_seminaive;
      ] );
    ( "datalog.adorn",
      [
        case "university" adorn_university;
        case "ancestor bf" adorn_ancestor_bf;
        case "free query" adorn_free_query;
      ] );
    ( "datalog.magic",
      [
        case "ancestor answers" magic_ancestor_answers;
        case "goal directed" magic_is_goal_directed;
        case "same generation" magic_same_generation;
        case "negative edb ok" magic_negative_edb_ok;
        case "negative idb rejected" magic_negative_idb_rejected;
        magic_vs_seminaive;
      ] );
  ]
