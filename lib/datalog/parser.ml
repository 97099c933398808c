type item =
  | Clause of Clause.t
  | Query of Clause.lit list

exception Parse_error = Lexer.Lex_error

let fail lx fmt =
  Format.kasprintf (fun msg -> raise (Parse_error (msg, Lexer.position lx))) fmt

let expect lx tok =
  let got = Lexer.peek lx in
  if got <> tok then
    fail lx "expected %a but found %a" Lexer.pp_token tok Lexer.pp_token got;
  Lexer.junk lx

let parse_term lx =
  match Lexer.peek lx with
  | Lexer.Ident s ->
    Lexer.junk lx;
    Term.const s
  | Lexer.Variable s ->
    Lexer.junk lx;
    Term.var s
  | tok -> fail lx "expected a term but found %a" Lexer.pp_token tok

let parse_atom_lx lx =
  match Lexer.peek lx with
  | Lexer.Ident name -> (
    Lexer.junk lx;
    match Lexer.peek lx with
    | Lexer.Lparen ->
      Lexer.junk lx;
      let rec args acc =
        let t = parse_term lx in
        match Lexer.peek lx with
        | Lexer.Comma ->
          Lexer.junk lx;
          args (t :: acc)
        | _ ->
          expect lx Lexer.Rparen;
          List.rev (t :: acc)
      in
      Atom.make name (args [])
    | _ -> Atom.make name [])
  | tok -> fail lx "expected a predicate but found %a" Lexer.pp_token tok

let parse_lit lx =
  match Lexer.peek lx with
  | Lexer.Not ->
    Lexer.junk lx;
    Clause.Neg (parse_atom_lx lx)
  | _ -> Clause.Pos (parse_atom_lx lx)

let parse_body lx =
  let rec loop acc =
    let l = parse_lit lx in
    match Lexer.peek lx with
    | Lexer.Comma ->
      Lexer.junk lx;
      loop (l :: acc)
    | _ -> List.rev (l :: acc)
  in
  loop []

let parse_item lx =
  match Lexer.peek lx with
  | Lexer.Query ->
    Lexer.junk lx;
    let body = parse_body lx in
    expect lx Lexer.Dot;
    Query body
  | _ -> (
    let head = parse_atom_lx lx in
    match Lexer.peek lx with
    | Lexer.Turnstile ->
      Lexer.junk lx;
      let body = parse_body lx in
      expect lx Lexer.Dot;
      Clause (Clause.make head body)
    | _ ->
      expect lx Lexer.Dot;
      Clause (Clause.fact head))

let fold_program f init input =
  let lx = Lexer.of_string input in
  let rec loop acc =
    match Lexer.peek lx with
    | Lexer.Eof -> acc
    | _ -> loop (f acc (parse_item lx))
  in
  loop init

let parse_program input =
  List.rev (fold_program (fun acc item -> item :: acc) [] input)

let only_eof lx =
  match Lexer.peek lx with
  | Lexer.Eof -> ()
  | tok -> fail lx "trailing input: %a" Lexer.pp_token tok

let parse_clause input =
  let lx = Lexer.of_string input in
  match parse_item lx with
  | Clause c ->
    only_eof lx;
    c
  | Query _ ->
    raise (Parse_error ("expected a clause, found a query", { line = 1; col = 1 }))

let parse_clauses input =
  List.rev
    (fold_program
       (fun acc -> function
         | Clause c -> c :: acc
         | Query _ ->
           raise
             (Parse_error
                ("unexpected query in clause list", { line = 1; col = 1 })))
       [] input)

let parse_atom input =
  let lx = Lexer.of_string input in
  let a = parse_atom_lx lx in
  only_eof lx;
  a

let parse_query input =
  let lx = Lexer.of_string input in
  (match Lexer.peek lx with Lexer.Query -> Lexer.junk lx | _ -> ());
  let body = parse_body lx in
  (match Lexer.peek lx with Lexer.Dot -> Lexer.junk lx | _ -> ());
  only_eof lx;
  body

let parse_kb input =
  let rules, facts, queries =
    fold_program
      (fun (rules, facts, queries) item ->
        match item with
        | Clause c when Clause.is_fact c -> (rules, c.Clause.head :: facts, queries)
        | Clause c -> (c :: rules, facts, queries)
        | Query q -> (rules, facts, q :: queries))
      ([], [], []) input
  in
  (List.rev rules, List.rev facts, List.rev queries)
