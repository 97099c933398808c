(** Recursive-descent parser for Datalog programs.

    Surface syntax:
    {v
      prof(russ).                      % a fact
      instructor(X) :- prof(X).       % a rule
      safe(X) :- person(X), not criminal(X).
      ?- instructor(manolis).         % a query
    v}

    Identifiers starting with a lowercase letter (or digits, or quoted
    ['...']) are constants/predicates; identifiers starting with an
    uppercase letter or [_] are variables. [%] comments run to end of
    line. [\+] is accepted as a synonym for [not]. *)

type item =
  | Clause of Clause.t
  | Query of Clause.lit list

(** A syntax error with where it starts. The same exception as
    {!Lexer.Lex_error}, so lexical errors are caught by this name too. *)
exception Parse_error of string * Lexer.position

(** [fold_program f init text] folds [f] over the program's items in
    order. Each item is handed to [f] as soon as it is parsed, so neither
    a token list nor an item list is built; a syntax error is raised when
    the parse reaches it, after [f] has seen the items before it. *)
val fold_program : ('a -> item -> 'a) -> 'a -> string -> 'a

(** Parse a whole program. *)
val parse_program : string -> item list

(** Parse a single clause, e.g. ["instructor(X) :- prof(X)."]. *)
val parse_clause : string -> Clause.t

(** Parse several clauses and no queries. *)
val parse_clauses : string -> Clause.t list

(** Parse a single atom, e.g. ["instructor(manolis)"]. *)
val parse_atom : string -> Atom.t

(** Parse a query body, e.g. ["?- p(X), not q(X)."] or ["p(X), not q(X)"]. *)
val parse_query : string -> Clause.lit list

(** Split a program into (rules, facts, queries): a {!fold_program}. *)
val parse_kb : string -> Clause.t list * Atom.t list * Clause.lit list list
