(** Hand-written pull lexer for the Datalog surface syntax. *)

type token =
  | Ident of string      (** lowercase identifier, integer, or quoted atom *)
  | Variable of string   (** identifier starting with uppercase or [_] *)
  | Lparen
  | Rparen
  | Comma
  | Dot
  | Turnstile            (** [:-] *)
  | Query                (** [?-] *)
  | Not                  (** [not] or [\+] *)
  | Eof

type position = { line : int; col : int }

(** The same exception as {!Parser.Parse_error}: a lexical error is
    reported like any other syntax error. *)
exception Lex_error of string * position

val pp_token : Format.formatter -> token -> unit

(** A lexer over one string with one token of lookahead. Tokens are
    scanned on demand, so memory stays constant in the input's length.
    [%] starts a comment running to end of line. *)
type t

(** A lexer positioned at the first token of the string. Raises
    [Lex_error] if that token is malformed. *)
val of_string : string -> t

(** The lookahead token ([Eof] at the end, and from then on). *)
val peek : t -> token

(** Where the lookahead token starts. *)
val position : t -> position

(** Consume the lookahead token and scan the next one. Raises
    [Lex_error] if that one is malformed. *)
val junk : t -> unit
