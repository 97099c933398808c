type token =
  | Ident of string
  | Variable of string
  | Lparen
  | Rparen
  | Comma
  | Dot
  | Turnstile
  | Query
  | Not
  | Eof

type position = { line : int; col : int }

(* Named for what it reports, so an uncaught one prints as a parse error;
   [Parser.Parse_error] is this exception too. *)
exception Parse_error of string * position
exception Lex_error = Parse_error

let pp_token ppf = function
  | Ident s -> Format.fprintf ppf "identifier %S" s
  | Variable s -> Format.fprintf ppf "variable %S" s
  | Lparen -> Format.pp_print_string ppf "'('"
  | Rparen -> Format.pp_print_string ppf "')'"
  | Comma -> Format.pp_print_string ppf "','"
  | Dot -> Format.pp_print_string ppf "'.'"
  | Turnstile -> Format.pp_print_string ppf "':-'"
  | Query -> Format.pp_print_string ppf "'?-'"
  | Not -> Format.pp_print_string ppf "'not'"
  | Eof -> Format.pp_print_string ppf "end of input"

let is_lower c = (c >= 'a' && c <= 'z')
let is_upper c = (c >= 'A' && c <= 'Z')
let is_digit c = c >= '0' && c <= '9'
let is_ident_char c = is_lower c || is_upper c || is_digit c || c = '_'

(* A pull lexer: it holds one token of lookahead and scans the next only
   when that one is consumed, so a parse never holds more than one token
   however long the input is. Positions are kept as plain ints and built
   into a [position] record only when asked for (error reports). *)
type t = {
  input : string;
  mutable i : int; (* next unscanned byte *)
  mutable line : int; (* position of byte [i] *)
  mutable col : int;
  mutable tok : token; (* the lookahead *)
  mutable tok_line : int; (* where [tok] starts *)
  mutable tok_col : int;
}

let at_end lx = lx.i >= String.length lx.input
let cur lx = String.unsafe_get lx.input lx.i

let advance lx =
  if not (at_end lx) then begin
    if cur lx = '\n' then begin
      lx.line <- lx.line + 1;
      lx.col <- 1
    end
    else lx.col <- lx.col + 1;
    lx.i <- lx.i + 1
  end

let error lx msg =
  raise (Lex_error (msg, { line = lx.tok_line; col = lx.tok_col }))

let read_while lx pred =
  let start = lx.i in
  while (not (at_end lx)) && pred (cur lx) do
    advance lx
  done;
  String.sub lx.input start (lx.i - start)

(* [c] followed by [next] makes the two-character token [tok]. *)
let pair lx next tok msg =
  advance lx;
  if (not (at_end lx)) && cur lx = next then begin
    advance lx;
    tok
  end
  else error lx msg

let scan_token lx c =
  match c with
  | '(' -> advance lx; Lparen
  | ')' -> advance lx; Rparen
  | ',' -> advance lx; Comma
  | '.' -> advance lx; Dot
  | ':' -> pair lx '-' Turnstile "expected '-' after ':'"
  | '?' -> pair lx '-' Query "expected '-' after '?'"
  | '\\' -> pair lx '+' Not "expected '+' after '\\\\'"
  | '\'' ->
    advance lx;
    let s = read_while lx (fun c -> c <> '\'') in
    if at_end lx then error lx "unterminated quoted atom";
    advance lx;
    Ident s
  | c when is_lower c ->
    let s = read_while lx is_ident_char in
    if s = "not" then Not else Ident s
  | c when is_upper c || c = '_' -> Variable (read_while lx is_ident_char)
  | c when is_digit c -> Ident (read_while lx is_digit)
  | c -> error lx (Printf.sprintf "unexpected character %C" c)

let rec skip_blanks lx =
  if not (at_end lx) then
    match cur lx with
    | ' ' | '\t' | '\r' | '\n' ->
      advance lx;
      skip_blanks lx
    | '%' ->
      while (not (at_end lx)) && cur lx <> '\n' do
        advance lx
      done;
      skip_blanks lx
    | _ -> ()

(* Skip blanks and [%] comments, then scan one token into the lookahead. *)
let scan lx =
  skip_blanks lx;
  lx.tok_line <- lx.line;
  lx.tok_col <- lx.col;
  lx.tok <- (if at_end lx then Eof else scan_token lx (cur lx))

let of_string input =
  let lx =
    { input; i = 0; line = 1; col = 1; tok = Eof; tok_line = 1; tok_col = 1 }
  in
  scan lx;
  lx

let peek lx = lx.tok
let position lx = { line = lx.tok_line; col = lx.tok_col }
let junk lx = scan lx
