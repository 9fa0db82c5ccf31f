(* Tokenizer for Prolog source text.

   Handles unquoted/quoted atoms, symbolic atoms (runs of symbol chars),
   variables, integers, punctuation, '%' line comments and nested-free
   block comments.  A '(' immediately following an atom (no space) is
   distinguished as [Functor_paren] so the parser can tell application
   f(X) from grouping f (X). *)

type token =
  | Atom of string
  | Var of string
  | Int of int
  | Punct of string (* ( ) [ ] { } , | and end-of-clause '.' *)
  | Functor_paren of string (* name immediately followed by '(' *)
  | Eof

exception Error of string * int (* message, position *)

type t = {
  src : string;
  mutable pos : int;
  mutable peeked : token option;
}

let make src = { src; pos = 0; peeked = None }

let is_digit c = c >= '0' && c <= '9'
let is_lower c = c >= 'a' && c <= 'z'
let is_upper c = (c >= 'A' && c <= 'Z') || c = '_'
let is_alnum c = is_digit c || is_lower c || is_upper c

let is_symbol_char c =
  match c with
  | '+' | '-' | '*' | '/' | '\\' | '^' | '<' | '>' | '=' | '~' | ':' | '.'
  | '?' | '@' | '#' | '$' | '&' ->
    true
  | _ -> false

let peek_char lx = if lx.pos < String.length lx.src then Some lx.src.[lx.pos] else None

let peek_char_at lx k =
  let i = lx.pos + k in
  if i < String.length lx.src then Some lx.src.[i] else None

let advance lx = lx.pos <- lx.pos + 1

let rec skip_ws lx =
  match peek_char lx with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance lx;
    skip_ws lx
  | Some '%' ->
    let rec to_eol () =
      match peek_char lx with
      | Some '\n' | None -> ()
      | Some _ ->
        advance lx;
        to_eol ()
    in
    to_eol ();
    skip_ws lx
  | Some '/' when peek_char_at lx 1 = Some '*' ->
    advance lx;
    advance lx;
    let rec to_close () =
      match peek_char lx with
      | None -> raise (Error ("unterminated block comment", lx.pos))
      | Some '*' when peek_char_at lx 1 = Some '/' ->
        advance lx;
        advance lx
      | Some _ ->
        advance lx;
        to_close ()
    in
    to_close ();
    skip_ws lx
  | Some _ | None -> ()

let take_while lx pred =
  let start = lx.pos in
  let rec go () =
    match peek_char lx with
    | Some c when pred c ->
      advance lx;
      go ()
    | Some _ | None -> ()
  in
  go ();
  String.sub lx.src start (lx.pos - start)

let read_quoted lx =
  (* Opening quote already consumed. *)
  let buf = Buffer.create 16 in
  let rec go () =
    match peek_char lx with
    | None -> raise (Error ("unterminated quoted atom", lx.pos))
    | Some '\'' when peek_char_at lx 1 = Some '\'' ->
      advance lx;
      advance lx;
      Buffer.add_char buf '\'';
      go ()
    | Some '\'' -> advance lx
    | Some '\\' -> begin
      advance lx;
      match peek_char lx with
      | Some 'n' ->
        advance lx;
        Buffer.add_char buf '\n';
        go ()
      | Some 't' ->
        advance lx;
        Buffer.add_char buf '\t';
        go ()
      | Some c ->
        advance lx;
        Buffer.add_char buf c;
        go ()
      | None -> raise (Error ("unterminated escape", lx.pos))
    end
    | Some c ->
      advance lx;
      Buffer.add_char buf c;
      go ()
  in
  go ();
  Buffer.contents buf

(* End-of-clause '.' is a '.' followed by layout or EOF; otherwise '.' is
   a symbol char (e.g. the list functor never appears unquoted anyway). *)
let dot_ends_clause lx =
  match peek_char_at lx 1 with
  | None -> true
  | Some (' ' | '\t' | '\n' | '\r' | '%') -> true
  | Some _ -> false

let lex_one lx =
  skip_ws lx;
  match peek_char lx with
  | None -> Eof
  | Some c when is_digit c ->
    let start = lx.pos in
    let digits = take_while lx is_digit in
    (match int_of_string_opt digits with
    | Some n -> Int n
    | None -> raise (Error ("integer literal out of range", start)))
  | Some c when is_lower c ->
    let name = take_while lx is_alnum in
    if peek_char lx = Some '(' then begin
      advance lx;
      Functor_paren name
    end
    else Atom name
  | Some c when is_upper c ->
    let name = take_while lx is_alnum in
    Var name
  | Some '\'' ->
    advance lx;
    let name = read_quoted lx in
    if peek_char lx = Some '(' then begin
      advance lx;
      Functor_paren name
    end
    else Atom name
  | Some '.' when dot_ends_clause lx ->
    advance lx;
    Punct "."
  | Some ('(' | ')' | '[' | ']' | '{' | '}' | ',' as c) ->
    advance lx;
    Punct (String.make 1 c)
  | Some '|' ->
    advance lx;
    Punct "|"
  | Some '!' ->
    advance lx;
    Atom "!"
  | Some ';' ->
    advance lx;
    Atom ";"
  | Some c when is_symbol_char c ->
    let sym = take_while lx is_symbol_char in
    if peek_char lx = Some '(' then begin
      advance lx;
      Functor_paren sym
    end
    else Atom sym
  | Some c -> raise (Error (Printf.sprintf "unexpected character %C" c, lx.pos))

let next lx =
  match lx.peeked with
  | Some tok ->
    lx.peeked <- None;
    tok
  | None -> lex_one lx

let peek lx =
  match lx.peeked with
  | Some tok -> tok
  | None ->
    let tok = lex_one lx in
    lx.peeked <- Some tok;
    tok

let position lx = lx.pos
