(** Parser for the XPath expression subset of {!Ast}. *)

exception Parse_error of string

val parse : string -> Ast.expr
(** Parse a complete XPath expression.
    @raise Parse_error with a message pointing at the offending token. *)

val parse_path : string -> Ast.start * Ast.step list
(** Parse an expression and require it to be a location path.
    @raise Parse_error if the expression is not a path. *)

(** Tokens are exposed so that the XPathLog and XQuery parsers can reuse
    the lexer. *)
type token =
  | NAME of string
  | NUM of float
  | STR of string
  | VAR of string
  | SLASH | DSLASH | LBRACK | RBRACK | LPAREN | RPAREN
  | AT | DOT | DOTDOT | DCOLON | COMMA | PIPE
  | PLUS | MINUS | STAR | EQ | NEQ | LT | LE | GT | GE
  | ARROW        (** [->], used by XPathLog variable bindings *)
  | LBRACE | RBRACE | SEMI | COLON | ASSIGN  (** [:=] *)
  | PARAM of string  (** [%name], a parameter hole in generated XQuery *)
  | EOF

val tokenize : string -> token list
(** Lex a string into tokens (shared by the XPathLog/XQuery parsers).
    @raise Parse_error on illegal characters. *)

val token_str : token -> string

(** A mutable token cursor with the helpers used by all the recursive
    descent parsers in this project. *)
module Cursor : sig
  type t

  val of_tokens : token list -> t
  val of_string : string -> t
  val peek : t -> token
  val peek2 : t -> token

  val peekn : t -> int -> token
  (** Token at 0-based offset [n] from the cursor ([peekn c 0 = peek c]). *)

  val next : t -> token
  val eat : t -> token -> unit
  (** @raise Parse_error if the next token differs. *)

  val eat_name : t -> string -> unit
  (** Consume [NAME s]; @raise Parse_error otherwise. *)

  val fail : t -> string -> 'a
  val at_eof : t -> bool
end

val parse_path_expr_at : Cursor.t -> Ast.expr
(** Parse only a path/primary expression (no binary operators), so that an
    embedding parser (XQuery) can provide its own operator layer. *)
