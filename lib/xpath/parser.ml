exception Parse_error of string

type token =
  | NAME of string
  | NUM of float
  | STR of string
  | VAR of string
  | SLASH | DSLASH | LBRACK | RBRACK | LPAREN | RPAREN
  | AT | DOT | DOTDOT | DCOLON | COMMA | PIPE
  | PLUS | MINUS | STAR | EQ | NEQ | LT | LE | GT | GE
  | ARROW
  | LBRACE | RBRACE | SEMI | COLON | ASSIGN
  | PARAM of string
  | EOF

let token_str = function
  | NAME s -> s
  | NUM f -> string_of_float f
  | STR s -> "\"" ^ s ^ "\""
  | VAR v -> "$" ^ v
  | SLASH -> "/" | DSLASH -> "//" | LBRACK -> "[" | RBRACK -> "]"
  | LPAREN -> "(" | RPAREN -> ")" | AT -> "@" | DOT -> "." | DOTDOT -> ".."
  | DCOLON -> "::" | COMMA -> "," | PIPE -> "|"
  | PLUS -> "+" | MINUS -> "-" | STAR -> "*"
  | EQ -> "=" | NEQ -> "!=" | LT -> "<" | LE -> "<=" | GT -> ">" | GE -> ">="
  | ARROW -> "->" | LBRACE -> "{" | RBRACE -> "}" | SEMI -> ";" | COLON -> ":"
  | ASSIGN -> ":=" | PARAM p -> "%" ^ p | EOF -> "<eof>"

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

let is_ws = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false
let is_digit c = c >= '0' && c <= '9'

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_name_char c = is_name_start c || is_digit c || c = '-' || c = '.'

let tokenize src =
  let n = String.length src in
  let toks = ref [] in
  let push t = toks := t :: !toks in
  let i = ref 0 in
  let peek_at k = if !i + k < n then src.[!i + k] else '\000' in
  while !i < n do
    let c = src.[!i] in
    if is_ws c then incr i
    else if is_name_start c then begin
      let start = !i in
      (* Names may contain '-' but a name never ends with '-' followed by
         '>', so [->] after a name still lexes as an arrow. *)
      while
        !i < n
        && is_name_char src.[!i]
        && not (src.[!i] = '-' && peek_at 1 = '>')
      do
        incr i
      done;
      push (NAME (String.sub src start (!i - start)))
    end
    else if is_digit c then begin
      let start = !i in
      while !i < n && (is_digit src.[!i] || src.[!i] = '.') do
        incr i
      done;
      push (NUM (float_of_string (String.sub src start (!i - start))))
    end
    else if c = '"' || c = '\'' then begin
      incr i;
      let start = !i in
      while !i < n && src.[!i] <> c do
        incr i
      done;
      if !i >= n then fail "unterminated string literal";
      push (STR (String.sub src start (!i - start)));
      incr i
    end
    else if c = '$' || c = '%' then begin
      incr i;
      let start = !i in
      while !i < n && is_name_char src.[!i] do
        incr i
      done;
      if !i = start then fail "expected a name after %C" c;
      let name = String.sub src start (!i - start) in
      push (if c = '$' then VAR name else PARAM name)
    end
    else begin
      let two = if !i + 1 < n then String.sub src !i 2 else "" in
      match two with
      | "//" -> push DSLASH; i := !i + 2
      | "::" -> push DCOLON; i := !i + 2
      | ":=" -> push ASSIGN; i := !i + 2
      | "!=" -> push NEQ; i := !i + 2
      | "<=" -> push LE; i := !i + 2
      | ">=" -> push GE; i := !i + 2
      | "->" -> push ARROW; i := !i + 2
      | ".." -> push DOTDOT; i := !i + 2
      | _ ->
        (match c with
         | '/' -> push SLASH | '[' -> push LBRACK | ']' -> push RBRACK
         | '(' -> push LPAREN | ')' -> push RPAREN | '@' -> push AT
         | '.' -> push DOT | ',' -> push COMMA | '|' -> push PIPE
         | '+' -> push PLUS | '-' -> push MINUS | '*' -> push STAR
         | '=' -> push EQ | '<' -> push LT | '>' -> push GT
         | '{' -> push LBRACE | '}' -> push RBRACE | ';' -> push SEMI
         | ':' -> push COLON
         | c -> fail "illegal character %C" c);
        incr i
    end
  done;
  List.rev (EOF :: !toks)

(* ------------------------------------------------------------------ *)
(* Token cursor                                                        *)
(* ------------------------------------------------------------------ *)

module Cursor = struct
  type t = { mutable toks : token list }

  let of_tokens toks = { toks }
  let of_string s = { toks = tokenize s }

  let peek c = match c.toks with [] -> EOF | t :: _ -> t
  let peek2 c = match c.toks with _ :: t :: _ -> t | _ -> EOF
  let peekn c n = match List.nth_opt c.toks n with Some t -> t | None -> EOF

  let next c =
    match c.toks with
    | [] -> EOF
    | t :: rest ->
      c.toks <- rest;
      t

  let fail c msg =
    fail "%s (at %s)" msg
      (String.concat " " (List.map token_str (List.filteri (fun i _ -> i < 5) c.toks)))

  let eat c t =
    let got = next c in
    if got <> t then fail c (Printf.sprintf "expected %s, got %s" (token_str t) (token_str got))

  let eat_name c s =
    match next c with
    | NAME n when n = s -> ()
    | got -> fail c (Printf.sprintf "expected %s, got %s" s (token_str got))

  let at_eof c = peek c = EOF
end

open Ast

(* ------------------------------------------------------------------ *)
(* Recursive descent parser                                            *)
(* ------------------------------------------------------------------ *)

(* nodetest := name | '*' | 'text' '(' ')' | 'node' '(' ')' *)
let parse_nodetest c =
  match Cursor.next c with
  | STAR -> Wildcard
  | NAME ("text" as n) | NAME ("node" as n) when Cursor.peek c = LPAREN ->
    Cursor.eat c LPAREN;
    Cursor.eat c RPAREN;
    if n = "text" then Text_test else Node_test
  | NAME n -> Name_test n
  | t -> Cursor.fail c (Printf.sprintf "expected a node test, got %s" (token_str t))

let rec parse_step c =
  match Cursor.peek c with
  | DOT ->
    Cursor.eat c DOT;
    { axis = Self; test = Node_test; preds = parse_preds c }
  | DOTDOT ->
    Cursor.eat c DOTDOT;
    { axis = Parent; test = Node_test; preds = parse_preds c }
  | AT ->
    Cursor.eat c AT;
    let test = parse_nodetest c in
    { axis = Attribute; test; preds = parse_preds c }
  | NAME a when Cursor.peek2 c = DCOLON && axis_of_name a <> None ->
    let axis = match axis_of_name a with Some x -> x | None -> assert false in
    Cursor.eat c (NAME a);
    Cursor.eat c DCOLON;
    let test = parse_nodetest c in
    { axis; test; preds = parse_preds c }
  | _ ->
    let test = parse_nodetest c in
    { axis = Child; test; preds = parse_preds c }

and parse_preds c =
  if Cursor.peek c = LBRACK then begin
    Cursor.eat c LBRACK;
    let e = parse_or c in
    Cursor.eat c RBRACK;
    e :: parse_preds c
  end
  else []

(* steps after an initial '/' or '//' or a primary expression *)
and parse_rel_steps c acc =
  let acc = parse_step c :: acc in
  match Cursor.peek c with
  | SLASH ->
    Cursor.eat c SLASH;
    parse_rel_steps c acc
  | DSLASH ->
    Cursor.eat c DSLASH;
    parse_rel_steps c (desc_step :: acc)
  | _ -> List.rev acc

and starts_step c =
  match Cursor.peek c with
  | DOT | DOTDOT | AT | STAR -> true
  | NAME _ -> true
  | _ -> false

(* A path or primary expression. *)
and parse_path_expr c =
  match Cursor.peek c with
  | SLASH ->
    Cursor.eat c SLASH;
    if starts_step c then Path (Abs, parse_rel_steps c []) else Path (Abs, [])
  | DSLASH ->
    Cursor.eat c DSLASH;
    Path (Abs, desc_step :: parse_rel_steps c [])
  | _ ->
    let primary = parse_primary c in
    continue_path c primary

and continue_path c primary =
  match (primary, Cursor.peek c) with
  | _, SLASH ->
    Cursor.eat c SLASH;
    Path (From primary, parse_rel_steps c [])
  | _, DSLASH ->
    Cursor.eat c DSLASH;
    Path (From primary, desc_step :: parse_rel_steps c [])
  | _ -> primary

and parse_primary c =
  match Cursor.peek c with
  | LPAREN ->
    Cursor.eat c LPAREN;
    let e = parse_or c in
    Cursor.eat c RPAREN;
    with_filter_preds c e
  | STR s ->
    ignore (Cursor.next c);
    Literal s
  | NUM f ->
    ignore (Cursor.next c);
    Number f
  | VAR v ->
    ignore (Cursor.next c);
    with_filter_preds c (Var v)
  | PARAM p ->
    (* Parameter holes are represented as variables with a reserved '%'
       prefix so that they can occur anywhere in a path. *)
    ignore (Cursor.next c);
    with_filter_preds c (Var ("%" ^ p))
  | MINUS ->
    Cursor.eat c MINUS;
    Neg (parse_primary c)
  | NAME n
    when Cursor.peek2 c = LPAREN && n <> "text" && n <> "node"
         && axis_of_name n = None ->
    Cursor.eat c (NAME n);
    Cursor.eat c LPAREN;
    let rec args acc =
      if Cursor.peek c = RPAREN then List.rev acc
      else begin
        let a = parse_or c in
        if Cursor.peek c = COMMA then begin
          Cursor.eat c COMMA;
          args (a :: acc)
        end
        else List.rev (a :: acc)
      end
    in
    let args = args [] in
    Cursor.eat c RPAREN;
    with_filter_preds c (Call (n, args))
  | t when (match t with DOT | DOTDOT | AT | STAR | NAME _ -> true | _ -> false) ->
    Path (Rel, parse_rel_steps c [])
  | t -> Cursor.fail c (Printf.sprintf "unexpected token %s" (token_str t))

(* Predicates directly after a filter expression: [$x[2]/y]. *)
and with_filter_preds c e =
  if Cursor.peek c = LBRACK then begin
    let preds = parse_preds c in
    Path (From e, [ { axis = Self; test = Node_test; preds } ])
  end
  else e

and parse_union c =
  let lhs = parse_path_expr c in
  if Cursor.peek c = PIPE then begin
    Cursor.eat c PIPE;
    Binop (Union, lhs, parse_union c)
  end
  else lhs

and parse_unary c =
  if Cursor.peek c = MINUS then begin
    Cursor.eat c MINUS;
    Neg (parse_unary c)
  end
  else parse_union c

and parse_mul c =
  let rec loop lhs =
    match Cursor.peek c with
    | STAR ->
      Cursor.eat c STAR;
      loop (Binop (Mul, lhs, parse_unary c))
    | NAME "div" ->
      ignore (Cursor.next c);
      loop (Binop (Div, lhs, parse_unary c))
    | NAME "mod" ->
      ignore (Cursor.next c);
      loop (Binop (Mod, lhs, parse_unary c))
    | _ -> lhs
  in
  loop (parse_unary c)

and parse_add c =
  let rec loop lhs =
    match Cursor.peek c with
    | PLUS ->
      Cursor.eat c PLUS;
      loop (Binop (Add, lhs, parse_mul c))
    | MINUS ->
      Cursor.eat c MINUS;
      loop (Binop (Sub, lhs, parse_mul c))
    | _ -> lhs
  in
  loop (parse_mul c)

and parse_rel c =
  let rec loop lhs =
    match Cursor.peek c with
    | LT -> Cursor.eat c LT; loop (Binop (Lt, lhs, parse_add c))
    | LE -> Cursor.eat c LE; loop (Binop (Le, lhs, parse_add c))
    | GT -> Cursor.eat c GT; loop (Binop (Gt, lhs, parse_add c))
    | GE -> Cursor.eat c GE; loop (Binop (Ge, lhs, parse_add c))
    | _ -> lhs
  in
  loop (parse_add c)

and parse_eq c =
  let rec loop lhs =
    match Cursor.peek c with
    | EQ -> Cursor.eat c EQ; loop (Binop (Eq, lhs, parse_rel c))
    | NEQ -> Cursor.eat c NEQ; loop (Binop (Neq, lhs, parse_rel c))
    | _ -> lhs
  in
  loop (parse_eq_operand c)

and parse_eq_operand c = parse_rel c

and parse_and c =
  let rec loop lhs =
    match Cursor.peek c with
    | NAME "and" ->
      ignore (Cursor.next c);
      loop (Binop (And, lhs, parse_eq c))
    | _ -> lhs
  in
  loop (parse_eq c)

and parse_or c =
  let rec loop lhs =
    match Cursor.peek c with
    | NAME "or" ->
      ignore (Cursor.next c);
      loop (Binop (Or, lhs, parse_and c))
    | _ -> lhs
  in
  loop (parse_and c)

let parse_path_expr_at = parse_path_expr

let parse src =
  let c = Cursor.of_string src in
  let e = parse_or c in
  if not (Cursor.at_eof c) then
    Cursor.fail c "trailing tokens after XPath expression";
  e

let parse_path src =
  match parse src with
  | Path (start, steps) -> (start, steps)
  | _ -> fail "expected a location path: %s" src
