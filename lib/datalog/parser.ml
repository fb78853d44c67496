exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

type token =
  | LNAME of string   (* lowercase identifier: predicate or keyword *)
  | UNAME of string   (* capitalized identifier: variable *)
  | ANON              (* _ *)
  | INT of int
  | STRING of string
  | PARAM of string
  | LPAREN | RPAREN | COMMA | SEMI
  | CMP of Term.cmp
  | IMPLIED           (* :- or <- *)
  | EOF

let token_str = function
  | LNAME s -> s
  | UNAME s -> s
  | ANON -> "_"
  | INT i -> string_of_int i
  | STRING s -> "\"" ^ s ^ "\""
  | PARAM p -> "%" ^ p
  | LPAREN -> "(" | RPAREN -> ")" | COMMA -> "," | SEMI -> ";"
  | CMP c -> Term.cmp_str c
  | IMPLIED -> ":-"
  | EOF -> "<eof>"

let is_ws = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false
let is_digit c = c >= '0' && c <= '9'
let is_lower c = c >= 'a' && c <= 'z'
let is_upper c = c >= 'A' && c <= 'Z'
let is_ident c = is_lower c || is_upper c || is_digit c || c = '_'

let tokenize src =
  let n = String.length src in
  let toks = ref [] in
  let i = ref 0 in
  let push t = toks := t :: !toks in
  while !i < n do
    let c = src.[!i] in
    if is_ws c then incr i
    else if c = '-' && !i + 1 < n && src.[!i + 1] = '-' then begin
      (* comment to end of line *)
      while !i < n && src.[!i] <> '\n' do
        incr i
      done
    end
    else if is_lower c then begin
      let start = !i in
      while !i < n && is_ident src.[!i] do
        incr i
      done;
      push (LNAME (String.sub src start (!i - start)))
    end
    else if is_upper c then begin
      let start = !i in
      while !i < n && is_ident src.[!i] do
        incr i
      done;
      push (UNAME (String.sub src start (!i - start)))
    end
    else if c = '_' then begin
      let start = !i in
      while !i < n && is_ident src.[!i] do
        incr i
      done;
      if !i - start = 1 then push ANON
      else push (UNAME (String.sub src start (!i - start)))
    end
    else if is_digit c || (c = '-' && !i + 1 < n && is_digit src.[!i + 1]) then begin
      let start = !i in
      incr i;
      while !i < n && is_digit src.[!i] do
        incr i
      done;
      push (INT (int_of_string (String.sub src start (!i - start))))
    end
    else if c = '"' || c = '\'' then begin
      incr i;
      let start = !i in
      while !i < n && src.[!i] <> c do
        incr i
      done;
      if !i >= n then fail "unterminated string";
      push (STRING (String.sub src start (!i - start)));
      incr i
    end
    else if c = '%' then begin
      incr i;
      let start = !i in
      while !i < n && is_ident src.[!i] do
        incr i
      done;
      if !i = start then fail "expected name after %%";
      push (PARAM (String.sub src start (!i - start)))
    end
    else begin
      let two = if !i + 1 < n then String.sub src !i 2 else "" in
      (match two with
       | ":-" | "<-" -> push IMPLIED; incr i
       | "!=" | "<>" -> push (CMP Term.Neq); incr i
       | "<=" -> push (CMP Term.Le); incr i
       | ">=" -> push (CMP Term.Ge); incr i
       | _ ->
         (match c with
          | '(' -> push LPAREN
          | ')' -> push RPAREN
          | ',' -> push COMMA
          | ';' -> push SEMI
          | '=' -> push (CMP Term.Eq)
          | '<' -> push (CMP Term.Lt)
          | '>' -> push (CMP Term.Gt)
          | c -> fail "illegal character %C" c));
      incr i
    end
  done;
  List.rev (EOF :: !toks)

type cursor = { mutable toks : token list; mutable anon : int }

let peek c = match c.toks with [] -> EOF | t :: _ -> t

let next c =
  match c.toks with
  | [] -> EOF
  | t :: rest ->
    c.toks <- rest;
    t

let eat c t =
  let got = next c in
  if got <> t then fail "expected %s, got %s" (token_str t) (token_str got)

let fresh_anon c =
  c.anon <- c.anon + 1;
  Term.Var (Printf.sprintf "_%d" c.anon)

let agg_ops =
  [ ("cnt", Term.Cnt); ("cntd", Term.CntD); ("sum", Term.Sum);
    ("sumd", Term.SumD); ("max", Term.Max); ("min", Term.Min) ]

let rec parse_term_at c =
  match next c with
  | UNAME v -> Term.Var v
  | ANON -> fresh_anon c
  | INT i -> Term.Const (Term.Int i)
  | STRING s -> Term.Const (Term.Str s)
  | PARAM p -> Term.Param p
  | LNAME n -> fail "unexpected lowercase name %S as a term (quote string constants)" n
  | t -> fail "expected a term, got %s" (token_str t)

and parse_atom_at c =
  match next c with
  | LNAME pred ->
    eat c LPAREN;
    let rec args acc =
      let t = parse_term_at c in
      match next c with
      | COMMA -> args (t :: acc)
      | RPAREN -> List.rev (t :: acc)
      | tok -> fail "expected , or ) in atom, got %s" (token_str tok)
    in
    let args = if peek c = RPAREN then (eat c RPAREN; []) else args [] in
    { Term.pred; Term.args }
  | t -> fail "expected a predicate name, got %s" (token_str t)

let parse_lit_at c =
  match peek c with
  | LNAME "not" ->
    ignore (next c);
    Term.Not (parse_atom_at c)
  | LNAME name when List.mem_assoc name agg_ops ->
    let op = List.assoc name agg_ops in
    ignore (next c);
    eat c LPAREN;
    (* Either agg(atom, …) or agg(Target; atom, …). *)
    let target =
      match peek c with
      | UNAME _ | ANON | INT _ | STRING _ | PARAM _ ->
        let t = parse_term_at c in
        eat c SEMI;
        Some t
      | _ -> None
    in
    let rec atoms acc =
      let a = parse_atom_at c in
      if peek c = COMMA then begin
        ignore (next c);
        atoms (a :: acc)
      end
      else List.rev (a :: acc)
    in
    let atoms = atoms [] in
    eat c RPAREN;
    let acmp =
      match next c with
      | CMP op -> op
      | t -> fail "expected comparison after aggregate, got %s" (token_str t)
    in
    let bound = parse_term_at c in
    Term.Agg { Term.op; target; atoms; acmp; bound }
  | LNAME _ -> Term.Rel (parse_atom_at c)
  | _ ->
    let t1 = parse_term_at c in
    (match next c with
     | CMP op -> Term.Cmp (op, t1, parse_term_at c)
     | t -> fail "expected comparison operator, got %s" (token_str t))

let parse_body c =
  let rec go acc =
    let l = parse_lit_at c in
    match peek c with
    | COMMA ->
      ignore (next c);
      go (l :: acc)
    | LNAME "and" ->
      ignore (next c);
      go (l :: acc)
    | _ -> List.rev (l :: acc)
  in
  go []

let parse_denial ?label src =
  let c = { toks = tokenize src; anon = 0 } in
  if peek c = IMPLIED then ignore (next c);
  let body = parse_body c in
  (match peek c with
   | EOF -> ()
   | t -> fail "trailing token %s after denial" (token_str t));
  Term.denial ?label body

let parse_atom src =
  let c = { toks = tokenize src; anon = 0 } in
  parse_atom_at c

let parse_denials src =
  (* Split on newlines; a denial may span lines only via explicit '.' —
     keep it simple: each non-blank, non-comment line is one denial. *)
  String.split_on_char '\n' src
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" then None
         else if String.length line >= 2 && String.sub line 0 2 = "--" then None
         else Some (parse_denial line))
