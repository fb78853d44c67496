module T = Xic_datalog.Term
module M = Xic_relmap.Mapping
module XP = Xic_xpath.Ast
module Q = Xic_xquery.Ast

exception Untranslatable of string

let fail fmt = Printf.ksprintf (fun s -> raise (Untranslatable s)) fmt

let xop : T.cmp -> XP.binop = function
  | T.Eq -> XP.Eq
  | T.Neq -> XP.Neq
  | T.Lt -> XP.Lt
  | T.Le -> XP.Le
  | T.Gt -> XP.Gt
  | T.Ge -> XP.Ge

(* ------------------------------------------------------------------ *)
(* XPath expression helpers                                            *)
(* ------------------------------------------------------------------ *)

let child_step name = { XP.axis = XP.Child; test = XP.Name_test name; preds = [] }
let text_step = { XP.axis = XP.Child; test = XP.Text_test; preds = [] }
let attr_step name = { XP.axis = XP.Attribute; test = XP.Name_test name; preds = [] }
let parent_step = { XP.axis = XP.Parent; test = XP.Node_test; preds = [] }

(* Concatenate steps onto an expression, flattening nested paths. *)
let extend_path (e : XP.expr) steps =
  if steps = [] then e
  else
    match e with
    | XP.Path (start, st) -> XP.Path (start, st @ steps)
    | e -> XP.Path (XP.From e, steps)

let doc_any name = XP.Path (XP.Abs, [ XP.desc_step; child_step name ])

(* Column access below a node expression. *)
let column_path node (c : M.column) =
  match c.M.source with
  | M.From_pcdata_child ch -> extend_path node [ child_step ch; text_step ]
  | M.From_attr a -> extend_path node [ attr_step a ]
  | M.From_text -> extend_path node [ text_step ]

(* ------------------------------------------------------------------ *)
(* Occurrence counting over the denial                                 *)
(* ------------------------------------------------------------------ *)

let var_occurrences (d : T.denial) =
  let tbl = Hashtbl.create 16 in
  let bump v = Hashtbl.replace tbl v (1 + Option.value ~default:0 (Hashtbl.find_opt tbl v)) in
  List.iter (fun l -> List.iter bump (T.lit_vars l)) d.T.body;
  fun v -> Option.value ~default:0 (Hashtbl.find_opt tbl v)

(* ------------------------------------------------------------------ *)
(* Translation state                                                   *)
(* ------------------------------------------------------------------ *)

type st = {
  mutable defined : (string * XP.expr) list;  (* Datalog var → reference *)
  mutable bindings : (string * Q.expr) list;  (* reversed *)
  mutable conds : Q.expr list;                (* reversed *)
}

let term_expr st (t : T.term) : XP.expr option =
  match t with
  | T.Const (T.Str s) -> Some (XP.Literal s)
  | T.Const (T.Int i) -> Some (XP.Number (float_of_int i))
  | T.Param p -> Some (XP.Var ("%" ^ p))
  | T.Var v -> List.assoc_opt v st.defined

let add_cond st (c : Q.expr) = st.conds <- c :: st.conds

let add_binding st v (e : XP.expr) =
  st.bindings <- (v, Q.Xp e) :: st.bindings;
  st.defined <- (v, XP.Var v) :: st.defined

let eq_cond a b = Q.Binop (XP.Eq, Q.Xp a, Q.Xp b)

(* ------------------------------------------------------------------ *)
(* Atom translation                                                    *)
(* ------------------------------------------------------------------ *)

let schema_exn mapping pred =
  match M.schema_of mapping pred with
  | Some s -> s
  | None -> fail "unknown predicate %s" pred

(* Translate pos/column arguments of an atom whose node expression is
   known.  [occurs] counts total occurrences of a variable in the denial:
   single-occurrence variables are existentially trivial and skipped. *)
let translate_columns st occurs mapping pred node_expr pos_term col_terms =
  let pos_expr () = XP.Call ("position-of", [ node_expr ]) in
  (match pos_term with
   | T.Var v when occurs v <= 1 -> ()
   | T.Var v ->
     (match List.assoc_opt v st.defined with
      | Some e -> add_cond st (eq_cond (pos_expr ()) e)
      | None -> add_binding st v (pos_expr ()))
   | t ->
     (match term_expr st t with
      | Some e -> add_cond st (eq_cond (pos_expr ()) e)
      | None -> fail "unresolved position term %s" (T.term_str t)));
  let schema = schema_exn mapping pred in
  if List.length col_terms <> List.length schema.M.columns then
    fail "arity mismatch for %s" pred;
  List.iter2
    (fun (c : M.column) t ->
      match t with
      | T.Var v when occurs v <= 1 -> ()
      | T.Var v ->
        (match List.assoc_opt v st.defined with
         | Some e -> add_cond st (eq_cond (column_path node_expr c) e)
         | None -> add_binding st v (column_path node_expr c))
      | t ->
        (match term_expr st t with
         | Some e -> add_cond st (eq_cond (column_path node_expr c) e)
         | None -> fail "unresolved column term %s" (T.term_str t)))
    schema.M.columns col_terms

let split_atom (a : T.atom) =
  match a.T.args with
  | id :: pos :: par :: cols -> (id, pos, par, cols)
  | _ -> fail "atom %s has arity < 3" (T.atom_str a)

(* The node expression for an atom's id term, creating a binding when
   needed.  Fresh node variables get a '$' binding named after the var. *)
let node_expr_for st occurs (a : T.atom) =
  let id, _, par, _ = split_atom a in
  match id with
  | T.Param p -> XP.Var ("%" ^ p)
  | T.Const _ -> fail "constant node id in %s" (T.atom_str a)
  | T.Var v ->
    (match List.assoc_opt v st.defined with
     | Some e -> e
     | None ->
       let source =
         match term_expr st par with
         | Some pe -> extend_path pe [ child_step a.T.pred ]
         | None -> doc_any a.T.pred
       in
       add_binding st v source;
       (* If the parent variable is needed elsewhere and not yet defined,
          expose it as $par in $id/.. *)
       (match par with
        | T.Var pv when occurs pv > 1 && List.assoc_opt pv st.defined = None ->
          add_binding st pv (extend_path (XP.Var v) [ parent_step ])
        | _ -> ());
       XP.Var v)

let translate_rel st occurs mapping (a : T.atom) =
  let _, pos, _, cols = split_atom a in
  let node = node_expr_for st occurs a in
  translate_columns st occurs mapping a.T.pred node pos cols

(* ------------------------------------------------------------------ *)
(* Negated atoms                                                       *)
(* ------------------------------------------------------------------ *)

(* Build a node-set expression selecting the tuples matching the atom
   under the current definitions: parent/cols become XPath predicates. *)
let atom_nodeset st occurs mapping (a : T.atom) =
  let id, pos, par, cols = split_atom a in
  (match id with
   | T.Var v when occurs v <= 1 -> ()
   | T.Param _ -> fail "negated atom with a parameter id is not supported"
   | _ -> fail "negated atom binds its id variable: %s" (T.atom_str a));
  let base =
    match term_expr st par with
    | Some pe -> extend_path pe [ child_step a.T.pred ]
    | None ->
      (match par with
       | T.Var v when occurs v <= 1 -> doc_any a.T.pred
       | _ -> fail "negated atom with an unresolved parent: %s" (T.atom_str a))
  in
  let preds = ref [] in
  (match pos with
   | T.Var v when occurs v <= 1 -> ()
   | t ->
     (match term_expr st t with
      | Some e ->
        preds := XP.Binop (XP.Eq, XP.Call ("position", []), e) :: !preds
      | None -> fail "negated atom with unresolved position"));
  let schema = schema_exn mapping a.T.pred in
  List.iter2
    (fun (c : M.column) t ->
      match t with
      | T.Var v when occurs v <= 1 -> ()
      | t ->
        (match term_expr st t with
         | Some e ->
           let access =
             match c.M.source with
             | M.From_pcdata_child ch -> XP.Path (XP.Rel, [ child_step ch; text_step ])
             | M.From_attr at -> XP.Path (XP.Rel, [ attr_step at ])
             | M.From_text -> XP.Path (XP.Rel, [ text_step ])
           in
           preds := XP.Binop (XP.Eq, access, e) :: !preds
         | None -> fail "negated atom with an unresolved column: %s" (T.atom_str a)))
    schema.M.columns cols;
  match (base, List.rev !preds) with
  | e, [] -> e
  | XP.Path (s, steps), preds ->
    (match List.rev steps with
     | last :: front ->
       XP.Path (s, List.rev ({ last with XP.preds = last.XP.preds @ preds } :: front))
     | [] -> assert false)
  | e, preds ->
    XP.Path (XP.From e, [ { XP.axis = XP.Self; test = XP.Node_test; preds } ])

let translate_not st occurs mapping (a : T.atom) =
  let ns = atom_nodeset st occurs mapping a in
  add_cond st (Q.Call ("not", [ Q.Call ("exists", [ Q.Xp ns ]) ]))

(* ------------------------------------------------------------------ *)
(* Aggregates                                                          *)
(* ------------------------------------------------------------------ *)

(* Attach extra predicates to the last step of a path. *)
let with_preds e ps =
  match (e, ps) with
  | e, [] -> e
  | XP.Path (s, steps), ps ->
    (match List.rev steps with
     | last :: front ->
       XP.Path (s, List.rev ({ last with XP.preds = last.XP.preds @ ps } :: front))
     | [] -> XP.Path (s, [ { XP.axis = XP.Self; test = XP.Node_test; preds = ps } ]))
  | e, ps -> XP.Path (XP.From e, [ { XP.axis = XP.Self; test = XP.Node_test; preds = ps } ])

(* Qualifier predicates expressing the constrained pos/column arguments of
   an aggregate atom; aggregate-local (undefined) variables are
   unconstrained. *)
let agg_atom_preds st occurs mapping (a : T.atom) =
  let _, pos, _, cols = split_atom a in
  let preds = ref [] in
  (match pos with
   | T.Var v when occurs v <= 1 || List.assoc_opt v st.defined = None -> ()
   | t ->
     (match term_expr st t with
      | Some e -> preds := XP.Binop (XP.Eq, XP.Call ("position", []), e) :: !preds
      | None -> ()));
  let schema = schema_exn mapping a.T.pred in
  List.iter2
    (fun (c : M.column) t ->
      let access () =
        match c.M.source with
        | M.From_pcdata_child ch -> XP.Path (XP.Rel, [ child_step ch; text_step ])
        | M.From_attr at -> XP.Path (XP.Rel, [ attr_step at ])
        | M.From_text -> XP.Path (XP.Rel, [ text_step ])
      in
      match t with
      | T.Var v ->
        (match List.assoc_opt v st.defined with
         | Some e -> preds := XP.Binop (XP.Eq, access (), e) :: !preds
         | None -> ())
      | t ->
        (match term_expr st t with
         | Some e -> preds := XP.Binop (XP.Eq, access (), e) :: !preds
         | None -> ()))
    schema.M.columns cols;
  List.rev !preds

(* Verify that atom i+1's parent variable is atom i's id variable. *)
let check_linear (g : T.agg) =
  let rec go = function
    | (a : T.atom) :: ((b : T.atom) :: _ as rest) ->
      let id, _, _, _ = split_atom a in
      let _, _, bpar, _ = split_atom b in
      (match id with
       | T.Var idv when bpar = T.Var idv -> go rest
       | _ ->
         fail "aggregate pattern is not a linear parent chain: %s"
           (T.lit_str (T.Agg g)))
    | _ -> ()
  in
  go g.T.atoms

(* Chain a list of aggregate atoms below a start expression. *)
let chain_atoms st occurs mapping start atoms =
  List.fold_left
    (fun e (a : T.atom) ->
      with_preds
        (extend_path e [ child_step a.T.pred ])
        (agg_atom_preds st occurs mapping a))
    start atoms

(* The aggregate's pattern as an XPath expression whose result nodes are
   the instances of the atom holding the target (atoms further down the
   chain become existence predicates on that step). *)
let agg_path st occurs mapping (g : T.agg) =
  check_linear g;
  (match g.T.atoms with
   | [] -> fail "empty aggregate pattern"
   | _ -> ());
  let first = List.hd g.T.atoms in
  let _, _, par, _ = split_atom first in
  let start =
    match term_expr st par with
    | Some pe -> pe
    | None ->
      (match par with
       | T.Var v when occurs v <= 1 -> XP.Path (XP.Abs, [ XP.desc_step ])
       | _ -> fail "aggregate parent %s is not resolved" (T.term_str par))
  in
  (* Index of the atom carrying the target (default: the last one). *)
  let target_idx =
    match g.T.target with
    | Some (T.Var tv) ->
      let rec find i = function
        | [] -> None
        | (a : T.atom) :: rest ->
          let id, _, _, _ = split_atom a in
          if id = T.Var tv then Some i else find (i + 1) rest
      in
      find 0 g.T.atoms
    | _ -> None
  in
  let k =
    match target_idx with Some k -> k | None -> List.length g.T.atoms - 1
  in
  let upto, after =
    let rec split i acc = function
      | rest when i > k -> (List.rev acc, rest)
      | [] -> (List.rev acc, [])
      | a :: rest -> split (i + 1) (a :: acc) rest
    in
    split 0 [] g.T.atoms
  in
  let main = chain_atoms st occurs mapping start upto in
  match after with
  | [] -> main
  | _ ->
    (* Trailing atoms become an existence predicate (a relative path). *)
    let tail =
      chain_atoms st occurs mapping (XP.Path (XP.Rel, [])) after
    in
    let tail =
      match tail with
      | XP.Path (XP.Rel, steps) -> XP.Path (XP.Rel, steps)
      | e -> e
    in
    with_preds main [ tail ]

(* Aggregate translation: a let-binding over the pattern path plus a
   count/sum condition. *)
let translate_agg st occurs mapping counter (g : T.agg) =
  let path = agg_path st occurs mapping g in
  incr counter;
  let v = Printf.sprintf "Agg%d" !counter in
  st.bindings <- (v, Q.Xp path) :: st.bindings;  (* becomes a let clause *)
  let target_expr =
    match g.T.target with
    | None -> Q.Xp (XP.Var v)
    | Some (T.Var tv) ->
      (* Target is one of the chain's node ids (then the pattern path ends
         at that atom and the result nodes are the targets) or a column of
         the last atom. *)
      let is_some_id =
        List.exists
          (fun (a : T.atom) ->
            let id, _, _, _ = split_atom a in
            id = T.Var tv)
          g.T.atoms
      in
      let last = List.nth g.T.atoms (List.length g.T.atoms - 1) in
      let _, _, _, cols = split_atom last in
      if is_some_id then Q.Xp (XP.Var v)
      else begin
        let schema = schema_exn mapping last.T.pred in
        let rec find cs ts =
          match (cs, ts) with
          | (c : M.column) :: cs', t :: ts' ->
            if t = T.Var tv then Some c else find cs' ts'
          | _ -> None
        in
        match find schema.M.columns cols with
        | Some c -> Q.Xp (column_path (XP.Var v) c)
        | None -> fail "aggregate target %s not found in the pattern" tv
      end
    | Some t ->
      (match term_expr st t with
       | Some e -> Q.Xp e
       | None -> fail "unresolved aggregate target %s" (T.term_str t))
  in
  let fn =
    match g.T.op with
    | T.Cnt -> "count"
    | T.CntD -> "count-distinct"
    | T.Sum -> "sum"
    | T.SumD -> "sum"  (* over distinct strings; adequate for our use *)
    | T.Max | T.Min -> fail "max/min aggregates are not translated to XQuery"
  in
  let bound =
    match term_expr st g.T.bound with
    | Some e -> Q.Xp e
    | None -> fail "unresolved aggregate bound %s" (T.term_str g.T.bound)
  in
  add_cond st (Q.Binop (xop g.T.acmp, Q.Call (fn, [ target_expr ]), bound));
  v

(* ------------------------------------------------------------------ *)
(* Atom ordering (parents before children)                             *)
(* ------------------------------------------------------------------ *)

let sort_lits (body : T.lit list) =
  let rels, others =
    List.partition (function T.Rel _ -> true | _ -> false) body
  in
  let id_of = function
    | T.Rel a -> (match a.T.args with T.Var v :: _ -> Some v | _ -> None)
    | _ -> None
  in
  let par_of = function
    | T.Rel a ->
      (match a.T.args with _ :: _ :: T.Var v :: _ -> Some v | _ -> None)
    | _ -> None
  in
  let rec order acc pending =
    if pending = [] then List.rev acc
    else begin
      let ready, waiting =
        List.partition
          (fun l ->
            match par_of l with
            | None -> true
            | Some pv ->
              not
                (List.exists
                   (fun l' -> l' != l && id_of l' = Some pv)
                   pending))
          pending
      in
      match ready with
      | [] -> List.rev_append acc pending  (* cycle: keep original order *)
      | _ -> order (List.rev_append ready acc) waiting
    end
  in
  order [] rels @ others

(* ------------------------------------------------------------------ *)
(* Single-use inlining                                                 *)
(* ------------------------------------------------------------------ *)

(* Calls that read their argument as a whole sequence, not as an
   existential over its nodes: count/sum/not/exists change cardinality,
   and position-of reads only the first node, so a lone positional
   qualifier must keep its node bound to a quantified variable. *)
let opaque_calls =
  [ "count"; "count-distinct"; "sum"; "not"; "exists"; "empty"; "position-of" ]

(* Count occurrences of the XPath variable [v] in a Q expression; uses
   under {!opaque_calls} or let-clauses are unsafe to inline into,
   tracked separately. *)
let count_uses v (e : Q.expr) =
  let safe = ref 0 and unsafe = ref 0 in
  let rec xp depth = function
    | XP.Var x when x = v -> if depth = 0 then incr safe else incr unsafe
    | XP.Var _ | XP.Literal _ | XP.Number _ -> ()
    | XP.Neg e -> xp depth e
    | XP.Binop (_, a, b) -> xp depth a; xp depth b
    | XP.Call (f, args) ->
      let d = if List.mem f opaque_calls then depth + 1 else depth in
      List.iter (xp d) args
    | XP.Path (start, steps) ->
      (match start with XP.From e -> xp depth e | XP.Abs | XP.Rel -> ());
      List.iter (fun (s : XP.step) -> List.iter (xp depth) s.XP.preds) steps
  and q depth = function
    | Q.Xp e -> xp depth e
    | Q.Param _ -> ()
    | Q.Seq es | Q.Elem (_, es) -> List.iter (q depth) es
    | Q.Call (f, args) ->
      let d = if List.mem f opaque_calls then depth + 1 else depth in
      List.iter (q d) args
    | Q.Binop (_, a, b) -> q depth a; q depth b
    | Q.If (a, b, c) -> q depth a; q depth b; q depth c
    | Q.Quant (_, binds, cond) ->
      List.iter (fun (_, e) -> q depth e) binds;
      q depth cond
    | Q.Flwor (clauses, where, ret) ->
      List.iter
        (function
          | Q.For (_, e) -> q depth e
          | Q.Let (_, e) -> q (depth + 1) e)
        clauses;
      Option.iter (q depth) where;
      q depth ret
  in
  q 0 e;
  (!safe, !unsafe)

let rec xp_subst v (repl : XP.expr) (e : XP.expr) : XP.expr =
  match e with
  | XP.Var x when x = v -> repl
  | XP.Var _ | XP.Literal _ | XP.Number _ -> e
  | XP.Neg e -> XP.Neg (xp_subst v repl e)
  | XP.Binop (op, a, b) -> XP.Binop (op, xp_subst v repl a, xp_subst v repl b)
  | XP.Call (f, args) -> XP.Call (f, List.map (xp_subst v repl) args)
  | XP.Path (start, steps) ->
    let steps =
      List.map
        (fun (s : XP.step) -> { s with XP.preds = List.map (xp_subst v repl) s.XP.preds })
        steps
    in
    (match start with
     | XP.From (XP.Var x) when x = v -> extend_path repl steps
     | XP.From e -> XP.Path (XP.From (xp_subst v repl e), steps)
     | s -> XP.Path (s, steps))

let rec q_subst v repl (e : Q.expr) : Q.expr =
  match e with
  | Q.Xp x -> Q.Xp (xp_subst v repl x)
  | Q.Param _ -> e
  | Q.Seq es -> Q.Seq (List.map (q_subst v repl) es)
  | Q.Elem (t, es) -> Q.Elem (t, List.map (q_subst v repl) es)
  | Q.Call (f, args) -> Q.Call (f, List.map (q_subst v repl) args)
  | Q.Binop (op, a, b) -> Q.Binop (op, q_subst v repl a, q_subst v repl b)
  | Q.If (a, b, c) -> Q.If (q_subst v repl a, q_subst v repl b, q_subst v repl c)
  | Q.Quant (qk, binds, cond) ->
    Q.Quant (qk, List.map (fun (x, e) -> (x, q_subst v repl e)) binds, q_subst v repl cond)
  | Q.Flwor (clauses, where, ret) ->
    Q.Flwor
      ( List.map
          (function
            | Q.For (x, e) -> Q.For (x, q_subst v repl e)
            | Q.Let (x, e) -> Q.Let (x, q_subst v repl e))
          clauses,
        Option.map (q_subst v repl) where,
        q_subst v repl ret )

(* Inline bindings used exactly once in a safe position.  [protect] names
   variables that must keep their binding (aggregate lets). *)
let inline_bindings protect (bindings : (string * Q.expr) list) (cond : Q.expr) =
  let rec loop acc bindings cond =
    match bindings with
    | [] -> (List.rev acc, cond)
    | (v, e) :: rest ->
      let uses_rest =
        List.fold_left
          (fun (s, u) (w, e') ->
            let s', u' = count_uses v e' in
            (* A use inside a protected (aggregate let) binding changes
               grouping if inlined: count it as unsafe. *)
            if List.mem w protect then (s, u + s' + u') else (s + s', u + u'))
          (0, 0) rest
      in
      let s_c, u_c = count_uses v cond in
      let safe = fst uses_rest + s_c and unsafe = snd uses_rest + u_c in
      let repl = match e with Q.Xp x -> Some x | _ -> None in
      (match repl with
       | Some x when safe = 1 && unsafe = 0 && not (List.mem v protect) ->
         let rest = List.map (fun (w, e') -> (w, q_subst v x e')) rest in
         let cond = q_subst v x cond in
         loop acc rest cond
       | _ -> loop ((v, e) :: acc) rest cond)
  in
  loop [] bindings cond

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let conj = function
  | [] -> Q.Call ("true", [])
  | [ c ] -> c
  | c :: cs -> List.fold_left (fun a b -> Q.Binop (XP.And, a, b)) c cs

let denial mapping (d : T.denial) : Q.expr =
  (match T.denial_vars d with _ -> ());
  let occurs = var_occurrences d in
  let st = { defined = []; bindings = []; conds = [] } in
  let counter = ref 0 in
  let aggs = ref [] in
  (* Terms denoting nodes (atom ids and parents): comparisons between two
     of them are node-identity tests, not string comparisons. *)
  let node_terms = Hashtbl.create 8 in
  List.iter
    (function
      | T.Rel a | T.Not a ->
        (match a.T.args with
         | id :: _ :: par :: _ ->
           Hashtbl.replace node_terms id ();
           Hashtbl.replace node_terms par ()
         | _ -> ())
      | _ -> ())
    d.T.body;
  let is_node_term t = Hashtbl.mem node_terms t in
  List.iter
    (fun l ->
      match l with
      | T.Rel a -> translate_rel st occurs mapping a
      | T.Not a -> translate_not st occurs mapping a
      | T.Cmp (op, t1, t2) ->
        (match (term_expr st t1, term_expr st t2) with
         | Some e1, Some e2 ->
           if (op = T.Eq || op = T.Neq) && is_node_term t1 && is_node_term t2
           then begin
             let same = Q.Call ("same-node", [ Q.Xp e1; Q.Xp e2 ]) in
             add_cond st (if op = T.Eq then same else Q.Call ("not", [ same ]))
           end
           else add_cond st (Q.Binop (xop op, Q.Xp e1, Q.Xp e2))
         | _ ->
           fail "comparison %s has unresolved operands (unsafe denial)"
             (T.lit_str l))
      | T.Agg g -> aggs := translate_agg st occurs mapping counter g :: !aggs)
    (sort_lits d.T.body);
  let bindings = List.rev st.bindings in
  let cond = conj (List.rev st.conds) in
  let bindings, cond = inline_bindings !aggs bindings cond in
  if !aggs = [] then begin
    match bindings with
    | [] -> cond
    | _ -> Q.Quant (Q.Some_, bindings, cond)
  end
  else begin
    let clauses =
      List.map
        (fun (v, e) ->
          if List.mem v !aggs then Q.Let (v, e) else Q.For (v, e))
        bindings
    in
    let where = match cond with Q.Call ("true", []) -> None | c -> Some c in
    Q.Call ("exists", [ Q.Flwor (clauses, where, Q.Elem ("idle", [])) ])
  end

let denials mapping ds =
  Xic_obs.Obs.Trace.with_span "translate"
    ~attrs:[ ("denials", string_of_int (List.length ds)) ]
    (fun () ->
      match List.map (denial mapping) ds with
      | [] -> Q.Call ("false", [])
      | [ e ] -> e
      | e :: es -> List.fold_left (fun a b -> Q.Binop (XP.Or, a, b)) e es)
