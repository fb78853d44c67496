open Xic_xml
module Symbol = Xic_symbol.Symbol

type value =
  | Nodes of Doc.node_id list
  | Strs of string list
  | Bool of bool
  | Num of float
  | Str of string

type env = (string * value) list

exception Eval_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Eval_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Step budget                                                         *)
(* ------------------------------------------------------------------ *)

exception Budget_exceeded

(* The remaining-steps counter, shared with the XQuery evaluator (which
   installs it through [with_budget] and ticks it for its own constructs).
   Separate from the Datalog evaluator's budget, so a Datalog budget
   does not meter an XQuery fallback.  No counter installed = unlimited
   evaluation. *)
let budget : int ref option ref = ref None

let tick n =
  match !budget with
  | None -> ()
  | Some r ->
    r := !r - n;
    if !r <= 0 then raise Budget_exceeded

let with_budget ~steps f =
  let saved = !budget in
  budget := Some (ref steps);
  Fun.protect ~finally:(fun () -> budget := saved) f

(* Measure the steps [f] consumes.  Under an installed budget the meter
   reads the counter around [f] (still enforcing the budget); otherwise
   it installs an effectively unlimited one, so metering never changes
   which evaluations succeed. *)
let with_meter f =
  match !budget with
  | Some r ->
    let before = !r in
    let v = f () in
    (v, before - !r)
  | None ->
    let r = ref max_int in
    budget := Some r;
    Fun.protect
      ~finally:(fun () -> budget := None)
      (fun () ->
        let v = f () in
        (v, max_int - !r))

(* ------------------------------------------------------------------ *)
(* Coercions                                                           *)
(* ------------------------------------------------------------------ *)

let boolean = function
  | Nodes ns -> ns <> []
  | Strs ss -> ss <> []
  | Bool b -> b
  | Num f -> f <> 0.0 && not (Float.is_nan f)
  | Str s -> s <> ""

let num_of_string s =
  match float_of_string_opt (String.trim s) with
  | Some f -> f
  | None -> Float.nan

let string_value doc = function
  | Nodes [] -> ""
  | Nodes (n :: _) -> Doc.text_content doc n
  | Strs [] -> ""
  | Strs (s :: _) -> s
  | Bool b -> if b then "true" else "false"
  | Num f ->
    if Float.is_integer f && Float.abs f < 1e15 then string_of_int (int_of_float f)
    else string_of_float f
  | Str s -> s

let number = function
  | Bool b -> if b then 1.0 else 0.0
  | Num f -> f
  | Str s -> num_of_string s
  | (Nodes _ | Strs _) as v ->
    (* number() of a node-set is the number of its string-value; callers
       pass the doc through [number_v] below when nodes are possible. *)
    (match v with
     | Nodes _ -> Float.nan
     | Strs (s :: _) -> num_of_string s
     | _ -> Float.nan)

let number_v doc v =
  match v with
  | Nodes _ | Strs _ -> num_of_string (string_value doc v)
  | _ -> number v

let item_strings doc = function
  | Nodes ns -> List.map (Doc.text_content doc) ns
  | Strs ss -> ss
  | (Bool _ | Num _ | Str _) as v -> [ string_value doc v ]

(* The paper's [Cnt_D] aggregate counts distinct Datalog term instances:
   an element selector binds its variable to a node identity, a text
   selector to the text value.  Mirror that here — element nodes are
   distinct by identity, every other item by its string value. *)
let distinct_count doc = function
  | Nodes ns ->
    let key n =
      if Doc.is_element doc n then `Id n else `Val (Doc.text_content doc n)
    in
    List.length (List.sort_uniq compare (List.map key ns))
  | v -> List.length (List.sort_uniq compare (item_strings doc v))

let is_seq = function Nodes _ | Strs _ -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Comparison                                                          *)
(* ------------------------------------------------------------------ *)

let cmp_scalar op a b =
  let open Ast in
  match op with
  | Eq -> a = b
  | Neq -> a <> b
  | Lt -> a < b
  | Le -> a <= b
  | Gt -> a > b
  | Ge -> a >= b
  | _ -> invalid_arg "cmp_scalar"

(* Compare two atomic string values under XPath 1.0 rules, with the
   documented lexicographic fallback for non-numeric ordering. *)
let cmp_strings op (a : string) (b : string) =
  let open Ast in
  match op with
  | Eq -> String.equal a b
  | Neq -> not (String.equal a b)
  | Lt | Le | Gt | Ge ->
    let na = num_of_string a and nb = num_of_string b in
    if Float.is_nan na || Float.is_nan nb then cmp_scalar op a b
    else cmp_scalar op na nb
  | _ -> invalid_arg "cmp_strings"

let compare_values doc op l r =
  let open Ast in
  let is_bool = function Bool _ -> true | _ -> false in
  if (op = Eq || op = Neq) && (is_bool l || is_bool r) then
    cmp_scalar op (boolean l) (boolean r)
  else if is_seq l || is_seq r then begin
    match (l, r) with
    | Num f, other ->
      List.exists (fun s -> cmp_scalar op f (num_of_string s)) (item_strings doc other)
    | other, Num f ->
      List.exists (fun s -> cmp_scalar op (num_of_string s) f) (item_strings doc other)
    | _ ->
      let ls = item_strings doc l and rs = item_strings doc r in
      List.exists (fun a -> List.exists (fun b -> cmp_strings op a b) rs) ls
  end
  else begin
    match (l, r) with
    | Num a, b -> cmp_scalar op a (number_v doc b)
    | a, Num b -> cmp_scalar op (number_v doc a) b
    | _ -> cmp_strings op (string_value doc l) (string_value doc r)
  end

(* ------------------------------------------------------------------ *)
(* Axes                                                                *)
(* ------------------------------------------------------------------ *)

let axis_nodes doc axis id =
  let open Ast in
  match axis with
  | Child -> Doc.children doc id
  | Descendant -> Doc.descendants doc id
  | Descendant_or_self -> Doc.descendant_or_self doc id
  | Parent ->
    let p = Doc.parent doc id in
    if p = Doc.no_node then [] else [ p ]
  | Ancestor -> Doc.ancestors doc id
  | Ancestor_or_self -> id :: Doc.ancestors doc id
  | Self -> [ id ]
  | Following_sibling -> Doc.following_siblings doc id
  | Preceding_sibling -> Doc.preceding_siblings doc id
  | Attribute -> []

(* Sorting discipline.  A node-set is [clean] when it is distinct, in
   document order, and free of ancestor/descendant pairs.  Forward axes
   from a clean set emit document order by construction; from an unclean
   set even the child axis can interleave (child::* of an ancestor
   contains another context node itself), so the union must be re-sorted.
   [needs_sort] and [result_clean] encode, per axis, whether the step's
   union requires sorting given the input's state and whether its result
   is clean again. *)
let needs_sort axis ~clean ~n_ctx =
  match axis with
  | Ast.Self | Ast.Attribute -> false
  | Ast.Child -> not clean
  | Ast.Descendant | Ast.Descendant_or_self -> not clean
  | Ast.Following_sibling | Ast.Preceding_sibling -> (not clean) || n_ctx > 1
  | Ast.Parent -> (not clean) || n_ctx > 1
  | Ast.Ancestor | Ast.Ancestor_or_self -> true

let result_clean axis ~clean ~n_ctx =
  match axis with
  | Ast.Self | Ast.Attribute -> clean
  | Ast.Child -> clean  (* children of non-overlapping parents never nest *)
  | Ast.Descendant | Ast.Descendant_or_self -> false
  | Ast.Following_sibling | Ast.Preceding_sibling -> clean && n_ctx = 1
  | Ast.Parent -> clean && n_ctx = 1
  | Ast.Ancestor | Ast.Ancestor_or_self -> false

(* A node test, staged: the tag of a name test is interned once at compile
   time, so the per-node check is an int comparison. *)
let compile_test (test : Ast.nodetest) : Doc.t -> Doc.node_id -> bool =
  match test with
  | Ast.Node_test -> fun _ _ -> true
  | Ast.Text_test -> fun doc id -> Doc.is_text doc id
  | Ast.Wildcard -> fun doc id -> Doc.is_element doc id
  | Ast.Name_test n ->
    let sym = Symbol.intern n in
    fun doc id -> Doc.is_element doc id && Symbol.equal (Doc.tag doc id) sym

(* ------------------------------------------------------------------ *)
(* Evaluation contexts                                                 *)
(* ------------------------------------------------------------------ *)

(* Child hops [c1/…/ck] below a candidate, then [text()] or [@a]. *)
type access_path = {
  hops : Symbol.t list;
  leaf : [ `Text | `Attr of Symbol.t ];
}

type prober = tag:Symbol.t -> access_path -> string -> Doc.node_id list option

type indexes = {
  tags : Index.t;
  probe : prober;
}

type ctxt = {
  doc : Doc.t;
  env : env;
  node : Doc.node_id;
  pos : int;   (* position() *)
  size : int;  (* last() *)
  idx : indexes option;
  bud : int ref option;  (* the installed budget, fetched once per run *)
}

(* Document-order sort through the index's rank table when one is
   attached ([Doc.sort_doc_order] walks every node to its root). *)
let sort_nodes ctx ids =
  match ctx.idx with
  | Some idx -> Index.sort_doc_order idx.tags ids
  | None -> Doc.sort_doc_order ctx.doc ids

let charge ctx n =
  match ctx.bud with
  | None -> ()
  | Some r ->
    r := !r - n;
    if !r <= 0 then raise Budget_exceeded

(* Compiled code: all AST dispatch, name interning and index-planning
   analysis happen once in [compile_expr]; running a plan only executes
   closures.  The interpreter entry points ([eval] etc.) compile and run
   in one go, so both routes share a single semantics by construction. *)
type compiled = ctxt -> value

(* ------------------------------------------------------------------ *)
(* Index planning helpers (compile-time analyses)                      *)
(* ------------------------------------------------------------------ *)

(* Whether a predicate could observe the context position: positional
   predicates must be applied per parent group, so the flat candidate
   lists coming out of an index are only usable for predicates that
   neither mention position()/last() nor can evaluate to a number (a
   numeric predicate value is itself a position test). *)
let rec mentions_position (e : Ast.expr) =
  match e with
  | Ast.Number _ | Ast.Literal _ | Ast.Var _ -> false
  | Ast.Neg a -> mentions_position a
  | Ast.Binop (_, a, b) -> mentions_position a || mentions_position b
  | Ast.Call (("position" | "last"), _) -> true
  | Ast.Call (_, args) -> List.exists mentions_position args
  | Ast.Path (start, steps) ->
    (match start with Ast.From e -> mentions_position e | Ast.Abs | Ast.Rel -> false)
    || List.exists (fun (s : Ast.step) -> List.exists mentions_position s.preds) steps

let positionless_pred (e : Ast.expr) =
  (not (mentions_position e))
  && (match e with
      | Ast.Binop ((Eq | Neq | Lt | Le | Gt | Ge | And | Or), _, _) -> true
      | Ast.Call
          ( ( "not" | "exists" | "empty" | "boolean" | "true" | "false"
            | "contains" | "starts-with" | "ends-with" ),
            _ ) -> true
      | Ast.Path _ -> true
      | _ -> false)

(* An expression whose value does not depend on the context node, so it can
   be evaluated once outside the candidate loop to drive an index probe. *)
let rec context_free (e : Ast.expr) =
  match e with
  | Ast.Literal _ | Ast.Var _ | Ast.Number _ -> true
  | Ast.Neg a -> context_free a
  | Ast.Binop (_, a, b) -> context_free a && context_free b
  | Ast.Call (("position" | "last" | "string" | "number" | "string-length"), []) ->
    false
  | Ast.Call (_, args) -> List.for_all context_free args
  | Ast.Path (Ast.From e, steps) ->
    context_free e
    && List.for_all (fun (s : Ast.step) -> s.preds = []) steps
  | Ast.Path (Ast.Abs, steps) ->
    List.for_all (fun (s : Ast.step) -> s.preds = []) steps
  | Ast.Path (Ast.Rel, _) -> false

(* ------------------------------------------------------------------ *)
(* Access-path probes (shared with the XQuery planner)                 *)
(* ------------------------------------------------------------------ *)

(* The hops and leaf of a probe-able step list, names not yet interned. *)
let rec path_shape = function
  | [ { Ast.axis = Ast.Child; test = Ast.Text_test; preds = [] } ] -> Some ([], `Text)
  | [ { Ast.axis = Ast.Attribute; test = Ast.Name_test a; preds = [] } ] ->
    Some ([], `Attr a)
  | { Ast.axis = Ast.Child; test = Ast.Name_test c; preds = [] } :: (_ :: _ as rest) ->
    Option.map (fun (hops, leaf) -> (c :: hops, leaf)) (path_shape rest)
  | _ -> None

let make_access_path (hops, leaf) =
  let leaf = match leaf with `Text -> `Text | `Attr a -> `Attr (Symbol.intern a) in
  { hops = List.map Symbol.intern hops; leaf }

let access_path steps = Option.map make_access_path (path_shape steps)

(* Every non-root element tagged [tag] whose access path has a string
   value among the items of [v], one probe per item.  The prober proves
   the path exactly, so a caller need not re-test it; several keys can
   yield a candidate twice, and a prober answers in no particular order,
   hence the sort. *)
let probe doc idx ~tag ~ordered path v =
  match v with
  | Num _ | Bool _ -> None  (* they do not compare by string value *)
  | v ->
    let rec gather acc = function
      | [] -> Some acc
      | key :: rest ->
        (match idx.probe ~tag path key with
         | None -> None
         | Some ids ->
           Index.note_hit ();
           gather (List.rev_append ids acc) rest)
    in
    Option.map
      (fun hits ->
        let hits = List.filter (fun id -> Doc.parent doc id <> Doc.no_node) hits in
        if ordered then Index.sort_doc_order idx.tags hits
        else List.sort_uniq Int.compare hits)
      (gather [] (item_strings doc v))

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

let rec compile_expr (e : Ast.expr) : compiled =
  let open Ast in
  match e with
  | Literal s ->
    let v = Str s in
    fun ctx -> charge ctx 1; v
  | Number f ->
    let v = Num f in
    fun ctx -> charge ctx 1; v
  | Var v ->
    fun ctx ->
      charge ctx 1;
      (match List.assoc_opt v ctx.env with
       | Some value -> value
       | None -> fail "unbound variable $%s" v)
  | Neg e ->
    let c = compile_expr e in
    fun ctx -> charge ctx 1; Num (-.number_v ctx.doc (c ctx))
  | Binop (And, a, b) ->
    let ca = compile_expr a and cb = compile_expr b in
    fun ctx -> charge ctx 1; Bool (boolean (ca ctx) && boolean (cb ctx))
  | Binop (Or, a, b) ->
    let ca = compile_expr a and cb = compile_expr b in
    fun ctx -> charge ctx 1; Bool (boolean (ca ctx) || boolean (cb ctx))
  | Binop (Union, a, b) ->
    let ca = compile_expr a and cb = compile_expr b in
    fun ctx ->
      charge ctx 1;
      (match (ca ctx, cb ctx) with
       | Nodes xs, Nodes ys -> Nodes (sort_nodes ctx (xs @ ys))
       | Strs xs, Strs ys -> Strs (xs @ ys)
       | _ -> fail "union of non node-sets")
  | Binop (((Eq | Neq | Lt | Le | Gt | Ge) as op), a, b) ->
    let ca = compile_expr a and cb = compile_expr b in
    fun ctx -> charge ctx 1; Bool (compare_values ctx.doc op (ca ctx) (cb ctx))
  | Binop (((Add | Sub | Mul | Div | Mod) as op), a, b) ->
    let ca = compile_expr a and cb = compile_expr b in
    let op_fn =
      match op with
      | Add -> ( +. )
      | Sub -> ( -. )
      | Mul -> ( *. )
      | Div -> ( /. )
      | Mod -> Float.rem
      | _ -> assert false
    in
    fun ctx ->
      charge ctx 1;
      Num (op_fn (number_v ctx.doc (ca ctx)) (number_v ctx.doc (cb ctx)))
  | Call (f, args) -> compile_call f args
  | Path (Abs, steps) -> compile_abs steps
  | Path (Rel, steps) ->
    let cs = compile_steps steps in
    fun ctx -> charge ctx 1; cs ctx false (Nodes [ ctx.node ])
  | Path (From e, steps) ->
    let ce = compile_expr e and cs = compile_steps steps in
    fun ctx -> charge ctx 1; cs ctx false (ce ctx)

(* Absolute paths start at the (virtual) document node, whose only child is
   the root element.  The first step is resolved specially; the rest
   proceed as usual.  Which variant runs is decided per evaluation on
   whether an index is attached to the context, so one plan serves both
   the scan and the indexed route. *)
and compile_abs steps : compiled =
  let open Ast in
  match steps with
  | [] -> fun ctx -> charge ctx 1; Nodes (Doc.roots ctx.doc)
  | first :: { axis = Child; preds = []; test } :: rest when first = desc_step ->
    (* The [//x] desugaring without predicates: child::x of
       descendant-or-self::node() is exactly the non-root descendants
       matching the test — already distinct and in document order, no
       re-sort needed.  Under an index a name test is answered from the
       tag table minus the roots (a child step never yields a root). *)
    let tf = compile_test test in
    let crest = compile_steps rest in
    let scan ctx =
      let matches =
        List.concat_map
          (fun r -> List.filter (tf ctx.doc) (Doc.descendants ctx.doc r))
          (Doc.roots ctx.doc)
      in
      charge ctx (List.length matches);
      crest ctx false (Nodes matches)
    in
    (match test with
     | Name_test tag ->
       let sym = Symbol.intern tag in
       fun ctx ->
         charge ctx 1;
         (match ctx.idx with
          | Some idx ->
            let matches = Index.descendants_named idx.tags sym in
            charge ctx (1 + List.length matches);
            crest ctx false (Nodes matches)
          | None -> scan ctx)
     | _ -> fun ctx -> charge ctx 1; scan ctx)
  | first :: { axis = Child; preds = _ :: _ as preds; test = Name_test tag } :: rest
    when first = desc_step && List.for_all positionless_pred preds ->
    (* Indexed [//tag[preds]]: when some equality predicate can be served
       by a value probe, probe it, then re-check the other predicates on
       the survivors; when the prober declines, re-check every predicate
       on the tag table's candidates.  Positionless predicates make the
       flat candidate list safe — see [positionless_pred]. *)
    let sym = Symbol.intern tag in
    let cpreds = List.map compile_expr preds in
    let cprobe, cothers =
      match compile_pred_probe preds with
      | Some (p, others) -> (Some p, List.map compile_expr others)
      | None -> (None, [])
    in
    let crest = compile_steps rest in
    let generic = compile_abs_generic steps in
    fun ctx ->
      charge ctx 1;
      (match ctx.idx with
       | None -> generic ctx
       | Some idx ->
         let probed =
           match cprobe with
           | Some (path, ccomp) ->
             probe ctx.doc idx ~tag:sym ~ordered:true path (ccomp ctx)
           | None -> None
         in
         (match probed with
          | Some ids ->
            (* the probe decides its predicate exactly, so only the
               remaining predicates are re-checked *)
            charge ctx (1 + List.length ids);
            crest ctx false (Nodes (run_preds ctx ids cothers))
          | None ->
            Index.note_fallback ();
            let candidates = Index.descendants_named idx.tags sym in
            charge ctx (1 + List.length candidates);
            crest ctx false (Nodes (run_preds ctx candidates cpreds))))
  | _ ->
    let c = compile_abs_generic steps in
    fun ctx -> charge ctx 1; c ctx

and compile_abs_generic steps : ctxt -> value =
  let open Ast in
  match steps with
  | [] -> fun ctx -> Nodes (Doc.roots ctx.doc)
  | step :: rest ->
    let tf = compile_test step.test in
    let cpreds = List.map compile_expr step.preds in
    let crest = compile_steps rest in
    let candidates_of =
      match step.axis with
      | Child -> fun ctx -> Doc.roots ctx.doc
      | Descendant | Descendant_or_self ->
        fun ctx -> List.concat_map (Doc.descendant_or_self ctx.doc) (Doc.roots ctx.doc)
      | Self ->
        if step.test = Node_test then fun ctx -> Doc.roots ctx.doc else fun _ -> []
      | Parent | Ancestor | Ancestor_or_self | Attribute
      | Following_sibling | Preceding_sibling -> fun _ -> []
    in
    (* child-of-document-node results (the roots) are clean; descendant
       results overlap *)
    let clean = match step.axis with Child | Self -> true | _ -> false in
    fun ctx ->
      let filtered = List.filter (tf ctx.doc) (candidates_of ctx) in
      let filtered = run_preds ctx filtered cpreds in
      crest ctx clean (Nodes filtered)

(* Find one predicate that a value probe can serve.  The supported shapes,
   with [V] a context-free string-valued comparand and either operand
   order:

     [c1/…/ck/text() = V], [c1/…/ck/@a = V]   an access path (k >= 0)
     [c [inner]]                             existence of a child
                                             satisfying a probeable
                                             [inner] (recursively)

   The probe proves the predicate exactly (see [probe]), so the caller
   re-applies only the *other* predicates — returned as the second
   component — to the survivors.  Names are interned and the comparand
   compiled once, at compile time. *)
and compile_pred_probe preds =
  let classify = function
    | Ast.Path (Ast.Rel, steps) -> path_shape steps
    | _ -> None
  in
  let rec probe_of = function
    | Ast.Binop (Ast.Eq, a, b) ->
      (match (classify a, classify b) with
       | Some hl, None when context_free b -> Some (hl, b)
       | None, Some hl when context_free a -> Some (hl, a)
       | _ -> None)
    | Ast.Path
        (Ast.Rel, [ { Ast.axis = Ast.Child; test = Ast.Name_test c; preds = [ q ] } ])
      -> Option.map (fun ((hops, leaf), comp) -> ((c :: hops, leaf), comp)) (probe_of q)
    | _ -> None
  in
  let rec first_probe acc = function
    | [] -> None
    | p :: rest ->
      (match probe_of p with
       | Some pr -> Some (pr, List.rev_append acc rest)
       | None -> first_probe (p :: acc) rest)
  in
  match first_probe [] preds with
  | None -> None
  | Some ((shape, comparand), others) ->
    Some ((make_access_path shape, compile_expr comparand), others)

and compile_call f args : compiled =
  let carr = Array.of_list (List.map compile_expr args) in
  let nargs = Array.length carr in
  let arg ctx i =
    if i < nargs then carr.(i) ctx else fail "%s: missing argument %d" f (i + 1)
  in
  let body : ctxt -> value =
    match (f, nargs) with
    | "position", 0 -> fun ctx -> Num (float_of_int ctx.pos)
    | "position-of", 1 ->
      (* Position of a node among its parent's element children; this is the
         [Pos] column of the relational mapping (DESIGN.md).  The paper's
         generated queries write [$x/position()] for the same thing. *)
      fun ctx ->
        (match arg ctx 0 with
         | Nodes (n :: _) -> Num (float_of_int (Doc.position ctx.doc n))
         | Nodes [] -> Num Float.nan
         | _ -> fail "position-of: expected a node-set")
    | "last", 0 -> fun ctx -> Num (float_of_int ctx.size)
    | "count", 1 ->
      fun ctx ->
        (match arg ctx 0 with
         | Nodes ns -> Num (float_of_int (List.length ns))
         | Strs ss -> Num (float_of_int (List.length ss))
         | _ -> fail "count: expected a node-set")
    | "count-distinct", 1 ->
      (* The translation of the paper's Cnt_D aggregate. *)
      fun ctx -> Num (float_of_int (distinct_count ctx.doc (arg ctx 0)))
    | "exists", 1 ->
      fun ctx ->
        (match arg ctx 0 with
         | Nodes ns -> Bool (ns <> [])
         | Strs ss -> Bool (ss <> [])
         | v -> Bool (boolean v))
    | "empty", 1 -> fun ctx -> Bool (not (boolean (arg ctx 0)))
    | "not", 1 -> fun ctx -> Bool (not (boolean (arg ctx 0)))
    | "true", 0 -> fun _ -> Bool true
    | "false", 0 -> fun _ -> Bool false
    | "boolean", 1 -> fun ctx -> Bool (boolean (arg ctx 0))
    | "number", 1 -> fun ctx -> Num (number_v ctx.doc (arg ctx 0))
    | "number", 0 -> fun ctx -> Num (num_of_string (Doc.text_content ctx.doc ctx.node))
    | "string", 1 -> fun ctx -> Str (string_value ctx.doc (arg ctx 0))
    | "string", 0 -> fun ctx -> Str (Doc.text_content ctx.doc ctx.node)
    | "name", 0 ->
      fun ctx ->
        Str (if Doc.is_element ctx.doc ctx.node then Doc.name ctx.doc ctx.node else "")
    | "name", 1 ->
      fun ctx ->
        (match arg ctx 0 with
         | Nodes (n :: _) when Doc.is_element ctx.doc n -> Str (Doc.name ctx.doc n)
         | Nodes _ -> Str ""
         | _ -> fail "name: expected a node-set")
    | "concat", n when n >= 2 ->
      fun ctx ->
        Str
          (String.concat ""
             (List.map (fun c -> string_value ctx.doc (c ctx)) (Array.to_list carr)))
    | "contains", 2 ->
      fun ctx ->
        let hay = string_value ctx.doc (arg ctx 0)
        and needle = string_value ctx.doc (arg ctx 1) in
        let rec search i =
          if i + String.length needle > String.length hay then false
          else if String.sub hay i (String.length needle) = needle then true
          else search (i + 1)
        in
        Bool (search 0)
    | "starts-with", 2 ->
      fun ctx ->
        let s = string_value ctx.doc (arg ctx 0)
        and p = string_value ctx.doc (arg ctx 1) in
        Bool
          (String.length p <= String.length s && String.sub s 0 (String.length p) = p)
    | "string-length", 1 ->
      fun ctx -> Num (float_of_int (String.length (string_value ctx.doc (arg ctx 0))))
    | "string-length", 0 ->
      fun ctx ->
        Num (float_of_int (String.length (Doc.text_content ctx.doc ctx.node)))
    | "sum", 1 ->
      fun ctx ->
        (match arg ctx 0 with
         | Nodes ns ->
           Num
             (List.fold_left
                (fun a n -> a +. num_of_string (Doc.text_content ctx.doc n))
                0.0 ns)
         | Strs ss -> Num (List.fold_left (fun a s -> a +. num_of_string s) 0.0 ss)
         | v -> Num (number_v ctx.doc v))
    | "floor", 1 -> fun ctx -> Num (Float.floor (number_v ctx.doc (arg ctx 0)))
    | "ceiling", 1 -> fun ctx -> Num (Float.ceil (number_v ctx.doc (arg ctx 0)))
    | "round", 1 -> fun ctx -> Num (Float.round (number_v ctx.doc (arg ctx 0)))
    | "normalize-space", 1 ->
      fun ctx ->
        let s = string_value ctx.doc (arg ctx 0) in
        Str (String.concat " " (String.split_on_char ' ' s |> List.filter (( <> ) "")))
    | "substring", (2 | 3) ->
      (* XPath 1.0 semantics with 1-based rounding positions *)
      fun ctx ->
        let s = string_value ctx.doc (arg ctx 0) in
        let start = Float.round (number_v ctx.doc (arg ctx 1)) in
        let len =
          if nargs = 3 then Float.round (number_v ctx.doc (arg ctx 2))
          else Float.of_int (String.length s) +. 1.0 -. start
        in
        if Float.is_nan start || Float.is_nan len then Str ""
        else begin
          let first = max 1 (int_of_float start) in
          let last = int_of_float (start +. len) - 1 in
          let last = min last (String.length s) in
          if last < first then Str ""
          else Str (String.sub s (first - 1) (last - first + 1))
        end
    | "substring-before", 2 | "substring-after", 2 ->
      fun ctx ->
        let s = string_value ctx.doc (arg ctx 0)
        and sep = string_value ctx.doc (arg ctx 1) in
        let n = String.length s and m = String.length sep in
        let rec find i =
          if i + m > n then None
          else if String.sub s i m = sep then Some i
          else find (i + 1)
        in
        (match find 0 with
         | None -> Str ""
         | Some i ->
           if f = "substring-before" then Str (String.sub s 0 i)
           else Str (String.sub s (i + m) (n - i - m)))
    | "translate", 3 ->
      fun ctx ->
        let s = string_value ctx.doc (arg ctx 0) in
        let from = string_value ctx.doc (arg ctx 1)
        and to_ = string_value ctx.doc (arg ctx 2) in
        let b = Buffer.create (String.length s) in
        String.iter
          (fun c ->
            match String.index_opt from c with
            | None -> Buffer.add_char b c
            | Some i -> if i < String.length to_ then Buffer.add_char b to_.[i])
          s;
        Str (Buffer.contents b)
    | "upper-case", 1 ->
      fun ctx -> Str (String.uppercase_ascii (string_value ctx.doc (arg ctx 0)))
    | "lower-case", 1 ->
      fun ctx -> Str (String.lowercase_ascii (string_value ctx.doc (arg ctx 0)))
    | "string-join", 2 ->
      fun ctx ->
        let items = item_strings ctx.doc (arg ctx 0) in
        Str (String.concat (string_value ctx.doc (arg ctx 1)) items)
    | "ends-with", 2 ->
      fun ctx ->
        let s = string_value ctx.doc (arg ctx 0)
        and p = string_value ctx.doc (arg ctx 1) in
        let n = String.length s and m = String.length p in
        Bool (m <= n && String.sub s (n - m) m = p)
    | _, n -> fun _ -> fail "unknown function %s/%d" f n
  in
  fun ctx -> charge ctx 1; body ctx

and compile_steps (steps : Ast.step list) : ctxt -> bool -> value -> value =
  match steps with
  | [] -> fun _ _ v -> v
  | step :: rest ->
    let cstep = compile_one_step step in
    let crest = compile_steps rest in
    fun ctx clean v ->
      (match v with
       | Nodes ns ->
         let v', clean' = cstep ctx clean ns in
         crest ctx clean' v'
       | Strs _ -> fail "cannot apply a step to attribute values"
       | _ -> fail "cannot apply a step to a non node-set")

and compile_one_step (step : Ast.step) : ctxt -> bool -> Doc.node_id list -> value * bool =
  if step.axis = Ast.Attribute then begin
    (* The attribute axis yields string items. *)
    let getter =
      match step.test with
      | Ast.Name_test n ->
        let sym = Symbol.intern n in
        fun ctx id ->
          (match Doc.attr_sym ctx.doc id sym with Some v -> [ v ] | None -> [])
      | Ast.Wildcard | Ast.Node_test ->
        fun ctx id -> List.map snd (Doc.attrs_sym ctx.doc id)
      | Ast.Text_test -> fun _ _ -> []
    in
    let has_preds = step.preds <> [] in
    fun ctx _clean ns ->
      let vals =
        List.concat_map
          (fun id -> if not (Doc.is_element ctx.doc id) then [] else getter ctx id)
          ns
      in
      if has_preds then fail "predicates on the attribute axis are not supported";
      (Strs vals, false)
  end
  else begin
    let tf = compile_test step.test in
    let cpreds = List.map compile_expr step.preds in
    let axis = step.axis in
    fun ctx clean ns ->
      let per_node id =
        let candidates = List.filter (tf ctx.doc) (axis_nodes ctx.doc axis id) in
        charge ctx (1 + List.length candidates);
        run_preds ctx candidates cpreds
      in
      let n_ctx = List.length ns in
      let clean = clean || n_ctx <= 1 in
      let result = List.concat_map per_node ns in
      let result =
        if needs_sort axis ~clean ~n_ctx then sort_nodes ctx result else result
      in
      (Nodes result, result_clean axis ~clean ~n_ctx)
  end

and run_preds ctx nodes = function
  | [] -> nodes
  | p :: rest ->
    let size = List.length nodes in
    let keep =
      List.filteri
        (fun i id ->
          let ctx' = { ctx with node = id; pos = i + 1; size } in
          match p ctx' with
          | Num f -> Float.equal f (float_of_int (i + 1))
          | v -> boolean v)
        nodes
    in
    run_preds ctx keep rest

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let initial_ctx doc env ctx_node index =
  let node =
    match ctx_node with
    | Some n -> n
    | None -> if Doc.has_root doc then Doc.root doc else Doc.no_node
  in
  { doc; env; node; pos = 1; size = 1; idx = index;
    bud = !budget }

let compile e = compile_expr e

let run doc ?(env = []) ?ctx ?index code = code (initial_ctx doc env ctx index)

let eval doc ?(env = []) ?ctx ?index e = run doc ~env ?ctx ?index (compile_expr e)

let select doc ?env ?ctx ?index e =
  match eval doc ?env ?ctx ?index e with
  | Nodes ns -> ns
  | _ -> fail "expected a node-set result for %s" (Ast.to_string e)
