open Xic_xml
module XE = Xic_xpath.Eval
module XP = Xic_xpath.Ast
module Symbol = Xic_symbol.Symbol
module Obs = Xic_obs.Obs

(* Candidate/probe accounting for the observability layer, gated on
   [Obs.Metrics.detailed] because binding enumerations sit on the hot
   path of every check.  Each enumeration contributes [1 + length] to
   the candidate count (the production of the candidate sequence itself
   is a candidate-set event, matching the step accounting of [XE.tick]),
   and every index probe corresponds to exactly one enumeration event,
   so [eval_index_probes <= eval_candidates] holds by construction —
   the differential oracle asserts exactly that invariant. *)
let c_probes = Obs.Metrics.counter "eval_index_probes"
let c_candidates = Obs.Metrics.counter "eval_candidates"
let c_eval_steps = Obs.Metrics.counter "eval_steps"

let note_candidates l =
  if !Obs.Metrics.detailed then
    Obs.Metrics.add c_candidates (1 + List.length l)

let note_probe () = if !Obs.Metrics.detailed then Obs.Metrics.incr c_probes

type value = XE.value

exception Eval_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Eval_error s)) fmt

(* Evaluation context: the document plus its (optional) secondary
   indexes.  The planner below consults the indexes to narrow quantifier
   and FLWOR bindings; the XPath evaluator receives them for its own fast
   paths. *)
type cx = {
  doc : Doc.t;
  idx : Index.t option;
}

(* Split a sequence value into the items bound one by one by [for] and
   quantifier variables. *)
let items (v : value) : value list =
  match v with
  | XE.Nodes ns -> List.map (fun n -> XE.Nodes [ n ]) ns
  | XE.Strs ss -> List.map (fun s -> XE.Str s) ss
  | XE.Bool _ | XE.Num _ | XE.Str _ -> [ v ]

let rec seq_append (a : value) (b : value) : value =
  match (a, b) with
  | XE.Nodes [], v | v, XE.Nodes [] -> v
  | XE.Strs [], v | v, XE.Strs [] -> v
  | XE.Nodes xs, XE.Nodes ys -> XE.Nodes (xs @ ys)
  | XE.Strs xs, XE.Strs ys -> XE.Strs (xs @ ys)
  | a, b ->
    (* Heterogeneous sequences degrade to their string items; only
       emptiness and comparison are observable in the generated queries. *)
    XE.Strs (string_items a @ string_items b)

and string_items = function
  | XE.Nodes ns -> List.map string_of_int ns
  | XE.Strs ss -> ss
  | XE.Bool b -> [ string_of_bool b ]
  | XE.Num f -> [ string_of_float f ]
  | XE.Str s -> [ s ]

let empty_seq : value = XE.Strs []

let with_budget = XE.with_budget
let with_meter = XE.with_meter

(* ------------------------------------------------------------------ *)
(* Planner: the plan [compile] builds and [describe] prints            *)
(* ------------------------------------------------------------------ *)

(* Top-level conjuncts of a condition. *)
let conjuncts e =
  let rec go acc = function
    | Ast.Binop (XP.And, a, b) -> go (go acc b) a
    | e -> e :: acc
  in
  go [] e

(* Every variable name referenced anywhere in an expression, nested scopes
   included.  Used to decide the earliest quantifier depth at which a
   conjunct can be evaluated; counting shadowed inner uses as references
   only delays a conjunct, never evaluates it too early, so the
   over-approximation is sound. *)
let rec xp_vars acc (e : XP.expr) =
  match e with
  | XP.Var v -> v :: acc
  | XP.Literal _ | XP.Number _ -> acc
  | XP.Neg a -> xp_vars acc a
  | XP.Binop (_, a, b) -> xp_vars (xp_vars acc a) b
  | XP.Call (_, args) -> List.fold_left xp_vars acc args
  | XP.Path (start, steps) ->
    let acc = match start with XP.From e -> xp_vars acc e | XP.Abs | XP.Rel -> acc in
    List.fold_left
      (fun acc (s : XP.step) -> List.fold_left xp_vars acc s.preds)
      acc steps

let rec expr_vars acc (e : Ast.expr) =
  match e with
  | Ast.Xp x -> xp_vars acc x
  | Ast.Param _ -> acc
  | Ast.Seq es -> List.fold_left expr_vars acc es
  | Ast.Binop (_, a, b) -> expr_vars (expr_vars acc a) b
  | Ast.If (c, t, f) -> expr_vars (expr_vars (expr_vars acc c) t) f
  | Ast.Elem (_, body) -> List.fold_left expr_vars acc body
  | Ast.Quant (_, binds, cond) ->
    let acc = List.fold_left (fun acc (_, e) -> expr_vars acc e) acc binds in
    expr_vars acc cond
  | Ast.Flwor (clauses, where, ret) ->
    let acc =
      List.fold_left
        (fun acc cl ->
          match cl with Ast.For (_, e) | Ast.Let (_, e) -> expr_vars acc e)
        acc clauses
    in
    let acc = match where with None -> acc | Some w -> expr_vars acc w in
    expr_vars acc ret
  | Ast.Call (_, args) -> List.fold_left expr_vars acc args

(* A binding source of the generated [//tag] shape. *)
let binding_tag = function
  | Ast.Xp
      (XP.Path
         (XP.Abs, [ d; { XP.axis = XP.Child; test = XP.Name_test tag; preds = [] } ]))
    when d = XP.desc_step -> Some tag
  | _ -> None

(* How one quantifier or [for] binding enumerates its candidates. *)
type narrowing =
  | Scan  (* the source is not [//tag]: enumerate it *)
  | Tag of string  (* [//tag] with no probe-able conjunct: a fallback *)
  | Probe of {
      tag : string;
      path : Ast.expr;  (* the probed operand, [$v/c1/…/ck/text()] or [@a] *)
      access : XE.access_path;
      comparand : Ast.expr;
    }

(* A [//tag] binding of [v] probes through the first conjunct, in source
   order, that equates an access path of [$v] with a comparand mentioning
   none of [later] — [v] itself and the variables bound after it, which
   are unbound when the candidates are enumerated. *)
let plan_narrow ~later v src conjs =
  match binding_tag src with
  | None -> Scan
  | Some tag ->
    let probe path comparand =
      match path with
      | Ast.Xp (XP.Path (XP.From (XP.Var v'), steps))
        when v' = v
             && not (List.exists (fun x -> List.mem x later) (expr_vars [] comparand))
        ->
        Option.map
          (fun access -> Probe { tag; path; access; comparand })
          (XE.access_path steps)
      | _ -> None
    in
    let of_conj = function
      | Ast.Binop (XP.Eq, a, b) ->
        (match probe a b with Some p -> Some p | None -> probe b a)
      | _ -> None
    in
    Option.value (List.find_map of_conj conjs) ~default:(Tag tag)

(* A comparison operand of a scheduled conjunct: evaluated in place, or
   read from the slot a shallower binding depth filled. *)
type operand_plan =
  | Inline of Ast.expr
  | Slot of int

type test_plan = {
  level : int;  (* binding depth at which the conjunct is tested *)
  conj : Ast.expr;
  cmp : (XP.binop * operand_plan * operand_plan) option;
      (* a comparison with a hoisted operand *)
}

type some_plan = {
  binds : (string * Ast.expr * narrowing) list;
  hoists : (int * Ast.expr) list;  (* per slot: depth, operand *)
  tests : test_plan list;  (* in source order *)
  join : (int * Ast.expr) option;
      (* innermost hash join: the outer operand's slot, the key *)
}

(* Existential quantifier planning.  Beyond per-binding index narrowing,
   the plan schedules each top-level conjunct of the condition at the
   earliest binding depth where every quantified variable it mentions is
   bound, and hoists comparison operands that only depend on shallower
   bindings into slots.  So

     some $r in //rev, $a in //aut satisfies p($r) and q($r, $a)

   tests [p] once per [$r] instead of once per [($r, $a)] pair, and the
   [$r]-only operand of [q] is computed once per [$r] rather than per
   pair.  Pruning on a failed conjunct is sound for existential
   semantics (the conjunction cannot hold for any deeper extension), and
   the schedule is monotone, so conjuncts keep their source order on
   every root-to-leaf path.

   Innermost-level equality join: when the FIRST conjunct tested at the
   deepest binding is [slot = f($vn)] (either operand order) with [f]
   mentioning only the deepest variable, and that binding's source is
   closed (no free variables), the deepest loop becomes a hash probe —
   every candidate keyed by [f] once per evaluation, each outer tuple's
   slot value looked up instead of scanning all candidates.  Restricting
   to the first test keeps error behavior identical: a sequential
   evaluation of a skipped candidate would have started (and stopped) at
   that same false conjunct.  Only a quantifier with two or more
   bindings joins: a single binding has one outer tuple, so the table
   could never pay for itself, while its narrowing answers the same
   conjunct with one index probe. *)
let plan_some binds cond =
  let conjs = conjuncts cond in
  let names = List.map fst binds in
  let n = List.length binds in
  (* depth at which a variable is (last) bound; 0 = not bound here *)
  let level_of_var v =
    let rec go i lvl = function
      | [] -> lvl
      | name :: rest -> go (i + 1) (if String.equal name v then i else lvl) rest
    in
    go 1 0 names
  in
  let level_of_expr e =
    List.fold_left (fun m v -> max m (level_of_var v)) 0 (expr_vars [] e)
  in
  let rec plan_binds later = function
    | [] -> []
    | (v, src) :: rest ->
      (v, src, plan_narrow ~later v src conjs) :: plan_binds (List.tl later) rest
  in
  let hoists = ref [] in
  let hoist lvl e =
    hoists := (lvl, e) :: !hoists;
    Slot (List.length !hoists - 1)
  in
  let vn = List.nth names (n - 1) in
  let vn_pure e = List.for_all (String.equal vn) (expr_vars [] e) in
  let prev = ref 0 and innermost = ref 0 and join = ref None in
  let plan_test conj =
    let level = max (level_of_expr conj) !prev in
    prev := level;
    let cmp =
      match conj with
      | Ast.Binop (((XP.Eq | Neq | Lt | Le | Gt | Ge) as op), a, b) ->
        let la = level_of_expr a and lb = level_of_expr b in
        if la < level || lb < level then begin
          let oa = if la < level then hoist la a else Inline a in
          let ob = if lb < level then hoist lb b else Inline b in
          (if op = XP.Eq && level = n && n >= 2 && !innermost = 0 then
             match (oa, ob) with
             | Slot s, Inline key when vn_pure key -> join := Some (s, key)
             | Inline key, Slot s when vn_pure key -> join := Some (s, key)
             | _ -> ());
          Some (op, oa, ob)
        end
        else None
      | _ -> None
    in
    if level = n then incr innermost;
    { level; conj; cmp }
  in
  let tests = List.rev (List.fold_left (fun acc c -> plan_test c :: acc) [] conjs) in
  let closed = expr_vars [] (snd (List.nth binds (n - 1))) = [] in
  { binds = plan_binds names binds;
    hoists = List.rev !hoists;
    tests;
    join = (if closed then !join else None) }

(* The narrowing of each [for] clause of a FLWOR by the top-level
   conjuncts of its [where] ([Scan] for a [let], which binds no items).
   Narrowing is sound for any return shape: a dropped tuple fails the
   [where] and contributes nothing to the result sequence. *)
let plan_flwor clauses where =
  let wconjs = match where with None -> [] | Some w -> conjuncts w in
  let rec go = function
    | [] -> []
    | (Ast.For (v, src) as cl) :: rest ->
      let later =
        List.map (function Ast.For (x, _) | Ast.Let (x, _) -> x) (cl :: rest)
      in
      (cl, plan_narrow ~later v src wconjs) :: go rest
    | (Ast.Let _ as cl) :: rest -> (cl, Scan) :: go rest
  in
  go clauses

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

(* Compiled code, as in the XPath evaluator: one AST walk at compile time
   interns every name, resolves every narrowing plan and pre-compiles the
   embedded XPath expressions; running a plan only executes closures.
   [eval] below is [compile] + [run], one semantics for both routes. *)
type code = cx -> XE.env -> value

(* A binding's narrowing, compiled: names interned, comparand compiled. *)
type narrow_plan =
  | N_never  (* source is not [//tag]: enumerate, no fallback noted *)
  | N_fallback  (* [//tag] but no probe-able conjunct *)
  | N_probe of Symbol.t * XE.access_path * code  (* tag, path, comparand *)

(* A scheduled conjunct test of an existential quantifier (see
   [plan_some]): either the plain compiled conjunct, or a comparison
   whose operands may have been pre-evaluated into slots at a shallower
   binding depth (the plain conjunct rides along as the fallback when a
   pre-evaluation failed). *)
type operand =
  | O_slot of int
  | O_code of code

type test =
  | T_plain of (cx -> XE.env -> bool)
  | T_cmp of XP.binop * operand * operand * (cx -> XE.env -> bool)

(* Per-evaluation state of the innermost-level equality join (see
   [plan_some]): the key table is built on first arrival at the
   deepest binding and reused across every outer tuple; the join is
   disabled for the whole evaluation when any candidate's key fails to
   evaluate to a string-valued sequence. *)
type jstate =
  | J_unbuilt
  | J_disabled
  | J_table of (string, value list) Hashtbl.t

let rec compile_expr (e : Ast.expr) : code =
  match e with
  | Ast.Xp x ->
    let cx_code = XE.compile x in
    fun cx env ->
      XE.tick 1;
      (try XE.run cx.doc ~env ~ctx:(Doc.root cx.doc) ?index:cx.idx cx_code
       with XE.Eval_error m -> raise (Eval_error m))
  | Ast.Param p ->
    let key = "%" ^ p in
    fun _ env ->
      XE.tick 1;
      (match List.assoc_opt key env with
       | Some v -> v
       | None -> fail "unbound parameter %%%s" p)
  | Ast.Seq es ->
    let ces = List.map compile_expr es in
    fun cx env ->
      XE.tick 1;
      List.fold_left (fun acc c -> seq_append acc (c cx env)) empty_seq ces
  | Ast.Binop (XP.And, a, b) ->
    let ca = compile_bool a and cb = compile_bool b in
    fun cx env -> XE.tick 1; XE.Bool (ca cx env && cb cx env)
  | Ast.Binop (XP.Or, a, b) ->
    let ca = compile_bool a and cb = compile_bool b in
    fun cx env -> XE.tick 1; XE.Bool (ca cx env || cb cx env)
  | Ast.Binop (((XP.Eq | Neq | Lt | Le | Gt | Ge) as op), a, b) ->
    let ca = compile_expr a and cb = compile_expr b in
    fun cx env ->
      XE.tick 1;
      XE.Bool (XE.compare_values cx.doc op (ca cx env) (cb cx env))
  | Ast.Binop (op, a, b) ->
    (* Arithmetic and union delegate to the XPath evaluator's rules by
       re-wrapping pre-evaluated operands. *)
    let ca = compile_expr a and cb = compile_expr b in
    let ka = "%%tmp_a" and kb = "%%tmp_b" in
    let wrapped = XE.compile (XP.Binop (op, XP.Var ka, XP.Var kb)) in
    fun cx env ->
      XE.tick 1;
      let va = ca cx env and vb = cb cx env in
      let env' = (ka, va) :: (kb, vb) :: env in
      (try XE.run cx.doc ~env:env' ~ctx:(Doc.root cx.doc) ?index:cx.idx wrapped
       with XE.Eval_error m -> raise (Eval_error m))
  | Ast.If (c, t, f) ->
    let cc = compile_bool c and ct = compile_expr t and cf = compile_expr f in
    fun cx env -> XE.tick 1; if cc cx env then ct cx env else cf cx env
  | Ast.Elem (tag, body) ->
    let cbody = List.map compile_expr body in
    fun cx env ->
      XE.tick 1;
      let parts = List.map (fun c -> XE.string_value cx.doc (c cx env)) cbody in
      let inner = String.concat "" parts in
      XE.Str
        (if inner = "" then "<" ^ tag ^ "/>"
         else "<" ^ tag ^ ">" ^ inner ^ "</" ^ tag ^ ">")
  | Ast.Quant (Ast.Some_, binds, cond) -> compile_some binds cond
  | Ast.Quant (Ast.Every, binds, cond) ->
    (* Narrowing and conjunct scheduling are existential-only (a dropped
       or pruned candidate must falsify the whole condition); universal
       quantifiers enumerate and test every tuple. *)
    let ccond = compile_bool cond in
    let rec build = function
      | [] -> fun cx env -> ccond cx env
      | (v, e) :: rest ->
        let ce = compile_expr e in
        let crest = build rest in
        fun cx env ->
          List.for_all (fun item -> crest cx ((v, item) :: env)) (items (ce cx env))
    in
    let body = build binds in
    fun cx env -> XE.tick 1; XE.Bool (body cx env)
  | Ast.Flwor (clauses, where, ret) ->
    let cwhere = Option.map compile_bool where in
    let cret = compile_expr ret in
    let rec build = function
      | [] ->
        fun cx env acc ->
          let keep = match cwhere with None -> true | Some cw -> cw cx env in
          if keep then seq_append acc (cret cx env) else acc
      | (Ast.For (v, e), narrowing) :: rest ->
        let ce = compile_expr e in
        let nplan = compile_narrow narrowing in
        let crest = build rest in
        fun cx env acc ->
          let candidates =
            match run_narrow cx env nplan with
            | Some narrowed -> narrowed
            | None -> items (ce cx env)
          in
          note_candidates candidates;
          List.fold_left
            (fun acc item -> crest cx ((v, item) :: env) acc)
            acc candidates
      | (Ast.Let (v, e), _) :: rest ->
        let ce = compile_expr e in
        let crest = build rest in
        fun cx env acc -> crest cx ((v, ce cx env) :: env) acc
    in
    let body = build (plan_flwor clauses where) in
    fun cx env -> XE.tick 1; body cx env empty_seq
  | Ast.Call (f, args) -> compile_call f args

(* Existential quantifier compilation: the closures of [plan_some]'s
   plan.  An evaluation error in an early test or pre-evaluation defers
   back to per-tuple evaluation of the full condition, reproducing the
   sequential interpretation's error behavior. *)
and compile_some binds cond : code =
  let ccond = compile_bool cond in
  match binds with
  | [] -> fun cx env -> XE.tick 1; XE.Bool (ccond cx env)
  | _ ->
    let plan = plan_some binds cond in
    let n = List.length binds in
    let prevals = Array.make (n + 1) [] in  (* depth -> (slot, code) list *)
    let tests = Array.make (n + 1) [] in    (* depth -> test list *)
    List.iteri
      (fun s (lvl, e) -> prevals.(lvl) <- prevals.(lvl) @ [ (s, compile_expr e) ])
      plan.hoists;
    let compile_operand = function
      | Slot s -> O_slot s
      | Inline e -> O_code (compile_expr e)
    in
    List.iter
      (fun t ->
        let test =
          match t.cmp with
          | None -> T_plain (compile_bool t.conj)
          | Some (op, a, b) ->
            T_cmp (op, compile_operand a, compile_operand b, compile_bool t.conj)
        in
        tests.(t.level) <- tests.(t.level) @ [ test ])
      plan.tests;
    let join = Option.map (fun (s, key) -> (s, compile_expr key)) plan.join in
    let exec_test cx env slots = function
      | T_plain f -> f cx env
      | T_cmp (op, oa, ob, fallback) ->
        let get = function O_slot s -> slots.(s) | O_code c -> Some (c cx env) in
        let va = get oa in
        let vb = get ob in
        (match (va, vb) with
         | Some va, Some vb ->
           XE.tick 1;
           XE.compare_values cx.doc op va vb
         | _ -> fallback cx env)
    in
    (* run one intermediate depth's pre-evaluations and tests; [`False]
       prunes this candidate, [`Plain] defers to per-tuple evaluation *)
    let run_level cx env slots pv ts =
      List.iter
        (fun (s, c) ->
          slots.(s) <-
            (try Some (c cx env) with Eval_error _ | XE.Eval_error _ -> None))
        pv;
      try if List.for_all (exec_test cx env slots) ts then `True else `False
      with Eval_error _ | XE.Eval_error _ -> `Plain
    in
    let rec build lvl = function
      | [] -> assert false
      | [ (v, e, narrowing) ] ->
        (* deepest binding: evaluate the remaining tests in place, errors
           propagating as in the sequential interpretation (an operand
           never hoists to the deepest level, so no pre-evaluations) *)
        let ce = compile_expr e in
        let nplan = compile_narrow narrowing in
        let ts = tests.(lvl) in
        let ts_rest = match ts with _ :: r -> r | [] -> [] in
        let scan cx env slots plain =
          let candidates =
            match run_narrow ~ordered:false cx env nplan with
            | Some narrowed -> narrowed
            | None -> items (ce cx env)
          in
          note_candidates candidates;
          List.exists
            (fun item ->
              let env' = (v, item) :: env in
              if plain then ccond cx env'
              else List.for_all (exec_test cx env' slots) ts)
            candidates
        in
        let table cx env jst =
          match !jst with
          | J_table tbl -> Some tbl
          | J_disabled -> None
          | J_unbuilt ->
            let ckey = match join with Some (_, c) -> c | None -> assert false in
            let result =
              try
                let candidates = items (ce cx env) in
                XE.tick (1 + List.length candidates);
                let tbl = Hashtbl.create (2 * List.length candidates) in
                List.iter
                  (fun item ->
                    match ckey cx ((v, item) :: env) with
                    | XE.Num _ | XE.Bool _ -> raise Exit
                    | kv ->
                      List.iter
                        (fun key ->
                          let prev =
                            try Hashtbl.find tbl key with Not_found -> []
                          in
                          Hashtbl.replace tbl key (item :: prev))
                        (XE.item_strings cx.doc kv))
                  candidates;
                (* restore candidate order within each bucket *)
                Hashtbl.filter_map_inplace (fun _ l -> Some (List.rev l)) tbl;
                Some tbl
              with Exit | Eval_error _ | XE.Eval_error _ -> None
            in
            jst :=
              (match result with Some tbl -> J_table tbl | None -> J_disabled);
            result
        in
        fun cx env slots jst plain -> (
          match join with
          | None -> scan cx env slots plain
          | Some (s, _) when not plain -> (
            match slots.(s) with
            | None -> scan cx env slots plain
            | Some kv -> (
              match kv with
              | XE.Num _ | XE.Bool _ -> scan cx env slots plain
              | _ -> (
                match table cx env jst with
                | None -> scan cx env slots plain
                | Some tbl ->
                  let bucket key =
                    try Hashtbl.find tbl key with Not_found -> []
                  in
                  let cands =
                    match XE.item_strings cx.doc kv with
                    | [] -> []
                    | [ key ] -> bucket key
                    | keys ->
                      (* rare multi-key probe: union in key order, dedup *)
                      List.rev
                        (List.fold_left
                           (fun acc key ->
                             List.fold_left
                               (fun acc it ->
                                 if List.memq it acc then acc else it :: acc)
                               acc (bucket key))
                           [] keys)
                  in
                  XE.tick (1 + List.length cands);
                  note_candidates cands;
                  List.exists
                    (fun item ->
                      let env' = (v, item) :: env in
                      List.for_all (exec_test cx env' slots) ts_rest)
                    cands)))
          | Some _ -> scan cx env slots plain)
      | (v, e, narrowing) :: rest ->
        let ce = compile_expr e in
        let nplan = compile_narrow narrowing in
        let pv = prevals.(lvl) and ts = tests.(lvl) in
        let crest = build (lvl + 1) rest in
        fun cx env slots jst plain ->
          let candidates =
            match run_narrow ~ordered:false cx env nplan with
            | Some narrowed -> narrowed
            | None -> items (ce cx env)
          in
          note_candidates candidates;
          List.exists
            (fun item ->
              let env' = (v, item) :: env in
              if plain then crest cx env' slots jst true
              else
                match run_level cx env' slots pv ts with
                | `False -> false
                | `True -> crest cx env' slots jst false
                | `Plain -> crest cx env' slots jst true)
            candidates
    in
    let cbinds = build 1 plan.binds in
    let nslots = List.length plan.hoists in
    let pv0 = prevals.(0) and ts0 = tests.(0) in
    fun cx env ->
      XE.tick 1;
      XE.Bool
        (let slots = Array.make nslots None in
         let jst = ref J_unbuilt in
         match run_level cx env slots pv0 ts0 with
         | `False -> false
         | `True -> cbinds cx env slots jst false
         | `Plain -> cbinds cx env slots jst true)

and compile_narrow = function
  | Scan -> N_never
  | Tag _ -> N_fallback
  | Probe { tag; access; comparand; _ } ->
    N_probe (Symbol.intern tag, access, compile_expr comparand)

(* Try to serve the candidate items of a binding from the value indexes
   ([XE.probe]).  The narrowed set is the subset of [//tag] satisfying
   the probed conjunct; the caller still evaluates the full condition on
   each item, so a probe is a pure optimization.  It runs when an index
   is attached and the comparand evaluates, in the current environment,
   to a string-valued sequence.  [ordered] requests document order; a
   FLWOR [for] needs it because the candidates flow into the result
   sequence, whereas a quantifier only tests each candidate, so
   deduplicating by node id suffices. *)
and run_narrow ?(ordered = true) cx env (plan : narrow_plan) : value list option =
  match (cx.idx, plan) with
  | None, _ | _, N_never -> None
  | Some idx, N_fallback ->
    Index.note_fallback idx;
    None
  | Some idx, N_probe (tag, access, ccomp) ->
    let ids =
      match ccomp cx env with
      | v -> XE.probe cx.doc idx ~tag ~ordered access v
      | exception (Eval_error _ | XE.Eval_error _) -> None
    in
    (match ids with
     | None ->
       Index.note_fallback idx;
       None
     | Some ids ->
       XE.tick (1 + List.length ids);
       note_probe ();
       Some (List.map (fun n -> XE.Nodes [ n ]) ids))

and compile_call f args : code =
  let cargs = List.map compile_expr args in
  (* the fallback to the XPath function library, via pre-evaluated operand
     variables, is resolved and compiled up front *)
  let keys = List.mapi (fun i _ -> "%%arg" ^ string_of_int i) args in
  let wrapped = XE.compile (XP.Call (f, List.map (fun k -> XP.Var k) keys)) in
  let exec cx env (vals : value list) : value =
    match (f, vals) with
    | "exists", [ v ] ->
      XE.Bool
        (match v with
         | XE.Nodes ns -> ns <> []
         | XE.Strs ss -> ss <> []
         | v -> XE.boolean v)
    | "empty", [ v ] ->
      XE.Bool
        (match v with
         | XE.Nodes ns -> ns = []
         | XE.Strs ss -> ss = []
         | v -> not (XE.boolean v))
    | "not", [ v ] -> XE.Bool (not (XE.boolean v))
    | "same-node", [ a; b ] ->
      (* node identity, existential over sequences (XQuery's [is] on the
         singletons the translation produces) *)
      (match (a, b) with
       | XE.Nodes xs, XE.Nodes ys ->
         XE.Bool (List.exists (fun x -> List.mem x ys) xs)
       | _ -> fail "same-node: expected node sequences")
    | "count", [ XE.Nodes ns ] -> XE.Num (float_of_int (List.length ns))
    | "count", [ XE.Strs ss ] -> XE.Num (float_of_int (List.length ss))
    | "count", [ _ ] -> XE.Num 1.0
    | "count-distinct", [ v ] ->
      (* The translation of the paper's [Cnt_D] aggregate. *)
      XE.Num (float_of_int (XE.distinct_count cx.doc v))
    | "sum", [ v ] ->
      let ss = XE.item_strings cx.doc v in
      XE.Num
        (List.fold_left
           (fun a s ->
             a
             +.
             match float_of_string_opt (String.trim s) with
             | Some f -> f
             | None -> Float.nan)
           0.0 ss)
    | "boolean", [ v ] -> XE.Bool (XE.boolean v)
    | "string", [ v ] -> XE.Str (XE.string_value cx.doc v)
    | "number", [ v ] -> XE.Num (XE.number v)
    | _ ->
      let env' = List.combine keys vals @ env in
      (try XE.run cx.doc ~env:env' ~ctx:(Doc.root cx.doc) ?index:cx.idx wrapped
       with XE.Eval_error m -> raise (Eval_error m))
  in
  fun cx env ->
    XE.tick 1;
    exec cx env (List.map (fun c -> c cx env) cargs)

and compile_bool e =
  let c = compile_expr e in
  fun cx env -> XE.boolean (c cx env)

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

type compiled = code

let compile e = compile_expr e

let run doc ?(env = []) ?(params = []) ?index code =
  let env = List.map (fun (p, v) -> ("%" ^ p, v)) params @ env in
  let cx = { doc; idx = index } in
  if not (Obs.Trace.is_enabled ()) then code cx env
  else
    Obs.Trace.with_span "eval" (fun () ->
        let v, steps = XE.with_meter (fun () -> code cx env) in
        Obs.Trace.add_attr "steps" (string_of_int steps);
        Obs.Metrics.add c_eval_steps steps;
        v)

let run_bool doc ?env ?params ?index code =
  XE.boolean (run doc ?env ?params ?index code)

let eval doc ?env ?params ?index e = run doc ?env ?params ?index (compile_expr e)

let eval_bool doc ?env ?params ?index e = XE.boolean (eval doc ?env ?params ?index e)

(* ------------------------------------------------------------------ *)
(* Plan description (xicheck --explain)                                *)
(* ------------------------------------------------------------------ *)

(* Print the plan [compile] builds ([plan_some], [plan_flwor]) for every
   quantifier and FLWOR of an expression, nested ones included. *)
let describe (e : Ast.expr) : string =
  let b = Buffer.create 256 in
  let line indent fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string b (String.make (2 * indent) ' ');
        Buffer.add_string b s;
        Buffer.add_char b '\n')
      fmt
  in
  let narrowing = function
    | Scan -> "scan (source not //tag)"
    | Tag tag -> Printf.sprintf "tag index //%s (no probe-able conjunct)" tag
    | Probe { tag; path; comparand; _ } ->
      Printf.sprintf "index probe //%s via %s = %s" tag (Ast.to_string path)
        (Ast.to_string comparand)
  in
  let vars binds = String.concat ", " (List.map (fun (v, _) -> "$" ^ v) binds) in
  let rec go ind (e : Ast.expr) =
    match e with
    | Ast.Quant (Ast.Some_, binds, cond) when binds <> [] ->
      let plan = plan_some binds cond in
      let hoisted = Array.of_list plan.hoists in
      let at (l, e) = Printf.sprintf "%s @%d" (Ast.to_string e) l in
      line ind "some [%s]" (vars binds);
      (* a joined quantifier answers its deepest binding from the hash
         table; the binding's own narrowing runs only when the join is
         off for the evaluation *)
      let deepest = List.length plan.binds in
      List.iteri
        (fun i (v, _, nw) ->
          line (ind + 1) "bind $%s @%d: %s%s" v (i + 1)
            (if plan.join <> None && i + 1 = deepest then "join fallback: "
             else "")
            (narrowing nw))
        plan.binds;
      List.iter
        (fun t ->
          let hoists =
            match t.cmp with
            | None -> []
            | Some (_, a, b) ->
              List.filter_map
                (function Slot s -> Some (at hoisted.(s)) | Inline _ -> None)
                [ a; b ]
          in
          line (ind + 1) "test @%d: %s%s" t.level (Ast.to_string t.conj)
            (if hoists = [] then ""
             else Printf.sprintf " [hoist %s]" (String.concat ", " hoists)))
        plan.tests;
      (match plan.join with
       | Some (s, key) ->
         line (ind + 1) "join: hash $%s on %s, probe with %s"
           (fst (List.nth binds (List.length binds - 1)))
           (Ast.to_string key)
           (Ast.to_string (snd hoisted.(s)))
       | None -> ());
      List.iter (fun t -> go (ind + 1) t.conj) plan.tests
    | Ast.Quant (Ast.Every, binds, cond) ->
      line ind "every [%s]: enumerate all tuples (universal, no narrowing)" (vars binds);
      go (ind + 1) cond
    | Ast.Flwor (clauses, where, ret) ->
      line ind "flwor";
      List.iter
        (function
          | Ast.For (v, _), nw -> line (ind + 1) "for $%s: %s" v (narrowing nw)
          | Ast.Let (v, _), _ -> line (ind + 1) "let $%s" v)
        (plan_flwor clauses where);
      List.iter (go (ind + 1)) (match where with None -> [] | Some w -> conjuncts w);
      go (ind + 1) ret
    | Ast.Binop (_, a, bb) ->
      go ind a;
      go ind bb
    | Ast.If (c, t, f) ->
      go ind c;
      go ind t;
      go ind f
    | Ast.Quant (_, _, cond) -> go ind cond
    | Ast.Seq es | Ast.Elem (_, es) | Ast.Call (_, es) -> List.iter (go ind) es
    | Ast.Xp _ | Ast.Param _ -> ()
  in
  go 0 e;
  if Buffer.length b = 0 then "(no quantifier or flwor plan)\n"
  else Buffer.contents b
