(** Incremental (delta-driven) maintenance of materialized denial
    results.

    For every denial we keep the set of violation witnesses — the
    bindings of its positive-literal variables — as a relation in a
    private view store.  A transaction produces a net fact {!Delta};
    instead of re-running each denial from scratch, {!apply_delta}
    evaluates only delta rules:

    - denials whose relations the delta does not touch are skipped
      untouched (the common case: a one-statement transaction touches a
      handful of relations out of the whole schema);
    - {e monotone} denials (positive and comparison literals, and
      [cnt]/[cntd] aggregates bounded from below by [>] or [>=]) are
      maintained exactly: net deletions can only retract witnesses, so
      existing rows are re-verified against the post-state store; net
      insertions can only add witnesses that use at least one inserted
      fact, so each inserted fact is unified against each matching
      positive literal and the residual denial is evaluated with that
      literal bound (the semi-naive ΔR ⋈ R join).  An inserted fact
      that unifies with an atom inside a count aggregate can only raise
      that count, and only for the groups its new aggregate rows fall
      in: the aggregate's conjunction is evaluated with the unifier
      applied, its group-by (outer) values are collected, and the
      denial is evaluated once per distinct group with it bound;
    - denials with negation, [sum]/[max]/[min] aggregates, or counts
      bounded from above or by equality are re-evaluated in full, but
      still only when the delta touches one of their relations.

    Before a monotone denial sees the delta, an added and a removed fact
    of the same relation cancel out (by multiplicity) when they agree on
    every column the denial reads ({!read_columns}): the denial cannot
    tell them apart, so a sibling whose only change is its position
    costs no evaluation.

    The view store uses set semantics (witnesses are deduplicated), so
    an incremental view and a from-scratch recompute are comparable with
    [Store.equal] — which is exactly what oracle route 8 does.

    The view lives in a copy-on-write versioned store: row retractions
    are tombstones over an append log, masked on read and reclaimed by
    the writer's auto-compaction, so a frozen handle of the view (a
    repository pin freezes it next to the base store) never observes
    torn maintenance.  {!initialize} compacts the view
    eagerly — a re-initialization (document reload, constraint
    re-registration) retracts every row at once, which is exactly the
    tombstone spike worth collecting up front. *)

module Symbol = Xic_symbol.Symbol

type klass = Monotone | Recompute

type entry = {
  name : string;  (* owning constraint *)
  denial : Term.denial;
  rel : Symbol.t;  (* view relation holding the witnesses *)
  klass : klass;
  reads : (Symbol.t * bool array) list;
      (* every relation the body references, with the columns it reads *)
  pos : (Symbol.t * Term.atom) list;  (* positive literals *)
  agg_atoms : (Symbol.t * Term.atom * Term.atom list * string list) list;
      (* atoms inside the count aggregates of a monotone denial, each
         with its aggregate's conjunction and group-by variables *)
  proj : string list;  (* named vars of positive literals, in order *)
}

type stats = {
  mutable evals : int;  (* residual delta evaluations *)
  mutable reverifies : int;  (* view rows re-checked after deletions *)
  mutable recomputes : int;  (* full re-evaluations (non-monotone denials) *)
  mutable skipped : int;  (* denials untouched by the delta, or cancelled *)
  mutable rows_added : int;
  mutable rows_removed : int;
}

type t = {
  entries : entry list;
  names : string list;  (* constraint order for [violated] *)
  view : Store.t;
  stats : stats;
}

(* A count bounded from below only ever flips from false to true as
   facts are added: the aggregate's rows are a positive conjunction. *)
let monotone_agg (g : Term.agg) =
  (match g.Term.op with Term.Cnt | Term.CntD -> true | _ -> false)
  && match g.Term.acmp with Term.Gt | Term.Ge -> true | _ -> false

let classify body =
  if
    List.for_all
      (function
        | Term.Rel _ | Term.Cmp _ -> true
        | Term.Agg g -> monotone_agg g
        | Term.Not _ -> false)
      body
  then Monotone
  else Recompute

let named_vars_of_atoms atoms =
  let seen = Hashtbl.create 8 in
  let acc = ref [] in
  List.iter
    (fun a ->
      List.iter
        (fun t ->
          match t with
          | Term.Var v when not (Term.is_anon t) ->
            if not (Hashtbl.mem seen v) then begin
              Hashtbl.add seen v ();
              acc := v :: !acc
            end
          | _ -> ())
        a.Term.args)
    atoms;
  List.rev !acc

(* Column [i] of relation R is read when some atom over R (positive,
   negated or inside an aggregate) holds at [i] a constant, a variable
   occurring more than once in the denial (comparisons and aggregate
   targets, bounds and group-by included), a witness variable, or a
   local of a target-less [cntd], which counts whole local vectors.
   Only a singleton, non-witness variable leaves a column unread. *)
let read_columns body proj =
  let occurrences = Hashtbl.create 16 in
  let count = function
    | Term.Var v ->
      Hashtbl.replace occurrences v
        (1 + Option.value (Hashtbl.find_opt occurrences v) ~default:0)
    | Term.Const _ | Term.Param _ -> ()
  in
  let atoms =
    List.concat_map
      (function
        | Term.Rel a | Term.Not a ->
          List.iter count a.Term.args;
          [ (a, []) ]
        | Term.Cmp (_, l, r) ->
          count l;
          count r;
          []
        | Term.Agg g ->
          List.iter (fun a -> List.iter count a.Term.args) g.Term.atoms;
          Option.iter count g.Term.target;
          count g.Term.bound;
          let locals =
            if g.Term.op = Term.CntD && g.Term.target = None then
              Term.agg_local_vars body g
            else []
          in
          List.map (fun a -> (a, locals)) g.Term.atoms)
      body
  in
  let read locals = function
    | Term.Var v ->
      Hashtbl.find occurrences v > 1 || List.mem v proj || List.mem v locals
    | Term.Const _ | Term.Param _ -> true
  in
  List.fold_left
    (fun acc ((a : Term.atom), locals) ->
      let sym = Symbol.intern a.Term.pred in
      let cols = Array.of_list (List.map (read locals) a.Term.args) in
      match List.assoc_opt sym acc with
      | None -> (sym, cols) :: acc
      | Some prev ->
        let get c i = i >= Array.length c || c.(i) in
        let merged =
          Array.init
            (max (Array.length prev) (Array.length cols))
            (fun i -> get prev i || get cols i)
        in
        (sym, merged) :: List.remove_assoc sym acc)
    [] atoms

let entry_of_denial ~name i (d : Term.denial) =
  if Term.denial_params d <> [] then
    raise
      (Eval.Unsafe
         (Printf.sprintf
            "incremental maintenance needs parameter-free denials (%s has %s)"
            name
            (String.concat ", " (Term.denial_params d))));
  let pos_atoms =
    List.filter_map (function Term.Rel a -> Some a | _ -> None) d.Term.body
  in
  let proj = named_vars_of_atoms pos_atoms in
  let klass = classify d.Term.body in
  let agg_atoms =
    if klass = Recompute then []
    else
      List.concat_map
        (function
          | Term.Agg g ->
            let local = Term.agg_local_vars d.Term.body g in
            let outer =
              List.filter
                (fun v -> not (List.mem v local))
                (List.sort_uniq compare (List.concat_map Term.atom_vars g.Term.atoms))
            in
            List.map
              (fun a -> (Symbol.intern a.Term.pred, a, g.Term.atoms, outer))
              g.Term.atoms
          | _ -> [])
        d.Term.body
  in
  {
    name;
    denial = d;
    rel = Symbol.intern (Printf.sprintf "%s#%d" name i);
    klass;
    reads = read_columns d.Term.body proj;
    pos = List.map (fun a -> (Symbol.intern a.Term.pred, a)) pos_atoms;
    agg_atoms;
    proj;
  }

let create (constraints : (string * Term.denial list) list) =
  let entries =
    List.concat_map
      (fun (name, denials) -> List.mapi (entry_of_denial ~name) denials)
      constraints
  in
  {
    entries;
    names = List.map fst constraints;
    view = Store.create ();
    stats =
      {
        evals = 0;
        reverifies = 0;
        recomputes = 0;
        skipped = 0;
        rows_added = 0;
        rows_removed = 0;
      };
  }

(* Project a witness onto the entry's row shape.  [theta0] holds the
   bindings fixed by delta unification; [env] the solver's bindings for
   the rest. *)
let project e theta0 env =
  List.map
    (fun v ->
      match Subst.find v theta0 with
      | Some (Term.Const c) -> c
      | _ -> (
        match List.assoc_opt v env with
        | Some c -> c
        | None ->
          (* Positive-literal variables are always bound in a witness. *)
          invalid_arg ("Incr: unbound witness variable " ^ v)))
    e.proj

let add_row t e row =
  if not (Store.mem_sym t.view e.rel row) then begin
    Store.add_sym t.view e.rel row;
    t.stats.rows_added <- t.stats.rows_added + 1
  end

let recompute_entry t store e =
  let old = Store.tuples_sym t.view e.rel in
  Store.clear_sym t.view e.rel;
  t.stats.rows_removed <- t.stats.rows_removed + List.length old;
  List.iter
    (fun env -> add_row t e (project e Subst.empty env))
    (Eval.violations store e.denial)

let initialize t store =
  List.iter
    (fun e ->
      t.stats.recomputes <- t.stats.recomputes + 1;
      recompute_entry t store e)
    t.entries;
  (* A (re)initialization retracts every existing row before repopulating;
     collect the tombstone spike instead of carrying it into steady state. *)
  Store.compact t.view

(* Unify a positive literal against an inserted ground tuple.  Returns
   the binding of the literal's variables, or [None] when the tuple
   cannot match.  Every variable is bound — including the '_'-prefixed
   compiler-generated ones, which are unique by construction and carry
   the node-id joins: leaving them out of [theta0] would degrade the
   residual to a full re-evaluation of the denial.  Repeated variables
   must agree. *)
let unify_atom (a : Term.atom) (tup : Store.tuple) =
  if List.length a.Term.args <> List.length tup then None
  else
    let rec go subst args tup =
      match (args, tup) with
      | [], [] -> Some subst
      | arg :: args, c :: tup -> (
        match arg with
        | Term.Const c' -> if c' = c then go subst args tup else None
        | Term.Var v -> (
          match Subst.find v subst with
          | Some (Term.Const c') -> if c' = c then go subst args tup else None
          | Some _ -> None
          | None -> go (Subst.add v (Term.Const c) subst) args tup)
        | Term.Param _ -> None)
      | _ -> None
    in
    go Subst.empty a.Term.args tup

let reverify_rows t store e =
  let rows = Store.tuples_sym t.view e.rel in
  List.iter
    (fun row ->
      t.stats.reverifies <- t.stats.reverifies + 1;
      let theta =
        Subst.of_list
          (List.map2 (fun v c -> (v, Term.Const c)) e.proj row)
      in
      if not (Eval.violated store (Subst.apply_denial theta e.denial)) then begin
        ignore (Store.remove_sym t.view e.rel row);
        t.stats.rows_removed <- t.stats.rows_removed + 1
      end)
    rows

let eval_residual t store e theta0 =
  t.stats.evals <- t.stats.evals + 1;
  let residual = Subst.apply_denial theta0 e.denial in
  List.iter
    (fun env -> add_row t e (project e theta0 env))
    (Eval.violations store residual)

let delta_insertions t store e added =
  let groups = Hashtbl.create 8 in
  List.iter
    (fun (sym, tup, _mult) ->
      List.iter
        (fun (psym, atom) ->
          if Symbol.equal psym sym then
            match unify_atom atom tup with
            | None -> ()
            | Some theta0 -> eval_residual t store e theta0)
        e.pos;
      (* The fact can raise a count only in the groups of the aggregate
         rows it takes part in; re-evaluate the denial once per such
         group, across the whole delta. *)
      List.iter
        (fun (psym, atom, conj, outer) ->
          if Symbol.equal psym sym then
            match unify_atom atom tup with
            | None -> ()
            | Some theta ->
              List.iter
                (fun binds ->
                  let key =
                    List.map
                      (fun v ->
                        match Subst.find v theta with
                        | Some (Term.Const c) -> (v, c)
                        | _ -> (v, List.assoc v binds))
                      outer
                  in
                  if not (Hashtbl.mem groups key) then begin
                    Hashtbl.add groups key ();
                    eval_residual t store e
                      (Subst.of_list
                         (List.map (fun (v, c) -> (v, Term.Const c)) key))
                  end)
                (Eval.matches store (List.map (Subst.apply_atom theta) conj)))
        e.agg_atoms)
    added

(* The entry's share of the delta: an added and a removed fact of the
   same relation cancel (by multiplicity) when they agree on every
   column the entry reads.  Returns the surviving insertions and whether
   any removal survives. *)
let entry_delta e added removed =
  let key sym tup =
    let cols = List.assoc sym e.reads in
    (sym, List.filteri (fun i _ -> i >= Array.length cols || cols.(i)) tup)
  in
  let pending = Hashtbl.create 8 and removals = ref 0 in
  List.iter
    (fun (sym, tup, m) ->
      if List.mem_assoc sym e.reads then begin
        let k = key sym tup in
        Hashtbl.replace pending k
          (m + Option.value (Hashtbl.find_opt pending k) ~default:0);
        removals := !removals + m
      end)
    removed;
  let adds =
    List.filter
      (fun (sym, tup, m) ->
        List.mem_assoc sym e.reads
        &&
        let k = key sym tup in
        let r = Option.value (Hashtbl.find_opt pending k) ~default:0 in
        let c = min r m in
        if c > 0 then begin
          Hashtbl.replace pending k (r - c);
          removals := !removals - c
        end;
        m > c)
      added
  in
  (adds, !removals > 0)

let apply_delta t store delta =
  let touched = Delta.touched delta in
  let added = Delta.added delta and removed = Delta.removed delta in
  let skip () = t.stats.skipped <- t.stats.skipped + 1 in
  List.iter
    (fun e ->
      if not (List.exists (fun s -> List.mem_assoc s e.reads) touched) then
        skip ()
      else
        match e.klass with
        | Recompute ->
          t.stats.recomputes <- t.stats.recomputes + 1;
          recompute_entry t store e
        | Monotone -> (
          match entry_delta e added removed with
          | [], false -> skip ()
          | adds, removals ->
            (* Deletions first: rows must be re-verified before the
               insertion pass adds rows that are already post-state. *)
            if removals then reverify_rows t store e;
            delta_insertions t store e adds))
    t.entries

let skip_delta t = t.stats.skipped <- t.stats.skipped + List.length t.entries

let violated ?view t =
  let view = Option.value view ~default:t.view in
  List.filter
    (fun name ->
      List.exists
        (fun e ->
          String.equal e.name name && Store.cardinality_sym view e.rel > 0)
        t.entries)
    t.names

let view t = t.view
let stats t = t.stats
let entry_count t = List.length t.entries
