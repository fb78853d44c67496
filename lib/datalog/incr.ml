(** Incremental (delta-driven) maintenance of materialized denial
    results: one delta rule per site, by polarity, as the interface
    describes.  Denials whose relations the delta does not touch are
    skipped untouched — the common case: a one-statement transaction
    touches a handful of relations out of the whole schema.

    The view lives in a copy-on-write versioned store: row retractions
    are tombstones over an append log, masked on read and reclaimed by
    the writer's auto-compaction, so a frozen handle of the view (a
    repository pin freezes it next to the base store) never observes
    torn maintenance.  {!initialize} compacts the view
    eagerly — a re-initialization (document reload, constraint
    re-registration) retracts every row at once, which is exactly the
    tombstone spike worth collecting up front. *)

module Symbol = Xic_symbol.Symbol

(* The direction of fact change that can create witnesses at a site.
   A positive atom, or a count bounded from below, can turn true only as
   facts are added; a negated atom, or a count bounded from above, only
   as facts go; equality bounds, sums and extrema either way. *)
type polarity = Ins | Del | Both

type site = {
  sym : Symbol.t;
  atom : Term.atom;
  polarity : polarity;
  binds : string list option;
      (* the variables a changed fact binds in the residual; [None] for
         every variable of the atom *)
  conj : Term.atom list option;
      (* the enclosing aggregate's conjunction, for group collection *)
}

type entry = {
  name : string;  (* owning constraint *)
  denial : Term.denial;
  rel : Symbol.t;  (* view relation holding the witnesses *)
  reads : (Symbol.t * bool array) list;
      (* every relation the body references, with the columns it reads *)
  sites : site list;
  proj : string list;  (* named vars of positive literals, in order *)
}

type stats = {
  mutable evals : int;  (* residual delta evaluations *)
  mutable reverifies : int;  (* view rows re-checked after removals *)
  mutable recomputes : int;
      (* full evaluations: (re)initialization, or a change binding nothing *)
  mutable skipped : int;  (* denials untouched by the delta, cancelled, or proven *)
  mutable rows_added : int;
  mutable rows_removed : int;
}

type t = {
  entries : entry list;
  names : string list;  (* constraint order for [violated] *)
  view : Store.t;
  stats : stats;
}

let agg_polarity (g : Term.agg) =
  match (g.Term.op, g.Term.acmp) with
  | (Term.Cnt | Term.CntD), (Term.Gt | Term.Ge) -> Ins
  | (Term.Cnt | Term.CntD), (Term.Lt | Term.Le) -> Del
  | _ -> Both

let creates polarity ~inserted =
  match polarity with Both -> true | Ins -> inserted | Del -> not inserted

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

(* One site per atom of the body.  A negated atom's shared variables
   are the ones {!Eval} binds before it runs the anti-join: those that
   occur in some other literal. *)
let sites_of body =
  let site ?conj polarity binds (a : Term.atom) =
    { sym = Symbol.intern a.Term.pred; atom = a; polarity; binds; conj }
  in
  List.concat_map
    (function
      | Term.Rel a -> [ site Ins None a ]
      | Term.Not a as l ->
        let outside =
          List.concat_map (fun l' -> if l' = l then [] else Term.lit_vars l') body
        in
        [ site Del (Some (List.filter (fun v -> List.mem v outside) (Term.atom_vars a))) a ]
      | Term.Agg g ->
        let local = Term.agg_local_vars body g in
        let outer =
          List.filter
            (fun v -> not (List.mem v local))
            (List.sort_uniq compare (List.concat_map Term.atom_vars g.Term.atoms))
        in
        List.map (site ~conj:g.Term.atoms (agg_polarity g) (Some outer)) g.Term.atoms
      | Term.Cmp _ -> [])
    body

let entry_of_denial ~name i (d : Term.denial) =
  if Term.denial_params d <> [] then
    raise
      (Eval.Unsafe
         (Printf.sprintf
            "incremental maintenance needs parameter-free denials (%s has %s)"
            name
            (String.concat ", " (Term.denial_params d))));
  let proj =
    named_vars_of_atoms
      (List.filter_map (function Term.Rel a -> Some a | _ -> None) d.Term.body)
  in
  {
    name;
    denial = d;
    rel = Symbol.intern (Printf.sprintf "%s#%d" name i);
    reads = read_columns d.Term.body proj;
    sites = sites_of d.Term.body;
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

let initialize t store =
  List.iter
    (fun e ->
      t.stats.recomputes <- t.stats.recomputes + 1;
      let old = Store.tuples_sym t.view e.rel in
      Store.clear_sym t.view e.rel;
      t.stats.rows_removed <- t.stats.rows_removed + List.length old;
      List.iter
        (fun env -> add_row t e (project e Subst.empty env))
        (Eval.violations store e.denial))
    t.entries;
  (* A (re)initialization retracts every existing row before repopulating;
     collect the tombstone spike instead of carrying it into steady state. *)
  Store.compact t.view

(* Unify an atom against a changed ground tuple.  Returns the binding
   of the atom's variables, or [None] when the tuple cannot match.
   Every variable is bound — including the '_'-prefixed
   compiler-generated ones, which are unique by construction and carry
   the node-id joins: leaving them out of a positive site's binding
   would degrade the residual to a full re-evaluation of the denial.
   Repeated variables must agree. *)
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

(* A change that binds no variable leaves the denial itself as its
   residual: that is a full evaluation, and counts as one. *)
let eval_residual t store e theta0 =
  if Subst.is_empty theta0 then t.stats.recomputes <- t.stats.recomputes + 1
  else t.stats.evals <- t.stats.evals + 1;
  let residual = Subst.apply_denial theta0 e.denial in
  List.iter
    (fun env -> add_row t e (project e theta0 env))
    (Eval.violations store residual)

(* Evaluate the residual of every creating change.  A binding restricted
   to some of the atom's variables can repeat across facts: each
   distinct one is evaluated once across the whole delta. *)
let delta_creations t store e changes =
  let seen = Hashtbl.create 8 in
  let once key =
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      eval_residual t store e
        (Subst.of_list (List.map (fun (v, c) -> (v, Term.Const c)) key))
    end
  in
  List.iter
    (fun (inserted, (sym, tup, _mult)) ->
      List.iter
        (fun s ->
          if Symbol.equal s.sym sym && creates s.polarity ~inserted then
            match unify_atom s.atom tup with
            | None -> ()
            | Some theta -> (
              let value binds v =
                match Subst.find v theta with
                | Some (Term.Const c) -> Some (v, c)
                | _ -> Option.map (fun c -> (v, c)) (List.assoc_opt v binds)
              in
              match (s.conj, s.binds) with
              | _, None -> eval_residual t store e theta
              | Some conj, Some outer when inserted ->
                (* The fact can change an aggregate only in the groups
                   of the rows it takes part in. *)
                List.iter
                  (fun binds -> once (List.filter_map (value binds) outer))
                  (Eval.matches store (List.map (Subst.apply_atom theta) conj))
              | _, Some vs -> once (List.filter_map (value []) vs)))
        e.sites)
    changes

(* The entry's share of the delta: an added and a removed fact of the
   same relation cancel (by multiplicity) when they agree on every
   column the entry reads.  Returns the surviving changes, each tagged
   [true] for an insertion.  The surviving removals of one key bind the
   same variables, so one of them stands for all. *)
let entry_delta e added removed =
  let key sym tup =
    let cols = List.assoc sym e.reads in
    (sym, List.filteri (fun i _ -> i >= Array.length cols || cols.(i)) tup)
  in
  let pending = Hashtbl.create 8 in
  List.iter
    (fun ((sym, tup, m) as f) ->
      if List.mem_assoc sym e.reads then begin
        let k = key sym tup in
        match Hashtbl.find_opt pending k with
        | Some (r, f0) -> Hashtbl.replace pending k (r + m, f0)
        | None -> Hashtbl.add pending k (m, f)
      end)
    removed;
  let adds =
    List.filter_map
      (fun ((sym, tup, m) as f) ->
        if not (List.mem_assoc sym e.reads) then None
        else
          let k = key sym tup in
          match Hashtbl.find_opt pending k with
          | Some (r, f0) when r > 0 ->
            Hashtbl.replace pending k (r - min r m, f0);
            if m > r then Some (true, f) else None
          | _ -> Some (true, f))
      added
  in
  Hashtbl.fold (fun _ (r, f) acc -> if r > 0 then (false, f) :: acc else acc) pending adds

let violated ?view t =
  let view = Option.value view ~default:t.view in
  List.filter
    (fun name ->
      List.exists
        (fun e ->
          String.equal e.name name && Store.cardinality_sym view e.rel > 0)
        t.entries)
    t.names

(* A change in one direction can remove a witness at a site where the
   opposite change can create one. *)
let removes e (inserted, (sym, _, _)) =
  List.exists
    (fun s -> Symbol.equal s.sym sym && creates s.polarity ~inserted:(not inserted))
    e.sites

let apply_delta ?(proven = false) t store delta =
  let touched = Delta.touched delta in
  let added = Delta.added delta and removed = Delta.removed delta in
  (* Theorem 1 per constraint: [Pattern.simplify] simplifies each
     constraint with only its own denials as hypotheses, so a proven
     statement leaves every empty constraint view empty. *)
  let held =
    if proven then
      let v = violated t in
      List.filter (fun n -> not (List.mem n v)) t.names
    else []
  in
  let skip () = t.stats.skipped <- t.stats.skipped + 1 in
  List.fold_left
    (fun skipped_proven e ->
      if List.mem e.name held then begin
        skip ();
        true
      end
      else begin
        (if not (List.exists (fun s -> List.mem_assoc s e.reads) touched) then
           skip ()
         else
           match entry_delta e added removed with
           | [] -> skip ()
           | changes ->
             (* Removals first: rows must be re-verified before the
                creation pass adds rows that are already post-state. *)
             if List.exists (removes e) changes then reverify_rows t store e;
             delta_creations t store e changes);
        skipped_proven
      end)
    false t.entries

let view t = t.view
let stats t = t.stats
let entry_count t = List.length t.entries
