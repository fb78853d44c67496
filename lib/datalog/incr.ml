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

(* A residual: the denial compiled with the variables a change binds
   as inputs, and the slots of the entry's row in it. *)
type residual = {
  vars : string list;  (* the inputs, in key order *)
  plan : Eval.plan;
  row : int array;
}

(* An argument of a site's atom, its constant converted once. *)
type pat = P_const of Value.t | P_var of string

type site = {
  sym : Symbol.t;
  pattern : pat array;  (* the atom's arguments *)
  atom_vars : string list;  (* distinct, sorted *)
  polarity : polarity;
  restricted : bool;
      (* a change binds only some of the residual's variables, which can
         repeat across facts *)
  on_insert : residual option;  (* where an inserted fact creates *)
  on_delete : residual option;  (* where a deleted fact creates *)
  group : (Eval.plan * int array) option;
      (* an aggregate's conjunction with the atom's variables as inputs,
         and the slots of its group-by variables *)
}

type entry = {
  name : string;  (* owning constraint *)
  rel : Symbol.t;  (* view relation holding the witnesses *)
  reads : (Symbol.t * bool array) list;
      (* every relation the body references, with the columns it reads *)
  sites : site list;
  full : residual;  (* the whole denial, for {!initialize} *)
  rows : Eval.plan;  (* the denial with a row's variables bound *)
}

type t = {
  entries : entry list;
  names : string list;  (* constraint order for [violated] *)
  view : Store.t;
}

(* Maintenance work, process-wide in the metrics registry. *)
let c_evals = Xic_obs.Obs.Metrics.counter "incr_evals"
let c_reverifies = Xic_obs.Obs.Metrics.counter "incr_reverifies"
let c_recomputes = Xic_obs.Obs.Metrics.counter "incr_recomputes"
let c_skipped = Xic_obs.Obs.Metrics.counter "incr_skipped"

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

(* One site per atom of the body, with the plans its changes run.  A
   negated atom's shared variables are the ones {!Eval} binds before it
   runs the anti-join: those that occur in some other literal.  Sites
   binding the same variables share one residual plan. *)
let sites_of (d : Term.denial) proj =
  let body = d.Term.body in
  let residuals = Hashtbl.create 8 in
  let residual vars =
    match Hashtbl.find_opt residuals vars with
    | Some r -> r
    | None ->
      let plan = Eval.compile ~inputs:vars d in
      let r = { vars; plan; row = Array.of_list (List.map (Eval.slot plan) proj) } in
      Hashtbl.add residuals vars r;
      r
  in
  let site ?group ~restricted polarity ~on_insert ~on_delete (a : Term.atom) =
    let pat = function
      | Term.Const c -> P_const (Value.of_const c)
      | Term.Var v -> P_var v
      | Term.Param p -> raise (Eval.Unsafe ("unresolved parameter %" ^ p))
    in
    { sym = Symbol.intern a.Term.pred; pattern = Array.of_list (List.map pat a.Term.args);
      atom_vars = List.sort_uniq compare (Term.atom_vars a); polarity;
      restricted; on_insert; on_delete; group }
  in
  List.concat_map
    (function
      | Term.Rel a ->
        let vars = List.sort_uniq compare (Term.atom_vars a) in
        [ site ~restricted:false Ins ~on_insert:(Some (residual vars)) ~on_delete:None a ]
      | Term.Not a as l ->
        let outside =
          List.concat_map (fun l' -> if l' = l then [] else Term.lit_vars l') body
        in
        let shared = List.filter (fun v -> List.mem v outside) (Term.atom_vars a) in
        [ site ~restricted:true Del ~on_insert:None ~on_delete:(Some (residual shared)) a ]
      | Term.Agg g ->
        let local = Term.agg_local_vars body g in
        let outer =
          List.filter
            (fun v -> not (List.mem v local))
            (List.sort_uniq compare (List.concat_map Term.atom_vars g.Term.atoms))
        in
        let polarity = agg_polarity g in
        List.map
          (fun (a : Term.atom) ->
            let vars = List.sort_uniq compare (Term.atom_vars a) in
            (* an inserted fact changes only the groups of the rows it
               takes part in; a deleted one binds the outer variables it
               holds *)
            let on_insert, group =
              if creates polarity ~inserted:true then
                let conj = Eval.compile_atoms ~inputs:vars g.Term.atoms in
                ( Some (residual outer),
                  Some (conj, Array.of_list (List.map (Eval.slot conj) outer)) )
              else (None, None)
            in
            let on_delete =
              if creates polarity ~inserted:false then
                Some (residual (List.filter (fun v -> List.mem v vars) outer))
              else None
            in
            site ?group ~restricted:true polarity ~on_insert ~on_delete a)
          g.Term.atoms
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
  let full = Eval.compile d in
  {
    name;
    rel = Symbol.intern (Printf.sprintf "%s#%d" name i);
    reads = read_columns d.Term.body proj;
    sites = sites_of d proj;
    full = { vars = []; plan = full; row = Array.of_list (List.map (Eval.slot full) proj) };
    rows = Eval.compile ~inputs:proj d;
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
  }

let add_row t e row =
  if not (Store.mem_sym t.view e.rel row) then Store.add_sym t.view e.rel row

(* Every witness of [r] under [values], as rows of the entry's view.  A
   residual that binds no variable is the denial itself: that is a full
   evaluation, and counts as one. *)
let eval_residual t store e r values =
  Xic_obs.Obs.Metrics.incr (if r.vars = [] then c_recomputes else c_evals);
  Eval.iter r.plan store values (fun slots ->
      add_row t e (Array.map (fun i -> slots.(i)) r.row))

let initialize t store =
  List.iter
    (fun e ->
      Store.clear_sym t.view e.rel;
      eval_residual t store e e.full [||])
    t.entries;
  (* A (re)initialization retracts every existing row before repopulating;
     collect the tombstone spike instead of carrying it into steady state. *)
  Store.compact t.view

(* Unify a site's atom against a changed ground tuple, column by
   column.  Returns the binding of the atom's variables, or [None] when
   the tuple cannot match (another arity never does).
   Every variable is bound — including the '_'-prefixed
   compiler-generated ones, which are unique by construction and carry
   the node-id joins: leaving them out of a positive site's binding
   would degrade the residual to a full re-evaluation of the denial.
   Repeated variables must agree. *)
let unify_atom pattern (tup : Store.tuple) =
  let n = Array.length pattern in
  let rec go theta i =
    if i = n then Some theta
    else
      let c = tup.(i) in
      match pattern.(i) with
      | P_const c' -> if Value.equal c' c then go theta (i + 1) else None
      | P_var v -> (
        match List.assoc_opt v theta with
        | Some c' -> if Value.equal c' c then go theta (i + 1) else None
        | None -> go ((v, c) :: theta) (i + 1))
  in
  if Array.length tup = n then go [] 0 else None

let reverify_rows t store e =
  List.iter
    (fun row ->
      Xic_obs.Obs.Metrics.incr c_reverifies;
      if not (Eval.exists e.rows store row) then
        ignore (Store.remove_sym t.view e.rel row))
    (Store.tuples_sym t.view e.rel)

(* Evaluate the residual of every creating change.  A binding restricted
   to some of the residual's variables can repeat across facts: each
   distinct one is evaluated once across the whole delta. *)
let delta_creations t store e changes =
  let seen = Hashtbl.create 8 in
  let once r values =
    let key = (r.vars, values) in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      eval_residual t store e r values
    end
  in
  List.iter
    (fun (inserted, (sym, tup, _mult)) ->
      List.iter
        (fun s ->
          match if inserted then s.on_insert else s.on_delete with
          | Some r when Symbol.equal s.sym sym -> (
            match unify_atom s.pattern tup with
            | None -> ()
            | Some theta -> (
              let values vars =
                Array.of_list (List.map (fun v -> List.assoc v theta) vars)
              in
              match s.group with
              | Some (conj, outer) when inserted ->
                Eval.iter conj store (values s.atom_vars) (fun slots ->
                    once r (Array.map (fun i -> slots.(i)) outer))
              | _ ->
                if s.restricted then once r (values r.vars)
                else eval_residual t store e r (values r.vars)))
          | _ -> ())
        e.sites)
    changes

(* The entry's share of the delta: an added and a removed fact of the
   same relation cancel (by multiplicity) when they agree on every
   column the entry reads.  Returns the surviving changes, each tagged
   [true] for an insertion.  The surviving removals of one key bind the
   same variables, so one of them stands for all. *)
let entry_delta e added removed =
  let key sym (tup : Store.tuple) =
    let cols = List.assoc sym e.reads in
    let read i = i >= Array.length cols || cols.(i) in
    (sym, List.filteri (fun i _ -> read i) (Array.to_list tup))
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
  let skip () = Xic_obs.Obs.Metrics.incr c_skipped in
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
let entry_count t = List.length t.entries
