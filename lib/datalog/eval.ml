(** Evaluation of denials against a fact store, compiled once and run
    many times.

    {!compile} decides everything that depends only on which variables
    are bound, never on their values: variables become slots of one
    [Value.t array], predicates resolve to their symbols, and the
    literal schedule and probe columns are fixed.  Each constant of the
    denial becomes a {!Value.t} here, once, so a run compares values
    without converting any.  {!iter} and {!exists} then walk the fixed
    steps over the store's indexes. *)

module Symbol = Xic_symbol.Symbol

exception Unsafe of string

let unsafe fmt = Printf.ksprintf (fun s -> raise (Unsafe s)) fmt

(* ------------------------------------------------------------------ *)
(* Step budget                                                         *)
(* ------------------------------------------------------------------ *)

exception Budget_exceeded

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

(* As {!Xic_xpath.Eval.with_meter}: report the steps [f] consumes
   without changing which evaluations succeed. *)
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
(* Plans                                                               *)
(* ------------------------------------------------------------------ *)

(* A term as a step reads it: a constant, or the slot of a variable
   bound by an earlier step (or given as an input). *)
type operand = Lit of Value.t | Slot of int

(* What matching a tuple does at one argument position. *)
type action =
  | Check_const of Value.t
  | Check_slot of int
  | Bind of int
  | Skip  (* a variable occurring nowhere else: any value matches *)

type rel = {
  id : int;  (* the rel's entry in a run's lookups, numbered per plan *)
  pred : string;
  mutable sym : Symbol.t option;
      (* [None] while the name is not interned: no store holds the
         relation, and the name is looked up again on the next run *)
  probe_col : int;  (* leftmost column bound before the match; -1 scans *)
  probe_key : operand;  (* its value; unused by a scan *)
  actions : action array;
}

type agg_plan = {
  op : Term.agg_op;
  join : rel array;  (* the conjunction, in join order *)
  target : operand option;
  row : int array;  (* a target-less [cntd]'s local slots: the counted vector *)
  acmp : Term.cmp;
  bound : operand;
}

type step =
  | Test of Term.cmp * operand * operand
  | Assign of int * operand  (* an equality binding its variable *)
  | Join of rel
  | Anti of rel
  | Aggregate of agg_plan

type plan = {
  nslots : int;
  nrels : int;  (* rels of every step, aggregates' joins included *)
  inputs : int array;  (* slots of the input variables, in the given order *)
  steps : step array;
  tick_steps : bool;  (* a denial costs a step per literal; a bare join does not *)
  vars : (string * int) list;  (* every variable's slot *)
  witness : (string * int) list;
      (* the variables the steps bind, in the order a witness lists them *)
}

let c_plans_compiled = Xic_obs.Obs.Metrics.counter "datalog_plans_compiled"

(* ------------------------------------------------------------------ *)
(* Running                                                             *)
(* ------------------------------------------------------------------ *)

let value slots = function Lit c -> c | Slot s -> Array.unsafe_get slots s

let resolve r =
  match r.sym with
  | Some _ as s -> s
  | None ->
    if Symbol.mem r.pred then begin
      let s = Symbol.intern r.pred in
      r.sym <- Some s;
      Some s
    end
    else None

(* A run's lookups start out as this placeholder; a rel's first probe
   in the run resolves its relation and index once ({!Store.lookup_sym},
   or the live tuples for a scan) and keeps the result for the rest of
   the run.  Sound because a run never writes the store it reads. *)
let unresolved : Value.t -> Store.tuple list = fun _ -> []

let lookup store r =
  match resolve r with
  | None -> fun _ -> []
  | Some sym ->
    if r.probe_col < 0 then begin
      let all = Store.tuples_sym store sym in
      fun _ -> all
    end
    else Store.lookup_sym store sym r.probe_col

let candidates store slots lookups r =
  let f = Array.unsafe_get lookups r.id in
  let f =
    if f != unresolved then f
    else begin
      let f = lookup store r in
      Array.unsafe_set lookups r.id f;
      f
    end
  in
  f (value slots r.probe_key)

(* The actions from column [i] on, by array index.  A tuple of another
   arity never matches, so the actions may index it unchecked. *)
let rec match_from slots actions (tup : Store.tuple) i =
  i = Array.length actions
  || (match Array.unsafe_get actions i with
      | Check_const k -> Value.equal (Array.unsafe_get tup i) k
      | Check_slot s -> Value.equal (Array.unsafe_get tup i) (Array.unsafe_get slots s)
      | Bind s ->
        Array.unsafe_set slots s (Array.unsafe_get tup i);
        true
      | Skip -> true)
     && match_from slots actions tup (i + 1)

(* One budget step per tuple examined. *)
let match_actions slots actions tup =
  tick 1;
  Array.length tup = Array.length actions && match_from slots actions tup 0

let rec any_match slots actions = function
  | [] -> false
  | tup :: rest -> match_actions slots actions tup || any_match slots actions rest

(* Every row of a conjunction from its [j]-th rel on: [f] runs with the
   row's locals in their slots. *)
let rec join_rows store slots lookups join j f =
  if j = Array.length join then f ()
  else
    let r = Array.unsafe_get join j in
    join_tuples store slots lookups join j f r (candidates store slots lookups r)

and join_tuples store slots lookups join j f r = function
  | [] -> ()
  | tup :: rest ->
    if match_actions slots r.actions tup then join_rows store slots lookups join (j + 1) f;
    join_tuples store slots lookups join j f r rest

let value_int v =
  match Value.to_int v with
  | Some i -> i
  | None -> unsafe "aggregate over non-integer value %S" (Value.get_string v)

(* The aggregate's value, or [None] for a [max]/[min] over no rows: the
   literal does not hold, whichever literal bound the group first. *)
let aggregate store slots lookups g =
  let rows f = join_rows store slots lookups g.join 0 f in
  let targets () =
    let acc = ref [] in
    let t = Option.get g.target in
    rows (fun () -> acc := value slots t :: !acc);
    List.rev !acc
  in
  let sum = List.fold_left (fun a c -> a + value_int c) 0 in
  let distinct vs = List.sort_uniq Value.compare vs in
  let pick keep = function
    | [] -> None
    | c :: cs -> Some (List.fold_left (fun a b -> if keep (Value.compare b a) then b else a) c cs)
  in
  match g.op with
  | Term.Cnt ->
    let n = ref 0 in
    rows (fun () -> incr n);
    Some (Value.of_int !n)
  | Term.CntD when g.target = None ->
    let acc = ref [] in
    rows (fun () -> acc := Array.map (fun s -> slots.(s)) g.row :: !acc);
    Some (Value.of_int (List.length (List.sort_uniq compare !acc)))
  | Term.CntD -> Some (Value.of_int (List.length (distinct (targets ()))))
  | Term.Sum -> Some (Value.of_int (sum (targets ())))
  | Term.SumD -> Some (Value.of_int (sum (distinct (targets ()))))
  | Term.Max -> pick (fun c -> c > 0) (targets ())
  | Term.Min -> pick (fun c -> c < 0) (targets ())

(* The steps from [i] on, under the bindings in [slots]; [k] receives
   each completed binding and stops the search by returning [true]. *)
let rec run store slots lookups p i k =
  if p.tick_steps then tick 1;
  if i = Array.length p.steps then k slots
  else
    match Array.unsafe_get p.steps i with
    | Test (op, a, b) ->
      Value.cmp op (value slots a) (value slots b)
      && run store slots lookups p (i + 1) k
    | Assign (s, a) ->
      slots.(s) <- value slots a;
      run store slots lookups p (i + 1) k
    | Join r -> join_each store slots lookups p i k r (candidates store slots lookups r)
    | Anti r ->
      (not (any_match slots r.actions (candidates store slots lookups r)))
      && run store slots lookups p (i + 1) k
    | Aggregate g ->
      (match aggregate store slots lookups g with
       | None -> false
       | Some v ->
         Value.cmp g.acmp v (value slots g.bound) && run store slots lookups p (i + 1) k)

(* Try the candidates of the join at step [i] in order, until one
   completes a binding that [k] accepts. *)
and join_each store slots lookups p i k r = function
  | [] -> false
  | tup :: rest ->
    (match_actions slots r.actions tup && run store slots lookups p (i + 1) k)
    || join_each store slots lookups p i k r rest

(* A run's state: the slots, with the inputs in place, and the
   lookups, all unresolved. *)
let start p values =
  if Array.length values <> Array.length p.inputs then
    invalid_arg "Eval: input values do not match the plan's inputs";
  let slots = Array.make p.nslots (Value.of_int 0) in
  Array.iteri (fun j s -> slots.(s) <- values.(j)) p.inputs;
  (slots, Array.make p.nrels unresolved)

let iter p store values f =
  let slots, lookups = start p values in
  ignore
    (run store slots lookups p 0 (fun slots ->
         f slots;
         false)
      : bool)

let exists p store values =
  let slots, lookups = start p values in
  run store slots lookups p 0 (fun _ -> true)

let slot p v = List.assoc v p.vars

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

(* Slot numbering and the variables bound so far, while the schedule is
   fixed. *)
type scope = {
  slots : (string, int) Hashtbl.t;
  mutable next : int;
  mutable rels : int;  (* rels compiled so far *)
  bound : (string, unit) Hashtbl.t;
}

let slot_of sc v =
  match Hashtbl.find_opt sc.slots v with
  | Some s -> s
  | None ->
    let s = sc.next in
    Hashtbl.add sc.slots v s;
    sc.next <- s + 1;
    s

let is_bound sc v = Hashtbl.mem sc.bound v

let operand sc = function
  | Term.Const c -> Lit (Value.of_const c)
  | Term.Var v -> Slot (slot_of sc v)
  | Term.Param p -> unsafe "unresolved parameter %%%s at evaluation time" p

(* An atom's matching actions under the variables [known] before it.
   The probe is the leftmost known column; it fixes the order in which
   candidates, and so witnesses, arrive.  Returns the variables the
   match binds, in argument order. *)
let compile_rel sc ~known ~skip (a : Term.atom) =
  let probe =
    let rec go col = function
      | [] -> None
      | Term.Const c :: _ -> Some (col, Lit (Value.of_const c))
      | Term.Var v :: _ when known v -> Some (col, Slot (slot_of sc v))
      | _ :: rest -> go (col + 1) rest
    in
    go 0 a.Term.args
  in
  let fresh = ref [] in
  let actions =
    List.rev
      (List.fold_left
         (fun acc t ->
           let act =
             match t with
             | Term.Const c -> Check_const (Value.of_const c)
             | Term.Var v when known v || List.mem v !fresh -> Check_slot (slot_of sc v)
             | Term.Var v when skip v -> Skip
             | Term.Var v ->
               fresh := v :: !fresh;
               Bind (slot_of sc v)
             | Term.Param p -> unsafe "unresolved parameter %%%s in atom" p
           in
           act :: acc)
         [] a.Term.args)
  in
  let sym = if Symbol.mem a.Term.pred then Some (Symbol.intern a.Term.pred) else None in
  let id = sc.rels in
  sc.rels <- id + 1;
  let probe_col, probe_key = Option.value probe ~default:(-1, Lit (Value.of_int 0)) in
  let actions = Array.of_list actions in
  (* the index hands out only tuples equal to the key in the probed
     column, so matching need not check it again *)
  if probe_col >= 0 then actions.(probe_col) <- Skip;
  ( { id; pred = a.Term.pred; sym; probe_col; probe_key; actions }, List.rev !fresh )

(* Join order of a conjunction: most-bound-first, counting as bound the
   variables [known] beforehand and those of atoms already placed; ties
   keep source order.  In source order, a per-key count such as
   [cntd(T; track(T, ...), rev(_, _, T, R))] with [R] bound would scan
   every [track] before probing [rev] by [R].  Returns the compiled
   atoms and the variables they bind, in binding order. *)
let compile_join sc ~known ~skip (atoms : Term.atom list) =
  let placed = Hashtbl.create 8 in
  let known' v = known v || Hashtbl.mem placed v in
  let score (a : Term.atom) =
    List.fold_left
      (fun n t ->
        match t with
        | Term.Const _ -> n + 1
        | Term.Var v when known' v -> n + 1
        | _ -> n)
      0 a.Term.args
  in
  let rec go rels bound = function
    | [] -> (Array.of_list (List.rev rels), bound)
    | a :: rest as atoms ->
      let best = List.fold_left (fun b a -> if score a > score b then a else b) a rest in
      let rec drop = function
        | [] -> []
        | a :: rest -> if a == best then rest else a :: drop rest
      in
      let r, fresh = compile_rel sc ~known:known' ~skip best in
      List.iter (fun v -> Hashtbl.replace placed v ()) (Term.atom_vars best);
      go (r :: rels) (bound @ fresh) (drop atoms)
  in
  go [] [] atoms

let new_scope inputs =
  let sc = { slots = Hashtbl.create 16; next = 0; rels = 0; bound = Hashtbl.create 16 } in
  let input_slots =
    Array.of_list
      (List.map
         (fun v ->
           Hashtbl.replace sc.bound v ();
           slot_of sc v)
         inputs)
  in
  (sc, input_slots)

let finish sc input_slots steps ~tick_steps witness =
  Xic_obs.Obs.Metrics.incr c_plans_compiled;
  {
    nslots = sc.next;
    nrels = sc.rels;
    inputs = input_slots;
    steps = Array.of_list steps;
    tick_steps;
    vars = Hashtbl.fold (fun v s acc -> (v, s) :: acc) sc.slots [];
    witness;
  }

let compile ?(inputs = []) (d : Term.denial) =
  (match Term.denial_params d with
   | [] -> ()
   | ps -> unsafe "denial still contains parameters: %s" (String.concat ", " ps));
  let body = d.Term.body in
  let sc, input_slots = new_scope inputs in
  let occurrences = Hashtbl.create 16 in
  List.iter
    (fun l ->
      List.iter
        (fun v ->
          Hashtbl.replace occurrences v
            (1 + Option.value ~default:0 (Hashtbl.find_opt occurrences v)))
        (Term.lit_vars l))
    body;
  let singleton v = Hashtbl.find_opt occurrences v = Some 1 in
  let ground = function
    | Term.Const _ -> true
    | Term.Var v -> is_bound sc v
    | Term.Param _ -> false
  in
  let bind v = Hashtbl.replace sc.bound v () in
  (* The preference order at every step:
     1. a ground comparison (cheap test),
     2. an equality that binds a variable,
     3. a ready negation or aggregate (tests, no branching),
     4. the positive literal with the most bound arguments (join step).
     Readiness depends only on which variables are bound, so the choice
     is the same on every run. *)
  let ready_cmp = function
    | Term.Cmp (_, t1, t2) -> ground t1 && ground t2
    | _ -> false
  in
  let binding_eq = function
    | Term.Cmp (Term.Eq, Term.Var v, t) | Term.Cmp (Term.Eq, t, Term.Var v) ->
      (not (is_bound sc v)) && ground t
    | _ -> false
  in
  (* A negated atom is ready once every variable it shares with other
     literals is bound; variables occurring only inside it are
     existential locals (anti-join semantics). *)
  let neg_ready (a : Term.atom) =
    let this = Term.Not a in
    List.for_all
      (fun v ->
        is_bound sc v
        || not (List.exists (fun l -> l <> this && List.mem v (Term.lit_vars l)) body))
      (Term.atom_vars a)
  in
  (* An aggregate is ready once every variable it shares with the rest
     of the computation is bound; its local variables never are. *)
  let agg_ready (g : Term.agg) =
    let local = Term.agg_local_vars body g in
    let inner_vars = List.concat_map Term.atom_vars g.Term.atoms in
    List.for_all (is_bound sc)
      (List.filter (fun v -> not (List.mem v local)) inner_vars
      @ Term.term_vars g.Term.bound
      @
      match g.Term.target with
      | Some (Term.Var v) when not (List.mem v inner_vars) -> [ v ]
      | _ -> [])
  in
  let ground_args (a : Term.atom) = List.length (List.filter ground a.Term.args) in
  let take p lits =
    let rec go acc = function
      | [] -> None
      | l :: rest when p l -> Some (l, List.rev_append acc rest)
      | l :: rest -> go (l :: acc) rest
    in
    go [] lits
  in
  let most_bound lits =
    List.fold_left
      (fun best l ->
        match (l, best) with
        | Term.Rel a, None -> Some (l, ground_args a)
        | Term.Rel a, Some (_, n) when ground_args a > n -> Some (l, ground_args a)
        | _ -> best)
      None lits
    |> Option.map (fun (l, _) ->
           let rec remove_first = function
             | [] -> []
             | x :: rest -> if x == l then rest else x :: remove_first rest
           in
           (l, remove_first lits))
  in
  let pick lits =
    match take ready_cmp lits with
    | Some _ as r -> r
    | None ->
      (match take binding_eq lits with
       | Some _ as r -> r
       | None ->
         (match take (function
                  | Term.Not a -> neg_ready a
                  | Term.Agg g -> agg_ready g
                  | _ -> false) lits with
          | Some _ as r -> r
          | None -> most_bound lits))
  in
  (* [added]: the variables the steps bind, newest first; an atom adds
     its variables last argument first. *)
  let rec schedule steps added = function
    | [] -> (List.rev steps, List.rev added)
    | lits ->
      (match pick lits with
       | None ->
         unsafe "denial is not safe: cannot schedule remaining literals [%s]"
           (String.concat ", " (List.map Term.lit_str lits))
       | Some (lit, rest) ->
         (match lit with
          | Term.Cmp (op, t1, t2) when ground t1 && ground t2 ->
            schedule (Test (op, operand sc t1, operand sc t2) :: steps) added rest
          | Term.Cmp (_, Term.Var v, t) when not (is_bound sc v) ->
            let s = Assign (slot_of sc v, operand sc t) in
            bind v;
            schedule (s :: steps) (v :: added) rest
          | Term.Cmp (_, t, Term.Var v) ->
            let s = Assign (slot_of sc v, operand sc t) in
            bind v;
            schedule (s :: steps) (v :: added) rest
          | Term.Cmp _ -> unsafe "unbound comparison %s" (Term.lit_str lit)
          | Term.Not a ->
            let r, _ = compile_rel sc ~known:(is_bound sc) ~skip:singleton a in
            schedule (Anti r :: steps) added rest
          | Term.Agg g ->
            let needs_row = g.Term.op = Term.CntD && g.Term.target = None in
            (match (g.Term.op, g.Term.target) with
             | (Term.Sum | Term.SumD | Term.Max | Term.Min), None ->
               unsafe "aggregate %s requires a target term" (Term.agg_op_str g.Term.op)
             | _ -> ());
            let join, row =
              compile_join sc ~known:(is_bound sc)
                ~skip:(fun v -> (not needs_row) && singleton v && g.Term.target <> Some (Term.Var v))
                g.Term.atoms
            in
            let a =
              {
                op = g.Term.op;
                join;
                target = Option.map (operand sc) g.Term.target;
                row = Array.of_list (List.map (slot_of sc) row);
                acmp = g.Term.acmp;
                bound = operand sc g.Term.bound;
              }
            in
            schedule (Aggregate a :: steps) added rest
          | Term.Rel a ->
            let r, fresh = compile_rel sc ~known:(is_bound sc) ~skip:(fun _ -> false) a in
            List.iter bind fresh;
            schedule (Join r :: steps) (fresh @ added) rest))
  in
  let steps, added = schedule [] [] body in
  (* A witness lists its bindings in the order a 16-bucket [Hashtbl]
     folds them after the steps' additions: the order [explain] has
     always printed, kept so its output does not change. *)
  let env = Hashtbl.create 16 in
  List.iter (fun v -> Hashtbl.add env v (slot_of sc v)) added;
  let witness = Hashtbl.fold (fun v s acc -> (v, s) :: acc) env [] in
  finish sc input_slots steps ~tick_steps:true witness

let compile_atoms ?(inputs = []) (atoms : Term.atom list) =
  let sc, input_slots = new_scope inputs in
  let join, bound = compile_join sc ~known:(is_bound sc) ~skip:(fun _ -> false) atoms in
  (* a row lists its bindings newest first *)
  let witness = List.rev_map (fun v -> (v, slot_of sc v)) bound in
  finish sc input_slots (Array.to_list (Array.map (fun r -> Join r) join))
    ~tick_steps:false witness

(* ------------------------------------------------------------------ *)
(* Public API                                                          *)
(* ------------------------------------------------------------------ *)

(* A witness leaves the evaluator as {!Term.const}s: the API edge. *)
let bindings p slots = List.map (fun (v, s) -> (v, Value.to_const slots.(s))) p.witness

let witness p store values =
  let found = ref None in
  let slots, lookups = start p values in
  ignore
    (run store slots lookups p 0 (fun slots ->
         found := Some (bindings p slots);
         true)
      : bool);
  !found

let all p store values =
  let acc = ref [] in
  iter p store values (fun slots -> acc := bindings p slots :: !acc);
  List.rev !acc

let c_datalog_steps = Xic_obs.Obs.Metrics.counter "datalog_steps"

let violation ?(params = []) store d =
  let p = compile (Subst.apply_params_denial params d) in
  if not (Xic_obs.Obs.Trace.is_enabled ()) then witness p store [||]
  else
    Xic_obs.Obs.Trace.with_span "datalog:eval" (fun () ->
        let v, steps = with_meter (fun () -> witness p store [||]) in
        Xic_obs.Obs.Trace.add_attr "steps" (string_of_int steps);
        Xic_obs.Obs.Metrics.add c_datalog_steps steps;
        v)

let violated ?params store d = violation ?params store d <> None

let violations ?(params = []) store d =
  all (compile (Subst.apply_params_denial params d)) store [||]

let consistent ?params store denials =
  List.for_all (fun d -> not (violated ?params store d)) denials

let matches store atoms = all (compile_atoms atoms) store [||]
