(** Evaluation of denials against a fact store: compile once, run many
    times.

    A denial is {e violated} when its body is satisfiable.  {!compile}
    turns a denial into a {!plan} for a fixed set of {e input}
    variables, whose values every run supplies:
    {ul
    {- each variable gets a slot of one [Value.t array];}
    {- each constant of the denial becomes a {!Value.t} once, here, so
       no run converts a constant or a stored value;}
    {- each predicate resolves to its symbol once, without interning
       it: a relation whose name no store has seen matches nothing (it
       is looked up again on the next run);}
    {- the literal schedule is fixed: a ground comparison first, then
       an equality that binds a variable, then a ready negation or
       aggregate, then the positive atom with the most bound arguments,
       ties in source order.  These choices depend only on which
       variables are bound, so they are the same on every run.}}
    A positive atom probes the store by its leftmost bound column (the
    first-column index, or a lazy secondary index), and matches each
    candidate with one action per column, by array index: check a
    constant, check a slot, bind a slot, or skip a variable that occurs
    nowhere else.  A tuple whose arity differs from the atom's never
    matches.
    Negated and aggregate literals run once the variables they share
    with the rest of the body are bound (safe evaluation); a negation's
    remaining variables are existential locals (anti-join semantics).
    An aggregate's conjunction is joined most-bound-first, counting its
    earlier atoms' variables as bound.  A [max] or [min] aggregate over
    no rows does not hold, so a verdict does not depend on whether a
    positive literal or the aggregate bound its group first.

    {b Runs.}  Each run ({!iter}, {!exists}, the one-shot functions)
    keeps, beside its slots, one lookup per atom of the plan.  An atom's
    first probe in the run resolves its relation and probe column once
    ({!Store.lookup_sym}; the live tuples for an atom with no bound
    column), and every later probe of that atom in the run is one hash
    lookup on the key.  This is sound because a run never writes the
    store it reads: the callback of {!iter} may write another store
    (the incremental views write rows to their own view store), but
    never the one being evaluated.  Resolution costs no budget step,
    and candidates arrive in the same order as a fresh probe's.

    {b Unsafe.}  {!compile} raises {!Unsafe} when the body cannot be
    scheduled, when a parameter is left, or when a [sum], [sumd], [max]
    or [min] has no target — whatever the store holds.  A run raises it
    only for an aggregate over a non-integer value.

    {b Budget.}  A budget step is one scheduled literal of a denial
    entered (plus one when its body is satisfied) and one tuple examined
    by a join, negation or aggregate. *)

exception Unsafe of string
(** Raised on denials whose literals cannot be scheduled safely, or that
    still contain parameters when they are compiled. *)

exception Budget_exceeded
(** Raised mid-evaluation when the installed step budget runs out. *)

val with_budget : steps:int -> (unit -> 'a) -> 'a
(** Run [f] under a step budget (see "Budget"): evaluation aborts with
    {!Budget_exceeded} once [steps] are spent.  Budgets nest (the
    innermost wins); without one, evaluation is unlimited. *)

val with_meter : (unit -> 'a) -> 'a * int
(** [with_meter f] runs [f] and additionally returns the solver steps it
    consumed.  Composes with {!with_budget} as in
    {!Xic_xpath.Eval.with_meter}. *)

(** {1 Plans} *)

type plan
(** A denial or conjunction compiled for a fixed set of input variables;
    immutable apart from symbol resolution, and reusable on any store. *)

val compile : ?inputs:string list -> Term.denial -> plan
(** Compile a denial whose [inputs] (default none) are bound by the
    caller.  Every compile bumps the registry counter
    [datalog_plans_compiled].
    @raise Unsafe as described above. *)

val compile_atoms : ?inputs:string list -> Term.atom list -> plan
(** Compile a conjunction of positive atoms, joined most-bound-first:
    the rows an aggregate over these atoms ranges over.  Unlike a
    denial's, its steps cost no budget; its tuples do. *)

val slot : plan -> string -> int
(** The slot of a variable of the plan in the arrays {!iter} hands out.
    @raise Not_found for a variable the plan does not mention. *)

val iter : plan -> Store.t -> Value.t array -> (Value.t array -> unit) -> unit
(** [iter p store values f] calls [f] on the slots of every satisfying
    binding, in search order; [values] are the inputs' values in the
    order given to {!compile}.  [f] must not keep the array: the next
    binding overwrites it.  [f] must not write [store] (see "Runs").
    @raise Invalid_argument when [values] has the wrong length. *)

val exists : plan -> Store.t -> Value.t array -> bool
(** Whether some binding satisfies the plan under [values]. *)

(** {1 One-shot evaluation}

    These compile on entry, and give their witnesses as {!Term.const}s
    (for [explain] and the replies). *)

val violation :
  ?params:(string * Term.const) list ->
  Store.t ->
  Term.denial ->
  (string * Term.const) list option
(** First satisfying substitution (a violation witness), if any.  [params]
    is the update-time parameter valuation. *)

val violated : ?params:(string * Term.const) list -> Store.t -> Term.denial -> bool

val violations :
  ?params:(string * Term.const) list ->
  Store.t ->
  Term.denial ->
  (string * Term.const) list list
(** All satisfying substitutions. *)

val consistent :
  ?params:(string * Term.const) list -> Store.t -> Term.denial list -> bool
(** No denial of the set is violated. *)

val matches : Store.t -> Term.atom list -> (string * Term.const) list list
(** Every binding vector of a conjunction of atoms over the store: the
    rows an aggregate over these atoms ranges over ({!compile_atoms}). *)
