(** Evaluation of denials against a fact store.

    A denial is {e violated} when its body is satisfiable.  The solver
    uses a most-bound-literal-first join strategy over the first-column
    index of {!Store}; negated and aggregate literals are scheduled once
    the variables they share with the rest of the body are bound (safe
    evaluation, with anti-join semantics for negations whose remaining
    variables are purely local).  A [max] or [min] aggregate over no
    rows does not hold, so a verdict does not depend on whether a
    positive literal or the aggregate bound its group first. *)

exception Unsafe of string
(** Raised on denials whose literals cannot be scheduled safely, or that
    still contain parameters at evaluation time. *)

exception Budget_exceeded
(** Raised mid-evaluation when the installed step budget runs out. *)

val with_budget : steps:int -> (unit -> 'a) -> 'a
(** Run [f] under a step budget: every solver step and every tuple
    examined by a join, negation or aggregate costs one step, and
    evaluation aborts with {!Budget_exceeded} once [steps] are spent.
    Budgets nest (the innermost wins); without one, evaluation is
    unlimited. *)

val with_meter : (unit -> 'a) -> 'a * int
(** [with_meter f] runs [f] and additionally returns the solver steps it
    consumed.  Composes with {!with_budget} as in
    {!Xic_xpath.Eval.with_meter}. *)

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
    rows an aggregate over these atoms ranges over.  The atoms are
    joined most-bound-first, whatever their source order. *)
