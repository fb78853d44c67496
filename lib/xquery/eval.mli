(** Evaluation of the XQuery subset against a {!Xic_xml.Doc.t}.

    Values are shared with the XPath evaluator ({!Xic_xpath.Eval.value}).
    Element constructors evaluate to their serialized string form (the
    generated queries only ever test the emptiness of constructed
    sequences, e.g. [exists(for … return <idle/>)]). *)

open Xic_xml

type value = Xic_xpath.Eval.value

exception Eval_error of string

val with_budget : steps:int -> (unit -> 'a) -> 'a
(** Run [f] under a step budget shared with the XPath evaluator (FLWOR
    iterations, quantifier bindings and location-step work all count).
    Evaluation aborts with [Xic_xpath.Eval.Budget_exceeded] once [steps]
    are spent — the repository layer catches it and degrades the
    optimized check to the full check. *)

val with_meter : (unit -> 'a) -> 'a * int
(** [with_meter f] runs [f] and additionally returns the evaluation
    steps consumed ({!Xic_xpath.Eval.with_meter}); the budget shared
    with the XPath evaluator still applies if one is installed. *)

type compiled
(** A compiled denial-check plan: one AST walk interns every name,
    resolves quantifier/FLWOR narrowing plans and pre-compiles the
    embedded XPath expressions into closure pipelines; running the plan
    executes closures only.  A plan is immutable and can be run any
    number of times.  {!eval} is exactly [compile] followed
    by [run], so interpreted and compiled checking share one semantics by
    construction. *)

val compile : Ast.expr -> compiled

val run :
  Doc.t ->
  ?env:Xic_xpath.Eval.env ->
  ?params:(string * value) list ->
  ?index:Xic_xpath.Eval.indexes ->
  compiled ->
  value
(** Run a compiled plan; arguments as {!eval}. *)

val run_bool :
  Doc.t ->
  ?env:Xic_xpath.Eval.env ->
  ?params:(string * value) list ->
  ?index:Xic_xpath.Eval.indexes ->
  compiled ->
  bool
(** Run a compiled plan and coerce to a boolean ({!eval_bool}). *)

val eval :
  Doc.t ->
  ?env:Xic_xpath.Eval.env ->
  ?params:(string * value) list ->
  ?index:Xic_xpath.Eval.indexes ->
  Ast.expr ->
  value
(** Evaluate an expression.  [params] binds the [%name] holes of generated
    queries (typically to [Nodes [n]] for node-valued parameters or
    [Str s] for data parameters).  When [index] is supplied, a small
    planner narrows [some $v in //tag satisfies …] bindings and FLWOR
    [for] clauses through the index's prober
    ({!Xic_xpath.Eval.prober}) when an equality conjunct equates an
    access path of [$v] ([$v/c1/…/ck/text()] or
    [$v/c1/…/ck/@a], {!Xic_xpath.Eval.access_path}) with a comparand
    that mentions neither [$v] nor a variable bound after it, and the
    XPath evaluator uses its own indexed fast paths; verdicts are always
    identical to the scan interpretation.
    @raise Eval_error on unbound variables/parameters. *)

val eval_bool :
  Doc.t ->
  ?env:Xic_xpath.Eval.env ->
  ?params:(string * value) list ->
  ?index:Xic_xpath.Eval.indexes ->
  Ast.expr ->
  bool
(** Evaluate and coerce to a boolean (XPath [boolean()] rules).  This is
    the entry point used by integrity checking: [true] means the constraint
    is {e violated}. *)

val describe : Ast.expr -> string
(** Print the plan {!compile} builds for [e] — per-binding index
    narrowing, the conjunct schedule with hoisted comparison operands,
    and the innermost-level hash join — as an indented text block for
    [xicheck --explain].  One planning pass feeds both, so an
    [index probe] line names a probe every indexed run of that binding
    attempts; it falls back to the tag index only when the comparand
    fails to evaluate or is a number or a boolean, or when the prober
    declines the key.  The exception is
    labelled: the deepest binding of a hash-joined quantifier reads
    [join fallback: …], since the join's table answers it and its
    narrowing runs only when the join is off for the evaluation.
    Purely static: nothing is evaluated. *)
