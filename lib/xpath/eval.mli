(** Evaluation of XPath expressions against a {!Xic_xml.Doc.t}.

    The semantics follows XPath 1.0: node-sets in document order,
    existential general comparisons, positional predicates.  One pragmatic
    extension (documented in DESIGN.md): the ordering operators [<], [<=],
    [>], [>=] fall back to lexicographic comparison when both operands are
    strings that do not parse as numbers, instead of always converting to
    numbers. *)

open Xic_xml

(** Result of evaluating an expression. *)
type value =
  | Nodes of Doc.node_id list  (** node-set in document order *)
  | Strs of string list        (** attribute values; kept in source order *)
  | Bool of bool
  | Num of float
  | Str of string

type env = (string * value) list
(** Variable bindings for [$name] references. *)

exception Eval_error of string

exception Budget_exceeded
(** Raised mid-evaluation when the installed step budget runs out. *)

val with_budget : steps:int -> (unit -> 'a) -> 'a
(** Run [f] under a step budget: every expression evaluated and every
    candidate node examined by a location step costs one step, and
    evaluation aborts with {!Budget_exceeded} once [steps] are spent.
    Budgets nest (the innermost wins) and are shared with the XQuery
    evaluator, which delegates here.  Without an installed budget,
    evaluation is unlimited. *)

val with_meter : (unit -> 'a) -> 'a * int
(** [with_meter f] runs [f] and additionally returns the evaluation
    steps it consumed.  Composes with {!with_budget}: under an installed
    budget the meter only reads the counter (the budget still applies);
    otherwise an effectively unlimited budget is installed for the
    duration, so metering never changes which evaluations succeed. *)

val tick : int -> unit
(** Charge [n] steps against the installed budget, if any (used by the
    XQuery evaluator to meter its own constructs).
    @raise Budget_exceeded when the budget runs out. *)

(** {1 Indexes}

    The tag and rank tables of {!Xic_xml.Index} answer [//tag] steps and
    document-order sorts; value lookups go to the caller's {!prober} (the
    repository's reads its relational store's column indexes). *)

type access_path = {
  hops : Xic_symbol.Symbol.t list;  (** [c1 … ck], outermost first *)
  leaf : [ `Text | `Attr of Xic_symbol.Symbol.t ];  (** [text()] or [@a] *)
}
(** A path below a candidate element that a value probe answers:
    [c1/…/ck/text()] or [c1/…/ck/@a] ([k >= 0]). *)

type prober = tag:Xic_symbol.Symbol.t -> access_path -> string -> Doc.node_id list option
(** [probe ~tag path key]: every element tagged [tag] whose [path] has
    string value [key] (for [text()], some text child equals [key]),
    in any order.  [None] when the prober cannot answer exactly; the
    evaluator then scans the tag table's candidates and counts an
    [index_fallbacks]. *)

type indexes = {
  tags : Index.t;  (** [//tag] node sets and document order *)
  probe : prober;  (** value probes *)
}

type compiled
(** A compiled plan: the AST is lowered once into a closure pipeline —
    name tests interned, probe analysis done, call dispatch
    resolved — and can then be run any number of times (the plan itself
    is immutable).  {!eval} is
    exactly [compile] followed by [run], so interpreted and compiled
    evaluation share one semantics by construction. *)

val compile : Ast.expr -> compiled

val run : Doc.t -> ?env:env -> ?ctx:Doc.node_id -> ?index:indexes -> compiled -> value
(** Run a compiled plan; arguments as {!eval}. *)

val eval : Doc.t -> ?env:env -> ?ctx:Doc.node_id -> ?index:indexes -> Ast.expr -> value
(** Evaluate an expression.  [ctx] is the context node (defaults to the
    root element); absolute paths always start at the root.  When [index]
    is supplied, [//tag] steps come from its tag table, an equality
    predicate of [//tag\[…\]] on an access path goes to its prober, and
    node sets are sorted through its rank table; the result is always
    identical to the scan interpretation.
    @raise Eval_error on unknown variables or functions. *)

val select :
  Doc.t -> ?env:env -> ?ctx:Doc.node_id -> ?index:indexes -> Ast.expr ->
  Doc.node_id list
(** Evaluate and require a node-set result. @raise Eval_error otherwise. *)

(** {1 Access-path probes}

    The one value probe behind both [//tag\[path = V\]] here and the
    XQuery planner's narrowing of [$v in //tag] bindings. *)

val access_path : Ast.step list -> access_path option
(** The access path spelled by these steps, names interned; [None] for
    any other shape. *)

val probe :
  Doc.t -> indexes -> tag:Xic_symbol.Symbol.t -> ordered:bool -> access_path ->
  value -> Doc.node_id list option
(** [probe doc idx ~tag ~ordered path v]: the non-root elements tagged
    [tag] whose [path] has a string value among the items of [v], one
    {!prober} call per item.  Without duplicates, in document order when
    [ordered], else by node id.  [None] when [v] is a number or a
    boolean, which do not compare by string value, or when the prober
    declines a key. *)

val boolean : value -> bool
(** XPath [boolean()] coercion. *)

val number : value -> float
(** XPath [number()] coercion ([nan] when not convertible). *)

val string_value : Doc.t -> value -> string
(** XPath [string()] coercion (string-value of the first node for
    node-sets). *)

val item_strings : Doc.t -> value -> string list
(** The string values of all items of a sequence (singleton for scalars);
    used for existential comparison and by the XQuery evaluator. *)

val distinct_count : Doc.t -> value -> int
(** [count-distinct] semantics, mirroring the Datalog evaluation of the
    paper's [Cnt_D] aggregate: element nodes are distinct term instances
    (node identity), text nodes and scalar items count by string value. *)

val compare_values : Doc.t -> Ast.binop -> value -> value -> bool
(** General comparison with existential semantics over sequences. *)
