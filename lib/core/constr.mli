(** A compiled integrity constraint: the XPathLog source together with its
    Datalog denials (Section 4.2) and the full XQuery check (Section 6). *)

type t = {
  name : string;
  source : string;                        (** XPathLog concrete syntax *)
  xpathlog : Xic_xpathlog.Ast.denial;     (** the parsed source *)
  datalog : Xic_datalog.Term.denial list; (** one per disjunct *)
  xquery : Xic_xquery.Ast.expr;           (** true ⇔ violated *)
}

exception Constraint_error of string

val make : Schema.t -> name:string -> string -> t
(** Parse, compile and translate an XPathLog denial.
    @raise Constraint_error on parse/compile/translation failures. *)

val violated_xquery : ?index:Xic_xpath.Eval.indexes -> Xic_xml.Doc.t -> t -> bool
(** Evaluate the full XQuery check: [true] means the constraint is
    violated.  [index] routes the evaluation through the indexed planner
    (identical verdict). *)

val violated_datalog : Xic_datalog.Store.t -> t -> bool
(** Evaluate the Datalog denials over a shredded store. *)

val violated_compiled :
  ?index:Xic_xpath.Eval.indexes -> Xic_xml.Doc.t -> t -> Xic_xquery.Eval.compiled -> bool
(** As {!violated_xquery}, but running a pre-compiled plan, which is
    immutable and can be run any number of times. *)
