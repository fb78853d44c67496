(** Parametric update patterns (Section 5).

    A pattern describes a class of XUpdate insertions: an operation, the
    element type targeted by the [select] expression, and a content
    template in which text values may be parameters (written [%name]).
    From the pattern we derive, once at schema-design time:

    {ul
    {- the relational update pattern — ground atoms with parameters (the
       paper's [U = {sub(is, ps, ir, t), auts(ia, pa, is, n)}]);}
    {- the freshness hypotheses Δ for the new node identifiers;}
    {- for a set of constraints, the simplified checks
       [SimpᵁΔ(Γ)] and their XQuery translations.}}

    At update time, {!match_update} recognizes concrete XUpdate statements
    that instantiate the pattern and extracts the parameter valuation. *)

open Xic_xml
module T := Xic_datalog.Term

type t = {
  name : string;
  op : Xic_xupdate.Xupdate.op;
  anchor_type : string;
      (** element type of the node selected by the statement's [select] *)
  content : Xic_xupdate.Xupdate.content list;
      (** template; [Text "%x"] is the parameter [x]; empty for removals *)
  atoms : T.atom list;      (** inserted-tuple pattern *)
  del_atoms : T.atom list;  (** deleted-tuple pattern (removal patterns) *)
  fresh : string list;      (** parameters that denote new node ids *)
  anchor_param : string;    (** parameter bound to the (future) parent node *)
  data_params : string list;
}

exception Pattern_error of string

val make :
  Schema.t ->
  name:string ->
  op:Xic_xupdate.Xupdate.op ->
  anchor_type:string ->
  content:Xic_xupdate.Xupdate.content list ->
  t
(** Derive the relational pattern.

    Insertion patterns ([Insert_after]/[Insert_before]/[Append]) require a
    content template.  Removal patterns ([Remove]) take no content and are
    supported for {e relational leaves}: element types all of whose
    children are embedded, so the removed subtree maps to a single tuple
    [type(%target, %p, %anchor, %c_col…)]; at update time the column
    parameters are read off the node being removed.

    @raise Pattern_error on content that does not type-check against the
    schema, or a removal of a non-leaf type. *)

val of_modification :
  Schema.t -> name:string -> Xic_xupdate.Xupdate.modification -> t
(** Derive a pattern from an XUpdate statement template whose text values
    may be [%name] parameters; the anchor type is taken from the last step
    of the template's [select] path.  @raise Pattern_error when the select
    does not end in a named child step. *)

val hypotheses : Schema.t -> t -> T.denial list
(** Freshness hypotheses Δ for the pattern's new node identifiers. *)

val simplify : Schema.t -> t -> Constr.t -> T.denial list
(** [SimpᵁΔ] of the constraint's denials w.r.t. this pattern. *)

(** A parameter valuation extracted from a concrete update. *)
type valuation = (string * value) list

and value =
  | Vnode of Doc.node_id  (** node-valued (anchor parent) *)
  | Vstr of string        (** data-valued *)
  | Vint of int           (** position-valued *)

val match_modification :
  Schema.t -> Doc.t -> t -> Xic_xupdate.Xupdate.modification -> Doc.node_id ->
  valuation option
(** [match_modification schema doc p m target] tries to recognize a
    concrete modification as an instance of the pattern, given [target],
    the first node [m]'s select names (the caller evaluates the select
    once for every pattern it tries); on success the valuation binds the anchor parameter to the
    (future) parent node and every data parameter to its concrete text.
    For insertions, fresh node-id parameters are {e not} bound (they never
    survive into the simplified checks; the freshness hypotheses discharge
    them).  For removals, [target] is bound to the node being removed and
    the column parameters to its current data. *)

val xquery_params : valuation -> (string * Xic_xquery.Eval.value) list
(** The valuation in the form expected by {!Xic_xquery.Eval.eval}. *)

val datalog_params :
  ?fresh_base:int -> t -> valuation -> (string * T.const) list
(** The valuation as Datalog constants, additionally assigning fresh
    integer ids (starting at [fresh_base]) to the fresh parameters, for
    store-level checking. *)
