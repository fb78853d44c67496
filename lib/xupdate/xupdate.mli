(** XUpdate subset (Laux & Martin, 2000): parsing, application with undo,
    and serialization.

    Supported operations: [insert-after], [insert-before], [append]
    (content inserted as last children of the target) and [remove].
    Content is given by [xupdate:element], [xupdate:text] directives or
    literal XML fragments, as in the paper's Section 4.1 example. *)

open Xic_xml

(** Content template of an insertion. *)
type content =
  | Elem of string * (string * string) list * content list
  | Text of string

type op =
  | Insert_after
  | Insert_before
  | Append
  | Remove

type modification = {
  op : op;
  select : Xic_xpath.Ast.expr;  (** target node selection *)
  content : content list;       (** empty for [Remove] *)
}

type t = modification list

exception Xupdate_error of string

val parse_string : string -> t
(** Parse an [<xupdate:modifications>] document.
    @raise Xupdate_error on unsupported or malformed directives. *)

val to_string : t -> string
(** Serialize back to XUpdate XML. *)

(** Undo information returned by {!apply}. *)
type undo

val apply : ?index:Xic_xpath.Eval.indexes -> Doc.t -> t -> undo
(** Execute all modifications in order.  Each [select] must resolve to at
    least one node; the modification applies to the first selected node
    (document order).  Atomic: if a modification fails, the already
    applied prefix is rolled back before the error propagates.  As in
    the XPath data model, no two text nodes end up side by side: an
    inserted text merges with the text siblings it touches, and so do
    the two texts a removal brings together; {!rollback} restores the
    original nodes.  [index] only accelerates target selection — index
    {e maintenance} is wired at the {!Doc.subscribe} level, so
    application, {!rollback} and crash recovery keep any index
    consistent with or without it.
    @raise Xupdate_error when the target is missing or the operation is
    ill-formed (e.g. insert-after on a root). *)

val rollback : Doc.t -> undo -> unit
(** Restore the document to its pre-{!apply} state (the paper's
    "compensating action").  Must be applied to the same document, most
    recent application first if several are pending. *)

val materialize : Doc.t -> content -> Doc.node_id
(** Build a detached subtree for a content template inside the arena. *)

val content_of_node : Doc.t -> Doc.node_id -> content
(** Read back a subtree as a content template: how {!parse_string} reads
    a directive's content, [xupdate:element], [xupdate:attribute] and
    [xupdate:text] included. *)
