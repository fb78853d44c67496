(** Derivation of the relational schema from DTDs (Section 4.1).

    Every element type maps to a predicate
    [type(Id, Pos, IdParent, col₁, …, colₙ)] unless it is
    {ul
    {- {e embedded}: a [(#PCDATA)]-only, attribute-less child that occurs
       at most once in its parent's content model — its text becomes a
       column of the parent's predicate (e.g. [name], [title]); or}
    {- {e elided}: a document root with no attributes and no embedded
       children — it is referenced only through the [IdParent] values of
       its children (e.g. [dblp], [review]).}}

    Extra columns are the element's XML attributes (declaration order)
    followed by its embedded children (content-model order).  A missing
    optional embedded child or attribute maps to the empty string (our
    stand-in for the paper's null values). *)

open Xic_xml

type col_source =
  | From_attr of string           (** XML attribute *)
  | From_pcdata_child of string   (** embedded [(#PCDATA)]-only child *)
  | From_text
      (** own text content, for [(#PCDATA)]-only types that could not be
          embedded (e.g. they carry attributes or repeat in a parent) *)

type column = {
  col_name : string;
  source : col_source;
  optional : bool;
}

type pred_schema = {
  pname : string;          (** = the element type name *)
  columns : column list;   (** extra columns after Id, Pos, IdParent *)
}

(** How an element type is represented. *)
type repr =
  | Predicate of pred_schema
  | Embedded   (** only ever embedded into its containers *)
  | Elided     (** root represented only through IdParent values *)

type t

exception Mapping_error of string

val build : (Dtd.t * string) list -> t
(** Build the combined mapping for a list of documents, each given by its
    DTD and root element name.  @raise Mapping_error when the same element
    name carries conflicting declarations across DTDs, or a root is
    undeclared. *)

val dtds : t -> (Dtd.t * string) list
val repr_of : t -> string -> repr
(** @raise Mapping_error for names unknown to every DTD. *)

val repr_of_sym : t -> Doc.Symbol.t -> repr
(** As {!repr_of} on an interned tag, without hashing the string — the
    shredder's per-element dispatch.
    @raise Mapping_error for names unknown to every DTD. *)

val predicates : t -> pred_schema list
val schema_of : t -> string -> pred_schema option

val is_embedded_in : t -> parent:string -> child:string -> bool
(** Is [child] represented as a column of [parent]'s predicate? *)

val column_of : t -> pred:string -> col_source -> int option
(** Index of the extra column that reads [source] within the full
    argument list of the predicate (so the first extra column has index
    3, after Id, Pos and IdParent). *)

val arity : t -> string -> int
(** Total arity of a predicate: 3 + number of extra columns. *)

val containers_of : t -> string -> string list
(** Element types that can directly contain the given type (across all
    DTDs). *)

val predicate_children : t -> string -> string list
(** Child element types of the given type that map to predicates
    themselves (i.e. are not embedded/elided). *)

val schema_to_string : t -> string
(** Human-readable rendering of the derived relational schema, as in the
    paper: [pub(Id, Pos, IdParent_dblp, Title)] etc. *)
