(** DTD (document type definition) subset: [<!ELEMENT …>] and
    [<!ATTLIST …>] declarations, validation, and the content-model
    analysis needed by the relational mapping of Section 4.1.

    {b Compiled content models.}  {!parse} and {!of_decls} compile every
    declaration once: declarations are keyed by their interned tag
    symbol, and each element-content particle becomes its Glushkov
    position automaton over child-tag symbols (one state per name
    occurrence, plus the start).  Validation runs it over the set of
    live states: one state per child element for a deterministic
    model, as XML requires, and more for a nondeterministic one (the
    parser accepts them).  It accepts exactly the particle's language,
    with no size cap and no backtracking. *)

(** Occurrence indicator attached to a particle. *)
type occur =
  | One   (** exactly once *)
  | Opt   (** [?] *)
  | Star  (** [*] *)
  | Plus  (** [+] *)

(** Content particle. *)
type particle =
  | Name of string * occur
  | Seq of particle list * occur
  | Choice of particle list * occur

(** Content model of an element type. *)
type content =
  | PCData                      (** [(#PCDATA)] *)
  | Mixed of string list        (** [(#PCDATA | a | b)*] *)
  | Children of particle        (** element content *)
  | Empty                       (** [EMPTY] *)
  | Any                         (** [ANY] *)

(** An attribute declaration.  Its type (a keyword such as [CDATA], or
    an enumeration [(x|y)]) is parsed and dropped: values are never
    checked against an enumeration. *)
type attr_decl = {
  attr_name : string;
  required : bool;              (** [#REQUIRED] vs anything else *)
}

type element_decl = {
  elem_name : string;
  content : content;
  attlist : attr_decl list;
}

type t

exception Parse_error of string

val parse : string -> t
(** Parse the text of a DTD internal subset (a sequence of [<!ELEMENT>] and
    [<!ATTLIST>] declarations; comments and parameter entities are not
    supported).  @raise Parse_error on malformed declarations. *)

val of_decls : element_decl list -> t

val declarations : t -> element_decl list
val find : t -> string -> element_decl option
val element_names : t -> string list

(** Multiplicity of a child element name within a parent's content model. *)
type multiplicity =
  | M_one       (** occurs exactly once in every valid instance *)
  | M_opt       (** occurs at most once *)
  | M_many      (** may occur more than once *)
  | M_none      (** cannot occur *)

val child_multiplicity : t -> parent:string -> child:string -> multiplicity

val child_names : t -> string -> string list
(** Element names that can appear as direct children, in first-occurrence
    order of the content model. *)

val is_pcdata_only : t -> string -> bool
(** True if the element's content model is [(#PCDATA)]. *)

val parents_of : t -> string -> string list
(** Element types that can directly contain the given type. *)

val descendant_types : t -> string -> string list
(** Element types reachable (strictly below) from the given type,
    including through recursion, computed as a fixpoint. *)

val validate : ?root:Doc.node_id -> t -> Doc.t -> (unit, string) Stdlib.result
(** Check the tree below [root] (default: the document's first root)
    against the DTD in one pre-order walk, building no node lists.
    [Error] joins every fault with ["; "], element by element in
    document order (an element before its descendants).  An element's
    faults are, in this order:
    {ul
    {- [undeclared element <e>] (and nothing else for it);}
    {- [<e> misses required attribute a], per attribute in declaration
       order;}
    {- [EMPTY]: [<e> declared EMPTY has content];}
    {- [(#PCDATA)]: [<e> declared (#PCDATA) has child elements];}
    {- mixed: [<e> has disallowed child <c>], per such child;}
    {- element content: [<e> with element content contains text], then
       [children of <e> [c1 c2 …] do not match its content model] (the
       child names are spelled out only for this message).}} *)

val to_string : t -> string
(** Render back to [<!ELEMENT …>]/[<!ATTLIST …>] declaration syntax.
    Attribute types and defaults are not kept, so every attribute
    prints as [CDATA] with [#REQUIRED] or [#IMPLIED]: an enumeration or
    a default value does not survive [parse (to_string d)]. *)
