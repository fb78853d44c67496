(** Arena-based XML document store.

    Every node carries a unique integer identifier, a parent link and an
    ordered list of children, which is exactly the information exposed by
    the relational mapping of Section 4.1 of the paper (node id, position,
    parent id).  The store is mutable so that XUpdate statements can be
    applied and rolled back in place. *)

module Symbol = Xic_symbol.Symbol
(** Tag and attribute names are interned ({!Xic_symbol.Symbol}) so that
    name tests in the evaluators and index keys compare and hash as
    ints. *)

type node_id = int
(** Unique, never reused within a document. *)

val no_node : node_id
(** Sentinel parent id for detached nodes and the document root. *)

(** Payload of a node. *)
type kind =
  | Element of Symbol.t  (** interned tag name *)
  | Text of string       (** character data *)

type t
(** A mutable document: an arena of nodes plus a distinguished root
    element. *)

(** Structural-change notification, for secondary indexes ({!Index}).
    [Attached] fires {e after} the mutation; [Detaching] fires {e before}
    it, while the node's parent link and the sibling list are still
    intact, so a subscriber can locate the entries it has to drop.
    Attributes and text are set when a node is made and never change
    afterwards, so these two events are the only ones. *)
type event =
  | Attached of node_id   (** gained a parent, or became a root *)
  | Detaching of node_id  (** about to lose its parent / root status *)

val subscribe : t -> (event -> unit) -> int
(** Register a mutation observer (the tag and rank tables of {!Index},
    the Datalog store mirror).  Every structural mutator — [set_root],
    [add_root], [append_child(ren)], [insert_after/before], [detach],
    [delete_subtree], and the bulk {!restore} and {!transplant} —
    notifies every observer, in subscription order, so XUpdate
    application, undo and crash recovery keep subscribers current
    without cooperation from the caller.  Returns a token for
    {!unsubscribe}. *)

val unsubscribe : t -> int -> unit
(** Remove the observer registered under this token.  Unknown tokens are
    ignored. *)

val create : ?capacity:int -> unit -> t
(** An empty document with no root element yet.  [capacity] preallocates
    the arena columns for that many nodes (the parser derives it from the
    input byte length so a cold load never regrows mid-parse). *)

val set_root : t -> node_id -> unit
(** Declare [id] as the document's only root element (replacing any
    previous roots).  Raises [Invalid_argument] if [id] is not a live
    element node. *)

val add_root : t -> node_id -> unit
(** Add a further root element: the arena then models a {e collection} of
    documents sharing one id space (as an XQuery engine's collection); all
    roots are children of the virtual document node for absolute paths. *)

val root : t -> node_id
(** The first root element.  Raises [Invalid_argument] if none was set. *)

val roots : t -> node_id list
(** All root elements, in registration order. *)

val has_root : t -> bool

val make_element : t -> ?attrs:(string * string) list -> string -> node_id
(** Allocate a detached element node. *)

val make_element_sym : t -> ?attrs:(Symbol.t * string) list -> Symbol.t -> node_id
(** As {!make_element}, with names already interned — the parser's fast
    path (tags come straight off the source buffer via
    [Symbol.intern_sub]). *)

val make_text : t -> string -> node_id
(** Allocate a detached text node. *)

val kind : t -> node_id -> kind
val parent : t -> node_id -> node_id
(** [no_node] for the root element and detached nodes. *)

val children : t -> node_id -> node_id list
(** All children (elements and text) in document order. *)

val iter_children : t -> node_id -> (node_id -> unit) -> unit
(** Iterate over the children in document order without materialising a
    list — the non-allocating walk for hot loops (shredding, printing,
    text aggregation).  The callback must not mutate this node's child
    list; use {!children} to snapshot first when it does. *)

val element_children : t -> node_id -> node_id list

val next_sibling : t -> node_id -> node_id
val prev_sibling : t -> node_id -> node_id
val last_child : t -> node_id -> node_id
(** O(1) reads of the arena's sibling links (any node kind); [no_node]
    when there is no such node. *)

val attrs : t -> node_id -> (string * string) list
(** Attribute list with names resolved back to strings (allocates; hot
    paths should prefer {!attrs_sym}). *)

val attrs_sym : t -> node_id -> (Symbol.t * string) list
(** The stored attribute list, interned keys, no allocation. *)

val attr : t -> node_id -> string -> string option
val attr_sym : t -> node_id -> Symbol.t -> string option

val is_element : t -> node_id -> bool
val is_text : t -> node_id -> bool

val name : t -> node_id -> string
(** Tag name of an element; raises [Invalid_argument] on text nodes. *)

val tag : t -> node_id -> Symbol.t
(** Interned tag name of an element; raises [Invalid_argument] on text
    nodes.  [Symbol.name (tag doc id) = name doc id]. *)

val live : t -> node_id -> bool
(** False for ids that were never allocated or have been deleted. *)

val reachable : t -> node_id -> bool
(** Live and in a tree under a root, not in a detached scratch tree. *)

val append_child : t -> parent:node_id -> node_id -> unit
(** Attach a detached node as last child.  Raises [Invalid_argument] if the
    child is already attached. *)

val append_children : t -> parent:node_id -> node_id list -> unit
(** Attach several detached nodes as last children, in order, in one list
    splice (building an n-ary node with repeated {!append_child} would be
    quadratic). *)

val insert_after : t -> anchor:node_id -> node_id -> unit
(** Attach a detached node as the sibling immediately following [anchor]. *)

val insert_before : t -> anchor:node_id -> node_id -> unit

val detach : t -> node_id -> unit
(** Remove a node from its parent's child list (the node and its subtree
    stay alive and can be re-attached; used by rollback). *)

val delete_subtree : t -> node_id -> unit
(** Detach and free a node and all its descendants. *)

val position : t -> node_id -> int
(** 1-based index among the *element* children of the parent, which is the
    [Pos] attribute of the relational mapping.  Text nodes and the root
    report position 1. *)

val text_content : t -> node_id -> string
(** Concatenation of all descendant text, as XPath's [string()]. *)

val descendants : t -> node_id -> node_id list
(** Proper descendants, document order. *)

val descendant_or_self : t -> node_id -> node_id list

val following_siblings : t -> node_id -> node_id list
val preceding_siblings : t -> node_id -> node_id list
(** Both in document order (preceding siblings are returned closest-last,
    i.e. still in document order). *)

val ancestors : t -> node_id -> node_id list
(** Proper ancestors, nearest first. *)

val sort_doc_order : t -> node_id list -> node_id list
(** Sort and deduplicate a node list into document order. *)

val node_count : t -> int
(** Number of live nodes. *)

val id_bound : t -> int
(** Exclusive upper bound on every node id allocated so far (dense arena
    ids), for callers keeping id-indexed side tables. *)

val heap_bytes : t -> int
(** The arena's heap: its node and attribute columns and its texts,
    measured by [Obj.reachable_words] (a walk of the whole arena: for
    reports).  The observers are not counted. *)

val equal_structure : t -> t -> bool
(** Structural equality of the trees reachable from the roots (ignores ids,
    compares tags, attribute sets, text and child order). *)

val serialize : t -> Buffer.t -> unit
(** Append the arena's binary image (all columns, pools and roots) to the
    buffer, node ids preserved — see [Xic_snapshot.Snapshot] for the
    enclosing checksummed container.  Tag and attribute names are stored
    as symbol {e ids}; the snapshot layer persists the symbol table
    alongside and remaps on load. *)

val restore : t -> remap:Symbol.t array -> Xic_symbol.Wire.cursor -> unit
(** Rebuild a serialized arena in place into [t], which must be empty
    (freshly created).  [remap.(id)] is the loading process's symbol for
    stored symbol id [id] (interning histories differ between
    processes); an array rather than a function because the translation
    loop touches every node.  A stored id outside the array is a
    malformed image.  Node ids come back unchanged, so stored node-id
    references (the Datalog mirror, journal replays) stay valid.  Once
    the arena is in place, observers see one [Attached] per restored
    root, as if the roots had just been added.
    @raise Invalid_argument on a non-empty document or a malformed image;
    @raise Xic_symbol.Wire.Error on truncated input. *)

val transplant : into:t -> t -> unit
(** Move [src]'s arena into [into] (which must be empty), leaving [src]
    empty.  O(1): the column arrays change owner, nothing is copied.
    The snapshot loader restores into a scratch document and transplants
    only once every section has decoded, so a caller's document is never
    left half-restored by a failed load.  [into]'s observers are kept
    and see one [Attached] per moved root, so an index watching [into]
    never serves tables of the empty document it held before.
    @raise Invalid_argument if [into] is not empty. *)
