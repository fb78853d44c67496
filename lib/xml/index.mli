(** Secondary indexes over an arena document.

    Three hash tables serve the query shapes produced by the
    denial-to-XQuery translation: element-name → node list,
    (tag, attribute, value) and (tag, pcdata value); a rank table serves
    document-order sorting.  Children and sibling positions are not
    indexed: the arena's sibling links answer them ({!Doc.iter_children},
    {!Doc.position}).  The tables are built lazily on first lookup and
    from then on maintained incrementally from the document's mutation
    events ({!Doc.set_observer}), so XUpdate application, undo, savepoint
    rollback and crash recovery keep them consistent without any
    cooperation from those layers. *)

type t

(** The registry counters [index_hits], [index_misses],
    [index_fallbacks] and [index_events]: process-wide, summed over
    every index. *)
type stats = {
  hits : int;       (** lookups served from the index *)
  misses : int;     (** builds and sorts *)
  fallbacks : int;  (** planner bail-outs to the scan interpreter *)
  events : int;     (** document mutations processed *)
}

val create : Doc.t -> t
(** Attach a fresh (unbuilt) index to [doc] as its mutation observer.
    No table is populated until the first lookup. *)

val doc : t -> Doc.t
val built : t -> bool

(** {1 Lookups}

    All lookups force the initial build.  Node lists are deduplicated and
    in document order. *)

val by_name : t -> string -> Doc.node_id list
(** All reachable elements with the given tag, roots included. *)

val descendants_named : t -> string -> Doc.node_id list
(** The [//tag] node set: like {!by_name} but excluding root elements
    (a child step never yields a root). *)

val by_attr : t -> tag:string -> attr:string -> string -> Doc.node_id list
(** Elements [tag] carrying [@attr = value]. *)

val by_pcdata : t -> tag:string -> string -> Doc.node_id list
(** Elements [tag] with a {e direct} text child equal to the value —
    the node set satisfying [self::tag\[text() = value\]] (each text
    child is compared on its own, not the concatenated content). *)

(** {1 Document order}

    A rank table built by one DFS over the reachable nodes turns
    document-order comparison into an array read — [Doc.order_key]
    instead walks every node to its root and scans each ancestor's child
    list.  The table survives writes: a detached subtree loses its
    ranks, and an attached one takes ranks in the gap between its
    neighbours in document order, in O(subtree + depth) per event.  It is
    dropped, and rebuilt by the next sort (counted by the
    [index_rank_builds] metric), only when a root is added or replaced
    or that gap is used up. *)

val sort_doc_order : t -> Doc.node_id list -> Doc.node_id list
(** Sort and deduplicate into document order; agrees exactly with
    {!Doc.sort_doc_order} (detached nodes defer to it). *)

val doc_order_compare : t -> Doc.node_id -> Doc.node_id -> int

(** {1 Symbol-keyed lookups}

    The same lookups with pre-interned names, for compiled plans that
    resolve all name tests at compile time. *)

val by_name_sym : t -> Doc.Symbol.t -> Doc.node_id list
val descendants_named_sym : t -> Doc.Symbol.t -> Doc.node_id list
val by_attr_sym : t -> tag:Doc.Symbol.t -> attr:Doc.Symbol.t -> string -> Doc.node_id list
val by_pcdata_sym : t -> tag:Doc.Symbol.t -> string -> Doc.node_id list

(** {1 Statistics} *)

val note_fallback : unit -> unit
(** Record that a planner examined a query it could not index. *)

val stats : unit -> stats
(** A read of the registry counters (see {!stats}). *)

(** {1 Consistency audit}

    For tests: compare the incrementally maintained tables against a
    from-scratch rebuild.
    When a rank table is present, a DFS over the reachable nodes must
    see strictly increasing ranks and no other node may hold one. *)

val consistency_errors : t -> string list
val consistent : t -> bool
