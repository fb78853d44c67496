(** The tag and rank tables of an arena document.

    A tag table maps each element name to its reachable elements in
    document order (the [//tag] node sets, embedded tags included); a
    rank table serves document-order sorting.  Values are indexed only
    in the repository's relational store ({!Xic_xpath.Eval.prober}), and
    children and sibling positions not at all: the arena's sibling links
    answer them.  The tables are built lazily on first lookup and from
    then on maintained from the document's mutation events
    ({!Doc.subscribe}), so XUpdate application, undo and crash recovery
    keep them consistent without any cooperation from those layers. *)

type t

(** The registry counters [index_hits], [index_misses],
    [index_fallbacks] and [index_events]: process-wide, summed over
    every index. *)
type stats = {
  hits : int;       (** lookups served from the tag table, or by a value prober *)
  misses : int;     (** builds and sorts *)
  fallbacks : int;  (** planner bail-outs to the scan interpreter *)
  events : int;     (** document mutations processed *)
}

val create : Doc.t -> t
(** Attach a fresh (unbuilt) index to [doc] as its mutation observer.
    No table is populated until the first lookup. *)

val built : t -> bool

(** {1 Lookups}

    All lookups force the initial build.  Node lists are deduplicated and
    in document order. *)

val by_name : t -> string -> Doc.node_id list
(** All reachable elements with the given tag, roots included. *)

val descendants_named : t -> Doc.Symbol.t -> Doc.node_id list
(** The [//tag] node set: like {!by_name} but excluding root elements
    (a child step never yields a root); the tag is pre-interned, for
    compiled plans that resolve their name tests at compile time. *)

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

(** {1 Statistics} *)

val note_hit : unit -> unit
(** Record a value probe that a prober answered. *)

val note_fallback : unit -> unit
(** Record that a planner examined a query it could not index. *)

val stats : unit -> stats
(** A read of the registry counters (see {!stats}). *)

val heap_bytes : t -> int
(** The heap of the tag and rank tables, the document excluded, by
    [Obj.reachable_words] (a walk of both tables: for reports). *)

(** {1 Consistency audit}

    For tests: compare the incrementally maintained tag table against a
    from-scratch rebuild.
    When a rank table is present, a DFS over the reachable nodes must
    see strictly increasing ranks and no other node may hold one. *)

val consistency_errors : t -> string list
