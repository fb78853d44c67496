(** Exact store mirror driven by Doc mutation events.

    Keeps a shredded fact store equal to what a from-scratch
    {!Shred.shred} would produce across arbitrary XUpdate application,
    undo, compensation and recovery replay — including the
    position-column shifts of following siblings and the embedded-text
    columns of ancestors that the old insert-only mirroring missed.
    Mutation events mark nodes dirty; {!flush} reconciles them against
    the arena and records every net store change into a
    {!Xic_datalog.Delta} for the incremental evaluator. *)

open Xic_xml

type t

val create : Mapping.t -> Doc.t -> Xic_datalog.Store.t -> t
(** Subscribe to the document's mutation events.  The store must be
    exact (equal to [Shred.shred mapping doc]) at creation time. *)

val audit : t -> Doc.node_id -> unit
(** Have {!exact} look for elements that hold more than their fact in
    this subtree, as it does in the documents [create] finds: a document
    that arrived unmarked and unvalidated (a valid one holds none). *)

val detach : t -> unit
(** Unsubscribe and drop pending marks.  The mirror must not be used
    afterwards. *)

val set_active : t -> bool -> unit
(** Disable/enable marking.  While inactive the caller is responsible
    for keeping the store exact (the fused loader's sink does this
    during a bulk parse). *)

val has_dirty : t -> bool

val exact : t -> bool
(** No pending marks and no element holding more than its fact: a store
    lookup finds every element a path step would. *)

val flush : t -> into:Xic_datalog.Delta.t -> unit
(** Reconcile all dirty nodes: recompute each one's fact, apply the
    difference to the store and record it into [into].  After the call
    the store is exact again and the dirty set is empty.
    @raise Shred.Shred_error for element types outside the schema. *)
