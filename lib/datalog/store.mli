(** A copy-on-write versioned fact store: relation name → bag of tuples.

    A tuple is one flat [Value.t array]: an integer column is an OCaml
    immediate, a string column the string pointer itself, so a tuple of
    arity n costs one block of [1 + n] words and its log cell three
    more.  The strings are not copied: the shredder hands over the
    document arena's own texts.  The store keeps insertion order and
    supports removal of single tuples so that update transactions can be
    rolled back; a first-argument hash index accelerates the joins
    performed by {!Eval} (the first column of every mapped relation is the
    node id, the most selective join key of the Section 4.1 schema).

    Strings are not interned as symbol ids.  The arena already holds
    each text once, so ids would save no text bytes; and the global
    symbol table never shrinks, while every guarded write brings fresh
    texts (a withdrawn submission's title and author would stay in the
    table for the life of the server).

    Internally each relation is an immutable newest-first insertion log
    plus a persistent tombstone multiset, so {!freeze} and {!copy} are
    O(#relations) pointer captures sharing structure with the live
    writer — the basis of the repository's O(1) generation pins.  A
    generation handle IS a store, and every evaluator reads it as any
    other.

    Relations are keyed by interned symbols: the shredder already holds
    each tag's symbol, so reaching a relation hashes no string.
    {!of_facts} and {!to_facts} take and give {!Term.const} lists, the
    form at the API edges. *)

type tuple = Value.t array

val tuple_equal : tuple -> tuple -> bool

type t

val create : unit -> t
val relations : t -> string list
val total_tuples : t -> int
val of_facts : (string * Term.const list) list -> t
val to_facts : t -> (string * Term.const list) list

val equal : t -> t -> bool
(** Same relations with the same tuple multisets. *)

(** {1 Generations (copy-on-write versioning)} *)

val freeze : t -> t
(** An immutable point-in-time handle sharing the insertion logs and
    tombstones of the source by pointer — O(#relations), independent of
    tuple count.  The handle stays bit-stable under any later mutation
    of the source (writers cons onto their own log heads); mutating the
    handle itself raises [Invalid_argument].  Handles serve the whole
    read API, building their lazy indexes privately on first probe. *)

val is_frozen : t -> bool

val copy : t -> t
(** A mutable fork, O(#relations) by the same structural sharing as
    {!freeze}: both sides may keep mutating independently, each consing
    onto its own log head and tombstoning in its own persistent set. *)

val compact : t -> unit
(** Rebuild every relation's log without its tombstoned cells (writers
    do this automatically once dead mass dominates a relation).  Frozen
    handles keep their old log pointers — compaction never invalidates
    a reader, it only ends structural sharing with older generations.
    @raise Invalid_argument on a frozen handle. *)

val unshared_bytes : live:t -> t -> int
(** Heap estimate of what handle [h] retains {e beyond} the structure
    it shares with [live]: 0 when every relation's log is still a
    physical suffix of the live writer's (the steady state, checked in
    O(delta) cell hops), the full relation cost once a writer-side
    compaction or clear ended the sharing.  A tuple counts its log cell
    and its array, texts excluded. *)

type footprint = {
  tuple_bytes : int;  (** logs, tombstones and tuple arrays; texts excluded *)
  index_bytes : int;  (** the column indexes, beyond the tuples they hold *)
}

val footprint : t -> footprint
(** The store's heap, measured by [Obj.reachable_words] (a walk of the
    whole store: for reports, not for a request path). *)

(** {1 Reads and writes} *)

val add_sym : t -> Xic_symbol.Symbol.t -> tuple -> unit

val remove_sym : t -> Xic_symbol.Symbol.t -> tuple -> bool
(** Remove one occurrence (the newest); [false] when absent.  Internally
    a tombstone: O(index bucket), never a log rebuild.  A removal that
    leaves the relation with no live tuple drops its log, tombstones and
    indexes at once (frozen handles keep theirs, as with {!compact}). *)

val tuples_sym : t -> Xic_symbol.Symbol.t -> tuple list
(** All tuples of a relation, insertion order. *)

val lookup_sym : t -> Xic_symbol.Symbol.t -> int -> Value.t -> tuple list
(** [lookup_sym s sym col key]: the tuples whose [col]-th column
    (0-based) equals [key].  Column 0 is the always-available
    first-column index; other columns get a lazy secondary index built
    on the first probe and maintained by {!add_sym}/{!remove_sym}
    thereafter, so joins that bind a parent id or a text value, and the
    repository's value probes, avoid scanning the relation.  Applied to
    [s sym col] alone it finds the relation and its index once: the
    function it returns answers any [key] by one hash probe, as long as
    [s] is not written.  After a write, resolve again. *)

val mem_sym : t -> Xic_symbol.Symbol.t -> tuple -> bool
val cardinality_sym : t -> Xic_symbol.Symbol.t -> int

val clear_sym : t -> Xic_symbol.Symbol.t -> unit
(** Drop every tuple of the relation (the relation itself stays
    registered with cardinality 0, which {!equal} ignores). *)

(** {1 Snapshot (de)serialization} *)

val serialize : t -> Buffer.t -> unit
(** Append the store's binary image to the buffer: relations by {e name}
    (no symbol ids, so no remap on load), live tuples in insertion order
    — the compacted head of each log, never the tombstoned history.
    See [Xic_snapshot.Snapshot] for the enclosing checksummed
    container. *)

val deserialize : Xic_symbol.Wire.cursor -> t
(** Rebuild a serialized store, preallocating the relation and
    first-column index tables from the stored cardinalities (the
    snapshot cold-load fast path).
    @raise Xic_symbol.Wire.Error on truncated or malformed input. *)
