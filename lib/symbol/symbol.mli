(** Global hash-consed symbol table.

    Element tags, attribute names and Datalog predicate names are interned
    into small dense integers, so the hot-loop name tests of the checking
    pipeline (XPath name tests, index keys, relation lookups) become int
    equality instead of [String.equal], and hash tables keyed by names hash
    an int instead of a string.

    The table is global, append-only and grown in place; a new name costs
    amortised O(1).  It is not synchronised: the checker is
    single-threaded. *)

type t = private int
(** An interned name.  The representation is the dense table index, so
    symbols can key arrays and compare as ints.  Polymorphic equality,
    comparison and hashing all behave correctly (and cheaply) on [t]. *)

val intern : string -> t
(** Intern a string, returning its unique symbol.  Idempotent:
    [intern s == intern s] for equal strings, forever. *)

val intern_sub : string -> int -> int -> t
(** [intern_sub s pos len] interns the slice [s.[pos .. pos+len-1]]
    without allocating the substring when the name is already interned —
    the parser's fast path for tag and attribute names read straight off
    the source buffer.  [intern_sub s pos len = intern (String.sub s pos
    len)] always.
    @raise Invalid_argument when the slice is out of bounds. *)

val name : t -> string
(** The string a symbol stands for.  [name (intern s) = s].
    @raise Invalid_argument on an integer that is not a live symbol. *)

val equal : t -> t -> bool
(** Int equality. *)

val compare : t -> t -> int
(** Int comparison — a total order by interning time, {e not} alphabetical. *)

val hash : t -> int

val to_int : t -> int
(** The dense index, for array-keyed dispatch tables. *)

val unsafe_of_int : int -> t
(** Reinterpret a dense index as a symbol, without checking that it is
    live.  Only for reading back values previously stored with
    [to_int] (e.g. the document arena's packed tag array). *)

val count : unit -> int
(** Number of symbols interned so far. *)

val mem : string -> bool
(** Whether the string has been interned (no side effect). *)

val all_names : unit -> string array
(** A copy of the names interned so far, index = symbol id; later
    interning does not change it.  Used by the snapshot serializer to
    persist the table so symbol ids can be remapped on load in a process
    with a different interning history. *)
