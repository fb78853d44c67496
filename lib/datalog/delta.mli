(** Net fact delta of a batch of store mutations.

    Records tuples added to / removed from the shredded store and keeps
    the {e net} multiset: a tuple inserted and then deleted inside the
    same batch cancels to nothing.  {!Incr.apply_delta} consumes these to
    maintain materialized denial results; gross counters feed the
    [delta_facts_added]/[delta_facts_removed] metrics. *)

type t

val create : unit -> t

val add : t -> Xic_symbol.Symbol.t -> Store.tuple -> unit
(** Record an insertion into relation [sym]. *)

val remove : t -> Xic_symbol.Symbol.t -> Store.tuple -> unit
(** Record a deletion from relation [sym]. *)

val is_empty : t -> bool
(** No net change (gross churn may still be non-zero). *)

val added : t -> (Xic_symbol.Symbol.t * Store.tuple * int) list
(** Net insertions with multiplicities (> 0), unordered. *)

val removed : t -> (Xic_symbol.Symbol.t * Store.tuple * int) list
(** Net deletions with multiplicities (> 0), unordered. *)

val touched : t -> Xic_symbol.Symbol.t list
(** Relations with a net change, unordered, no duplicates. *)

val gross_added : t -> int
val gross_removed : t -> int

val pp : Format.formatter -> t -> unit
