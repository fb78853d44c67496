(** Incremental (delta-driven) maintenance of materialized denial
    results — the semi-naive layer behind [Repository.check_incremental],
    the repository's live, post-write and pinned verdict.

    Each denial's violation witnesses (bindings of its positive-literal
    variables) are materialized as a relation in a private view store.
    {!apply_delta} maintains them from a net fact {!Delta} instead of
    re-running the denial over the whole store: untouched denials are
    skipped, monotone denials (relation atoms, comparisons, and
    [cnt]/[cntd] aggregates bounded by [>]/[>=]) get exact delta
    evaluation (deletion re-verification, ΔR-bound residual joins, and
    one evaluation per count group an inserted fact can raise); denials
    with negation, other aggregates, or counts bounded from above are
    re-evaluated in full when touched.  The view uses set
    semantics, so it is [Store.equal]-comparable with a from-scratch
    recompute (oracle route 8). *)

type t

type stats = {
  mutable evals : int;  (** residual delta evaluations *)
  mutable reverifies : int;  (** view rows re-checked after deletions *)
  mutable recomputes : int;  (** full re-evaluations (non-monotone denials) *)
  mutable skipped : int;  (** denials untouched by a delta *)
  mutable rows_added : int;
  mutable rows_removed : int;
}

val create : (string * Term.denial list) list -> t
(** One view relation per (constraint, denial).  The view starts empty;
    call {!initialize} against the current store before applying deltas.
    @raise Eval.Unsafe if any denial contains parameters (only full
    constraint denials are maintainable; simplified checks stay on the
    per-update path). *)

val initialize : t -> Store.t -> unit
(** (Re)materialize every denial's witnesses from scratch. *)

val apply_delta : t -> Store.t -> Delta.t -> unit
(** Maintain the views given the net delta that took the store to its
    current (post-mutation) state.  [store] must already include the
    delta.
    @raise Eval.Unsafe / Eval.Budget_exceeded as {!Eval.violations}. *)

val violated : ?view:Store.t -> t -> string list
(** Names of constraints with at least one materialized witness, in
    constraint order.  [view] (default {!view}) may be a frozen handle of
    the view store ([Store.freeze]): the emptiness test then answers for
    the generation the handle captured. *)

val view : t -> Store.t
(** The materialized witness store (read-only by convention). *)

val stats : t -> stats
val entry_count : t -> int
