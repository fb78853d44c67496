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
    recompute (oracle route 8).

    {b Read columns.}  Each monotone denial knows which columns of each
    relation it reads.  Column [i] of relation R is read when some atom
    over R — positive, negated or inside an aggregate — holds at [i]:
    {ul
    {- a constant;}
    {- a variable that occurs more than once in the denial, counting
       comparisons and aggregate targets, bounds and group-by;}
    {- a witness variable (a named variable of a positive literal,
       copied into the view row);}
    {- a local of a target-less [cntd], which counts whole local
       vectors.}}
    Only a singleton, non-witness variable leaves a column unread.
    Before a monotone denial is maintained, an added and a removed fact
    of the same relation cancel out, counting multiplicities, when they
    agree on every column it reads: the denial cannot tell them apart.
    So the siblings an insert or a withdrawal shifts, whose only change
    is the position column, cost the conference denials no evaluation.
    Recomputed denials keep the touched-relation rule.

    {b Proven deltas.}  A caller that knows a delta leaves every view as
    it is hands it to {!skip_delta} instead of {!apply_delta}.  The
    repository does so for a statement whose simplified checks all held
    on a state with every view empty: by Theorem 1 of the paper the
    constraints still hold after it, so the views stay empty. *)

type t

type stats = {
  mutable evals : int;  (** residual delta evaluations *)
  mutable reverifies : int;  (** view rows re-checked after deletions *)
  mutable recomputes : int;  (** full re-evaluations (non-monotone denials) *)
  mutable skipped : int;
      (** denials untouched by a delta, or whose share of it cancelled *)
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

val skip_delta : t -> unit
(** Account for a delta known to change no view without evaluating it:
    every entry counts as skipped.  The caller vouches for the delta;
    nothing here checks it. *)

val violated : ?view:Store.t -> t -> string list
(** Names of constraints with at least one materialized witness, in
    constraint order.  [view] (default {!view}) may be a frozen handle of
    the view store ([Store.freeze]): the emptiness test then answers for
    the generation the handle captured. *)

val view : t -> Store.t
(** The materialized witness store (read-only by convention). *)

val stats : t -> stats
val entry_count : t -> int
