(** Incremental (delta-driven) maintenance of materialized denial
    results — the semi-naive layer behind [Repository.check_incremental],
    the repository's live, post-write and pinned verdict.

    Each denial's violation witnesses (bindings of its positive-literal
    variables) are materialized as a relation in a private view store.
    {!apply_delta} maintains them from a net fact {!Delta} instead of
    re-running the denial over the whole store: untouched denials are
    skipped, and every other denial is maintained by one delta rule per
    {e site}, an atom of its body.  The view uses set semantics, so it
    is [Store.equal]-comparable with a from-scratch recompute (oracle
    route 8).  Only {!initialize} evaluates a denial in full, apart
    from a change that binds no variable of the residual (a negated
    atom sharing no variable with the rest of the body, or a deleted
    aggregate atom holding none of the group-by variables): its
    residual is the whole denial, and it counts as a recompute.

    {b Polarity.}  A site's polarity is the direction of fact change
    that can create witnesses there:
    {ul
    {- insertion: a positive atom, and an atom inside a [cnt]/[cntd]
       bounded by [>] or [>=];}
    {- deletion: a negated atom, and an atom inside a [cnt]/[cntd]
       bounded by [<] or [<=];}
    {- both: an atom inside a count bounded by [=] or [!=], or inside a
       [sum], [sumd], [max] or [min].}}
    A change in a creating direction is unified with the site's atom,
    and the residual denial is evaluated on the post-state store with
    the unifier restricted to:
    {ul
    {- every variable of a positive atom;}
    {- the variables a negated atom shares with the rest of the body
       (its locals stay existential);}
    {- for an inserted fact inside an aggregate, each group-by (outer)
       binding of the aggregate rows the fact takes part in, evaluated
       once per distinct group;}
    {- for a deleted fact inside an aggregate, the outer variables the
       atom itself holds: the fact is gone, so its rows cannot be
       matched, and the fewer bindings cover a superset of the groups
       it left.}}
    A change in the opposite direction can only undo such a creation:
    the entry's existing rows are re-verified against the post-state,
    once per delta.  A site that creates both ways does both.

    {b Plans.}  Every evaluation runs an {!Eval.plan} compiled by
    {!create}, so maintenance compiles nothing.  Each entry keeps:
    {ul
    {- the denial with no inputs, for {!initialize};}
    {- the denial with the row's (positive-literal) variables as
       inputs, for re-verifying a row;}
    {- per site, one residual per creating direction, with the
       variables that direction binds as inputs (sites binding the same
       variables share it);}
    {- per aggregate site that creates on insertion, the aggregate's
       conjunction with the atom's variables as inputs, for collecting
       the groups an inserted fact takes part in.}}
    A residual is the denial itself with those variables bound by the
    caller, not a substituted copy of it.

    {b Not derived from [After].}  The simplifier's [After] rules also
    say what an update changes, but their residuals describe the
    {e pre}-state: the count branches shift the bound by one, and a
    multi-fact delta expands into a cross product of per-fact cases.
    {!apply_delta} runs after the store already holds the delta, so
    the rules here evaluate against the post-state instead.

    {b Read columns.}  Each denial knows which columns of each relation
    it reads.  Column [i] of relation R is read when some atom over R —
    positive, negated or inside an aggregate — holds at [i]:
    {ul
    {- a constant;}
    {- a variable that occurs more than once in the denial, counting
       comparisons and aggregate targets, bounds and group-by;}
    {- a witness variable (a named variable of a positive literal,
       copied into the view row);}
    {- a local of a target-less [cntd], which counts whole local
       vectors.}}
    Only a singleton, non-witness variable leaves a column unread.
    Before a denial is maintained, an added and a removed fact of the
    same relation cancel out, counting multiplicities, when they agree
    on every column it reads: the denial cannot tell them apart.  So the
    siblings an insert or a withdrawal shifts, whose only change is the
    position column, cost the conference denials no evaluation.

    {b Proven deltas.}  A caller passes [~proven:true] to {!apply_delta}
    when the delta is one statement whose simplified checks all held on
    the state the views describe; the repository does so for every
    statement its pre-check accepted.  The caller vouches for this;
    nothing here checks it.  Each constraint is simplified with only its own denials as hypotheses,
    so Theorem 1 of the paper holds per constraint: one whose view is
    empty held before the statement and still holds after it, and its
    entries are skipped.  The views of violated constraints are
    maintained as usual.

    {b Counters.}  The work is counted process-wide in the metrics
    registry ({!Xic_obs.Obs.Metrics}), across every view set and every
    rebuild:
    {ul
    {- [incr_evals]: residual delta evaluations;}
    {- [incr_reverifies]: view rows re-checked after removals;}
    {- [incr_recomputes]: full evaluations, by {!initialize} or for a
       change that binds no variable of the residual;}
    {- [incr_skipped]: denials untouched by a delta, whose share of it
       cancelled, or skipped as proven.}} *)

val c_evals : Xic_obs.Obs.Metrics.counter
val c_reverifies : Xic_obs.Obs.Metrics.counter
val c_recomputes : Xic_obs.Obs.Metrics.counter
val c_skipped : Xic_obs.Obs.Metrics.counter
(** The cells of [incr_evals], [incr_reverifies], [incr_recomputes] and
    [incr_skipped]. *)

type t

val create : (string * Term.denial list) list -> t
(** One view relation per (constraint, denial).  The view starts empty;
    call {!initialize} against the current store before applying deltas.
    Compiles every plan the views will run ("Plans").
    @raise Eval.Unsafe if any denial contains parameters (only full
    constraint denials are maintainable; simplified checks stay on the
    per-update path), or cannot be scheduled. *)

val initialize : t -> Store.t -> unit
(** (Re)materialize every denial's witnesses from scratch, with the
    entries' compiled full plans. *)

val apply_delta : ?proven:bool -> t -> Store.t -> Delta.t -> bool
(** Maintain the views given the net delta that took the store to its
    current (post-mutation) state.  [store] must already include the
    delta.  With [~proven:true] (default [false]) the entries of every
    constraint whose view is empty are skipped instead (see "Proven
    deltas"); the result says whether any entry was skipped that way.
    @raise Eval.Unsafe / Eval.Budget_exceeded as {!Eval.violations}. *)

val violated : ?view:Store.t -> t -> string list
(** Names of constraints with at least one materialized witness, in
    constraint order.  [view] (default {!view}) may be a frozen handle of
    the view store ([Store.freeze]): the emptiness test then answers for
    the generation the handle captured. *)

val view : t -> Store.t
(** The materialized witness store (read-only by convention). *)

val entry_count : t -> int
