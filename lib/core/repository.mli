(** The repository: an XML document collection with declared constraints
    and update patterns, supporting full and optimized (incremental)
    integrity checking with early detection of illegal updates.

    Checking semantics (Section 7 of the paper):
    {ul
    {- {e full check}: evaluate every constraint's XQuery translation
       against the current documents ({!check_full});}
    {- {e optimized check}: when an incoming update instantiates a
       registered pattern, evaluate the pattern's pre-compiled simplified
       checks with the extracted parameter valuation — {e before} the
       update executes, so illegal updates are never applied;}
    {- {e fallback}: updates matching no pattern (or whose pre-check
       degraded) are executed, checked against the delta-maintained
       views ({!check_incremental}) and compensated when a constraint
       that held before it is violated after it — footnote 4's
       execute–check–compensate, the only fallback.}} *)

open Xic_xml

type t

(** A simplified check, pre-compiled at pattern-registration time.  The
    closure plan of its XQuery is cached on first evaluation, keyed by
    the enclosing (pattern, constraint) pair by construction. *)
type optimized_check = {
  constraint_name : string;
  simplified : Xic_datalog.Term.denial list;
  simplified_xquery : Xic_xquery.Ast.expr;
  mutable simplified_plan : Xic_xquery.Eval.compiled option;
}

(** Plan-cache counters: a {e hit} is a check evaluation served by a
    cached closure plan, a {e miss} is a compilation. *)
type plan_stats = {
  plan_hits : int;
  plan_misses : int;
}

exception Repository_error of string

val create : Schema.t -> t
val schema : t -> Schema.t
val doc : t -> Doc.t

val set_eval_budget : t -> int option -> unit
(** Install (or clear, with [None]) a step budget for constraint-check
    evaluation.  Every optimized check runs under its own budget of that
    many evaluator steps; a check that exhausts it is treated as
    {e degraded} — the guarded update falls back to the post-state check
    instead of failing (see {!report}). *)

val plan_stats : t -> plan_stats
(** A read of the registry counters [plan_cache_hits] and
    [plan_cache_misses]: process-wide, over full and simplified checks
    of every repository. *)

val index : t -> Xic_xpath.Eval.indexes
(** The indexes of every XQuery check and XUpdate target selection,
    created (lazily, unbuilt) on first demand: the tag and rank tables
    ({!Index}), and a value prober reading {!store}'s column indexes.
    The prober declines (the evaluator scans) while the mirror has
    pending marks or an element holds more than its relation's columns
    (a second embedded child after an unvalidated load or update), for
    a path the mapping does not cover, and for the empty key;
    {!check_full} and {!try_check_optimized} flush first.
    The scan route (no index) is what the oracles and [bench index]
    compare it with. *)

val index_stats : t -> Index.stats option
(** A read of the process-wide index counters ({!Index.stats}), once
    this repository has created its index. *)

val load_fused : ?validate:bool -> t -> string -> unit
(** Load one XML document: parse, intern and shred it in one streaming
    scan of the source ([Xml_parser.parse_document_into] + [Shred.sink]),
    under an ["ingest"] trace span; with [validate] (default true) it must
    conform to the DTD declaring its root type.  The source must hold
    exactly one root element, with nothing but an optional prolog,
    comments, processing instructions and whitespace around it.  The
    Datalog store is filled while parsing, and positions come from the
    parser for free; the differential oracle checks the store against a
    from-scratch [Shred.shred] of the loaded document and the verdicts
    against the XQuery route.  The views are
    dropped, and the next verdict rebuilds them.  On failure no root is
    registered and the store is re-shredded from the live roots, so it
    stays exact.
    @raise Repository_error on parse, shredding or validation failure. *)

val add_constraint : t -> Constr.t -> unit
(** Register a constraint; its simplified check is compiled for every
    registered pattern (the other constraints' checks are kept), and the
    views are rebuilt by the next verdict.
    The simplification framework assumes a consistent starting state;
    registration does not check it. *)

val register_pattern : t -> Pattern.t -> unit
(** Register an update pattern: runs [Simp] against every constraint and
    pre-translates the simplified checks to XQuery.  A constraint [Simp]
    cannot simplify for the pattern (a [sum] bound the pattern's
    insertions reach) gets no pre-check: the pair is logged once, here
    (or by {!add_constraint}), and a matching statement reports it as a
    {!degradation} and takes the full check. *)

val constraints : t -> Constr.t list
val patterns : t -> Pattern.t list

val optimized_checks : t -> Pattern.t -> optimized_check list
(** The pre-compiled simplified checks of a registered pattern.
    @raise Repository_error for unregistered patterns. *)

val check_full : t -> string list
(** Names of currently violated constraints (empty = consistent), via the
    full XQuery checks.  Flushes the mirror first, so the value probes
    read the store. *)

val check_full_datalog : t -> string list
(** Same, every denial evaluated over the relational mirror; the tests'
    recompute reference. *)

(** {1 Pinned generations (reader isolation, O(1))}

    A pin is a frozen generation handle of the materialized store
    ([Store.freeze]) stamped with the {!generation} it captured: an
    O(#relations) pointer capture sharing the per-relation insertion
    logs with the live writer, {e not} a copy — and of the materialized
    denial views the same way.  The writer only ever
    conses onto its own log heads, so a pinned reader's verdicts are
    unaffected by later commits, checkpoints, and journal truncation —
    the snapshot-isolated read side of the check server — while a pin
    retains only the unshared log suffix in memory.

    Handles are refcounted in a retained-generation table: pins of the
    same generation share one handle, {!unpin} releases it, and
    zero-reference entries linger as bounded history ({!pin_as_of}
    time-travel checks) until evicted by newer history or a
    {!checkpoint}. *)

val generation : t -> int
(** Committed-transaction counter: starts at 0, incremented by every
    {!commit_txn} that applied at least one statement (including
    {!guarded_update} and {!guarded_batch} commits) and by each
    committed transaction with a surviving statement that {!recover}
    replays — so a recovered generation equals the live one. *)

type pin

val pin : t -> pin
(** Capture the current state in O(1) (flushes pending mutation marks
    first, then freezes the store and the views — no copy; the views are
    built first if no verdict has built them yet).  Repeated pins of an
    unchanged generation and constraint list return the same shared
    handle.  Must not be taken while
    a transaction holds applied-but-uncommitted statements — the handle
    would capture them as committed state; pin before {!begin_txn}, or
    after the transaction closes. *)

val unpin : t -> pin -> unit
(** Release one reference on the pin's retained generation.  Dropped
    generations become reclaimable history; unpinning a pin whose entry
    was already evicted (store reload, checkpoint) is a no-op — the pin
    record itself keeps its handle alive for its holder regardless. *)

val pin_as_of : t -> int -> pin option
(** A pin of a {e retained} past generation — time travel over the
    history kept by the retained-generation table ([None] when that
    generation is no longer retained).  Balance with {!unpin}. *)

val check_as_of : t -> int -> string list option
(** Verdict at a retained past generation: {!check_pinned} over a
    transient {!pin_as_of} handle ([None] when not retained). *)

val retained_generations : t -> (int * int) list
(** The retained-generation table as [(generation, refcount)] pairs in
    ascending generation order — refcount 0 marks history kept only for
    time-travel checks. *)

val retained_bytes : t -> int
(** Rough heap estimate of what the retained handles hold {e beyond}
    the structure they share with the live store — 0 in the steady
    state where every log is still a suffix of the writer's. *)

val pin_generation : pin -> int
val pin_store : pin -> Xic_datalog.Store.t

val pin_view : pin -> Xic_datalog.Store.t
(** The views frozen with the pin (see {!incr_view}). *)

val check_pinned : t -> pin -> string list
(** Names of constraints violated in the pinned state, verdict-equivalent
    to {!check_full} at the time the pin was taken: an emptiness test per
    denial over the frozen views.  A pin answers for the constraints it
    was taken with. *)

(** {1 Incremental (delta-driven) checking}

    The relational store is kept exact across every mutation by an
    event-driven mirror; each reconciliation yields a net fact delta.
    Per-denial violation witnesses are materialized
    ([Xic_datalog.Incr]) by the first verdict and maintained from those
    deltas, so the post-state verdict of a guarded update or a recovery
    replay costs time proportional to the {e update}, not the document:
    denials over untouched relations are skipped outright, and every
    other denial evaluates only the residual joins its changed facts
    bind. *)

val set_incremental : t -> bool -> unit
(** [true] is the default and does nothing; [false] discards the views,
    so the next verdict rematerializes them. *)

val check_incremental : t -> string list
(** Names of currently violated constraints, from the materialized
    views — initialized from the store on first use, maintained by
    deltas afterwards.  Verdict-equivalent to {!check_full} (oracle
    route 8 asserts this, plus [Store.equal] of the views against a
    from-scratch recompute).  A flush that cannot maintain a view drops
    the views, and the next verdict rebuilds them. *)

val incr_view : t -> Xic_datalog.Store.t option
(** The materialized witness store, when views exist — one relation
    ["name#i"] per (constraint, denial), holding the bindings of the
    denial's positive-literal variables.  For tests and oracles. *)

(** Delta and view-maintenance counters: the [delta_*] and [incr_*]
    fields other than [incr_entries] and [incr_view_rows] read the
    process-wide registry counters of the same names, which keep
    counting across view rebuilds and repositories; take differences.
    [incr_entries] and [incr_view_rows] describe this repository's
    live views. *)
type delta_stats = {
  delta_flushes : int;  (** mirror reconciliations *)
  delta_facts_added : int;  (** gross store insertions via deltas *)
  delta_facts_removed : int;  (** gross store deletions via deltas *)
  incr_entries : int;  (** materialized (constraint, denial) views *)
  incr_evals : int;  (** delta-bound residual evaluations *)
  incr_reverifies : int;  (** view rows re-checked after deletions *)
  incr_recomputes : int;
      (** full view evaluations: (re)initializations, and changes that
          bind no variable of a residual *)
  incr_skipped : int;
      (** views untouched by a delta, or spared by a proven flush *)
  incr_view_rows : int;  (** materialized witnesses right now *)
}

val delta_stats : t -> delta_stats

val match_update : t -> Xic_xupdate.Xupdate.t -> (Pattern.t * Pattern.valuation) option
(** Recognize a single-modification update against the registered
    patterns (first match wins).  The statement's select is evaluated
    once, through {!index}, for every pattern of its op. *)

(** An optimized check that could not be completed (evaluation error or
    exhausted step budget), or a constraint [Simp] could not simplify for
    the pattern; the guarded-update engine falls back to the full check
    and reports the degradation. *)
type degradation = { failed_check : string; reason : string }

val try_check_optimized :
  t -> Pattern.t -> Pattern.valuation -> string list * degradation list
(** Names of constraints whose simplified check reports a violation for
    the proposed update (evaluated on the {e current} state, flushed
    first), plus the constraints the pattern has no check for, then the
    checks that degraded (evaluation error, exhausted step budget)
    instead of completing, each logged as a warning. *)

(** Result of a guarded update. *)
type outcome =
  | Applied of [ `Optimized | `Full_check ]
      (** executed; which checking strategy validated it *)
  | Rejected_early of string
      (** refused before execution (optimized check); the violated
          constraint's name *)
  | Rolled_back of string
      (** executed, found by {!check_incremental} to violate a
          constraint that held before it (named), compensated *)

(** Outcome of a guarded update plus the checks that degraded along the
    way.  [degradations] is non-empty when an optimized check failed to
    evaluate or ran out of its step budget: correctness is preserved by
    falling back to the full check, and the report says so. *)
type report = { outcome : outcome; degradations : degradation list }

val guarded_batch :
  ?journal:Xic_journal.Journal.t -> t -> Xic_xupdate.Xupdate.t list -> report list
(** Apply updates under integrity control, one {!txn_apply} each (reports
    in input order; a statement refused or compensated does not stop the
    rest).

    A statement that instantiates a registered pattern runs the
    pattern's pre-compiled simplified checks before execution.  Any
    other statement — or one whose pre-check degraded — is executed,
    checked by {!check_incremental} and compensated when it violates a
    constraint that held before it (Section 7, footnote 4 of the paper:
    execute–check–compensate).  A violation the state already had is
    not the statement's: as for a pre-checked statement, only the
    constraints that held are its premise (Theorem 1).

    All statements share one transaction under group commit: with
    [journal], intent records (serialized statement and strategy) are
    written before the documents are touched, and one closing record
    fsync makes the call durable.  The transaction commits when at least
    one statement stands, and is rolled back ({!rollback_txn}, an abort
    record) otherwise, so refused or compensated updates leave no
    committed trace and no generation.  Each pre-checked statement
    reaches the store in a flush of its own, which maintains only the
    views of constraints already violated: by Theorem 1, applied per
    constraint, the pre-check proved every empty view stays empty
    ([incr_skipped] counts the views skipped, the [incr_proven_flushes]
    metric the flushes that skipped at least one).  What compensations and rollbacks left is flushed
    before the call returns. *)

val guarded_update :
  ?journal:Xic_journal.Journal.t -> t -> Xic_xupdate.Xupdate.t -> outcome
(** The one-statement {!guarded_batch}, returning its outcome. *)

(** {1 Transactions}

    A transaction groups several guarded statements into one atomic,
    journaled unit: either every applied statement survives ({!commit_txn})
    or none does ({!rollback_txn} or a crash before the commit record).
    Statement-level integrity control is unchanged — an illegal statement
    is refused or compensated individually and the transaction stays
    open. *)

type txn

val begin_txn : ?journal:Xic_journal.Journal.t -> t -> txn
(** Every transaction group-commits: the fsync of its intent and
    truncate records is deferred to the closing commit/abort record's
    fsync — one durability point per transaction instead of one per
    statement.  Safe because recovery discards transactions without a
    durable closing record whether or not their intents reached disk. *)

val txn_statements : txn -> int
(** Statements currently applied. *)

val txn_apply : txn -> Xic_xupdate.Xupdate.t -> report
(** Apply one statement inside the transaction: the pre-check or
    execute–check–compensate dispatch described at {!guarded_batch}.
    The intent record carries the statement's sequence number; no commit
    record is written until {!commit_txn}.
    @raise Repository_error if the transaction is closed. *)

val commit_txn : txn -> unit
(** Force the commit record to disk and close the transaction.  Until
    this returns, a crash recovers to the pre-transaction state.
    @raise Xic_journal.Journal.Journal_error when the record fails; the
    statements are then undone in memory and the transaction closed,
    while whether it committed is unknown until recovery reads the
    journal. *)

val rollback_txn : txn -> unit
(** Undo every applied statement, journal an abort record, and close the
    transaction.  The abort record is forced to disk {e before} the
    in-memory compensation runs, so a crash or signal-driven shutdown
    anywhere in the undo still leaves the journal's last word on this
    transaction a closing record, never a dangling intent.
    @raise Xic_journal.Journal.Journal_error when the record fails,
    after the undo, as {!commit_txn}. *)

(** {1 Crash recovery} *)

type recovery_report = {
  replayed_txns : int;
  replayed_statements : int;
  discarded_txns : int;
      (** journaled transactions without a commit record (in-flight at
          the crash, or aborted) *)
  tail : Xic_journal.Journal.tail;
      (** how the journal ended; only the prefix before a [Torn] or
          [Corrupt] record was replayed *)
  replay_errors : (int * string) list;
      (** transaction id and error, for committed statements that no
          longer replay (e.g. the base documents changed) *)
  post_violations : string list;
      (** constraints violated after replay — empty for a journal
          produced by guarded updates against the same base documents *)
}

(** Where a repository's base state comes from: XML documents, each
    with the name its errors cite, or a snapshot file.  The documents
    are loaded as the sequence yields them, so one read from a file on
    demand is the only text held at a time. *)
type source = Documents of (string * string) Seq.t | Snapshot of string

val bring_up :
  ?validate:bool ->
  Schema.t ->
  source ->
  constraints:Constr.t list ->
  patterns:Pattern.t list ->
  journal:string option ->
  t * recovery_report option
(** The one bring-up of every command, the server and the crash tests:
    create a repository, load the documents ([validate] defaulting to
    true) or the snapshot, add the constraints, register the patterns;
    then, when the [journal] file exists, materialize the views and
    replay the committed entries past the snapshot's watermark, whose
    deltas the views maintain.  The report ([None] without a journal)
    holds the replay errors, post-replay violations and journal tail for
    the caller to judge.
    @raise Repository_error when a document (named first in the
    message) or the snapshot (["snapshot PATH: …"]) fails to load, a
    constraint or pattern is refused, or the journal is unreadable. *)

(** {2 The steps of {!bring_up}}

    Exported for the benchmark's traced probe, which times them one by
    one, and for tests that replay into a repository of their own. *)

val recover : ?skip:int -> Xic_journal.Journal.read_result -> t -> recovery_report
(** Replay the committed transactions of a journal in commit order,
    after dropping its first [skip] entries (default 0).  Uncommitted
    and aborted transactions and compensated statements (cut by a
    truncate record) are discarded, so after a crash at {e any} point
    the repository recovers to the last committed state. *)

val recover_skip :
  Xic_snapshot.Snapshot.meta -> Xic_journal.Journal.read_result -> int
(** How many leading journal entries the snapshot already covers, by the
    generation rule: a journal generation {e newer} than the snapshot's
    replays in full (0), the {e same} generation skips the snapshot's
    watermark, an {e older} one is a stale pre-checkpoint journal and is
    skipped entirely. *)

val load_snapshot : t -> string -> Xic_snapshot.Snapshot.meta
(** Restore a snapshot into a freshly created repository: the arena is
    rebuilt in place with node ids preserved and the deserialized store
    installed as the materialized mirror — no parse, no shred.
    @raise Repository_error when the repository is non-empty;
    @raise Xic_snapshot.Snapshot.Snapshot_error when the file is
    missing, truncated or corrupt. *)

(** {1 Snapshot checkpointing} *)

type checkpoint_report = {
  snapshot_path : string;
  snapshot_bytes : int;
  snapshot_nodes : int;  (** live document nodes persisted *)
  snapshot_facts : int;  (** store tuples persisted *)
  wal_entries_folded : int;
      (** journal entries whose effects the snapshot now contains *)
  wal_reset : bool;  (** whether a journal was truncated afterwards *)
}

val checkpoint : ?journal:Xic_journal.Journal.t -> t -> string -> checkpoint_report
(** Write a crash-consistent snapshot of the current state (document
    arena, symbol table, materialized store) to the given path — temp
    file, fsync, rename, directory fsync — and, when [journal] is given,
    stamp its (generation, entry count) into the snapshot and {e then}
    reset it, bounding future recovery to the journal suffix written
    after this call.  A crash at any point leaves a recoverable pair:
    old snapshot + old journal, or new snapshot + old journal (replay
    skips the watermarked prefix), or new snapshot + fresh journal.

    Must not be called while a journaled transaction is open — the
    snapshot would capture uncommitted mutations as committed state.
    @raise Repository_error on I/O failure. *)

val apply_unchecked : t -> Xic_xupdate.Xupdate.t -> Xic_xupdate.Xupdate.undo
val rollback : t -> Xic_xupdate.Xupdate.undo -> unit

val store : t -> Xic_datalog.Store.t
(** The relational mirror of the current documents, after reconciling
    the marks pending since the last flush. *)

(** A concrete witness of a constraint violation. *)
type witness = {
  witness_constraint : string;
  denial : Xic_datalog.Term.denial;  (** the violated disjunct *)
  bindings : (string * Xic_datalog.Term.const) list;
      (** satisfying substitution over the denial's variables *)
  nodes : (string * Doc.node_id * string) list;
      (** variable, node, and its positional root path, for the bindings
          that denote document nodes *)
}

val explain : t -> witness list
(** One witness per violated constraint disjunct (evaluated over the
    relational mirror) — empty iff consistent.  Use the [nodes] paths to
    point users at the offending elements. *)

val witness_to_string : witness -> string
