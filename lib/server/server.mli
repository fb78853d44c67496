(** The resident check server.

    A server wraps one {!Xic_core.Repository.t} — arena, Datalog store,
    plan cache, secondary indexes, and materialized denial views all
    stay resident — and answers {!Protocol} requests:

    {ul
    {- [ping], [stats], [shutdown] — [stats] carries [server] (uptime,
       requests per second, generation) and the metrics registry as
       JSON ([metrics]): the request counters [serve_requests],
       [serve_guard_batches] and [serve_batched_guards], and one
       [serve_<op>_ms] histogram (count, p50, p90, p99) per op served;}
    {- [metrics]: Prometheus text exposition of every counter, gauge and
       latency histogram.  Before [stats] or [metrics] renders the
       registry, the serve gauges (open transactions, pins, retained
       generations, journal bytes since checkpoint, resident store
       facts, live connections) and the collector's counters
       ([gc_*]: minor and major collections, major-heap words
       allocated, heap words, from [Gc.quick_stat]) are synced;}
    {- [slow]: the 8 slowest requests so far (worst first; a fixed
       ring), each with its op, duration, trace identifiers, truncated
       request document, and — when request tracing is on — its full
       span tree;}
    {- [check]: live verdict, a pinned one ([{"pin":id}]), or a
       time-travel one at a retained past generation
       ([{"as_of":generation}]) — while a streaming transaction is open,
       plain checks are served from the last {e committed} generation's
       pin (snapshot isolation: readers never observe uncommitted
       statements).  A live check is
       {!Xic_core.Repository.check_incremental}, every other one
       {!Xic_core.Repository.check_pinned} over the resolved pin;}
    {- [pin] / [unpin]: capture / release a reader generation handle —
       O(1) copy-on-write freezes sharing structure with the live
       writer, never store copies; [{"generation":g}] pins a retained
       past generation instead of the current one;}
    {- [history]: the retained-generation table — every generation still
       materialized (in-flight pins and bounded time-travel history)
       with its refcount, plus the heap those handles hold beyond the
       live store ([pin_bytes]);}
    {- [guard]: one guarded update ([{"update":stmt}]), a one-statement
       {!Xic_core.Repository.guarded_batch} — guard requests arriving in
       the same poll round share one batch (single commit fsync) with
       per-request verdicts, and a failure of the batch (a failed
       commit fsync, say) is an error reply to each member; a statement
       matching no pattern is executed, checked and compensated (any
       ["fallback"] field is ignored);}
    {- [txn]: statements in one request ([{"updates":[stmt,…]}]), run
       as one {!Xic_core.Repository.guarded_batch} (one journaled
       transaction, committed when a statement stands), with one entry of
       [results] per statement; a statement that does not parse is
       answered there with its error and takes no part, and [committed]
       says whether a statement stands.  A [txn] request carrying an [abort]
       field is refused: a transaction is rolled back with [txn_begin] /
       [txn_stmt] / [txn_abort].  [guard], [txn] and a batched guard run
       share one path, and each refuses while a streaming transaction is
       open;}
    {- [txn_begin] / [txn_stmt] / [txn_commit] / [txn_abort]: a
       streaming transaction across requests (one writer at a time);}
    {- [checkpoint]: snapshot + journal truncation
       ({!Xic_core.Repository.checkpoint}); refused while a streaming
       transaction is open; evicts the zero-ref retained history — the
       snapshot owns that state durably.}}

    The ops above form a closed table.  A request naming no op in it
    (unknown, missing, or a frame that did not parse) gets an error
    reply and is timed, logged, traced and ring-recorded under the one
    name [invalid], so an op name a client invents never becomes a
    histogram, span name or log field; a batched guard run is timed as
    [guard_batch].

    Single-threaded [select] loop — on this container there is one CPU,
    so concurrency is I/O multiplexing, not parallelism; the serialized
    writer comes for free and readers are isolated by frozen generation
    handles that cost O(1) to open and retain only the unshared log
    suffix. *)

type config = {
  journal : Xic_journal.Journal.t option;
      (** guarded updates and transactions journal through this; the
          server owns it from here on and closes it at shutdown *)
  snapshot_path : string option;  (** default [checkpoint] target *)
  checkpoint_on_shutdown : bool;
      (** write a final checkpoint during graceful shutdown (requires
          [snapshot_path]) *)
}

val default_config : config
(** No journal, no snapshot path, no shutdown checkpoint. *)

type t

val create : ?config:config -> Xic_core.Repository.t -> t
val requests : t -> int
(** Requests handled so far: the [serve_requests] counter, which is
    process-wide like every registry cell. *)

val handle : t -> Protocol.json -> Protocol.json
(** Process one request (exceptions become [{"ok":false,...}] error
    responses).  Exposed for unit tests; the loop uses it too.

    Trace propagation: a request may carry [trace_id] (an opaque
    client-chosen correlation id) and [span_id] (the client's span),
    each cut to its first 128 bytes as the server reads it;
    both are attached to the per-request server span, the [trace_id] is
    stamped on every log line emitted while handling the request, and
    the response echoes the [trace_id] plus the server-assigned
    [span_id].  A request span is a root of {!Xic_obs.Obs.Trace.roots}
    (with the spans of the document load before it), the serve
    session's trace. *)

val report_json :
  ?extra:(string * Protocol.json) list ->
  Xic_core.Repository.report ->
  Protocol.json
(** A guarded statement's reply: [outcome] ([applied], [rejected] or
    [rolled_back]), [strategy] or [constraint], any [degradations], then
    [extra].  The CLI prints its local guards from this document too, so
    local and server transcripts agree. *)

val handle_round : t -> Protocol.json list -> Protocol.json list
(** Process one poll round's requests in order, applying maximal
    consecutive runs of [guard] requests as single batches.  Responses
    are in request order.  A batch's span lists the trace ids of at most
    its first 8 members. *)

val request_stop : t -> unit
(** Ask the serve loop to exit after the current round (signal-safe). *)

val shutdown : t -> unit
(** Graceful shutdown: abort any open streaming transaction (its abort
    record is forced to disk before the in-memory undo — see
    {!Xic_core.Repository.rollback_txn}), write the shutdown checkpoint
    if configured, and close the journal.  The journal is closed even if
    an earlier step raises.  Idempotent.  Failpoint: [serve_shutdown]
    fires before the transaction abort, so the torture tests can kill
    the process mid-shutdown. *)

val listen : Protocol.address -> Unix.file_descr
(** Bind + listen.  A Unix-domain path is unlinked first if stale. *)

val serve : ?idle_timeout:float -> t -> Unix.file_descr -> unit
(** Accept and serve connections until {!request_stop} (a [shutdown]
    request, SIGINT or SIGTERM — handlers are installed for both), then
    run {!shutdown} and close every connection and the listening
    socket.  [idle_timeout] (default 0.25 s) bounds the select wait so
    stop requests are honored promptly.

    Frame I/O allocates per loop, not per request: one 64 KiB read
    buffer, one reply queue ({!Protocol.send_frame}: one write per
    reply), and per connection a byte queue scanned in place
    ({!Protocol.scan_frames}).

    At most 960 connections are served at once (a constant: [select]'s
    FD_SETSIZE, 1024, less 64 descriptors kept for the listening
    socket, the journal, the log and the standard streams): a
    connection accepted beyond that, or whose descriptor number is
    FD_SETSIZE or more (which happens when descriptors inherited from
    the parent process hold the low numbers), is closed at once, with a warning in the log.
    A full descriptor table ([EMFILE], [ENFILE]) or a connection
    aborted before [accept] is transient.  A read or write
    error on one connection closes that connection only (SIGPIPE is
    ignored while the loop runs). *)
