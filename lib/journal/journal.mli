(** Write-ahead journal of guarded XUpdate statements.

    The journal is an append-only file of checksummed, length-prefixed
    records, fsync'd after every append, giving the repository's guarded
    update pipeline a durable redo log: an {e intent} record (the
    serialized statement plus the checking strategy that admitted it) is
    written before the document is mutated, and a {e commit} or {e abort}
    record after.  Recovery (see [Xic_core.Repository.bring_up]) replays
    the intents of committed transactions against freshly loaded base
    documents; uncommitted or aborted transactions and a torn final
    record — the signature of a crash mid-write — are discarded.

    On-disk format: a [XICJ2\n] magic, an 8-byte big-endian {e generation}
    number, then records of the form
    [length (4 bytes, big endian) | payload | MD5(payload) (16 bytes)].
    Version-1 journals ([XICJ1\n], no generation field) are still read,
    as generation 0.  The generation increments on every {!reset}
    (checkpoint truncation), so a snapshot can record {e which} journal
    incarnation its watermark counts into — recovery then replays
    exactly the suffix past the checkpoint and never mistakes a regrown
    journal for an already-applied one.  The journal knows nothing about
    XML: statement payloads are opaque strings, serialized and parsed by
    the repository layer.

    {b Logical end and physical size.}  An open journal grows in
    zero-filled extents of {!extent} bytes, each synced once when it is
    added, and records are written at the {e logical end} inside the
    extent: a commit's fsync then overwrites allocated blocks and never
    changes the file size, so it writes no inode metadata.  Once a
    record is appended, the file's {e physical size} runs past the
    logical end by a zero tail of at least four bytes.  {!close} trims the file to its logical end, so a
    cleanly closed journal holds exactly its records; a crashed one
    keeps its zero tail until the next {!open_} truncates it.

    {b Reading the tail.}  A zero length prefix ends the log cleanly
    when it and every byte after it are zero (every real payload is
    non-empty), so a zero tail reads as [Clean].  A zero length prefix
    with a non-zero byte anywhere after it is a damaged record — a
    zeroed sector, or a short record whose one non-zero length byte
    rotted — and reads as [Corrupt], so the committed records past it
    are never silently dropped.  Any other {e bad} record is one whose length runs past the end of the file
    or that fails its checksum.  It is [Torn] when its last byte and
    every byte after it are zero, or it is cut off by the end of the
    file — an append into the extent that never finished — and
    [Corrupt] otherwise.  One ambiguity remains: a bit-rotted {e final}
    record whose MD5 happens to end in [0x00] reads as torn, 1 time in
    256. *)

type t
(** An open journal handle (append position after the last valid record). *)

type entry =
  | Intent of { txn : int; seq : int; strategy : string; payload : string }
      (** statement [seq] of transaction [txn], admitted by [strategy],
          serialized as [payload] — journaled before the mutation *)
  | Commit of { txn : int }
      (** transaction [txn] fully applied; its intents are now redo-able *)
  | Abort of { txn : int }
      (** transaction [txn] rolled back; its intents are void *)
  | Truncate of { txn : int; keep : int }
      (** rollback to a savepoint: only the first [keep] intents of
          [txn] remain effective *)

(** How the journal file ends. *)
type tail =
  | Clean
      (** last record intact, followed by the end of the file or by a
          zero tail *)
  | Torn of { dropped : int }
      (** the final record is cut short — by the end of the file, or by
          zeros from its last byte on — the signature of a crash
          mid-append; [dropped] bytes (to the physical end) discarded *)
  | Corrupt of { dropped : int }
      (** a record whose checksum fails with non-zero bytes at or after
          its last byte, or a zero length prefix with non-zero bytes
          after it — bit rot or an overwritten region, {e not} a
          simple crash; scanning stops there and [dropped] bytes (the
          bad record and everything after) are discarded *)

type read_result = {
  entries : entry list;  (** all valid records, file order *)
  tail : tail;  (** how the file ended *)
  generation : int;  (** the journal incarnation (0 for v1 files) *)
}

exception Journal_error of string
(** I/O failures and malformed journal files. *)

val extent : int
(** The size the file grows by, zero-filled and synced once (1 MiB).
    The file is grown to the next multiple of [extent] that leaves a
    zero length prefix past the record being appended. *)

val open_ : ?sync:bool -> string -> t
(** Open [path] for appending, creating it if missing.  Existing records
    are scanned to seed {!next_txn}; a torn tail left by a crash is
    truncated away so new records land on a valid prefix.  A [Corrupt]
    journal is refused and left byte-identical: the records past the
    damage may be committed, and truncating would drop them silently.
    Creation fsyncs the parent directory so the new entry itself is
    durable.  With [sync = false] (default [true]) appends skip the
    fsync — faster, but a crash may lose recent records (never corrupt
    the prefix).
    @raise Journal_error on a [Corrupt] journal, naming the bytes past
    the damage. *)

val path : t -> string

val generation : t -> int
(** The journal's current generation (bumped by {!reset}). *)

val entry_count : t -> int
(** Valid records currently in the file — the snapshot watermark. *)

val bytes : t -> int
(** Bytes in the current journal generation (header included): the
    logical end, where the next record goes, not the preallocated
    physical size.  0 once closed. *)

val next_txn : t -> int
(** A fresh transaction id (greater than any id already journaled). *)

val append : ?defer_sync:bool -> t -> entry -> unit
(** Serialize, write and (unless [sync = false]) fsync one record.

    [~defer_sync:true] skips the per-record fsync even on a durable
    journal: the bytes are written but their durability rides on the
    next synced append — group commit.  Only correct for records whose
    loss recovery already tolerates, i.e. [Intent]/[Truncate] records
    of a transaction whose [Commit] is the synced record that follows:
    fsync flushes the whole file, so a durable commit record implies
    durable intents, and a crash before it discards the transaction
    with or without its intents on disk.

    A record that does not fit in the current extent first grows the
    file by a synced zero fill.

    Failpoints: [mid_write] (crash half-way through the record, leaving
    a torn tail), [journal_write] (mediated: torn-write and injected-EIO
    actions apply, the latter retried with bounded backoff),
    [journal_fsync], and [journal_grow] (crash half-way through an
    extent's zero fill).  A failed write, fill or fsync poisons the
    handle: later appends are refused and {!close} leaves the file as it
    is.  An fsync that fails may have dropped the dirty pages it was
    flushing, so a later one succeeding would not make them durable. *)

val reset : t -> unit
(** Atomically replace the journal with an empty, unallocated one of the
    next generation — the checkpoint truncation.  Crash-safe by rename: a
    crash during reset leaves either the old journal (all of whose
    entries the snapshot's watermark covers) or the fresh empty one.
    Failpoints: [journal_reset] (before anything), [journal_reset_rename]
    (new file written, not yet renamed in). *)

val close : t -> unit
(** Trim the file to its logical end and close it: a cleanly closed
    journal is byte-identical to one written without preallocation. *)

val read : string -> read_result
(** Read all valid records of a journal file, stopping at the first torn
    or corrupt record (see {!type:tail}).  @raise Journal_error when the
    file cannot be read or does not carry a journal header. *)

val committed : entry list -> (int * entry list) list
(** The committed transactions in commit order, each with its effective
    [Intent] records: [Truncate] records drop rolled-back suffixes, and
    transactions without a [Commit] (or with an [Abort]) are omitted. *)

val committed_payloads : entry list -> (int * string list) list
(** {!committed} reduced to each transaction's statement payloads in
    application order — the exact strings recovery re-parses and
    replays. *)
