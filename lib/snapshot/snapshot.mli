(** Crash-consistent binary snapshots of the repository state.

    A snapshot persists the three stores that cold-start would otherwise
    rebuild from XML — the struct-of-arrays document arena, the global
    symbol table, and the Datalog fact store — in one versioned,
    checksummed container, so a resident checker or a recovery is a
    single [load] away instead of a parse + shred.

    {2 On-disk format}

    {v
    "XICSNAP1\n"  magic (9 bytes)
    version       int (8 bytes LE)
    section*      [tag (1 byte) | length (8 bytes LE) | payload | Checksum(payload) (8 bytes LE)]
    0xff          end marker (proves the file was written out completely)
    v}

    Sections (all integers 8-byte little-endian, strings
    length-prefixed; see {!Xic_symbol.Wire}): {e meta} (journal
    generation + watermark and cardinalities), {e symbols} (the interned
    names table, index = saved symbol id), {e document} (the arena
    columns verbatim, node ids preserved), {e store} (relations by name,
    tuples in insertion order).

    Writing is atomic — temp file, fsync, rename, parent-directory
    fsync ({!Xic_journal.Atomic_file}) — so a crash during [save] leaves
    the previous snapshot intact.  Node ids survive the round trip;
    symbol ids are remapped through the saved names table because
    interning order is process-local.

    {2 Checkpoint protocol}

    [Repository.checkpoint] records the journal's (generation,
    entry-count) pair in the meta section {e before} resetting the
    journal.  Recovery then compares generations: a journal {e newer}
    than the snapshot (reset happened) replays in full; the {e same}
    generation replays only entries past the watermark; an {e older}
    generation is a stale leftover and is skipped entirely.  A crash
    between snapshot rename and journal reset is therefore harmless —
    replay skips exactly the prefix the snapshot already contains. *)

(** Why a snapshot failed to load — the recovery error taxonomy. *)
type error =
  | Missing  (** the file does not exist *)
  | Not_a_snapshot  (** bad magic *)
  | Unsupported_version of int
  | Truncated of string
      (** bytes missing: short file, cut section, absent end marker *)
  | Checksum_mismatch of string
      (** named section failed its 8-byte {!Checksum} *)
  | Malformed of string  (** sections verify but the content is invalid *)

exception Snapshot_error of string * error
(** The failing path and the classified error. *)

val error_message : error -> string

type meta = {
  journal_generation : int;
      (** generation of the WAL this snapshot covers (0 = no journal) *)
  journal_watermark : int;
      (** journal entries already folded into the snapshot: recovery on
          the {e same} generation skips this many *)
  nodes : int;  (** live document nodes *)
  facts : int;  (** store tuples *)
  symbols : int;  (** interned names persisted *)
}

val save :
  ?journal:int * int -> string -> Xic_xml.Doc.t -> Xic_datalog.Store.t -> int
(** [save ~journal:(gen, watermark) path doc store] writes the snapshot
    atomically and returns its size in bytes.  Failpoint sites:
    [snapshot_write] (mediated: torn-write / EIO injection),
    [snapshot_fsync], [snapshot_rename], [snapshot_dirsync].
    @raise Xic_journal.Atomic_file.Atomic_file_error on I/O failure. *)

val load : string -> Xic_xml.Doc.t -> meta * Xic_datalog.Store.t
(** Load a snapshot into [doc] (which must be a freshly created, empty
    document) and return the rebuilt store with the checkpoint metadata.
    Reads honour the [snapshot_read] short-read failpoint.
    @raise Snapshot_error with the classified {!error} on any failure;
    the document is only modified after every section checksum
    verified. *)

val read_meta : string -> meta
(** Load and verify only the metadata (no document or store rebuild).
    @raise Snapshot_error like {!load}. *)
