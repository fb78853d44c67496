(** Named fault-injection points for crash and I/O-failure testing.

    A {e failpoint} is a named site in the durability layer (journal
    append, snapshot write, fsync, rename, …).  Sites are free when
    unarmed; arming one — programmatically ({!set}) or through the
    [XIC_FAILPOINT] environment variable, read once at startup — makes
    the site fail in a controlled way, so tests can drive the recovery
    machinery through every crash window.

    Environment syntax: a comma-separated list of specs
    [NAME[@SKIP][=ACTION]], where [SKIP] hits are let through before the
    action fires and [ACTION] is one of
    {ul
    {- [exit] (default): terminate the process immediately, without
       flushing buffers — simulating a crash;}
    {- [raise]: raise {!Triggered}, for in-process tests;}
    {- [torn[:KEEP]] / [torn-raise[:KEEP]]: at a mediated write site,
       write only a [KEEP] fraction (default 0.5) of the buffer, then
       crash (or raise);}
    {- [short[:KEEP]]: at a mediated read site, deliver only a [KEEP]
       fraction of the data (once per arming);}
    {- [eio[:N]]: fail the next [N] (default 1) hits with
       [Unix.Unix_error (EIO, …)] — exercising the bounded
       retry-with-backoff of the write paths;}
    {- [delay:MS]: sleep [MS] milliseconds, for race widening.}}

    The registry is multi-armed: several sites can be armed at once.
    Registered crash points include [before_apply], [after_apply],
    [before_commit], [mid_write] (PR 1), and the snapshot/journal I/O
    sites listed by {!known}. *)

type action =
  | Exit  (** [Unix._exit 42]: no buffer flushing, no [at_exit] *)
  | Raise  (** raise {!Triggered} *)
  | Torn_write of { keep : float; crash : bool }
      (** at a mediated write: emit only [keep] of the bytes, then crash
          ([crash = true]) or raise {!Triggered} *)
  | Short_read of { keep : float }
      (** at a mediated read: deliver only [keep] of the data, once *)
  | Eio of { failures : int }
      (** fail the next [failures] hits with an injected [EIO] *)
  | Delay of { ms : float }  (** sleep, for race widening *)

exception Triggered of string
(** Raised on an armed failpoint with the [Raise] (or [torn-raise])
    action. *)

val set : ?action:action -> ?after:int -> string -> unit
(** Arm the named failpoint ([action] defaults to [Exit]); the first
    [after] (default 0) hits pass through before it fires. *)

val clear : unit -> unit
(** Disarm all failpoints. *)

val declare : string -> unit
(** Register a site name for {!known} without arming it.  Sites also
    self-register on first {!hit}; the durability layers declare theirs
    at module initialization so the torture harness can enumerate the
    full crash surface up front. *)

val known : unit -> string list
(** All declared site names, sorted. *)

val hit : string -> unit
(** Trigger [name] if armed (and its skip count is exhausted); otherwise
    do nothing.  [Torn_write]/[Short_read] actions are inert at plain
    sites — they only act at the mediated I/O sites below. *)

val write_fault : string -> len:int -> int option
(** Consult the registry before writing [len] bytes at site [name].
    [Some keep] means: write only the first [keep < len] bytes, then call
    {!torn_crash}.  [None] means write normally (a non-torn action, e.g.
    an injected EIO, fires from here like {!hit}). *)

val torn_crash : string -> 'a
(** Complete a torn write: crash the process, or (for [torn-raise])
    disarm the site and raise {!Triggered}. *)

val read_fault : string -> len:int -> int
(** Number of bytes site [name] should actually deliver out of [len]
    (short-read injection, once per arming); [len] when unarmed. *)

val exit_code : int
(** Process exit status used by the [Exit] action (42). *)
