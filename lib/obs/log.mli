(** Structured, leveled logging — zero dependencies.

    Replaces the ad-hoc [Printf]/[Logs] call sites on the server,
    repository and journal paths with one sink: leveled, optionally
    JSON-lines, stamped with the monotonic clock ({!Obs.Clock}), and
    carrying the ambient request trace id so a log line can be joined
    against the span that produced it.

    Call sites use the message-closure idiom so a disabled level costs
    one load and a comparison — the format string is never rendered:

    {[ Log.warn ~src:"xic.server" (fun m -> m "dropping %s" what) ]}

    The logger is disabled until {!open_path} installs a sink, so
    library code may log unconditionally. *)

type level = Debug | Info | Warn | Error

val level_to_string : level -> string

val level_of_string : string -> level option
(** Accepts ["debug"], ["info"], ["warn"]/["warning"], ["error"]. *)

val set_level : level -> unit
(** Minimum level that reaches the sink (default [Info]). *)

val level : unit -> level

type format = Text | Json
(** [Text]: [ts=12.345 level=info src=… msg="…" k=v …].
    [Json]: one JSON object per line with the same fields. *)

val set_format : format -> unit

val open_path : string -> (unit, string) result
(** ["-"] installs stderr; anything else opens/truncates that file.
    On success the previous file sink (if any) is closed. *)

val close : unit -> unit
(** Flush and drop the sink; closes it if {!open_path} opened a file. *)

val enabled : level -> bool
(** True when a sink is installed and [level] passes the filter. *)

val set_trace_id : string option -> unit
(** Ambient trace context: every line emitted while set carries a
    [trace=…] field.  The server sets it around each request. *)

val trace_id : unit -> string option

type 'a msgf = (('a, unit, string, unit) format4 -> 'a) -> unit

val msg : level -> ?src:string -> ?fields:(string * string) list -> 'a msgf -> unit
val debug : ?src:string -> ?fields:(string * string) list -> 'a msgf -> unit
val info : ?src:string -> ?fields:(string * string) list -> 'a msgf -> unit
val warn : ?src:string -> ?fields:(string * string) list -> 'a msgf -> unit
val error : ?src:string -> ?fields:(string * string) list -> 'a msgf -> unit

val lines_emitted : unit -> int
(** Lines written to the sink since process start (all levels). *)
