(** Wire protocol of the check server: length-prefixed JSON frames.

    A frame is a 4-byte big-endian payload length followed by that many
    bytes of UTF-8 JSON — trivial to speak from any client, no
    delimiter-escaping, and the reader always knows how much to buffer.
    The JSON value type is deliberately minimal (this repository takes
    no external dependencies); {!Raw} embeds a pre-rendered JSON
    document verbatim, which is how the server's [stats] response reuses
    [Obs.Metrics.to_json] without re-encoding it. *)

type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Obj of (string * json) list
  | Raw of string
      (** printed verbatim (caller guarantees well-formed JSON); never
          produced by the parser *)

exception Protocol_error of string
(** Malformed JSON, oversized or truncated frames, connection errors. *)

val version : int
(** Request-vocabulary version, echoed by the server's [ping] response
    ([protocol] field).  Version 2 added generation handles:
    [pin {generation}], [check {as_of}], and the [history] op.  Version 3
    refuses a [txn] request carrying [abort]. *)

val to_string : json -> string
val of_string : string -> json

(** {1 Field accessors} ([None] / default when absent or mistyped) *)

val member : string -> json -> json option
val string_field : string -> json -> string option
val int_field : string -> json -> int option
val bool_field : ?default:bool -> string -> json -> bool
val list_field : string -> json -> json list option

(** {1 Framing} *)

val max_frame : int
(** Refuse frames larger than this (16 MiB). *)

type queue
(** A growable byte queue.  The server keeps one per connection for the
    bytes it has read but not yet framed, and one per serve loop for
    the reply it is sending.  It grows by doubling, slides its live
    bytes to the front before growing, and gives back a buffer larger
    than 64 KiB once it empties, so a connection that sent one large
    frame does not keep its memory. *)

val queue : unit -> queue
(** An empty queue; it allocates on first use. *)

val capacity : queue -> int
(** Bytes allocated, live or not. *)

val push : queue -> Bytes.t -> int -> int -> unit
(** [push q b off len] appends [b.[off .. off+len-1]]. *)

val scan_frames : queue -> (string -> int -> int -> unit) -> unit
(** [scan_frames q f] calls [f s off len] on the payload of every
    complete frame at the front of [q], in order and in place, then
    drops them.  [s] aliases the queue's buffer: read it (e.g. with
    {!of_substring}) during the call and do not keep it.  A partial
    frame stays queued for the next {!push}.
    @raise Protocol_error on an oversized frame length, before any
    frame of this scan is delivered. *)

val of_substring : string -> int -> int -> json
(** [of_substring s off len] parses the JSON document in
    [s.[off .. off+len-1]]; error offsets count from [off]. *)

val send_frame : queue -> Unix.file_descr -> json -> unit
(** Encode one frame into the queue behind its 4-byte length and send
    it with one write (more only on a short write).  The queue is reset
    first and cleared after, so one queue serves every reply of a loop.
    @raise Protocol_error if the payload exceeds {!max_frame}. *)

val write_frame : Unix.file_descr -> json -> unit
(** {!send_frame} through a fresh queue (blocking, handles short
    writes). *)

val read_frame : Unix.file_descr -> json option
(** Read one frame (blocking); [None] on clean EOF before the header.
    @raise Protocol_error on EOF mid-frame or a malformed payload. *)

(** {1 Client side} *)

type address =
  | Unix_sock of string  (** filesystem path of a Unix-domain socket *)
  | Tcp of string * int

val address_to_string : address -> string

val address_of_string : string -> address
(** ["host:port"] (with an all-digit port) parses as {!Tcp}, anything
    else as a {!Unix_sock} path. *)

val connect : address -> Unix.file_descr

val request : Unix.file_descr -> json -> json
(** One synchronous round trip: write a frame, read the response.
    @raise Protocol_error if the server closes the connection first. *)
