(** Zero-dependency tracing + metrics for the check pipeline.

    Tracing has one switch, {!Trace.set_enabled}: a span site tested
    against it costs no allocation or clock read when it is off.  The
    metrics registry has none: every counter and histogram is always
    live. *)

module Clock : sig
  (** Monotonic nanoseconds ([clock_gettime(CLOCK_MONOTONIC)]). *)
  external now_ns : unit -> (int64[@unboxed])
    = "xic_obs_clock_ns" "xic_obs_clock_ns_unboxed"
  [@@noalloc]
end

module Trace : sig
  type span = {
    name : string;
    mutable attrs : (string * string) list;
    start_ns : int64;
    mutable stop_ns : int64;
    mutable children : span list; (* newest-first while building *)
  }

  val set_enabled : bool -> unit
  val is_enabled : unit -> bool

  (** [with_span name f] runs [f] inside a new span nested under the
      innermost open span.  When tracing is disabled this is exactly
      [f ()]. *)
  val with_span : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a

  (** Zero-duration marker attached to the innermost open span. *)
  val event : ?attrs:(string * string) list -> string -> unit

  (** Attach an attribute to the innermost open span, if any. *)
  val add_attr : string -> string -> unit

  (** Clear all spans (open and completed). *)
  val reset : unit -> unit

  (** How many completed top-level spans are kept: the newest 4096. *)
  val max_roots : int

  (** Completed top-level spans, the newest {!max_roots}, oldest first. *)
  val roots : unit -> span list

  (** The newest completed top-level span, if any. *)
  val last_root : unit -> span option

  val duration_ms : span -> float

  (** Chrome [trace_event] JSON ("complete" events, µs timestamps
      relative to the earliest span, [tid] = 0). *)
  val to_chrome_json : span list -> string

  (** Indented text rendering of the span forest. *)
  val to_text : span list -> string

  val json_escape : string -> string
end

module Metrics : sig
  type counter
  type histogram

  (** Intern a counter by name (one cell; hold the handle). *)
  val counter : string -> counter

  val incr : counter -> unit
  val add : counter -> int -> unit

  (** Overwrite; used for gauges synced at snapshot time. *)
  val set : counter -> int -> unit

  val value : counter -> int

  (** Like {!counter}, but the name is typed [gauge] in the Prometheus
      exposition (its value may go down). *)
  val gauge : string -> counter

  (** Intern a log-scale (power-of-two ns buckets) latency histogram. *)
  val histogram : string -> histogram

  val observe_ns : histogram -> int -> unit

  (** Bucket index for a nanosecond value: 0 for [ns <= 0], else
      [1 + floor(log2 ns)], capped at 63.  Exposed for tests. *)
  val bucket_of_ns : int -> int

  type hsnap = { count : int; sum_ns : int; buckets : int array }

  val hsnap : histogram -> hsnap

  (** Upper bucket edge (ms) of the bucket holding quantile [q]. *)
  val hsnap_quantile : hsnap -> float -> float

  (** Name-sorted counters and histogram snapshots. *)
  val snapshot : unit -> (string * int) list * (string * hsnap) list

  (** JSON object [{"counters":{...},"histograms":{...}}]; [extra]
      appends pre-rendered JSON fields at the top level. *)
  val to_json : ?extra:(string * string) list -> unit -> string

  (** Prometheus text exposition (0.0.4): counters/gauges as
      [xic_<name>], histograms as summaries in seconds
      ([xic_<base>_seconds] with [quantile] labels, [_sum], [_count]). *)
  val to_prometheus : unit -> string

  (** Zero every registered counter and histogram. *)
  val reset : unit -> unit
end
