module R = Xic_core.Repository
module XU = Xic_xupdate.Xupdate
module J = Xic_journal.Journal
module FP = Xic_journal.Failpoint
module Obs = Xic_obs.Obs
module P = Protocol

(* Crash window of the graceful-shutdown path, for the torture tests. *)
let () = FP.declare "serve_shutdown"

module XLog = Xic_obs.Log

module Log = struct
  let src = "xic.server"
  let debug f = XLog.debug ~src f
  let info f = XLog.info ~src f
  let warn f = XLog.warn ~src f
end

(* Point-in-time server gauges, synced into the registry before every
   stats/metrics exposition so a Prometheus scrape sees live values. *)
let g_open_txns = Obs.Metrics.gauge "serve_open_txns"
let g_pins = Obs.Metrics.gauge "serve_pinned_generations"
let g_journal_bytes = Obs.Metrics.gauge "serve_journal_bytes_since_checkpoint"
let g_store_facts = Obs.Metrics.gauge "serve_store_facts"
let g_connections = Obs.Metrics.gauge "serve_connections"

(* COW-versioning gauges: how many generations the repository retains
   (in-flight pins plus time-travel history) and a rough estimate of the
   heap they hold beyond what they share with the live store.  Exported
   as xic_serve_retained_generations / xic_serve_pin_bytes. *)
let g_retained = Obs.Metrics.gauge "serve_retained_generations"
let g_pin_bytes = Obs.Metrics.gauge "serve_pin_bytes"

(* The collector's counters, read with [Gc.quick_stat] as a stats or
   metrics request arrives, so the serve loop's own allocation shows up
   next to its latency.  Exported as xic_gc_*. *)
let c_gc_minor = Obs.Metrics.counter "gc_minor_collections"
let c_gc_major = Obs.Metrics.counter "gc_major_collections"
let c_gc_major_words = Obs.Metrics.counter "gc_major_words"
let g_gc_heap_words = Obs.Metrics.gauge "gc_heap_words"

(* Every request handled, and the guard runs applied as one
   [guarded_batch] with the guard requests inside them. *)
let c_requests = Obs.Metrics.counter "serve_requests"
let c_guard_batches = Obs.Metrics.counter "serve_guard_batches"
let c_batched_guards = Obs.Metrics.counter "serve_batched_guards"

type config = {
  journal : J.t option;
  snapshot_path : string option;
  checkpoint_on_shutdown : bool;
}

let default_config =
  { journal = None; snapshot_path = None; checkpoint_on_shutdown = false }

(* How many slowest requests the [slow] op keeps. *)
let slow_capacity = 8

(* One entry of the slowest-requests ring: everything needed to explain
   the request after the fact — including its span tree when request
   tracing was on. *)
type slow_entry = {
  se_op : string;
  se_trace_id : string option;
  se_span_id : string;
  se_ms : float;
  se_args : string;            (* the request document, truncated *)
  se_span : Obs.Trace.span option;
}

(* The single streaming writer.  [committed] pins the last committed
   generation, taken at [txn_begin]: plain reads and new pins are served
   from it while the writer runs, and the transaction's end releases it. *)
type open_txn = { handle : int; tx : R.txn; committed : R.pin }

type t = {
  srepo : R.t;
  config : config;
  started_ns : int64;
  mutable open_txn : open_txn option;
  mutable next_txn : int;
  pins : (int, R.pin) Hashtbl.t;
  mutable next_pin : int;
  stop : bool ref;
  mutable shut : bool;
  mutable next_span : int;        (* server-side span-id generator *)
  (* the [slow_capacity] slowest requests, worst-first *)
  mutable slow : slow_entry list;
}

let create ?(config = default_config) repo =
  { srepo = repo; config; started_ns = Obs.Clock.now_ns (); open_txn = None;
    next_txn = 1; pins = Hashtbl.create 8; next_pin = 1; stop = ref false;
    shut = false; next_span = 1; slow = [] }

let requests _ = Obs.Metrics.value c_requests
let request_stop t = t.stop := true

let fresh_span_id t =
  let id = t.next_span in
  t.next_span <- id + 1;
  Printf.sprintf "s%06x" id

(* Would a request of [ms] enter the slowest-N ring?  The ring is
   worst-first, so the cutoff is its last entry; checking before
   building the entry keeps the fast path free of the request-document
   rendering below. *)
let slow_qualifies t ms =
  let n = List.length t.slow in
  n < slow_capacity || ms > (List.nth t.slow (n - 1)).se_ms

(* Record a request in the slowest-N ring (worst-first, fixed size). *)
let note_slow t entry =
  let rec insert = function
    | [] -> [ entry ]
    | e :: rest when entry.se_ms > e.se_ms -> entry :: e :: rest
    | e :: rest -> e :: insert rest
  in
  t.slow <- List.filteri (fun i _ -> i < slow_capacity) (insert t.slow)

let req_summary req =
  let s = P.to_string req in
  if String.length s <= 512 then s else String.sub s 0 509 ^ "..."

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)
(* ------------------------------------------------------------------ *)

let ok fields = P.Obj (("ok", P.Bool true) :: fields)
let error msg = P.Obj [ ("ok", P.Bool false); ("error", P.String msg) ]

let outcome_fields = function
  | R.Applied s ->
    [ ("outcome", P.String "applied");
      ( "strategy",
        P.String
          (match s with
           | `Optimized -> "optimized"
           | `Full_check -> "full_check") ) ]
  | R.Rejected_early c ->
    [ ("outcome", P.String "rejected"); ("constraint", P.String c) ]
  | R.Rolled_back c ->
    [ ("outcome", P.String "rolled_back"); ("constraint", P.String c) ]

let report_json ?(extra = []) (r : R.report) =
  let degs =
    match r.R.degradations with
    | [] -> []
    | ds ->
      [ ( "degradations",
          P.List
            (List.map
               (fun (d : R.degradation) ->
                 P.Obj
                   [ ("check", P.String d.R.failed_check);
                     ("reason", P.String d.R.reason) ])
               ds) ) ]
  in
  ok (outcome_fields r.R.outcome @ degs @ extra)

let check_response ~isolation ~generation violated =
  ok
    [ ("consistent", P.Bool (violated = []));
      ("violated", P.List (List.map (fun v -> P.String v) violated));
      ("generation", P.Int generation);
      ("isolation", P.String isolation) ]

(* ------------------------------------------------------------------ *)
(* State helpers                                                       *)
(* ------------------------------------------------------------------ *)

let parse_update ustr = XU.parse_string ustr

let require_update req =
  match P.string_field "update" req with
  | Some u -> u
  | None -> raise (P.Protocol_error "missing \"update\" field")

(* ------------------------------------------------------------------ *)
(* Request dispatch                                                    *)
(* ------------------------------------------------------------------ *)

let check_pinned t p =
  Obs.Trace.add_attr "route" "pinned";
  check_response ~isolation:"pinned" ~generation:(R.pin_generation p)
    (R.check_pinned t.srepo p)

(* The generation a check reads: an explicit pin, a retained past
   generation (time travel), the last committed generation while a
   transaction is open (snapshot isolation: a plain read never observes
   the open writer's uncommitted statements), or the live state. *)
let do_check t req =
  match (P.int_field "pin" req, P.int_field "as_of" req) with
  | Some _, Some _ ->
    error "check: \"pin\" and \"as_of\" are mutually exclusive"
  | Some id, None ->
    (match Hashtbl.find_opt t.pins id with
     | None -> error (Printf.sprintf "unknown pin %d" id)
     | Some p ->
       Obs.Trace.add_attr "pin" (string_of_int id);
       check_pinned t p)
  | None, Some g ->
    (match R.check_as_of t.srepo g with
     | None -> error (Printf.sprintf "generation %d is not retained" g)
     | Some violated ->
       Obs.Trace.add_attr "route" "as_of";
       check_response ~isolation:"as_of" ~generation:g violated)
  | None, None ->
    (match t.open_txn with
     | Some o -> check_pinned t o.committed
     | None ->
       let violated = R.check_incremental t.srepo in
       Obs.Trace.add_attr "route" "incremental";
       check_response ~isolation:"live" ~generation:(R.generation t.srepo)
         violated)

let require_no_txn t what =
  if t.open_txn <> None then
    raise (P.Protocol_error (what ^ ": a streaming transaction is open"))

(* The check route a guarded update actually took, for the span. *)
let route_of_outcome = function
  | R.Applied `Optimized -> "compiled"
  | R.Applied `Full_check -> "recompute"
  | R.Rejected_early _ -> "rejected"
  | R.Rolled_back _ -> "rolled_back"

(* The failures a request may meet that become its error reply instead
   of leaving the serve loop; shared by single and batched dispatch. *)
let error_reply = function
  | R.Repository_error m -> Some (error m)
  | XU.Xupdate_error m -> Some (error ("xupdate: " ^ m))
  | P.Protocol_error m -> Some (error m)
  | J.Journal_error m -> Some (error ("journal: " ^ m))
  | Xic_datalog.Eval.Unsafe m -> Some (error ("unsafe denial: " ^ m))
  | _ -> None

(* Every guarded write takes this path: a [guard] request (one
   statement), a [txn] request and a batched guard run
   ({!handle_guard_run}).  Each statement is parsed; one that is missing
   or does not parse is answered with its error and takes no part.  The
   rest run as one {!R.guarded_batch}: one journaled transaction, which
   commits when a statement stands and aborts otherwise.  A failure of
   the batch is the error reply of every statement that parsed, mapped
   as {!handle} maps it. *)
let guard_statements t ~what ustrs =
  require_no_txn t what;
  let reply_of e = match error_reply e with Some r -> r | None -> raise e in
  let parsed =
    List.map
      (function
        | None -> Error (error "missing \"update\" field")
        | Some u -> (try Ok (parse_update u) with e -> Error (reply_of e)))
      ustrs
  in
  let us = List.filter_map Result.to_option parsed in
  match R.guarded_batch ?journal:t.config.journal t.srepo us with
  | exception e ->
    let r = reply_of e in
    List.map (function Ok _ -> Error r | Error _ as failed -> failed) parsed
  | reports ->
    snd
      (List.fold_left_map
         (fun reports -> function
           | Error _ as failed -> (reports, failed)
           | Ok _ -> (List.tl reports, Ok (List.hd reports)))
         reports parsed)

let statement_reply ~extra = function
  | Ok r -> report_json ~extra r
  | Error reply -> reply

let do_guard t req =
  match guard_statements t ~what:"guard" [ P.string_field "update" req ] with
  | [ stmt ] ->
    Result.iter (fun r -> Obs.Trace.add_attr "route" (route_of_outcome r.R.outcome)) stmt;
    statement_reply ~extra:[ ("generation", P.Int (R.generation t.srepo)) ] stmt
  | _ -> assert false

(* A [txn] request carrying [abort] is refused, not run: running it
   would commit what its client meant to withdraw.  Statements are rolled
   back through [txn_begin] / [txn_stmt] / [txn_abort]. *)
let do_txn t req =
  if P.member "abort" req <> None then
    error
      "txn: \"abort\" is not supported; to roll statements back, use \
       txn_begin, txn_stmt and txn_abort"
  else
    let updates =
      match P.list_field "updates" req with
      | Some l ->
        List.map
          (function
            | P.String u -> Some u
            | _ -> raise (P.Protocol_error "\"updates\" must be strings"))
          l
      | None -> raise (P.Protocol_error "missing \"updates\" field")
    in
    let stmts = guard_statements t ~what:"txn" updates in
    ok
      [ ("results", P.List (List.map (statement_reply ~extra:[]) stmts));
        ( "committed",
          P.Bool
            (List.exists
               (function Ok { R.outcome = R.Applied _; _ } -> true | _ -> false)
               stmts) );
        ("generation", P.Int (R.generation t.srepo)) ]

let do_txn_begin t =
  match t.open_txn with
  | Some o ->
    error (Printf.sprintf "transaction %d is already open" o.handle)
  | None ->
    (* pin the committed state first: reads during the transaction are
       served from it *)
    let committed = R.pin t.srepo in
    let tx = R.begin_txn ?journal:t.config.journal t.srepo in
    let h = t.next_txn in
    t.next_txn <- h + 1;
    t.open_txn <- Some { handle = h; tx; committed };
    ok [ ("txn", P.Int h); ("generation", P.Int (R.generation t.srepo)) ]

let with_open_txn t req f =
  match (t.open_txn, P.int_field "txn" req) with
  | None, _ -> error "no open transaction"
  | Some o, Some h' when o.handle <> h' ->
    error (Printf.sprintf "transaction %d is not open (current: %d)" h' o.handle)
  | Some o, _ -> f o

(* The transaction is over: the server holds no reference on the
   generation it read from, which becomes prunable history. *)
let close_txn t o =
  t.open_txn <- None;
  R.unpin t.srepo o.committed

let do_txn_stmt t req =
  with_open_txn t req @@ fun o ->
  let u = parse_update (require_update req) in
  let r = R.txn_apply o.tx u in
  report_json r ~extra:[ ("statements", P.Int (R.txn_statements o.tx)) ]

let do_txn_commit t req =
  with_open_txn t req @@ fun o ->
  let n = R.txn_statements o.tx in
  close_txn t o;
  R.commit_txn o.tx;
  ignore (R.store t.srepo);  (* flush what compensations and rollbacks left *)
  ok
    [ ("txn", P.Int o.handle); ("committed", P.Bool true); ("statements", P.Int n);
      ("generation", P.Int (R.generation t.srepo)) ]

let do_txn_abort t req =
  with_open_txn t req @@ fun o ->
  close_txn t o;
  R.rollback_txn o.tx;
  ok [ ("txn", P.Int o.handle); ("aborted", P.Bool true) ]

let do_pin t req =
  let pinned =
    match P.int_field "generation" req with
    | Some g ->
      (* time-travel pin of a retained past generation *)
      (match R.pin_as_of t.srepo g with
       | Some p -> Ok p
       | None -> Error (Printf.sprintf "generation %d is not retained" g))
    | None ->
      (* while a writer runs, a new pin sees the committed state; the
         extra reference keeps the generation retained until unpin *)
      match t.open_txn with
      | Some o ->
        Ok (Option.get (R.pin_as_of t.srepo (R.pin_generation o.committed)))
      | None -> Ok (R.pin t.srepo)
  in
  match pinned with
  | Error m -> error m
  | Ok p ->
    let id = t.next_pin in
    t.next_pin <- id + 1;
    Hashtbl.replace t.pins id p;
    ok [ ("pin", P.Int id); ("generation", P.Int (R.pin_generation p)) ]

let do_unpin t req =
  match P.int_field "pin" req with
  | None -> raise (P.Protocol_error "missing \"pin\" field")
  | Some id ->
    (match Hashtbl.find_opt t.pins id with
     | None -> error (Printf.sprintf "unknown pin %d" id)
     | Some p ->
       Hashtbl.remove t.pins id;
       R.unpin t.srepo p;
       ok [ ("unpinned", P.Int id) ])

(* The retained-generation table: every generation still materialized —
   by in-flight pins (refs > 0) or as time-travel history (refs = 0) —
   plus the memory those handles hold beyond the live store. *)
let do_history t =
  ok
    [ ("generation", P.Int (R.generation t.srepo));
      ( "retained",
        P.List
          (List.map
             (fun (g, refs) ->
               P.Obj [ ("generation", P.Int g); ("refs", P.Int refs) ])
             (R.retained_generations t.srepo)) );
      ("pin_bytes", P.Int (R.retained_bytes t.srepo)) ]

let do_checkpoint t req =
  require_no_txn t "checkpoint";
  let path =
    match P.string_field "path" req with
    | Some p -> p
    | None ->
      (match t.config.snapshot_path with
       | Some p -> p
       | None -> raise (P.Protocol_error "checkpoint: no snapshot path"))
  in
  let r = R.checkpoint ?journal:t.config.journal t.srepo path in
  ok
    [ ("path", P.String r.R.snapshot_path);
      ("bytes", P.Int r.R.snapshot_bytes);
      ("nodes", P.Int r.R.snapshot_nodes);
      ("facts", P.Int r.R.snapshot_facts);
      ("wal_entries_folded", P.Int r.R.wal_entries_folded);
      ("wal_reset", P.Bool r.R.wal_reset) ]

(* Refresh the point-in-time serve gauges so stats / Prometheus
   expositions see live values. *)
let refresh_gauges t =
  let gc = Gc.quick_stat () in
  Obs.Metrics.set c_gc_minor gc.Gc.minor_collections;
  Obs.Metrics.set c_gc_major gc.Gc.major_collections;
  Obs.Metrics.set c_gc_major_words (int_of_float gc.Gc.major_words);
  Obs.Metrics.set g_gc_heap_words gc.Gc.heap_words;
  Obs.Metrics.set g_open_txns (if t.open_txn = None then 0 else 1);
  Obs.Metrics.set g_pins (Hashtbl.length t.pins);
  Obs.Metrics.set g_journal_bytes
    (match t.config.journal with Some j -> J.bytes j | None -> 0);
  Obs.Metrics.set g_store_facts
    (Xic_datalog.Store.total_tuples (R.store t.srepo));
  Obs.Metrics.set g_retained
    (List.length (R.retained_generations t.srepo));
  Obs.Metrics.set g_pin_bytes (R.retained_bytes t.srepo)

let do_stats t =
  refresh_gauges t;
  let uptime_s =
    Int64.to_float (Int64.sub (Obs.Clock.now_ns ()) t.started_ns) /. 1e9
  in
  ok
    [ ( "server",
        P.Obj
          [ ("uptime_s", P.Float uptime_s);
            ( "requests_per_sec",
              P.Float
                (if uptime_s > 0. then
                   float_of_int (Obs.Metrics.value c_requests) /. uptime_s
                 else 0.) );
            ("generation", P.Int (R.generation t.srepo)) ] );
      (* the exact document the CLI's --metrics prints: one formatter,
         one schema (request counts, serve gauges, gc_* and the per-op
         serve_<op>_ms histograms included) *)
      ("metrics", P.Raw (Obs.Metrics.to_json ())) ]

let do_metrics t =
  refresh_gauges t;
  ok
    [ ("format", P.String "prometheus");
      ("body", P.String (Obs.Metrics.to_prometheus ())) ]

let rec span_json (s : Obs.Trace.span) =
  P.Obj
    [ ("name", P.String s.Obs.Trace.name);
      ("ms", P.Float (Obs.Trace.duration_ms s));
      ( "attrs",
        P.Obj
          (List.rev_map (fun (k, v) -> (k, P.String v)) s.Obs.Trace.attrs) );
      ("children", P.List (List.rev_map span_json s.Obs.Trace.children)) ]

let do_slow t =
  ok
    [ ("capacity", P.Int slow_capacity);
      ( "slow",
        P.List
          (List.map
             (fun e ->
               P.Obj
                 ([ ("op", P.String e.se_op);
                    ("ms", P.Float e.se_ms);
                    ("span_id", P.String e.se_span_id) ]
                 @ (match e.se_trace_id with
                    | Some id -> [ ("trace_id", P.String id) ]
                    | None -> [])
                 @ [ ("request", P.String e.se_args) ]
                 @ (match e.se_span with
                    | Some s -> [ ("span", span_json s) ]
                    | None -> [])))
             t.slow) ) ]

(* ------------------------------------------------------------------ *)
(* The op table                                                        *)
(* ------------------------------------------------------------------ *)

(* A name a request is timed, logged, traced and ring-recorded under,
   with its [serve_<name>_ms] histogram, registered on first use: a
   process that serves nothing (a one-shot [check --metrics]) shows none. *)
type op = { name : string; hist : Obs.Metrics.histogram Lazy.t }

let op name =
  { name; hist = lazy (Obs.Metrics.histogram ("serve_" ^ name ^ "_ms")) }

(* A run of batched guards ({!handle_guard_run}); no client names it. *)
let guard_batch = op "guard_batch"

(* An op the table does not name: unknown, missing, or a frame that did
   not parse.  One fixed name, so an op name a client invents never
   becomes a histogram, a span name or a log field. *)
let invalid = op "invalid"

let reply_invalid _ req =
  match P.string_field "op" req with
  | Some "_parse_error" ->
    error
      (match P.string_field "error" req with
       | Some m -> "bad request: " ^ m
       | None -> "bad request")
  | name ->
    error (Printf.sprintf "unknown op %S" (Option.value name ~default:"_missing_op"))

(* The closed table: every op a client may name, with its handler. *)
let ops =
  [ ("ping", fun _ _ -> ok [ ("pong", P.Bool true); ("protocol", P.Int P.version) ]);
    ("check", do_check);
    ("guard", do_guard);
    ("txn", do_txn);
    ("txn_begin", fun t _ -> do_txn_begin t);
    ("txn_stmt", do_txn_stmt);
    ("txn_commit", do_txn_commit);
    ("txn_abort", do_txn_abort);
    ("pin", do_pin);
    ("unpin", do_unpin);
    ("history", fun t _ -> do_history t);
    ("checkpoint", do_checkpoint);
    ("stats", fun t _ -> do_stats t);
    ("metrics", fun t _ -> do_metrics t);
    ("slow", fun t _ -> do_slow t);
    ( "shutdown",
      fun t _ ->
        request_stop t;
        ok [ ("stopping", P.Bool true) ] ) ]
  |> List.to_seq
  |> Seq.map (fun (name, run) -> (name, (op name, run)))
  |> Hashtbl.of_seq

let resp_ok = function
  | P.Obj (("ok", P.Bool b) :: _) -> b
  | _ -> false

(* Echo the caller's trace_id (if any) and the server-assigned span_id
   on a response, so both sides of the wire name the same request. *)
let echo_trace ~trace_id ~span_id = function
  | P.Obj fields ->
    P.Obj
      (fields
      @ (match trace_id with
         | Some id -> [ ("trace_id", P.String id) ]
         | None -> [])
      @ [ ("span_id", P.String span_id) ])
  | other -> other

(* The envelope every request shares, alone or as a batched guard run:
   the log's trace id, a [serve:<op>] span (its attributes [op],
   [span_id], then [attrs ()]) when tracing, the [serve_<op>_ms]
   histogram, the slow ring (with [summary ()] and, when tracing, the
   request's span: the serve loop keeps no span open between requests,
   so the newest root is this request's) and a debug line (with
   [detail] of the result). *)
let envelope t ~op ~span_id ~trace_id ~attrs ~summary ~detail run =
  XLog.set_trace_id (Some (Option.value trace_id ~default:span_id));
  Fun.protect ~finally:(fun () -> XLog.set_trace_id None) @@ fun () ->
  let t0 = Obs.Clock.now_ns () in
  let result =
    if Obs.Trace.is_enabled () then
      Obs.Trace.with_span
        ~attrs:(("op", op.name) :: ("span_id", span_id) :: attrs ())
        ("serve:" ^ op.name) run
    else run ()
  in
  let dt_ns = Int64.to_int (Int64.sub (Obs.Clock.now_ns ()) t0) in
  Obs.Metrics.observe_ns (Lazy.force op.hist) dt_ns;
  let ms = float_of_int dt_ns /. 1e6 in
  if slow_qualifies t ms then
    note_slow t
      { se_op = op.name; se_trace_id = trace_id; se_span_id = span_id;
        se_ms = ms; se_args = summary ();
        se_span = (if Obs.Trace.is_enabled () then Obs.Trace.last_root () else None) };
  Log.debug (fun m -> m "%s span=%s %s %.3fms" op.name span_id (detail result) ms);
  result

let optional key = function Some v -> [ (key, v) ] | None -> []

(* The longest id a client may name a request by.  A longer [trace_id]
   or [span_id] is cut here, where the server reads it, so the slow
   ring, the log, the spans and the echo all carry the same bounded id. *)
let max_client_id = 128

let client_id key req =
  Option.map
    (fun id ->
      if String.length id <= max_client_id then id
      else String.sub id 0 max_client_id)
    (P.string_field key req)

(* How many member trace ids a batched guard run's span lists. *)
let max_batch_trace_ids = 8

let handle t req =
  Obs.Metrics.incr c_requests;
  let op, dispatch =
    match Option.bind (P.string_field "op" req) (Hashtbl.find_opt ops) with
    | Some entry -> entry
    | None -> (invalid, reply_invalid)
  in
  let trace_id = client_id "trace_id" req in
  let span_id = fresh_span_id t in
  let attrs () =
    ("generation", string_of_int (R.generation t.srepo))
    :: (optional "trace_id" trace_id
       @ optional "parent_span_id" (client_id "span_id" req))
  in
  let run () =
    let r =
      try dispatch t req with
      | e -> (match error_reply e with Some r -> r | None -> raise e)
    in
    Obs.Trace.add_attr "ok" (string_of_bool (resp_ok r));
    r
  in
  envelope t ~op ~span_id ~trace_id ~attrs
    ~summary:(fun () -> req_summary req)
    ~detail:(fun r -> Printf.sprintf "ok=%b" (resp_ok r))
    run
  |> echo_trace ~trace_id ~span_id

(* ------------------------------------------------------------------ *)
(* Round processing with guard batching                                *)
(* ------------------------------------------------------------------ *)

let is_guard req = P.string_field "op" req = Some "guard"

(* A run of >= 2 guard requests becomes one {!guard_statements} call: a
   single journaled transaction (one commit fsync) with per-statement
   verdicts identical to serial dispatch. *)
let handle_guard_run t reqs =
  match reqs with
  | [ req ] -> [ handle t req ]
  | [] -> []
  | first :: _ ->
    let n = List.length reqs in
    Obs.Metrics.add c_requests n;
    Obs.Metrics.incr c_guard_batches;
    Obs.Metrics.add c_batched_guards n;
    let span_id = fresh_span_id t in
    let member_traces = List.map (client_id "trace_id") reqs in
    let attrs () =
      ("batch", string_of_int n)
      :: ("generation", string_of_int (R.generation t.srepo))
      :: (match List.filter_map Fun.id member_traces with
          | [] -> []
          | ids ->
            [ ( "trace_ids",
                String.concat ","
                  (List.filteri (fun i _ -> i < max_batch_trace_ids) ids) ) ])
    in
    let run () =
      let stmts =
        guard_statements t ~what:"guard" (List.map (P.string_field "update") reqs)
      in
      let extra =
        [ ("generation", P.Int (R.generation t.srepo)); ("batched", P.Bool true) ]
      in
      List.map (statement_reply ~extra) stmts
    in
    let resps =
      envelope t ~op:guard_batch ~span_id
        ~trace_id:(List.find_map Fun.id member_traces)
        ~attrs
        ~summary:(fun () ->
          Printf.sprintf "batch of %d guards; first: %s" n (req_summary first))
        ~detail:(fun _ -> Printf.sprintf "n=%d" n)
        run
    in
    List.map2
      (fun trace_id resp -> echo_trace ~trace_id ~span_id resp)
      member_traces resps

let handle_round t reqs =
  let rec take_guards acc = function
    | req :: rest when is_guard req -> take_guards (req :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  let rec go acc = function
    | [] -> List.rev acc
    | req :: _ as reqs when is_guard req && t.open_txn = None ->
      let run, rest = take_guards [] reqs in
      go (List.rev_append (handle_guard_run t run) acc) rest
    | req :: rest -> go (handle t req :: acc) rest
  in
  go [] reqs

(* ------------------------------------------------------------------ *)
(* Graceful shutdown                                                   *)
(* ------------------------------------------------------------------ *)

let shutdown t =
  if not t.shut then begin
    t.shut <- true;
    Fun.protect
      ~finally:(fun () ->
        (* the journal closes no matter what the steps above did *)
        match t.config.journal with
        | Some j -> (try J.close j with J.Journal_error _ -> ())
        | None -> ())
      (fun () ->
        FP.hit "serve_shutdown";
        (match t.open_txn with
         | Some o ->
           Log.info (fun m -> m "shutdown: aborting open transaction %d" o.handle);
           close_txn t o;
           (* abort record first, then the in-memory undo — the journal
              never ends in a dangling intent on the graceful path *)
           R.rollback_txn o.tx
         | None -> ());
        match (t.config.checkpoint_on_shutdown, t.config.snapshot_path) with
        | true, Some path ->
          let r = R.checkpoint ?journal:t.config.journal t.srepo path in
          Log.info (fun m ->
              m "shutdown checkpoint: %s (%d bytes, %d facts)"
                r.R.snapshot_path r.R.snapshot_bytes r.R.snapshot_facts)
        | _ -> ())
  end

(* ------------------------------------------------------------------ *)
(* The serve loop                                                      *)
(* ------------------------------------------------------------------ *)

(* [Unix.select] works on fd_set bitmaps and fails with EINVAL on a
   descriptor at or above FD_SETSIZE (1024 on Linux and the BSDs).  A
   new descriptor takes the lowest free number, so holding connections
   to this many leaves the listening socket, the journal, the log and
   the standard streams room below FD_SETSIZE.  Descriptors inherited
   from the parent process can still push a connection's number past
   it, so [accept_conn] also refuses by number. *)
let fd_setsize = 1024
let max_connections = fd_setsize - 64

(* On Unix a [Unix.file_descr] is the descriptor number itself. *)
let fd_number (fd : Unix.file_descr) : int = Obj.magic fd

(* The bytes one [Unix.read] may bring in; one buffer per serve loop. *)
let read_size = 65536

type conn = {
  fd : Unix.file_descr;
  inbox : P.queue;  (* read, not yet framed *)
  mutable alive : bool;
}

let listen addr =
  match addr with
  | P.Unix_sock path ->
    (try
       if (Unix.lstat path).Unix.st_kind = Unix.S_SOCK then Unix.unlink path
     with Unix.Unix_error _ -> ());
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 64;
    fd
  | P.Tcp (host, port) ->
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    let ip =
      if host = "" || host = "localhost" then Unix.inet_addr_loopback
      else
        try Unix.inet_addr_of_string host
        with Failure _ ->
          (try (Unix.gethostbyname host).Unix.h_addr_list.(0)
           with Not_found ->
             raise (P.Protocol_error ("unknown host " ^ host)))
    in
    Unix.bind fd (Unix.ADDR_INET (ip, port));
    Unix.listen fd 64;
    fd

let decode s off len =
  match P.of_substring s off len with
  | req -> req
  | exception P.Protocol_error m ->
    P.Obj [ ("op", P.String "_parse_error"); ("error", P.String m) ]

(* Read what [c] has into the loop's [buf], queue it, and add every
   frame it completes to the round.  An error on this connection closes
   this connection only. *)
let read_conn buf c round =
  match Unix.read c.fd buf 0 (Bytes.length buf) with
  | 0 -> c.alive <- false
  | n ->
    P.push c.inbox buf 0 n;
    (try
       P.scan_frames c.inbox (fun s off len ->
           round := (c, decode s off len) :: !round)
     with P.Protocol_error m ->
       Log.warn (fun f -> f "dropping connection: %s" m);
       c.alive <- false)
  | exception
      Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    ()
  | exception Unix.Unix_error (e, _, _) ->
    Log.debug (fun f -> f "dropping connection: %s" (Unix.error_message e));
    c.alive <- false

(* Accept one pending connection.  Past [max_connections], or numbered
   where [select] cannot watch it, it is closed at once (one warning per
   run of refusals); a full descriptor table or a connection aborted
   before [accept] is transient. *)
let accept_conn listen_fd conns refusing =
  match Unix.accept listen_fd with
  | fd, _ when List.length !conns >= max_connections || fd_number fd >= fd_setsize ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    if not !refusing then
      Log.warn (fun m ->
          m "refusing connections: %d live, the cap is %d" (List.length !conns)
            max_connections);
    refusing := true
  | fd, _ ->
    conns := !conns @ [ { fd; inbox = P.queue (); alive = true } ];
    Obs.Metrics.set g_connections (List.length !conns);
    refusing := false;
    Log.debug (fun m -> m "accepted connection (%d live)" (List.length !conns))
  | exception
      Unix.Unix_error
        ( ( Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.ECONNABORTED ),
          _,
          _ ) ->
    ()
  | exception Unix.Unix_error (((Unix.EMFILE | Unix.ENFILE) as e), _, _) ->
    if not !refusing then
      Log.warn (fun m -> m "cannot accept: %s" (Unix.error_message e));
    refusing := true

let serve ?(idle_timeout = 0.25) t listen_fd =
  let stop_handler = Sys.Signal_handle (fun _ -> request_stop t) in
  let old_int = Sys.signal Sys.sigint stop_handler in
  let old_term = Sys.signal Sys.sigterm stop_handler in
  (* a peer that hangs up fails its write with EPIPE, not the process *)
  let old_pipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  let conns = ref [] and refusing = ref false in
  let inbuf = Bytes.create read_size and outbox = P.queue () in
  Log.info (fun m -> m "serve loop started (idle timeout %.2fs)" idle_timeout);
  Fun.protect
    ~finally:(fun () ->
      shutdown t;
      List.iter
        (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
        !conns;
      Obs.Metrics.set g_connections 0;
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      Sys.set_signal Sys.sigint old_int;
      Sys.set_signal Sys.sigterm old_term;
      Sys.set_signal Sys.sigpipe old_pipe;
      Log.info (fun m ->
          m "serve loop stopped after %d requests (%d batched)"
            (Obs.Metrics.value c_requests)
            (Obs.Metrics.value c_batched_guards)))
  @@ fun () ->
  while not !(t.stop) do
    let fds = listen_fd :: List.map (fun c -> c.fd) !conns in
    match Unix.select fds [] [] idle_timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | ready, _, _ ->
      (* drain every readable connection, then answer the whole round —
         consecutive guards across connections batch into one txn *)
      let round = ref [] in
      List.iter
        (fun c -> if List.memq c.fd ready then read_conn inbuf c round)
        !conns;
      let round = List.rev !round in
      let resps = handle_round t (List.map snd round) in
      List.iter2
        (fun (c, _) resp ->
          if c.alive then
            try P.send_frame outbox c.fd resp
            with
            | P.Protocol_error _
            | Unix.Unix_error _ -> c.alive <- false)
        round resps;
      conns :=
        List.filter
          (fun c ->
            if c.alive then true
            else begin
              (try Unix.close c.fd with Unix.Unix_error _ -> ());
              false
            end)
          !conns;
      Obs.Metrics.set g_connections (List.length !conns);
      (* after the hang-ups of this round are closed, so they do not
         count against the cap *)
      if List.memq listen_fd ready then accept_conn listen_fd conns refusing
  done
