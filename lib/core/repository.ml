open Xic_xml
module T = Xic_datalog.Term
module Delta = Xic_datalog.Delta
module Incr = Xic_datalog.Incr
module Mirror = Xic_relmap.Mirror
module XU = Xic_xupdate.Xupdate
module J = Xic_journal.Journal
module FP = Xic_journal.Failpoint
module Snap = Xic_snapshot.Snapshot
module Obs = Xic_obs.Obs

(* Crash windows of the guarded-update and checkpoint pipelines,
   declared so the torture harness can enumerate them. *)
let () =
  List.iter FP.declare
    [ "before_apply"; "after_apply"; "before_commit"; "checkpoint_truncate" ]

module Log = struct
  let warn f = Xic_obs.Log.warn ~src:"xic.repository" f
end

(* Registry cells for the pipeline counters.  The plan-cache counters
   back [plan_stats], and [plan_compile_requests] is bumped on every
   cache consultation, so [hits + misses = requests] holds by
   construction (the differential oracle asserts it). *)
let c_checks_full = Obs.Metrics.counter "checks_full"
let c_checks_optimized = Obs.Metrics.counter "checks_optimized"
let c_plan_hits = Obs.Metrics.counter "plan_cache_hits"
let c_plan_misses = Obs.Metrics.counter "plan_cache_misses"
let c_plan_requests = Obs.Metrics.counter "plan_compile_requests"
let c_rollbacks = Obs.Metrics.counter "rollbacks"
let c_checks_incremental = Obs.Metrics.counter "checks_incremental"
let c_delta_facts_added = Obs.Metrics.counter "delta_facts_added"
let c_delta_facts_removed = Obs.Metrics.counter "delta_facts_removed"
let c_delta_flushes = Obs.Metrics.counter "delta_flushes"
let c_incr_proven = Obs.Metrics.counter "incr_proven_flushes"
let c_ingest_fused = Obs.Metrics.counter "ingest_fused_docs"
let c_ingest_bytes = Obs.Metrics.counter "ingest_bytes"
let c_ingest_facts = Obs.Metrics.counter "ingest_facts"
let h_check_full = Obs.Metrics.histogram "check_full_ms"
let h_check_optimized = Obs.Metrics.histogram "check_optimized_ms"

(* Run one constraint check under a slow-loggable span and, when
   detailed metrics are on, a latency-histogram observation.  With
   tracing and detailed metrics both off this is exactly [f ()]. *)
let timed_check name hist f =
  let f =
    if !Obs.Metrics.detailed then (fun () ->
      let t0 = Obs.Clock.now_ns () in
      let v = f () in
      Obs.Metrics.observe_ns hist
        (Int64.to_int (Int64.sub (Obs.Clock.now_ns ()) t0));
      v)
    else f
  in
  if Obs.Trace.is_enabled () then
    Obs.Trace.with_span ~slow:true ("check:" ^ name) f
  else f ()

type optimized_check = {
  constraint_name : string;
  simplified : T.denial list;
  simplified_xquery : Xic_xquery.Ast.expr;
  (* the check's closure plan, compiled on first use and keyed by the
     enclosing (pattern, constraint) pair by construction *)
  mutable simplified_plan : Xic_xquery.Eval.compiled option;
}

type plan_stats = {
  plan_hits : int;    (* checks served by a cached plan *)
  plan_misses : int;  (* compilations *)
}

(* Per-repository delta/incremental counters (the registry counters are
   global across repositories; tests build many). *)
type delta_counters = {
  mutable flushes : int;
  mutable facts_added : int;
  mutable facts_removed : int;
}

(* Views frozen with a generation; they may answer only while
   [fv_constraints] is still the repository's constraint list. *)
type frozen_views = {
  fv_incr : Incr.t;
  fv_view : Xic_datalog.Store.t;  (* frozen *)
  fv_constraints : Constr.t list;
}

(* One retained generation: a frozen store handle (plus frozen views)
   shared by every pin of that generation, refcounted so the table can
   tell in-flight readers from history kept for time-travel checks. *)
type retained = {
  r_store : Xic_datalog.Store.t;  (* frozen *)
  r_views : frozen_views option;
  r_mut : int;  (* mutation stamp at freeze time, for freshness checks *)
  mutable r_refs : int;
}

type t = {
  schema : Schema.t;
  doc : Doc.t;
  mutable constraints : Constr.t list;
  mutable compiled : (Pattern.t * optimized_check list) list;
  mutable store : Xic_datalog.Store.t option;
  (* event-driven store maintenance; attached iff [store] is [Some] *)
  mutable mirror : Xic_relmap.Mirror.t option;
  (* the materialized denial views, built by the first verdict *)
  mutable incr : Xic_datalog.Incr.t option;
  deltas : delta_counters;
  mutable eval_budget : int option;
  mutable index : Index.t option;
  (* full-check plans, keyed by constraint name *)
  full_plans : (string, Xic_xquery.Eval.compiled) Hashtbl.t;
  (* committed-transaction counter; {!pin} stamps it into snapshots so
     readers can tell which state they are looking at *)
  mutable generation : int;
  (* raw mutation counter (every applied or rolled-back statement, every
     load): a retained entry is reused by {!pin} only when its stamp
     still matches — the generation number alone cannot tell a clean
     committed state from mid-flight document surgery *)
  mutable mutations : int;
  (* generation → frozen handle; entries with [r_refs = 0] are history
     kept for time-travel checks, bounded by [retain_keep] and dropped
     wholesale at checkpoints *)
  retained : (int, retained) Hashtbl.t;
  retain_keep : int;
}

exception Repository_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Repository_error s)) fmt

let create schema =
  { schema; doc = Doc.create (); constraints = []; compiled = []; store = None;
    mirror = None; incr = None;
    deltas =
      { flushes = 0; facts_added = 0; facts_removed = 0 };
    eval_budget = None; index = None;
    full_plans = Hashtbl.create 16; generation = 0;
    mutations = 0; retained = Hashtbl.create 8; retain_keep = 8 }

let generation t = t.generation

let set_eval_budget t b = t.eval_budget <- b

let plan_stats (_ : t) =
  { plan_hits = Obs.Metrics.value c_plan_hits;
    plan_misses = Obs.Metrics.value c_plan_misses }

let cached_plans t =
  Hashtbl.length t.full_plans
  + List.fold_left
      (fun acc (_, checks) ->
        acc
        + List.length
            (List.filter (fun ch -> Option.is_some ch.simplified_plan) checks))
      0 t.compiled

let schema t = t.schema
let doc t = t.doc

(* The index is created on demand (and even then its tables stay empty
   until some evaluation performs a lookup). *)
let index t =
  match t.index with
  | Some i -> i
  | None ->
    let i = Index.create t.doc in
    t.index <- Some i;
    i

let index_stats t = Option.map Index.stats t.index

(* Index stats and the cached-plan count live outside the registry (the
   index updates them on its hot path, the plan tables are
   per-repository); they enter the registry as gauges synced at snapshot
   time, so [metrics] agrees with [index_stats] and [cached_plans] by
   construction — both read the same cells. *)
let g_index_hits = Obs.Metrics.gauge "index_hits"
let g_index_misses = Obs.Metrics.gauge "index_misses"
let g_index_fallbacks = Obs.Metrics.gauge "index_fallbacks"
let g_index_events = Obs.Metrics.gauge "index_events"
let g_plan_cached = Obs.Metrics.gauge "plan_cached"

let sync_gauges t =
  (match index_stats t with
   | Some (s : Index.stats) ->
     Obs.Metrics.set g_index_hits s.Index.hits;
     Obs.Metrics.set g_index_misses s.Index.misses;
     Obs.Metrics.set g_index_fallbacks s.Index.fallbacks;
     Obs.Metrics.set g_index_events s.Index.events
   | None -> ());
  Obs.Metrics.set g_plan_cached (cached_plans t)

let metrics t =
  sync_gauges t;
  Obs.Metrics.snapshot ()

let metrics_json t =
  sync_gauges t;
  Obs.Metrics.to_json ()

let metrics_prometheus t =
  sync_gauges t;
  Obs.Metrics.to_prometheus ()

let invalidate_store t =
  (match t.mirror with Some m -> Mirror.detach m | None -> ());
  t.mirror <- None;
  t.store <- None;
  t.incr <- None;
  (* generation numbers no longer name states of the store being
     dropped; outstanding pins keep their handles, the table does not *)
  Hashtbl.reset t.retained;
  t.mutations <- t.mutations + 1

(* Install a store known to be exact for the current documents and
   attach the event-driven mirror that keeps it that way across updates,
   undo, savepoint rollback and recovery replay. *)
let install_store t s =
  (match t.mirror with Some m -> Mirror.detach m | None -> ());
  t.store <- Some s;
  Hashtbl.reset t.retained;
  t.mutations <- t.mutations + 1;
  t.mirror <- Some (Mirror.create (Schema.mapping t.schema) t.doc s)

(* Reconcile pending mutation marks into the store and feed the net
   delta to the live materialized views (if any).  A view that cannot be
   maintained (unsafe denial, exhausted budget) is dropped; the next
   incremental check re-initializes from scratch.

   [~proven:true] is {!txn_apply}'s word that the pending marks are one
   statement whose simplified checks all held on the state the views
   describe.  A constraint whose view is empty held on that state, so by
   Theorem 1 it holds after the statement too: its view stays empty and
   none of its delta rules run ({!Incr.apply_delta}).  The store, the
   net delta and the counters are reconciled as on any flush. *)
let sync_store ?(proven = false) t =
  match (t.store, t.mirror) with
  | Some s, Some m when Mirror.has_dirty m ->
    Obs.Trace.with_span "delta_flush" (fun () ->
        let d = Delta.create () in
        Mirror.flush m ~into:d;
        t.deltas.flushes <- t.deltas.flushes + 1;
        t.deltas.facts_added <- t.deltas.facts_added + Delta.gross_added d;
        t.deltas.facts_removed <- t.deltas.facts_removed + Delta.gross_removed d;
        Obs.Metrics.incr c_delta_flushes;
        Obs.Metrics.add c_delta_facts_added (Delta.gross_added d);
        Obs.Metrics.add c_delta_facts_removed (Delta.gross_removed d);
        match t.incr with
        | Some inc when not (Delta.is_empty d) ->
          (try
             if Incr.apply_delta ~proven inc s d then
               Obs.Metrics.incr c_incr_proven
           with Xic_datalog.Eval.Unsafe _ | Xic_datalog.Eval.Budget_exceeded ->
             t.incr <- None)
        | _ -> ())
  | _ -> ()

let add_document_root ?(validate = true) t root =
  if validate then begin
    match Schema.validate_root t.schema t.doc root with
    | Ok () -> ()
    | Error m -> fail "document rejected: %s" m
  end;
  Doc.add_root t.doc root;
  invalidate_store t

(* Fused single-pass load: parse, intern and shred in one streaming scan
   of the source.  The store is fed through a [Shred.sink] while the
   parse runs when it can be kept exact:
   - an existing materialised store gains the new document's facts;
   - a repository with no documents yet gets a fresh store built in-pass;
   - otherwise (documents loaded but the store not yet demanded) the
     store simply stays lazy.
   On any failure — parse error, shredding error, validation reject —
   the store is invalidated: the partially parsed nodes are unreachable
   (the root is only registered on success), so the next [store] demand
   rebuilds an exact mirror from the registered roots. *)
let load_fused ?(validate = true) t source =
  Obs.Trace.with_span "ingest" (fun () ->
      let facts = ref 0 in
      let sink =
        match t.store with
        | Some s ->
          (* the sink keeps the store exact in-pass; silence the mirror
             so the parser's attach events don't mark the whole new
             document dirty (flush any older marks first) *)
          sync_store t;
          (match t.mirror with Some m -> Mirror.set_active m false | None -> ());
          Some (Xic_relmap.Shred.sink ~count:facts (Schema.mapping t.schema) t.doc s)
        | None ->
          if Doc.has_root t.doc then None
          else begin
            let s = Xic_datalog.Store.create () in
            t.store <- Some s;
            Some
              (Xic_relmap.Shred.sink ~count:facts (Schema.mapping t.schema) t.doc s)
          end
      in
      match Xml_parser.parse_document_into ?sink t.doc source with
      | exception Xml_parser.Parse_error { line; col; msg } ->
        invalidate_store t;
        fail "XML parse error at %d:%d: %s" line col msg
      | exception Xic_relmap.Shred.Shred_error m ->
        invalidate_store t;
        fail "shred error during load: %s" m
      | root, _dtd ->
        (if validate then
           match Schema.validate_root t.schema t.doc root with
           | Ok () -> ()
           | Error m ->
             invalidate_store t;
             fail "document rejected: %s" m);
        Doc.add_root t.doc root;
        (* a whole new document's facts arrived outside the delta path:
           rearm the mirror and drop any materialized views (the next
           incremental check re-initializes against the new store) *)
        (match (t.store, t.mirror) with
         | Some _, Some m -> Mirror.set_active m true
         | Some s, None -> install_store t s
         | None, _ -> ());
        t.incr <- None;
        t.mutations <- t.mutations + 1;
        Obs.Metrics.incr c_ingest_fused;
        Obs.Metrics.add c_ingest_bytes (String.length source);
        Obs.Metrics.add c_ingest_facts !facts)

let compile_checks t (p : Pattern.t) =
  List.map
    (fun (c : Constr.t) ->
      let simplified = Pattern.simplify t.schema p c in
      let simplified_xquery =
        Xic_translate.Translate.denials (Schema.mapping t.schema) simplified
      in
      { constraint_name = c.Constr.name; simplified; simplified_xquery;
        simplified_plan = None })
    t.constraints

let recompile t =
  t.compiled <- List.map (fun (p, _) -> (p, compile_checks t p)) t.compiled

let add_constraint ?(verify = false) t c =
  if List.exists (fun c' -> c'.Constr.name = c.Constr.name) t.constraints then
    fail "duplicate constraint name %s" c.Constr.name;
  if verify && Constr.violated_xquery ~index:(index t) t.doc c then
    fail "the current documents already violate %s" c.Constr.name;
  t.constraints <- t.constraints @ [ c ];
  Hashtbl.reset t.full_plans;
  t.incr <- None;  (* the view set changed; re-materialize on demand *)
  recompile t

let register_pattern t p =
  if List.exists (fun (p', _) -> p'.Pattern.name = p.Pattern.name) t.compiled then
    fail "duplicate pattern name %s" p.Pattern.name;
  t.compiled <- t.compiled @ [ (p, compile_checks t p) ]

let constraints t = t.constraints
let patterns t = List.map fst t.compiled

let optimized_checks t p =
  match
    List.find_opt (fun (p', _) -> p'.Pattern.name = p.Pattern.name) t.compiled
  with
  | Some (_, checks) -> checks
  | None -> fail "pattern %s is not registered" p.Pattern.name

let store t =
  match t.store with
  | Some s ->
    sync_store t;
    s
  | None ->
    let s = Xic_relmap.Shred.shred (Schema.mapping t.schema) t.doc in
    install_store t s;
    s

(* A check plan served from its cache slot: [cached] is the slot's
   plan, [store] fills it.  Every request counts as a hit or a miss
   (hits + misses = requests); a miss compiles [xquery], in a [compile]
   span when tracing. *)
let cached_plan ~name ~cached ~store xquery =
  Obs.Metrics.incr c_plan_requests;
  match cached with
  | Some plan ->
    Obs.Metrics.incr c_plan_hits;
    plan
  | None ->
    let compile () = Xic_xquery.Eval.compile xquery in
    let plan =
      if Obs.Trace.is_enabled () then
        Obs.Trace.with_span "compile" ~attrs:[ ("constraint", name) ] compile
      else compile ()
    in
    store plan;
    Obs.Metrics.incr c_plan_misses;
    plan

(* Full-check plan of one constraint. *)
let full_plan t (c : Constr.t) =
  cached_plan ~name:c.Constr.name
    ~cached:(Hashtbl.find_opt t.full_plans c.Constr.name)
    ~store:(Hashtbl.replace t.full_plans c.Constr.name)
    c.Constr.xquery

let check_full t =
  Obs.Trace.with_span "check_full" (fun () ->
      let plans = List.map (fun c -> (c, full_plan t c)) t.constraints in
      let index = index t in
      List.filter_map
        (fun (c, plan) ->
          Obs.Metrics.incr c_checks_full;
          if
            timed_check c.Constr.name h_check_full (fun () ->
                Constr.violated_compiled ~index t.doc c plan)
          then Some c.Constr.name
          else None)
        plans)

let violated_datalog t s =
  List.filter_map
    (fun c -> if Constr.violated_datalog s c then Some c.Constr.name else None)
    t.constraints

let check_full_datalog t = violated_datalog t (store t)

(* ------------------------------------------------------------------ *)
(* Pinned snapshots (reader isolation)                                 *)
(* ------------------------------------------------------------------ *)

(* A pin is a frozen generation handle of the materialized store (and
   of the denial views, when they exist), stamped with the generation
   it captured.  Freezing is an O(#relations) pointer capture
   ([Store.freeze]): the handle shares the per-relation insertion logs
   with the live writer, which only ever conses onto its own head, so
   checks against a pin are unaffected by later commits, checkpoints or
   journal truncation — at no copy cost and O(delta) retained memory.
   Verdicts from the frozen views or over the frozen store equal the
   XQuery check (oracle-proven).

   Handles live in a refcounted retained-generation table: pins of the
   same generation share one handle (amortizing its lazy index builds
   across readers), {!unpin} decrements, and zero-ref entries linger as
   bounded history for {!pin_as_of} time-travel checks until
   [retain_keep] evicts the oldest or a {!checkpoint} drops them all. *)
type pin = {
  pin_generation : int;
  pin_entry : retained;
}

(* Evict zero-ref history beyond the [retain_keep] most recent
   generations (referenced entries are never evicted — a pin record
   holds its handle directly, so eviction can never dangle a reader). *)
let prune_retained ?(keep_history = true) t =
  let keep = if keep_history then t.retain_keep else 0 in
  let zero =
    Hashtbl.fold
      (fun g r acc -> if r.r_refs <= 0 then g :: acc else acc)
      t.retained []
    |> List.sort compare
  in
  let drop = List.length zero - keep in
  if drop > 0 then
    List.iteri (fun i g -> if i < drop then Hashtbl.remove t.retained g) zero

(* Pinning never materializes views: without them, pinned verdicts
   recompute. *)
let freeze_views t =
  Option.map
    (fun i ->
      { fv_incr = i; fv_view = Xic_datalog.Store.freeze (Incr.view i);
        fv_constraints = t.constraints })
    t.incr

let pin t =
  let g = t.generation in
  match Hashtbl.find_opt t.retained g with
  | Some r when r.r_mut = t.mutations ->
    r.r_refs <- r.r_refs + 1;
    { pin_generation = g; pin_entry = r }
  | _ ->
    let s = store t in  (* flush pending marks so the freeze is exact *)
    let r =
      { r_store = Xic_datalog.Store.freeze s; r_views = freeze_views t;
        r_mut = t.mutations; r_refs = 1 }
    in
    Hashtbl.replace t.retained g r;
    prune_retained t;
    { pin_generation = g; pin_entry = r }

let unpin t (p : pin) =
  (match Hashtbl.find_opt t.retained p.pin_generation with
   | Some r when r == p.pin_entry && r.r_refs > 0 -> r.r_refs <- r.r_refs - 1
   | _ -> ());  (* already evicted (reset, checkpoint): nothing to release *)
  prune_retained t

let pin_as_of t g =
  match Hashtbl.find_opt t.retained g with
  | Some r ->
    r.r_refs <- r.r_refs + 1;
    Some { pin_generation = g; pin_entry = r }
  | None -> None

let retained_generations t =
  Hashtbl.fold (fun g r acc -> (g, r.r_refs) :: acc) t.retained []
  |> List.sort compare

let retained_bytes t =
  match t.store with
  | None -> 0
  | Some live ->
    sync_store t;
    let live_view =
      Option.fold ~none:(Xic_datalog.Store.create ()) ~some:Incr.view t.incr
    in
    let views_bytes v = Xic_datalog.Store.unshared_bytes ~live:live_view v.fv_view in
    Hashtbl.fold
      (fun _ r acc ->
        acc + Xic_datalog.Store.unshared_bytes ~live r.r_store
        + Option.fold ~none:0 ~some:views_bytes r.r_views)
      t.retained 0

let pin_generation p = p.pin_generation
let pin_store p = p.pin_entry.r_store

let pin_view p = Option.map (fun v -> v.fv_view) p.pin_entry.r_views

let check_pinned t (p : pin) =
  match p.pin_entry.r_views with
  | Some v when v.fv_constraints == t.constraints ->
    Incr.violated ~view:v.fv_view v.fv_incr
  | _ -> violated_datalog t p.pin_entry.r_store

let check_as_of t g =
  match pin_as_of t g with
  | None -> None
  | Some p ->
    let v = check_pinned t p in
    unpin t p;
    Some v

(* ------------------------------------------------------------------ *)
(* Incremental (delta-driven) checking                                 *)
(* ------------------------------------------------------------------ *)

let set_incremental t enabled = if not enabled then t.incr <- None

(* Views that cannot be built leave none behind; the full check
   answers instead. *)
let check_incremental t =
  Obs.Trace.with_span "check_incremental" @@ fun () ->
  let s = store t in  (* flushes the mirror and maintains any live views *)
  (if Option.is_none t.incr then
     match
       let i =
         Incr.create
           (List.map (fun (c : Constr.t) -> (c.Constr.name, c.Constr.datalog))
              t.constraints)
       in
       Incr.initialize i s;
       i
     with
     | i -> t.incr <- Some i
     | exception (Xic_datalog.Eval.Unsafe _ | Xic_datalog.Eval.Budget_exceeded)
       -> ());
  match t.incr with
  | Some i ->
    Obs.Metrics.incr c_checks_incremental;
    Incr.violated i
  | None -> check_full t

let incr_view t = Option.map Incr.view t.incr

type delta_stats = {
  delta_flushes : int;
  delta_facts_added : int;
  delta_facts_removed : int;
  incr_entries : int;
  incr_evals : int;
  incr_reverifies : int;
  incr_recomputes : int;
  incr_skipped : int;
  incr_view_rows : int;
}

let delta_stats t =
  let entries, evals, reverifies, recomputes, skipped, rows =
    match t.incr with
    | None -> (0, 0, 0, 0, 0, 0)
    | Some i ->
      let s = Incr.stats i in
      ( Incr.entry_count i, s.Incr.evals, s.Incr.reverifies, s.Incr.recomputes,
        s.Incr.skipped, Xic_datalog.Store.total_tuples (Incr.view i) )
  in
  { delta_flushes = t.deltas.flushes;
    delta_facts_added = t.deltas.facts_added;
    delta_facts_removed = t.deltas.facts_removed;
    incr_entries = entries;
    incr_evals = evals;
    incr_reverifies = reverifies;
    incr_recomputes = recomputes;
    incr_skipped = skipped;
    incr_view_rows = rows }

let delta_summary t =
  let d = delta_stats t in
  if t.incr = None && d.delta_flushes = 0 then "delta: idle"
  else
    Printf.sprintf
      "delta: %d flushes, +%d/-%d facts; views: %d denials, %d rows, \
       evals=%d reverifies=%d recomputes=%d skipped=%d"
      d.delta_flushes d.delta_facts_added d.delta_facts_removed d.incr_entries
      d.incr_view_rows d.incr_evals d.incr_reverifies d.incr_recomputes
      d.incr_skipped

let match_update t (u : XU.t) =
  match u with
  | [ m ] ->
    List.find_map
      (fun (p, _) ->
        match Pattern.match_modification t.schema t.doc p m with
        | Some v -> Some (p, v)
        | None -> None)
      t.compiled
  | _ -> None

type degradation = { failed_check : string; reason : string }

(* Each check evaluation gets its own budget, so one pathological check
   cannot starve the others. *)
let budgeted t f =
  match t.eval_budget with
  | None -> f ()
  | Some steps -> Xic_xquery.Eval.with_budget ~steps f

let try_check_optimized t p valuation =
  let checks = optimized_checks t p in
  let params = Pattern.xquery_params valuation in
  let rec go violated degs = function
    | [] -> (List.rev violated, List.rev degs)
    | ch :: rest ->
      let plan =
        cached_plan ~name:ch.constraint_name ~cached:ch.simplified_plan
          ~store:(fun plan -> ch.simplified_plan <- Some plan)
          ch.simplified_xquery
      in
      Obs.Metrics.incr c_checks_optimized;
      (match
         timed_check ch.constraint_name h_check_optimized (fun () ->
             budgeted t (fun () ->
                 Xic_xquery.Eval.run_bool t.doc ~params ~index:(index t) plan))
       with
       | true -> go (ch.constraint_name :: violated) degs rest
       | false -> go violated degs rest
       | exception Xic_xquery.Eval.Eval_error m ->
         go violated ({ failed_check = ch.constraint_name; reason = m } :: degs) rest
       | exception Xic_xpath.Eval.Budget_exceeded ->
         go violated
           ({ failed_check = ch.constraint_name; reason = "step budget exhausted" }
            :: degs)
           rest)
  in
  go [] [] checks

type witness = {
  witness_constraint : string;
  denial : T.denial;
  bindings : (string * T.const) list;
  nodes : (string * Doc.node_id * string) list;
}

(* Variables standing in id or parent positions of the denial's atoms
   denote document nodes. *)
let node_vars_of (d : T.denial) =
  List.concat_map
    (function
      | T.Rel a | T.Not a ->
        (match a.T.args with
         | id :: _ :: par :: _ ->
           List.concat_map T.term_vars [ id; par ]
         | _ -> [])
      | _ -> [])
    d.T.body
  |> List.sort_uniq compare

let explain t =
  let s = store t in
  List.concat_map
    (fun (c : Constr.t) ->
      List.filter_map
        (fun d ->
          match Xic_datalog.Eval.violation s d with
          | None -> None
          | Some bindings ->
            let node_vars = node_vars_of d in
            let nodes =
              List.filter_map
                (fun (v, const) ->
                  match const with
                  | T.Int id
                    when List.mem v node_vars && Doc.live t.doc id ->
                    Some (v, id, Xic_relmap.Shred.path_to_node t.doc id)
                  | _ -> None)
                bindings
            in
            Some { witness_constraint = c.Constr.name; denial = d; bindings; nodes })
        c.Constr.datalog)
    t.constraints

let witness_to_string w =
  (* internal (underscore-prefixed) variables are noise for humans *)
  let named (v, _) = String.length v > 0 && v.[0] <> '_' in
  let shown = List.filter named w.bindings in
  let nodes = List.filter (fun (v, _, _) -> named (v, ())) w.nodes in
  let nodes = if nodes = [] then w.nodes else nodes in
  Printf.sprintf "%s is violated:\n  %s%s%s" w.witness_constraint
    (T.denial_str w.denial)
    (match shown with
     | [] -> ""
     | bs ->
       "\n  with "
       ^ String.concat ", " (List.map (fun (v, c) -> v ^ " = " ^ T.const_str c) bs))
    (match nodes with
     | [] -> ""
     | ns ->
       "\n  at "
       ^ String.concat ", " (List.map (fun (v, _, p) -> v ^ " -> " ^ p) ns))

type outcome =
  | Applied of [ `Optimized | `Full_check ]
  | Rejected_early of string
  | Rolled_back of string

(* The relational store is maintained by the event-driven mirror: every
   mutation (insertions, removals, attribute writes, undo, savepoint
   rollback, recovery replay) marks the touched nodes and the next
   [store] demand reconciles them — no re-shred, ever. *)
let apply_unchecked t u =
  t.mutations <- t.mutations + 1;
  Obs.Trace.with_span "apply" (fun () -> XU.apply ~index:(index t) t.doc u)

let rollback t undo =
  t.mutations <- t.mutations + 1;
  Obs.Metrics.incr c_rollbacks;
  Obs.Trace.with_span "rollback" (fun () -> XU.rollback t.doc undo)

(* ------------------------------------------------------------------ *)
(* Journaled transactions                                              *)
(* ------------------------------------------------------------------ *)

type report = { outcome : outcome; degradations : degradation list }

type txn = {
  txn_repo : t;
  txn_journal : J.t option;
  txn_id : int;
  mutable txn_undos : XU.undo list;  (* most recent statement first *)
  mutable txn_seq : int;             (* statements currently applied *)
  mutable txn_journaled : bool;      (* any record written for this txn *)
  mutable txn_open : bool;
}

type savepoint = int

let begin_txn ?journal t =
  {
    txn_repo = t;
    txn_journal = journal;
    txn_id = (match journal with Some j -> J.next_txn j | None -> 0);
    txn_undos = [];
    txn_seq = 0;
    txn_journaled = false;
    txn_open = true;
  }

let txn_statements tx = tx.txn_seq

let require_open tx =
  if not tx.txn_open then fail "transaction %d is already closed" tx.txn_id

let txn_record tx e =
  match tx.txn_journal with
  | None -> ()
  | Some j ->
    (* group commit: intent/truncate records ride on the commit (or
       abort) record's fsync instead of syncing individually — safe
       because a transaction without a durable closing record is
       discarded by recovery whether or not its intents hit disk *)
    let defer_sync = match e with J.Commit _ | J.Abort _ -> false | _ -> true in
    J.append ~defer_sync j e;
    tx.txn_journaled <- true

let txn_savepoint tx =
  require_open tx;
  tx.txn_seq

let txn_rollback_to tx sp =
  require_open tx;
  if sp < 0 || sp > tx.txn_seq then
    fail "savepoint %d out of range (transaction has %d statements)" sp tx.txn_seq;
  if sp < tx.txn_seq then begin
    while tx.txn_seq > sp do
      match tx.txn_undos with
      | undo :: rest ->
        rollback tx.txn_repo undo;
        tx.txn_undos <- rest;
        tx.txn_seq <- tx.txn_seq - 1
      | [] -> assert false
    done;
    txn_record tx (J.Truncate { txn = tx.txn_id; keep = sp })
  end

(* One statement under integrity control (Section 7 of the paper): a
   statement that instantiates a registered pattern runs its simplified
   checks before execution; any other statement (or one whose pre-check
   degraded) is executed, checked by {!check_incremental} and
   compensated when a constraint that held before it fails after it —
   footnote 4's execute–check–compensate.
   A statement the pre-check accepted is flushed on its own: first the
   marks earlier statements or rollbacks left, maintained as usual, so
   the views describe the state the pre-check ran on; then its own
   marks, as a proven flush ({!sync_store}). *)
let txn_apply tx (u : XU.t) =
  require_open tx;
  Obs.Trace.with_span "txn_apply" @@ fun () ->
  let t = tx.txn_repo in
  (* WAL protocol: the intent record hits the disk before the in-memory
     documents are touched, the commit record only after every statement
     of the transaction went through. *)
  let exec label =
    txn_record tx
      (J.Intent
         { txn = tx.txn_id; seq = tx.txn_seq; strategy = label;
           payload = XU.to_string u });
    FP.hit "before_apply";
    let undo = apply_unchecked t u in
    tx.txn_undos <- undo :: tx.txn_undos;
    tx.txn_seq <- tx.txn_seq + 1;
    FP.hit "after_apply";
    undo
  in
  let full_check degs =
    List.iter
      (fun d ->
        Log.warn (fun m ->
            m "optimized check %s degraded (%s); falling back to the full check"
              d.failed_check d.reason))
      degs;
    (* Theorem 1's premise, per constraint: the statement answers only
       for the constraints that held before it.  Flushing the pending
       marks first makes the views describe that state. *)
    let violated_before =
      ignore (store t : Xic_datalog.Store.t);
      match t.incr with Some i -> Incr.violated i | None -> check_incremental t
    in
    let before = tx.txn_seq in
    let undo = exec "full_check" in
    match
      List.filter (fun c -> not (List.mem c violated_before)) (check_incremental t)
    with
    | [] -> { outcome = Applied `Full_check; degradations = degs }
    | violated :: _ ->
      rollback t undo;
      tx.txn_undos <- List.tl tx.txn_undos;
      tx.txn_seq <- before;
      txn_record tx (J.Truncate { txn = tx.txn_id; keep = before });
      { outcome = Rolled_back violated; degradations = degs }
  in
  match match_update t u with
  | None -> full_check []
  | Some (p, valuation) ->
    (match try_check_optimized t p valuation with
     | v :: _, degs -> { outcome = Rejected_early v; degradations = degs }
     | [], [] ->
       sync_store t;
       ignore (exec "optimized" : XU.undo);
       sync_store ~proven:true t;
       { outcome = Applied `Optimized; degradations = [] }
     | [], degs -> full_check degs)

let undo_txn tx =
  tx.txn_open <- false;
  List.iter (rollback tx.txn_repo) tx.txn_undos;
  tx.txn_undos <- [];
  tx.txn_seq <- 0

(* The commit or abort record.  When it fails the record may or may not
   have reached the disk, so memory must not keep what the journal may
   not: the statements are undone, the transaction is closed and the
   error goes on, saying that only recovery knows the outcome. *)
let txn_close_record tx e =
  if tx.txn_journaled then
    try txn_record tx e
    with J.Journal_error m ->
      undo_txn tx;
      raise
        (J.Journal_error
           (Printf.sprintf
              "%s; transaction %d is undone in memory, its outcome is \
               unknown until recovery"
              m tx.txn_id))

let commit_txn tx =
  require_open tx;
  FP.hit "before_commit";
  txn_close_record tx (J.Commit { txn = tx.txn_id });
  if tx.txn_seq > 0 then
    tx.txn_repo.generation <- tx.txn_repo.generation + 1;
  tx.txn_undos <- [];
  tx.txn_open <- false

let rollback_txn tx =
  require_open tx;
  (* The abort record is forced to disk *before* the in-memory undo runs:
     once the decision to abort is durable, a crash (or a SIGTERM-driven
     shutdown) anywhere in the compensation leaves a journal whose tail
     record closes the transaction — recovery discards it either way, but
     the journal never ends in a dangling intent when the process had a
     chance to say otherwise. *)
  txn_close_record tx (J.Abort { txn = tx.txn_id });
  undo_txn tx

(* Guarded updates, one or many: every statement goes through
   {!txn_apply} (so a batch's verdicts equal serial guards' by
   construction — oracle route 9 asserts it) inside one journaled
   transaction under group commit, so the call pays a single durability
   point.  The transaction commits when a statement stands and aborts
   otherwise, so it advances the generation exactly when recovery will.
   Each pre-checked statement is flushed inside {!txn_apply}, usually
   with no view maintenance at all; the closing reconciliation flushes
   what compensations and rollbacks left. *)
let guarded_batch ?journal t (us : XU.t list) =
  match us with
  | [] -> []
  | us ->
    Obs.Trace.with_span "guarded_batch" @@ fun () ->
    let tx = begin_txn ?journal t in
    let reports = List.map (txn_apply tx) us in
    if tx.txn_seq > 0 then commit_txn tx else rollback_txn tx;
    (match t.store with Some _ -> ignore (store t) | None -> ());
    reports

let guarded_update ?journal t u =
  match guarded_batch ?journal t [ u ] with
  | [ r ] -> r.outcome
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Crash recovery                                                      *)
(* ------------------------------------------------------------------ *)

type recovery_report = {
  replayed_txns : int;
  replayed_statements : int;
  discarded_txns : int;
  tail : J.tail;
  replay_errors : (int * string) list;
  post_violations : string list;
}

(* How many leading journal entries a snapshot already covers.  The
   generation decides: a journal *newer* than the snapshot was reset
   after the checkpoint, so everything in it is new work; the *same*
   generation replays only past the watermark; an *older* generation is
   a stale pre-checkpoint leftover (the snapshot superseded it whole). *)
let recover_skip (meta : Snap.meta) (rr : J.read_result) =
  if rr.J.generation > meta.Snap.journal_generation then 0
  else if rr.J.generation = meta.Snap.journal_generation then
    min meta.Snap.journal_watermark (List.length rr.J.entries)
  else List.length rr.J.entries

let recover ?(skip = 0) (rr : J.read_result) t =
  Obs.Trace.with_span "recover" @@ fun () ->
  let entries = List.filteri (fun i _ -> i >= skip) rr.J.entries in
  let committed = J.committed_payloads entries in
  let all_txns =
    List.sort_uniq compare
      (List.map
         (function
           | J.Intent { txn; _ } | J.Commit { txn } | J.Abort { txn }
           | J.Truncate { txn; _ } -> txn)
         entries)
  in
  let stmts = ref 0 in
  let errors = ref [] in
  List.iter
    (fun (txn, payloads) ->
      List.iter
        (fun payload ->
          match apply_unchecked t (XU.parse_string payload) with
          | _undo -> incr stmts
          | exception XU.Xupdate_error m -> errors := (txn, m) :: !errors)
        payloads)
    committed;
  (* as {!commit_txn}: only a transaction with a standing statement
     makes a generation *)
  t.generation <-
    t.generation
    + List.length (List.filter (fun (_, payloads) -> payloads <> []) committed);
  {
    replayed_txns = List.length committed;
    replayed_statements = !stmts;
    discarded_txns = List.length all_txns - List.length committed;
    tail = rr.J.tail;
    replay_errors = List.rev !errors;
    post_violations = check_incremental t;
  }

(* ------------------------------------------------------------------ *)
(* Snapshot checkpointing                                              *)
(* ------------------------------------------------------------------ *)

type checkpoint_report = {
  snapshot_path : string;
  snapshot_bytes : int;
  snapshot_nodes : int;
  snapshot_facts : int;
  wal_entries_folded : int;
  wal_reset : bool;
}

(* Checkpoint protocol: materialize the store, write the snapshot
   atomically with the journal's (generation, entry-count) stamped into
   it, and only then reset the journal.  Any crash ordering recovers
   correctly: before the rename the old snapshot + full journal replay
   still apply; after the rename but before the reset, the recorded
   watermark makes replay skip exactly the entries the snapshot already
   contains.  Must not run with an open journaled transaction — the
   snapshot would capture uncommitted mutations. *)
let checkpoint ?journal t path =
  Obs.Trace.with_span "checkpoint" @@ fun () ->
  let s = store t in
  let jmeta =
    match journal with
    | Some j -> (J.generation j, J.entry_count j)
    | None -> (0, 0)
  in
  let bytes =
    try Snap.save ~journal:jmeta path t.doc s
    with Xic_journal.Atomic_file.Atomic_file_error m ->
      fail "checkpoint %s: %s" path m
  in
  FP.hit "checkpoint_truncate";
  (match journal with Some j -> J.reset j | None -> ());
  (* the snapshot now owns this state durably: unreferenced history is
     reclaimable (in-flight pins keep their handles regardless) *)
  prune_retained ~keep_history:false t;
  {
    snapshot_path = path;
    snapshot_bytes = bytes;
    snapshot_nodes = Doc.node_count t.doc;
    snapshot_facts = Xic_datalog.Store.total_tuples s;
    wal_entries_folded = snd jmeta;
    wal_reset = Option.is_some journal;
  }

let load_snapshot t path =
  if Doc.has_root t.doc || Doc.id_bound t.doc > 0 then
    fail "load_snapshot: the repository already contains documents";
  let meta, s = Snap.load path t.doc in
  install_store t s;
  meta

(* ------------------------------------------------------------------ *)
(* Bring-up                                                            *)
(* ------------------------------------------------------------------ *)

type source = Documents of (string * string) Seq.t | Snapshot of string

(* The one way a repository comes up: the base state, then the
   constraints and patterns, then (when the journal exists) the views,
   so the replay deltas maintain them, and the committed suffix past
   the snapshot's watermark. *)
let bring_up ?(validate = true) schema source ~constraints ~patterns ~journal =
  let t = create schema in
  let meta =
    match source with
    | Documents docs ->
      Seq.iter
        (fun (name, xml) ->
          try load_fused ~validate t xml
          with Repository_error m -> fail "%s: %s" name m)
        docs;
      None
    | Snapshot path ->
      (try Some (load_snapshot t path)
       with Snap.Snapshot_error (p, e) ->
         fail "snapshot %s: %s" p (Snap.error_message e))
  in
  List.iter (add_constraint t) constraints;
  List.iter (register_pattern t) patterns;
  match journal with
  | Some path when Sys.file_exists path ->
    let rr = try J.read path with J.Journal_error m -> fail "%s" m in
    ignore (check_incremental t : string list);
    let skip = match meta with Some m -> recover_skip m rr | None -> 0 in
    (t, Some (recover ~skip rr t))
  | _ -> (t, None)
