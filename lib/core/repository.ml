open Xic_xml
module T = Xic_datalog.Term
module Delta = Xic_datalog.Delta
module Incr = Xic_datalog.Incr
module Mirror = Xic_relmap.Mirror
module Mapping = Xic_relmap.Mapping
module Store = Xic_datalog.Store
module Value = Xic_datalog.Value
module XE = Xic_xpath.Eval
module Symbol = Xic_symbol.Symbol
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

(* Run one constraint check under a [check:<name>] span when tracing
   is on (the test keeps the span name unbuilt otherwise), and observe
   its latency in [hist] however it ends, so the histogram's count
   equals the number of checks run. *)
let timed_check name hist f =
  let t0 = Obs.Clock.now_ns () in
  let observe () =
    Obs.Metrics.observe_ns hist (Int64.to_int (Int64.sub (Obs.Clock.now_ns ()) t0))
  in
  match
    if Obs.Trace.is_enabled () then Obs.Trace.with_span ("check:" ^ name) f
    else f ()
  with
  | v -> observe (); v
  | exception e -> observe (); raise e

type optimized_check = {
  constraint_name : string;
  simplified : T.denial list;
  simplified_xquery : Xic_xquery.Ast.expr;
  (* the check's closure plan, compiled on first use and keyed by the
     enclosing (pattern, constraint) pair by construction *)
  mutable simplified_plan : Xic_xquery.Eval.compiled option;
}

(* An optimized check that could not be completed, or a (pattern,
   constraint) pair [Simp] cannot simplify. *)
type degradation = { failed_check : string; reason : string }

(* A registered pattern with its pre-compiled checks; [unsupported]
   holds the constraints that get none, each with the reason. *)
type registered = {
  pattern : Pattern.t;
  checks : optimized_check list;
  unsupported : degradation list;
}

type plan_stats = {
  plan_hits : int;    (* checks served by a cached plan *)
  plan_misses : int;  (* compilations *)
}

(* One retained generation: frozen handles of the store and of the
   denial views, shared by every pin of that generation, refcounted so
   the table can tell in-flight readers from history kept for
   time-travel checks.  [r_incr] holds the views' definitions, so a pin
   answers for the constraints it was taken with. *)
type retained = {
  r_store : Xic_datalog.Store.t;  (* frozen *)
  r_incr : Incr.t;
  r_view : Xic_datalog.Store.t;  (* frozen *)
  r_mut : int;  (* mutation stamp at freeze time, for freshness checks *)
  mutable r_refs : int;
}

type t = {
  schema : Schema.t;
  doc : Doc.t;
  mutable constraints : Constr.t list;
  mutable compiled : registered list;
  (* the relational mirror of the documents, exact after every flush *)
  mutable store : Xic_datalog.Store.t;
  (* event-driven maintenance of [store] *)
  mutable mirror : Mirror.t;
  (* the materialized denial views, built by the first verdict *)
  mutable incr : Incr.t option;
  mutable eval_budget : int option;
  mutable index : XE.indexes option;
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
  let doc = Doc.create () and store = Xic_datalog.Store.create () in
  { schema; doc; constraints = []; compiled = []; store;
    mirror = Mirror.create (Schema.mapping schema) doc store; incr = None;
    eval_budget = None; index = None;
    full_plans = Hashtbl.create 16; generation = 0;
    mutations = 0; retained = Hashtbl.create 8; retain_keep = 8 }

let generation t = t.generation

let set_eval_budget t b = t.eval_budget <- b

let plan_stats (_ : t) =
  { plan_hits = Obs.Metrics.value c_plan_hits;
    plan_misses = Obs.Metrics.value c_plan_misses }

let schema t = t.schema
let doc t = t.doc

(* Where the store keeps the value an access path reads: a relation,
   one of its columns, and the tags to climb from its element to the
   candidate.  [ck/text()] with [ck] embedded in [c(k-1)] (the candidate
   when k = 1) reads that relation's [ck] column; a text column or an
   attribute reads the element's own relation.  [None] when the mapping
   has no such column. *)
let probe_site mapping ~tag (path : XE.access_path) =
  let site rel up source =
    Mapping.column_of mapping ~pred:(Symbol.name rel) source
    |> Option.map (fun col -> (rel, col, up))
  in
  (* [ck; …; c1; tag]: the last hop first *)
  match (path.XE.leaf, List.rev (tag :: path.XE.hops)) with
  | `Attr a, e :: up -> site e up (Mapping.From_attr (Symbol.name a))
  | `Text, e :: p :: up
    when Mapping.is_embedded_in mapping ~parent:(Symbol.name p) ~child:(Symbol.name e) ->
    site p up (Mapping.From_pcdata_child (Symbol.name e))
  | `Text, e :: up -> site e up Mapping.From_text
  | _, [] -> None

(* The {!XE.prober} over the store's column indexes.  It declines (the
   evaluator scans) for a path the mapping does not cover, for the key
   [""], which the mapping stores for an absent child or attribute where
   [text() = ""] needs a node, and while the mirror is not {!Mirror.exact}
   (pending marks, or a second embedded child after an unvalidated load
   or update).  The parser and XUpdate keep no two text nodes side by
   side, so an element's stored text is its text child's value. *)
let prober t =
  let rec climb id = function
    | [] -> Some id
    | want :: up ->
      let p = Doc.parent t.doc id in
      if p <> Doc.no_node && Symbol.equal (Doc.tag t.doc p) want then climb p up
      else None
  in
  fun ~tag path key ->
    if key = "" || not (Mirror.exact t.mirror) then None
    else
      Option.map
        (fun (rel, col, up) ->
          List.filter_map
            (fun (tup : Store.tuple) -> climb (Value.get_int tup.(0)) up)
            (Store.lookup_sym t.store rel col (Value.of_string key)))
        (probe_site (Schema.mapping t.schema) ~tag path)

(* Created on demand; the tag table stays empty until a lookup. *)
let index t =
  match t.index with
  | Some i -> i
  | None ->
    let i = { XE.tags = Index.create t.doc; probe = prober t } in
    t.index <- Some i;
    i

let index_stats t = Option.map (fun _ -> Index.stats ()) t.index

(* Install a store known to be exact for the current documents and
   attach the event-driven mirror that keeps it that way across updates,
   undo, compensation and recovery replay.  Views, pins and
   history belong to the store they were built on, so they go with it. *)
let install_store t s =
  Mirror.detach t.mirror;
  t.store <- s;
  t.mirror <- Mirror.create (Schema.mapping t.schema) t.doc s;
  t.incr <- None;
  Hashtbl.reset t.retained;
  t.mutations <- t.mutations + 1

(* Reconcile pending mutation marks into the store and feed the net
   delta to the live materialized views (if any).  A view that cannot be
   maintained (unsafe denial, exhausted budget) is dropped, so a
   half-maintained view never answers; the next verdict re-initializes.

   [~proven:true] is {!txn_apply}'s word that the pending marks are one
   statement whose simplified checks all held on the state the views
   describe.  A constraint whose view is empty held on that state, so by
   Theorem 1 it holds after the statement too: its view stays empty and
   none of its delta rules run ({!Incr.apply_delta}).  The store, the
   net delta and the counters are reconciled as on any flush. *)
let sync_store ?(proven = false) t =
  if Mirror.has_dirty t.mirror then
    Obs.Trace.with_span "delta_flush" (fun () ->
        let d = Delta.create () in
        Mirror.flush t.mirror ~into:d;
        Obs.Metrics.incr c_delta_flushes;
        Obs.Metrics.add c_delta_facts_added (Delta.gross_added d);
        Obs.Metrics.add c_delta_facts_removed (Delta.gross_removed d);
        match t.incr with
        | Some inc when not (Delta.is_empty d) ->
          (try
             if Incr.apply_delta ~proven inc t.store d then
               Obs.Metrics.incr c_incr_proven
           with Xic_datalog.Eval.Unsafe _ | Xic_datalog.Eval.Budget_exceeded ->
             t.incr <- None)
        | _ -> ())

(* Fused single-pass load: parse, intern and shred in one streaming scan
   of the source, the parser feeding a [Shred.sink] into the store.  The
   sink keeps the store exact in-pass, so the mirror is silenced (after
   flushing older marks) and the parser's attach events mark nothing.
   On any failure — parse error, shredding error, validation reject —
   the partially parsed nodes are unreachable (the root is only
   registered on success) but their facts are stored: re-shredding the
   live roots makes the store exact again. *)
let load_fused ?(validate = true) t source =
  Obs.Trace.with_span "ingest" (fun () ->
      let facts = ref 0 in
      let mapping = Schema.mapping t.schema in
      sync_store t;
      Mirror.set_active t.mirror false;
      let failed fmt =
        Printf.ksprintf
          (fun m ->
            install_store t (Xic_relmap.Shred.shred mapping t.doc);
            raise (Repository_error m))
          fmt
      in
      let sink = Xic_relmap.Shred.sink ~count:facts mapping t.doc t.store in
      match Xml_parser.parse_document_into ~sink t.doc source with
      | exception Xml_parser.Parse_error { line; col; msg } ->
        failed "XML parse error at %d:%d: %s" line col msg
      | exception Xic_relmap.Shred.Shred_error m ->
        failed "shred error during load: %s" m
      | root, _dtd ->
        (if validate then
           match Schema.validate_root t.schema t.doc root with
           | Ok () -> ()
           | Error m -> failed "document rejected: %s" m);
        Doc.add_root t.doc root;
        (* a valid document fits the mapping; another one is assessed *)
        if not validate then Mirror.audit t.mirror root;
        (* a whole new document's facts arrived outside the delta path:
           rearm the mirror and drop any materialized views (the next
           verdict re-initializes them against the new store) *)
        Mirror.set_active t.mirror true;
        t.incr <- None;
        t.mutations <- t.mutations + 1;
        Obs.Metrics.incr c_ingest_fused;
        Obs.Metrics.add c_ingest_bytes (String.length source);
        Obs.Metrics.add c_ingest_facts !facts)

(* A constraint [Simp] cannot simplify for the pattern (an aggregate
   [After] does not support, such as [sum]) gets no pre-check: a
   matching statement reports it degraded and takes the full check.
   The pair is logged here, once, not on every matching statement. *)
let compile_check t (p : Pattern.t) (c : Constr.t) =
  match Pattern.simplify t.schema p c with
  | simplified ->
    let simplified_xquery =
      Xic_translate.Translate.denials (Schema.mapping t.schema) simplified
    in
    Either.Left
      { constraint_name = c.Constr.name; simplified; simplified_xquery;
        simplified_plan = None }
  | exception Xic_simplify.After.Unsupported reason ->
    Log.warn (fun m ->
        m "no optimized check %s for pattern %s (%s); matching statements \
           take the full check"
          c.Constr.name p.Pattern.name reason);
    Either.Right { failed_check = c.Constr.name; reason }

let compile_checks t p constraints =
  let checks, unsupported = List.partition_map (compile_check t p) constraints in
  { pattern = p; checks; unsupported }

(* Each constraint is simplified on its own, so a new one extends the
   existing patterns' checks and leaves the others' compiled plans. *)
let add_constraint t c =
  if List.exists (fun c' -> c'.Constr.name = c.Constr.name) t.constraints then
    fail "duplicate constraint name %s" c.Constr.name;
  t.constraints <- t.constraints @ [ c ];
  Hashtbl.reset t.full_plans;
  t.incr <- None;  (* the view set changed; re-materialize on demand *)
  t.compiled <-
    List.map
      (fun r ->
        let more = compile_checks t r.pattern [ c ] in
        { r with checks = r.checks @ more.checks;
                 unsupported = r.unsupported @ more.unsupported })
      t.compiled

let register_pattern t p =
  if List.exists (fun r -> r.pattern.Pattern.name = p.Pattern.name) t.compiled then
    fail "duplicate pattern name %s" p.Pattern.name;
  t.compiled <- t.compiled @ [ compile_checks t p t.constraints ]

let constraints t = t.constraints
let patterns t = List.map (fun r -> r.pattern) t.compiled

let registered t (p : Pattern.t) =
  match List.find_opt (fun r -> r.pattern.Pattern.name = p.Pattern.name) t.compiled with
  | Some r -> r
  | None -> fail "pattern %s is not registered" p.Pattern.name

let optimized_checks t p = (registered t p).checks

let store t =
  sync_store t;
  t.store

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
      sync_store t;  (* so the value probes read the store *)
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

let check_full_datalog t =
  let s = store t in
  List.filter_map
    (fun c -> if Constr.violated_datalog s c then Some c.Constr.name else None)
    t.constraints

(* ------------------------------------------------------------------ *)
(* Incremental (delta-driven) checking                                 *)
(* ------------------------------------------------------------------ *)

(* The materialized denial views: built from the store by the first
   demand, maintained by every flush after it. *)
let views t =
  let s = store t in  (* flushes the mirror and maintains any live views *)
  match t.incr with
  | Some i -> i
  | None ->
    let i =
      Incr.create
        (List.map (fun (c : Constr.t) -> (c.Constr.name, c.Constr.datalog))
           t.constraints)
    in
    Incr.initialize i s;
    t.incr <- Some i;
    i

let set_incremental t enabled = if not enabled then t.incr <- None

let check_incremental t =
  Obs.Trace.with_span "check_incremental" @@ fun () ->
  let i = views t in
  Obs.Metrics.incr c_checks_incremental;
  Incr.violated i

let incr_view t = Option.map Incr.view t.incr

(* ------------------------------------------------------------------ *)
(* Pinned snapshots (reader isolation)                                 *)
(* ------------------------------------------------------------------ *)

(* A pin is a frozen generation handle of the materialized store and of
   the denial views, stamped with the generation it captured.  Freezing
   is an O(#relations) pointer capture ([Store.freeze]): the handle
   shares the per-relation insertion logs with the live writer, which
   only ever conses onto its own head, so checks against a pin are
   unaffected by later commits, checkpoints or journal truncation — at
   no copy cost and O(delta) retained memory.  Verdicts from the frozen
   views equal the XQuery check (oracle-proven).

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

(* A retained entry is reused while the documents and the live views are
   the ones it froze; a new constraint list builds new views, and so a
   new entry. *)
let pin t =
  let g = t.generation in
  match Hashtbl.find_opt t.retained g with
  | Some r
    when r.r_mut = t.mutations
         && (match t.incr with Some i -> i == r.r_incr | None -> false) ->
    r.r_refs <- r.r_refs + 1;
    { pin_generation = g; pin_entry = r }
  | _ ->
    let i = views t in  (* flushes pending marks so the freeze is exact *)
    let r =
      { r_store = Xic_datalog.Store.freeze t.store; r_incr = i;
        r_view = Xic_datalog.Store.freeze (Incr.view i); r_mut = t.mutations;
        r_refs = 1 }
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
  let live = store t in
  let live_view =
    Option.fold ~none:(Xic_datalog.Store.create ()) ~some:Incr.view t.incr
  in
  Hashtbl.fold
    (fun _ r acc ->
      acc
      + Xic_datalog.Store.unshared_bytes ~live r.r_store
      + Xic_datalog.Store.unshared_bytes ~live:live_view r.r_view)
    t.retained 0

let pin_generation p = p.pin_generation
let pin_store p = p.pin_entry.r_store
let pin_view p = p.pin_entry.r_view

let check_pinned (_ : t) (p : pin) =
  Incr.violated ~view:p.pin_entry.r_view p.pin_entry.r_incr

let check_as_of t g =
  match pin_as_of t g with
  | None -> None
  | Some p ->
    let v = check_pinned t p in
    unpin t p;
    Some v

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
  let entries, rows =
    match t.incr with
    | None -> (0, 0)
    | Some i -> (Incr.entry_count i, Xic_datalog.Store.total_tuples (Incr.view i))
  in
  let v = Obs.Metrics.value in
  { delta_flushes = v c_delta_flushes;
    delta_facts_added = v c_delta_facts_added;
    delta_facts_removed = v c_delta_facts_removed;
    incr_entries = entries;
    incr_evals = v Incr.c_evals;
    incr_reverifies = v Incr.c_reverifies;
    incr_recomputes = v Incr.c_recomputes;
    incr_skipped = v Incr.c_skipped;
    incr_view_rows = rows }

(* The statement's select is evaluated once, with the indexes, for every
   pattern of its op. *)
let match_update t (u : XU.t) =
  match u with
  | [ m ] when List.exists (fun r -> r.pattern.Pattern.op = m.XU.op) t.compiled ->
    (match Xic_xpath.Eval.eval t.doc ~index:(index t) m.XU.select with
     | Xic_xpath.Eval.Nodes (target :: _) ->
       List.find_map
         (fun r ->
           Option.map
             (fun v -> (r.pattern, v))
             (Pattern.match_modification t.schema t.doc r.pattern m target))
         t.compiled
     | _ | (exception Xic_xpath.Eval.Eval_error _) -> None)
  | _ -> None

(* Each check evaluation gets its own budget, so one pathological check
   cannot starve the others. *)
let budgeted t f =
  match t.eval_budget with
  | None -> f ()
  | Some steps -> Xic_xquery.Eval.with_budget ~steps f

let try_check_optimized t p valuation =
  let r = registered t p in
  sync_store t;  (* so the value probes read the store *)
  let params = Pattern.xquery_params valuation in
  (* A runtime degradation is logged where it happens; the pattern's
     unsupported pairs were logged once, by {!compile_check}. *)
  let degraded name reason =
    Log.warn (fun m -> m "optimized check %s degraded (%s)" name reason);
    { failed_check = name; reason }
  in
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
         go violated (degraded ch.constraint_name m :: degs) rest
       | exception Xic_xpath.Eval.Budget_exceeded ->
         go violated (degraded ch.constraint_name "step budget exhausted" :: degs) rest)
  in
  go [] (List.rev r.unsupported) r.checks

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
   mutation (insertions, removals, attribute writes, undo, compensation,
   recovery replay) marks the touched nodes and the next
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

(* One statement under integrity control (Section 7 of the paper): a
   statement that instantiates a registered pattern runs its simplified
   checks before execution; any other statement (or one whose pre-check
   degraded) is executed, checked by {!check_incremental} and
   compensated when a constraint that held before it fails after it —
   footnote 4's execute–check–compensate.
   A statement the pre-check accepted is flushed on its own: the
   pre-check first flushes the marks earlier statements or rollbacks
   left, maintained as usual, so its value probes read the store and
   the views describe the state it ran on; then the statement's own
   marks go in as a proven flush ({!sync_store}). *)
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
    (* Theorem 1's premise, per constraint: the statement answers only
       for the constraints that held before it.  Flushing the pending
       marks first makes the views describe that state. *)
    let violated_before = Incr.violated (views t) in
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
    sync_store t;
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
  (* the image brings its own store: the restored arena's attach
     events need no marks *)
  Mirror.set_active t.mirror false;
  Fun.protect ~finally:(fun () -> Mirror.set_active t.mirror true) @@ fun () ->
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
