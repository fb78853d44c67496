(* Benchmark harness reproducing the paper's evaluation (Section 7).

   Experiments (see DESIGN.md's per-experiment index):
     fig1a      Figure 1(a) — "Conflict of interests" (Example 1)
     fig1b      Figure 1(b) — "Conference workload"   (Example 2)
     fig_simp   simplification cost (the paper reports < 50 ms)
     ex45       the relational ISSN example (Examples 4/5)
     ablations  datalog- vs xquery-level optimized checks; After without
                Optimize; early rejection vs rollback; the two fallbacks
                of footnote 4 (execute–check–compensate vs runtime
                simplification)
     index      indexed vs scan evaluation of full and simplified checks
     journal    the journal commit path: deferred intent + synced commit
     incremental  delta-maintained denial views vs full re-evaluation
     memory     the store, its indexes, the arena and the views, in bytes
     server     resident check server vs one-shot loop; batched guards
     pins       generation pin open latency vs document size
     server_pins  pinned readers under writer churn over the socket
     micro      Bechamel micro-benchmarks of the moving parts
     all        everything above (default)

   Document sizes are scaled-down stand-ins for the paper's 32–256 MB
   (same 1:8 spread); absolute numbers differ from the paper's testbed,
   the *shape* of the curves is what is reproduced. *)

open Xic_core
module Symbol = Xic_symbol.Symbol
module Conf = Xic_workload.Conference
module Gen = Xic_workload.Generator
module T = Xic_datalog.Term
module Obs = Xic_obs.Obs

let default_sizes = [ 32_000; 64_000; 128_000; 256_000; 512_000; 1_024_000 ]

let now () = Unix.gettimeofday ()

(* Mean wall-clock ms of [f] over [reps] runs after one warm-up. *)
let time_ms ?(reps = 5) f =
  ignore (f ());
  let t0 = now () in
  for _ = 1 to reps do
    ignore (f ())
  done;
  (now () -. t0) *. 1000.0 /. float_of_int reps

(* (median, min) wall-clock ms of [f] over at least 5 samples after one
   warm-up.  [batch] amortizes timer granularity for µs-scale runs: each
   sample times [batch] consecutive runs and reports the per-run mean. *)
(* [clean] runs a full major collection before each sample (outside the
   timed window), so runs that drop MB-scale structures per rep — the
   cold-start loaders — measure the operation itself rather than the
   incremental collection of the previous rep's garbage. *)
let time_stats ?(reps = 5) ?(batch = 1) ?(clean = false) f =
  ignore (f ());
  let reps = max reps 5 in
  let sample () =
    if clean then Gc.full_major ();
    let t0 = now () in
    for _ = 1 to batch do
      ignore (f ())
    done;
    (now () -. t0) *. 1000.0 /. float_of_int batch
  in
  let samples = Array.init reps (fun _ -> sample ()) in
  Array.sort Float.compare samples;
  let n = Array.length samples in
  let median =
    if n mod 2 = 1 then samples.(n / 2)
    else (samples.((n / 2) - 1) +. samples.(n / 2)) /. 2.0
  in
  (median, samples.(0))

(* Median wall-clock ms of [f] over [n] runs, each preceded by [prepare]
   outside the timed window (after one warm-up pair).  One run can take
   a few µs, so each is timed on the monotonic ns clock. *)
let time_prepared ~n ~prepare f =
  prepare ();
  ignore (f ());
  let samples =
    Array.init n (fun _ ->
        prepare ();
        let t0 = Obs.Clock.now_ns () in
        ignore (f ());
        Int64.to_float (Int64.sub (Obs.Clock.now_ns ()) t0) /. 1e6)
  in
  Array.sort Float.compare samples;
  samples.(n / 2)

(* The [p]th percentile of an ascending array. *)
let percentile sorted p =
  let n = Array.length sorted in
  sorted.(min (n - 1) (int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1))

(* Accumulated machine-readable results, written when --json is given. *)
let json_sections : (string * string) list ref = ref []

let add_json name value = json_sections := !json_sections @ [ (name, value) ]

let write_json path ~reps =
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"reps\": %d" reps;
  List.iter
    (fun (name, value) -> Printf.fprintf oc ",\n  %S: %s" name value)
    !json_sections;
  output_string oc "\n}\n";
  close_out oc;
  Printf.printf "wrote %s\n%!" path

type setup = {
  repo : Repository.t;
  pattern : Pattern.t;
  ds : Gen.dataset;
}

let setup ~size ~constraint_ () =
  let s = Conf.schema () in
  let ds = Gen.generate ~seed:42 ~target_bytes:size () in
  let repo = Repository.create s in
  (* validation is part of loading; skip it here to keep setup fast *)
  Repository.load_fused ~validate:false repo ds.Gen.pub_xml;
  Repository.load_fused ~validate:false repo ds.Gen.rev_xml;
  Repository.add_constraint repo (constraint_ s);
  let pattern = Conf.submission_pattern s in
  Repository.register_pattern repo pattern;
  { repo; pattern; ds }

(* The optimized pre-check's violated constraints; a degraded check
   would make the timing meaningless. *)
let optimized repo pattern valuation =
  match Repository.try_check_optimized repo pattern valuation with
  | violated, [] -> violated
  | _, d :: _ ->
    failwith
      (Printf.sprintf "optimized check %s degraded: %s" d.Repository.failed_check
         d.Repository.reason)

(* The three curves of Figure 1: full check, optimized check, and
   update + full check + rollback (the paper's diamonds, squares and
   triangles).  A fourth column times the optimized check as a resident
   server meets it: right after a write and its withdrawal, which the
   repeated checks of the optimized column never see.  The pre-check
   flushes the marks a write leaves before it probes, so that column's
   write is flushed outside the timed window, and a fifth column times
   the flush itself. *)
let figure ?json_key ~name ~constraint_ ~sizes ~reps () =
  Printf.printf "# %s\n" name;
  Printf.printf
    "# %-12s %-10s %-14s %-14s %-16s %-14s %-20s %s\n" "size(bytes)" "subs"
    "original(ms)" "optimized(ms)" "after-write(ms)" "flush(ms)"
    "upd+check+undo(ms)" "speedup";
  let rows =
    List.map
      (fun size ->
        let { repo; pattern; ds } = setup ~size ~constraint_ () in
        let legal =
          Conf.insert_submission ~select:ds.Gen.legal_select ~title:"Bench Paper"
            ~author:ds.Gen.legal_author
        in
        let valuation =
          match Repository.match_update repo legal with
          | Some (_, v) -> v
          | None -> failwith "bench update must match the pattern"
        in
        let orig_med, orig_min =
          time_stats ~reps (fun () -> Repository.check_full repo)
        in
        let opt_med, opt_min =
          time_stats ~reps ~batch:20 (fun () ->
              optimized repo pattern valuation)
        in
        let write_and_withdraw () =
          Repository.rollback repo (Repository.apply_unchecked repo legal)
        in
        let after_med =
          time_prepared ~n:(20 * max reps 5)
            ~prepare:(fun () ->
              write_and_withdraw ();
              ignore (Repository.store repo))
            (fun () -> optimized repo pattern valuation)
        in
        let flush_med =
          time_prepared ~n:(20 * max reps 5) ~prepare:write_and_withdraw
            (fun () -> Repository.store repo)
        in
        let upd_med, _ =
          time_stats ~reps (fun () ->
              let undo = Repository.apply_unchecked repo legal in
              let r = Repository.check_full repo in
              Repository.rollback repo undo;
              r)
        in
        let speedup = orig_med /. (opt_med +. 1e-9) in
        Printf.printf "%-14d %-10d %-14.3f %-14.4f %-16.4f %-14.4f %-20.3f %.0fx\n%!"
          ds.Gen.stats.Gen.bytes ds.Gen.stats.Gen.submissions orig_med opt_med
          after_med flush_med upd_med speedup;
        Printf.sprintf
          "{\"bytes\": %d, \"subs\": %d, \"full_median_ms\": %.4f, \
           \"full_min_ms\": %.4f, \"optimized_median_ms\": %.5f, \
           \"optimized_min_ms\": %.5f, \
           \"optimized_after_write_median_ms\": %.5f, \
           \"after_write_flush_median_ms\": %.5f, \
           \"upd_check_undo_median_ms\": %.4f, \"speedup\": %.1f}"
          ds.Gen.stats.Gen.bytes ds.Gen.stats.Gen.submissions orig_med orig_min
          opt_med opt_min after_med flush_med upd_med speedup)
      sizes
  in
  (match json_key with
   | Some key -> add_json key ("[\n    " ^ String.concat ",\n    " rows ^ "\n  ]")
   | None -> ());
  print_newline ()

let fig1a ~sizes ~reps () =
  figure ~json_key:"fig1a" ~name:"Figure 1(a) — Conflict of interests (Example 1)"
    ~constraint_:Conf.conflict ~sizes ~reps ()

let fig1b ~sizes ~reps () =
  figure ~json_key:"fig1b" ~name:"Figure 1(b) — Conference workload (Example 2)"
    ~constraint_:Conf.workload ~sizes ~reps ()

(* ------------------------------------------------------------------ *)
(* PR 3: compiled check pipeline — plan cache                           *)
(* ------------------------------------------------------------------ *)

(* Interpreted (re-lower the XQuery on every evaluation) versus compiled
   cached plans, and the plan-cache counters — on the full
   three-constraint suite at the largest document size, with verdict
   agreement asserted across both routes. *)
let pipeline ~sizes ~reps () =
  let size = List.fold_left max 0 sizes in
  Printf.printf "# Compiled check pipeline (3 constraints, %d bytes)\n" size;
  (* plan-cache counters live in the global metrics registry now; start
     this section from zero so its stats cover only its own repository *)
  Obs.Metrics.reset ();
  let s = Conf.schema () in
  let ds = Gen.generate ~seed:42 ~target_bytes:size () in
  let repo = Repository.create s in
  Repository.load_fused ~validate:false repo ds.Gen.pub_xml;
  Repository.load_fused ~validate:false repo ds.Gen.rev_xml;
  List.iter
    (fun c -> Repository.add_constraint repo (c s))
    [ Conf.conflict; Conf.workload; Conf.track_load ];
  let doc = Repository.doc repo in
  let index = Repository.index repo in
  let cs = Repository.constraints repo in
  let interpreted () =
    List.filter_map
      (fun c ->
        if Constr.violated_xquery ~index doc c then Some c.Constr.name
        else None)
      cs
  in
  let reference = interpreted () in
  let interp_med, interp_min = time_stats ~reps interpreted in
  let compiled_med, compiled_min =
    time_stats ~reps (fun () -> Repository.check_full repo)
  in
  if Repository.check_full repo <> reference then
    failwith "compiled route disagrees with interpreted route";
  Printf.printf "# %-26s %-12s %s\n" "route" "median(ms)" "min(ms)";
  Printf.printf "%-28s %-12.3f %.3f\n" "interpreted (re-lowered)" interp_med
    interp_min;
  Printf.printf "%-28s %-12.3f %.3f\n%!" "compiled (cached plans)" compiled_med
    compiled_min;
  let stats = Repository.plan_stats repo in
  Printf.printf "plans: %d hits, %d misses\n"
    stats.Repository.plan_hits stats.Repository.plan_misses;
  Printf.printf "symbols interned: %d\n\n%!" (Symbol.count ());
  add_json "pipeline"
    (Printf.sprintf
       "{\n\
       \    \"size_bytes\": %d,\n\
       \    \"interpreted_median_ms\": %.4f,\n\
       \    \"interpreted_min_ms\": %.4f,\n\
       \    \"compiled_median_ms\": %.4f,\n\
       \    \"compiled_min_ms\": %.4f,\n\
       \    \"plan_hits\": %d,\n\
       \    \"plan_misses\": %d,\n\
       \    \"symbols_interned\": %d,\n\
       \    \"verdicts_agree\": true\n\
       \  }"
       ds.Gen.stats.Gen.bytes interp_med interp_min compiled_med compiled_min
       stats.Repository.plan_hits stats.Repository.plan_misses (Symbol.count ()))

(* ------------------------------------------------------------------ *)
(* PR 4: per-stage breakdown from the tracing layer                     *)
(* ------------------------------------------------------------------ *)

(* One fully traced cold run per figure at the largest size: document
   parse, pattern simplification, XQuery translation, relational shred,
   plan compilation and evaluation, each read off the span tree.  Also
   measures the steady-state full check with tracing off and on — the
   disabled cost is the one the <3% regression gate watches. *)
let stages ~sizes ~reps () =
  let size = List.fold_left max 0 sizes in
  Printf.printf "# Per-stage breakdown (traced cold run, %d bytes)\n" size;
  let stage_names =
    [ "parse"; "simplify"; "translate"; "shred"; "compile"; "eval" ]
  in
  let rows =
    List.map
      (fun (key, constraint_) ->
        Obs.Trace.set_enabled true;
        Obs.Trace.reset ();
        let { repo; _ } = setup ~size ~constraint_ () in
        ignore (Repository.store repo : Xic_datalog.Store.t);
        ignore (Repository.check_full repo : string list);
        let roots = Obs.Trace.roots () in
        Obs.Trace.set_enabled false;
        Obs.Trace.reset ();
        let totals = Hashtbl.create 16 in
        let rec walk (sp : Obs.Trace.span) =
          let prev =
            Option.value ~default:0.0
              (Hashtbl.find_opt totals sp.Obs.Trace.name)
          in
          Hashtbl.replace totals sp.Obs.Trace.name
            (prev +. Obs.Trace.duration_ms sp);
          List.iter walk sp.Obs.Trace.children
        in
        List.iter walk roots;
        let get n = Option.value ~default:0.0 (Hashtbl.find_opt totals n) in
        Printf.printf "%-7s" key;
        List.iter (fun n -> Printf.printf " %s=%.3f" n (get n)) stage_names;
        Printf.printf " (ms)\n%!";
        (* steady-state full check, tracing off vs on (the metrics
           registry is live in both) *)
        let off_med, _ =
          time_stats ~reps (fun () -> Repository.check_full repo)
        in
        Obs.Trace.set_enabled true;
        let on_med, _ =
          time_stats ~reps (fun () -> Repository.check_full repo)
        in
        Obs.Trace.set_enabled false;
        Obs.Trace.reset ();
        Printf.printf
          "%-7s full check: tracing off %.3f ms | on %.3f ms (%+.1f%%)\n%!" key
          off_med on_med
          ((on_med -. off_med) /. (off_med +. 1e-9) *. 100.0);
        Printf.sprintf
          "{\"figure\": %S, %s, \"full_untraced_median_ms\": %.4f, \
           \"full_traced_median_ms\": %.4f}"
          key
          (String.concat ", "
             (List.map
                (fun n -> Printf.sprintf "\"%s_ms\": %.4f" n (get n))
                stage_names))
          off_med on_med)
      [ ("fig1a", Conf.conflict); ("fig1b", Conf.workload) ]
  in
  add_json "stages" ("[\n    " ^ String.concat ",\n    " rows ^ "\n  ]");
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Ingestion: parse-only vs fused one-pass load                        *)
(* ------------------------------------------------------------------ *)

let ingest ~sizes ~reps () =
  Printf.printf "# Ingestion (cold load of both documents into a fresh repo)\n";
  Printf.printf "# %-12s %-10s %-15s %s\n" "size(bytes)" "subs"
    "parse_only(ms)" "fused(ms)";
  let rows =
    List.map
      (fun size ->
        let s = Conf.schema () in
        let ds = Gen.generate ~seed:42 ~target_bytes:size () in
        let parse_only () =
          ignore (Xic_xml.Xml_parser.parse_string ds.Gen.pub_xml);
          ignore (Xic_xml.Xml_parser.parse_string ds.Gen.rev_xml)
        in
        let fused () =
          let repo = Repository.create s in
          Repository.load_fused ~validate:false repo ds.Gen.pub_xml;
          Repository.load_fused ~validate:false repo ds.Gen.rev_xml;
          (* already materialised during the parse: a field read *)
          ignore (Repository.store repo : Xic_datalog.Store.t);
          repo
        in
        (* At every size the store the parser's sink filled must equal a
           from-scratch shred of the loaded documents, and the Datalog
           verdicts on Examples 1 and 2 the XQuery ones, which read the
           document alone. *)
        let repo = fused () in
        if
          not
            (Xic_datalog.Store.equal
               (Xic_relmap.Shred.shred (Schema.mapping s) (Repository.doc repo))
               (Repository.store repo))
        then failwith "ingest: the fused store differs from a fresh shred";
        List.iter
          (fun constraint_ ->
            Repository.add_constraint repo (constraint_ s);
            if Repository.check_full repo <> Repository.check_full_datalog repo
            then failwith "ingest: XQuery and Datalog verdicts differ")
          [ Conf.conflict; Conf.workload ];
        let p_med, p_min = time_stats ~reps (fun () -> parse_only ()) in
        let f_med, f_min = time_stats ~reps (fun () -> ignore (fused ())) in
        Printf.printf "%-14d %-10d %-15.3f %.3f\n%!" ds.Gen.stats.Gen.bytes
          ds.Gen.stats.Gen.submissions p_med f_med;
        Printf.sprintf
          "{\"bytes\": %d, \"subs\": %d, \"parse_only_median_ms\": %.4f, \
           \"parse_only_min_ms\": %.4f, \"fused_median_ms\": %.4f, \
           \"fused_min_ms\": %.4f}"
          ds.Gen.stats.Gen.bytes ds.Gen.stats.Gen.submissions p_med p_min f_med
          f_min)
      sizes
  in
  add_json "ingest" ("[\n    " ^ String.concat ",\n    " rows ^ "\n  ]");
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Cold start: parse vs fused load vs binary snapshot load             *)
(* ------------------------------------------------------------------ *)

(* A resident checker restarting (or a recovery) can skip XML entirely:
   the snapshot holds the arena, symbol names and fact store verbatim.
   Loading it must beat even the fused single-pass loader — the snapshot
   is the cold-start fast path the checkpoint subsystem buys. *)
let coldstart ~sizes ~reps () =
  Printf.printf
    "# Cold start (rebuild repo + store: XML parse vs fused load vs snapshot)\n";
  Printf.printf "# %-12s %-10s %-15s %-12s %-15s %-14s %-13s %-15s %s\n" "size(bytes)"
    "subs" "parse_only(ms)" "fused(ms)" "validated(ms)" "snapshot(ms)" "snap_speedup"
    "views_init(ms)" "views_steps";
  let rows =
    List.map
      (fun size ->
        let s = Conf.schema () in
        let ds = Gen.generate ~seed:42 ~target_bytes:size () in
        let spath = Printf.sprintf "bench_coldstart_%d.xis" size in
        let parse_only () =
          ignore (Xic_xml.Xml_parser.parse_string ds.Gen.pub_xml);
          ignore (Xic_xml.Xml_parser.parse_string ds.Gen.rev_xml)
        in
        let fused () =
          let repo = Repository.create s in
          Repository.load_fused ~validate:false repo ds.Gen.pub_xml;
          Repository.load_fused ~validate:false repo ds.Gen.rev_xml;
          ignore (Repository.store repo : Xic_datalog.Store.t);
          repo
        in
        (* What [serve] pays: the same load, validating each document
           against its DTD.  The generated documents are valid, so a
           rejection is a validator fault. *)
        let fused_validated () =
          let repo = Repository.create s in
          (try
             Repository.load_fused ~validate:true repo ds.Gen.pub_xml;
             Repository.load_fused ~validate:true repo ds.Gen.rev_xml
           with Repository.Repository_error m ->
             failwith ("coldstart: the validating load rejects: " ^ m));
          ignore (Repository.store repo : Xic_datalog.Store.t);
          repo
        in
        let snap_bytes =
          (Repository.checkpoint (fused ()) spath).Repository.snapshot_bytes
        in
        let snap_load () =
          let repo = Repository.create s in
          ignore (Repository.load_snapshot repo spath);
          ignore (Repository.store repo : Xic_datalog.Store.t);
          repo
        in
        (* The snapshot must restore the exact state: same facts, same
           verdicts on Examples 1 and 2, at every size. *)
        let repo_f = fused () and repo_s = snap_load () in
        if
          not
            (Xic_datalog.Store.equal (Repository.store repo_f)
               (Repository.store repo_s))
        then failwith "coldstart: snapshot and fused stores differ";
        List.iter
          (fun constraint_ ->
            let c = constraint_ s in
            Repository.add_constraint repo_f c;
            Repository.add_constraint repo_s c;
            let vf = Repository.check_full repo_f
            and vs = Repository.check_full repo_s in
            if vf <> vs then
              failwith "coldstart: snapshot and fused verdicts differ")
          [ Conf.conflict; Conf.workload ];
        (* View initialization: materializing every denial of Examples
           1, 2 and 7 over the fused store, the first verdict a resident
           server serves.  The views must answer as the full check. *)
        Repository.add_constraint repo_f (Conf.track_load s);
        let denials =
          List.map (fun (c : Constr.t) -> (c.Constr.name, c.Constr.datalog))
            (Repository.constraints repo_f)
        in
        let views () =
          let i = Xic_datalog.Incr.create denials in
          Xic_datalog.Incr.initialize i (Repository.store repo_f);
          i
        in
        if Xic_datalog.Incr.violated (views ()) <> Repository.check_full repo_f then
          failwith "coldstart: view and full verdicts differ";
        (* The budget steps of one initialization: a function of the
           plans and the store alone, so equal across runs and builds
           that schedule the same joins. *)
        let v_steps =
          let i = Xic_datalog.Incr.create denials in
          snd
            (Xic_datalog.Eval.with_meter (fun () ->
                 Xic_datalog.Incr.initialize i (Repository.store repo_f)))
        in
        let v_med, v_min = time_stats ~reps ~clean:true (fun () -> ignore (views ())) in
        let p_med, p_min = time_stats ~reps ~clean:true (fun () -> parse_only ()) in
        let f_med, f_min =
          time_stats ~reps ~clean:true (fun () -> ignore (fused ()))
        in
        let fv_med, fv_min =
          time_stats ~reps ~clean:true (fun () -> ignore (fused_validated ()))
        in
        let s_med, s_min =
          time_stats ~reps ~clean:true (fun () -> ignore (snap_load ()))
        in
        Sys.remove spath;
        let speedup = f_med /. (s_med +. 1e-9) in
        Printf.printf "%-14d %-10d %-15.3f %-12.3f %-15.3f %-14.3f %-13s %-15.3f %d\n%!"
          ds.Gen.stats.Gen.bytes ds.Gen.stats.Gen.submissions p_med f_med fv_med s_med
          (Printf.sprintf "%.1fx" speedup) v_med v_steps;
        Printf.sprintf
          "{\"bytes\": %d, \"subs\": %d, \"snapshot_bytes\": %d, \
           \"parse_only_median_ms\": %.4f, \"parse_only_min_ms\": %.4f, \
           \"fused_median_ms\": %.4f, \"fused_min_ms\": %.4f, \
           \"fused_validated_median_ms\": %.4f, \"fused_validated_min_ms\": %.4f, \
           \"snapshot_median_ms\": %.4f, \"snapshot_min_ms\": %.4f, \
           \"snap_speedup\": %.1f, \"views_init_median_ms\": %.4f, \
           \"views_init_min_ms\": %.4f, \"views_init_steps\": %d}"
          ds.Gen.stats.Gen.bytes ds.Gen.stats.Gen.submissions snap_bytes p_med
          p_min f_med f_min fv_med fv_min s_med s_min speedup v_med v_min v_steps)
      sizes
  in
  add_json "coldstart" ("[\n    " ^ String.concat ",\n    " rows ^ "\n  ]");
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Memory: what the resident state holds, layer by layer               *)
(* ------------------------------------------------------------------ *)

(* The heap of one repository at each size, after the fused load and
   again after the views of Examples 1, 2 and 7 are materialized (what
   [serve] holds once it has answered a check).  All figures are
   measured by [Obj.reachable_words] over the structure named:
   - store B/tuple: the store's log cells and tuple arrays per live
     tuple, the texts excluded (they are the arena's);
   - index: the store's column indexes beyond the tuples they hold;
   - arena: the document's node columns, attributes and texts;
   - views: the view store, its rows and indexes;
   - live heap: [Gc] live words after a full major collection, less
     those live before the size's documents were generated.
   A third row, [xquery], loads the same documents into a fresh
   repository with Examples 1 and 2 and runs one [check_full]: it shows
   the store's column-index bytes after the check, the tag and rank
   tables of [Xic_xml.Index] (the [tags+ranks] column), and as live heap
   what the check added.
   Fails when the store takes more than [max_store_bytes_per_tuple]. *)
let max_store_bytes_per_tuple = 64

let memory_bench ~sizes () =
  let module St = Xic_datalog.Store in
  Printf.printf "# Resident memory after load, after views and for one check_full (bytes)\n";
  Printf.printf "# %-12s %-8s %-6s %-14s %-10s %-10s %-10s %-10s %s\n" "size(bytes)"
    "tuples" "phase" "store_B/tuple" "index" "arena" "views" "live_heap" "tags+ranks";
  let live_bytes () =
    Gc.full_major ();
    8 * (Gc.stat ()).Gc.live_words
  in
  let load s ds =
    let repo = Repository.create s in
    Repository.load_fused ~validate:false repo ds.Gen.pub_xml;
    Repository.load_fused ~validate:false repo ds.Gen.rev_xml;
    repo
  in
  let xquery_phase s ds =
    let repo = load s ds in
    let bytes = ds.Gen.stats.Gen.bytes in
    List.iter (fun c -> Repository.add_constraint repo (c s)) [ Conf.conflict; Conf.workload ];
    let before = live_bytes () in
    ignore (Repository.check_full repo : string list);
    let added = live_bytes () - before in
    let tags = Xic_xml.Index.heap_bytes (Repository.index repo).Xic_xpath.Eval.tags in
    let store = Repository.store repo in
    let idx = (St.footprint store).St.index_bytes in
    Printf.printf "%-14d %-8d %-6s %-14s %-10d %-10s %-10s %-10d %d\n%!" bytes
      (St.total_tuples store) "xquery" "-" idx "-" "-" added tags;
    (tags, idx, added)
  in
  let over = ref [] in
  let rows =
    List.map
      (fun size ->
        let base = live_bytes () in
        let s = Conf.schema () in
        (* the documents' sources are dropped once loaded, and generated
           again for the xquery row *)
        let dataset () = Gen.generate ~seed:42 ~target_bytes:size () in
        let repo, bytes =
          let ds = dataset () in
          (load s ds, ds.Gen.stats.Gen.bytes)
        in
        let store = Repository.store repo in
        let tuples = St.total_tuples store in
        let measure phase =
          let fp = St.footprint store in
          let views =
            match Repository.incr_view repo with
            | None -> 0
            | Some v ->
              let f = St.footprint v in
              f.St.tuple_bytes + f.St.index_bytes
          in
          let per_tuple =
            float_of_int fp.St.tuple_bytes /. float_of_int (max 1 tuples)
          in
          let arena = Xic_xml.Doc.heap_bytes (Repository.doc repo) in
          let live = live_bytes () - base in
          Printf.printf "%-14d %-8d %-6s %-14.1f %-10d %-10d %-10d %-10d -\n%!" bytes
            tuples phase per_tuple fp.St.index_bytes arena views live;
          if per_tuple > float_of_int max_store_bytes_per_tuple then
            over := (bytes, phase, per_tuple) :: !over;
          (per_tuple, fp.St.index_bytes, arena, views, live)
        in
        let bpt, idx_load, arena, _, live_load = measure "load" in
        List.iter
          (fun c -> Repository.add_constraint repo (c s))
          [ Conf.conflict; Conf.workload; Conf.track_load ];
        ignore (Repository.check_incremental repo : string list);
        let bpt_views, idx_views, _, views, live_views = measure "views" in
        (* the repository must be live at both measurements *)
        ignore (Sys.opaque_identity repo);
        let x_tags, x_idx, x_added = xquery_phase s (dataset ()) in
        Printf.sprintf
          "{\"bytes\": %d, \"tuples\": %d, \"store_bytes_per_tuple\": %.2f, \
           \"store_bytes_per_tuple_views\": %.2f, \"index_bytes_load\": %d, \
           \"index_bytes_views\": %d, \"arena_bytes\": %d, \"view_bytes\": %d, \
           \"live_heap_load_bytes\": %d, \"live_heap_views_bytes\": %d, \
           \"xquery_tag_rank_bytes\": %d, \"xquery_store_index_bytes\": %d, \
           \"xquery_live_heap_added_bytes\": %d}"
          bytes tuples bpt bpt_views idx_load idx_views arena views live_load live_views
          x_tags x_idx x_added)
      sizes
  in
  add_json "memory" ("[\n    " ^ String.concat ",\n    " rows ^ "\n  ]");
  print_newline ();
  if !over <> [] then begin
    List.iter
      (fun (bytes, phase, b) ->
        Printf.eprintf "memory: %.1f store bytes per tuple at %d bytes after %s (limit %d)\n"
          b bytes phase max_store_bytes_per_tuple)
      (List.rev !over);
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Simplification cost (§7, footnote 4: "less than 50 ms")             *)
(* ------------------------------------------------------------------ *)

let fig_simp () =
  Printf.printf "# Simplification cost (paper: < 50 ms per constraint)\n";
  Printf.printf "# %-12s %-14s %s\n" "constraint" "simp(ms)" "denials in/out";
  let s = Conf.schema () in
  let pattern = Conf.submission_pattern s in
  List.iter
    (fun make ->
      let c = make s in
      let t =
        time_ms ~reps:50 (fun () -> Pattern.simplify s pattern c)
      in
      let out = Pattern.simplify s pattern c in
      Printf.printf "%-14s %-14.3f %d -> %d\n%!" c.Constr.name t
        (List.length c.Constr.datalog) (List.length out))
    [ Conf.conflict; Conf.workload; Conf.track_load ];
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Examples 4/5: the relational ISSN catalogue                          *)
(* ------------------------------------------------------------------ *)

let ex45 () =
  Printf.printf "# Examples 4/5 — relational ISSN uniqueness\n";
  let phi = Xic_datalog.Parser.parse_denial ":- p(X, Y), p(X, Z), Y != Z" in
  let u = [ Xic_datalog.Parser.parse_atom "p(%i, %t)" ] in
  let simplified = Xic_simplify.Simp.simp ~update:u [ phi ] in
  Printf.printf "Simp^U({phi}) = %s\n"
    (String.concat " ; " (List.map T.denial_str simplified));
  let store =
    Xic_datalog.Store.of_facts
      (List.init 50_000 (fun k ->
           ( "p",
             [ T.Str (Printf.sprintf "issn-%d" (k + 1));
               T.Str (Printf.sprintf "title %d" (k + 1)) ] )))
  in
  let params = [ ("i", T.Str "issn-77"); ("t", T.Str "another title") ] in
  let t_full = time_ms ~reps:5 (fun () -> Xic_datalog.Eval.violated store phi) in
  let t_simp =
    time_ms ~reps:500 (fun () ->
        List.exists (fun d -> Xic_datalog.Eval.violated ~params store d) simplified)
  in
  Printf.printf
    "50k tuples: full check %.3f ms, simplified check %.5f ms (%.0fx)\n\n%!"
    t_full t_simp (t_full /. (t_simp +. 1e-9))

(* ------------------------------------------------------------------ *)
(* Ablations                                                            *)
(* ------------------------------------------------------------------ *)

(* Runtime simplification (Section 7, footnote 4), the fallback the
   guard path no longer takes, rebuilt from public pieces: a one-off
   pattern derived from the concrete statement (its text values as
   constants), Simp per constraint on the spot, and the residual XQuery
   evaluated before execution.  [None] when the statement falls outside
   the simplifiable fragment (a removal, say) — that route then executes,
   checks and compensates like the guard path. *)
let runtime_precheck repo (u : Xic_xupdate.Xupdate.t) =
  let s = Repository.schema repo and doc = Repository.doc repo in
  let index = Repository.index repo in
  match u with
  | [ m ] ->
    (match
       ( Pattern.of_modification s ~name:"<runtime>" m,
         Xic_xpath.Eval.eval doc ~index m.Xic_xupdate.Xupdate.select )
     with
     | exception (Pattern.Pattern_error _ | Xic_xpath.Eval.Eval_error _) -> None
     | p, Xic_xpath.Eval.Nodes (target :: _) ->
       (match Pattern.match_modification s doc p m target with
        | None -> None
        | Some valuation ->
          let params = Pattern.xquery_params valuation in
          let rec check = function
            | [] -> Some `Consistent
            | (c : Constr.t) :: rest ->
              (match
                 Xic_translate.Translate.denials (Schema.mapping s)
                   (Pattern.simplify s p c)
               with
               | exception
                   ( Xic_simplify.After.Unsupported _
                   | Xic_translate.Translate.Untranslatable _ ) ->
                 None
               | q ->
                 if Xic_xquery.Eval.eval_bool doc ~params ~index q then
                   Some (`Violated c.Constr.name)
                 else check rest)
          in
          check (Repository.constraints repo))
     | _ -> None)
  | _ -> None

(* Both fallbacks for statements matching no registered pattern, as a
   [guard] request runs them (three constraints, warm views, no
   journal): execute–check–compensate ([txn_apply], whose post-check
   reads the delta-maintained views) against runtime simplification.
   Each rep ends in the pre-statement state with the mirror flushed. *)
let fallback_strategies ~sizes ~reps =
  let module XU = Xic_xupdate.Xupdate in
  Printf.printf
    "# Fallback strategies for unmatched statements (3 constraints, warm \
     views, no journal; median ms)\n";
  Printf.printf "# %-12s %-22s %-22s %-16s %s\n" "size(bytes)" "statement"
    "check-compensate" "runtime simp" "ratio";
  let two_authors ~select ~title a b =
    let elem tag children = XU.Elem (tag, [], children) in
    let auts n = elem "auts" [ elem "name" [ XU.Text n ] ] in
    [ { XU.op = XU.Insert_after; select = Xic_xpath.Parser.parse select;
        content = [ elem "sub" [ elem "title" [ XU.Text title ]; auts a; auts b ] ]
      } ]
  in
  List.iter
    (fun size ->
      let { repo; ds; _ } = setup ~size ~constraint_:Conf.conflict () in
      let s = Repository.schema repo in
      Repository.add_constraint repo (Conf.workload s);
      Repository.add_constraint repo (Conf.track_load s);
      ignore (Repository.check_incremental repo : string list);
      let statements =
        [ ( "legal insert",
            two_authors ~select:ds.Gen.legal_select ~title:"Bench"
              ds.Gen.legal_author "Fresh Coauthor",
            `Legal );
          ( "removal",
            [ { XU.op = XU.Remove;
                select = Xic_xpath.Parser.parse ds.Gen.legal_select;
                content = [] } ],
            `Outside_fragment );
          ( "illegal (reviewer)",
            two_authors ~select:ds.Gen.conflict_select ~title:"Bad"
              ds.Gen.conflict_reviewer "Fresh Coauthor",
            `Illegal );
          ( "illegal (co-author)",
            two_authors ~select:ds.Gen.conflict_select ~title:"Bad"
              ds.Gen.conflict_coauthor "Fresh Coauthor",
            `Illegal ) ]
      in
      List.iter
        (fun (label, u, expect) ->
          if Repository.match_update repo u <> None then
            failwith (label ^ ": must match no pattern");
          let compensate () =
            let tx = Repository.begin_txn repo in
            let r = Repository.txn_apply tx u in
            Repository.rollback_txn tx;
            ignore (Repository.store repo);
            r.Repository.outcome
          in
          let runtime () =
            match runtime_precheck repo u with
            | Some `Consistent ->
              Repository.rollback repo (Repository.apply_unchecked repo u);
              ignore (Repository.store repo)
            | Some (`Violated _) -> ()
            | None -> ignore (compensate ())
          in
          (* the moved code stays checked: the runtime pre-check must pass
             the legal insert and refuse the illegal ones before
             execution, as the guard path's post-check does after it *)
          (match (compensate (), runtime_precheck repo u, expect) with
           | Repository.Applied `Full_check, Some `Consistent, `Legal
           | Repository.Applied `Full_check, None, `Outside_fragment
           | Repository.Rolled_back _, Some (`Violated _), `Illegal -> ()
           | _ -> failwith (label ^ ": the two fallbacks disagree"));
          let t_comp, _ = time_stats ~reps compensate in
          let t_rt, _ = time_stats ~reps runtime in
          Printf.printf "%-14d %-22s %-22.4f %-16.4f %.1fx\n%!"
            ds.Gen.stats.Gen.bytes label t_comp t_rt (t_rt /. (t_comp +. 1e-9)))
        statements)
    sizes;
  print_newline ()

let ablations ~sizes ~reps () =
  let size = 128_000 in
  Printf.printf "# Ablations (%d-byte dataset)\n" size;
  let { repo; pattern; ds } = setup ~size ~constraint_:Conf.conflict () in
  let s = Repository.schema repo in
  Repository.add_constraint repo (Conf.workload s);
  Repository.add_constraint repo (Conf.track_load s);

  (* (a) optimized check: XQuery evaluation vs Datalog store evaluation *)
  let legal =
    Conf.insert_submission ~select:ds.Gen.legal_select ~title:"Bench"
      ~author:ds.Gen.legal_author
  in
  let valuation =
    match Repository.match_update repo legal with
    | Some (_, v) -> v
    | None -> failwith "must match"
  in
  let store = Repository.store repo in  (* shred outside the timed region *)
  let t_xq =
    time_ms ~reps:(reps * 10) (fun () ->
        optimized repo pattern valuation)
  in
  (* the same simplified denials, evaluated over the relational mirror *)
  let checks = Repository.optimized_checks repo pattern in
  let dl_params = Pattern.datalog_params pattern valuation in
  let t_dl =
    time_ms ~reps:(reps * 10) (fun () ->
        List.filter
          (fun (ch : Repository.optimized_check) ->
            List.exists
              (Xic_datalog.Eval.violated ~params:dl_params store)
              ch.Repository.simplified)
          checks)
  in
  Printf.printf "optimized check: xquery %.4f ms | datalog store %.4f ms\n%!"
    t_xq t_dl;

  (* (b) After without Optimize: the unoptimized output contains the
     original constraints, so checking it costs as much as a full check *)
  let c = Conf.conflict s in
  let after_only = Xic_simplify.After.denials pattern.Pattern.atoms c.Constr.datalog in
  let simplified = Pattern.simplify s pattern c in
  Printf.printf "After alone: %d denials; Simp: %d denials\n"
    (List.length after_only) (List.length simplified);
  let mapping = Schema.mapping s in
  let doc = Repository.doc repo in
  let params = Pattern.xquery_params valuation in
  (* After-only denials still mention fresh-id parameters; bind them to a
     nonexistent placeholder node for the measurement of the translatable
     subset. *)
  let translatable =
    List.filter_map
      (fun d ->
        match Xic_translate.Translate.denial mapping d with
        | q -> if List.for_all (fun p -> List.mem_assoc p params || p = "p") (Xic_xquery.Ast.params q) then Some q else None
        | exception Xic_translate.Translate.Untranslatable _ -> None)
      after_only
  in
  let t_after =
    time_ms ~reps (fun () ->
        List.exists (fun q -> Xic_xquery.Eval.eval_bool doc ~params q) translatable)
  in
  let t_simp =
    time_ms ~reps:(reps * 10) (fun () ->
        optimized repo pattern valuation)
  in
  Printf.printf
    "checking After-only output (%d translatable denials): %.3f ms | Simp output: %.4f ms\n%!"
    (List.length translatable) t_after t_simp;

  (* (c) early rejection vs apply + detect + rollback for illegal updates *)
  let illegal =
    Conf.insert_submission ~select:ds.Gen.conflict_select ~title:"Bad"
      ~author:ds.Gen.conflict_reviewer
  in
  let bad_valuation =
    match Repository.match_update repo illegal with
    | Some (_, v) -> v
    | None -> failwith "must match"
  in
  let t_early =
    time_ms ~reps:(reps * 10) (fun () ->
        optimized repo pattern bad_valuation)
  in
  let t_late =
    time_ms ~reps (fun () ->
        let undo = Repository.apply_unchecked repo illegal in
        let r = Repository.check_full repo in
        Repository.rollback repo undo;
        r)
  in
  Printf.printf
    "illegal update: early rejection %.4f ms | apply+detect+rollback %.3f ms (%.0fx)\n%!"
    t_early t_late (t_late /. (t_early +. 1e-9));

  Printf.printf "\n%!";
  fallback_strategies ~sizes ~reps

(* ------------------------------------------------------------------ *)
(* Indexed vs scan evaluation                                           *)
(* ------------------------------------------------------------------ *)

(* The same checks answered by the scanning interpreter and through the
   secondary indexes (identical verdicts; the warm-up run of [time_ms]
   absorbs the one-off lazy index build). *)
let index_bench ~sizes ~reps () =
  List.iter
    (fun (name, constraint_) ->
      Printf.printf "# Indexed vs scan — %s\n" name;
      Printf.printf "# %-12s %-12s %-12s %-9s %-14s %-14s %s\n" "size(bytes)"
        "full/scan" "full/idx" "speedup" "simplified/scan" "simplified/idx"
        "speedup";
      List.iter
        (fun size ->
          let { repo; pattern; ds } = setup ~size ~constraint_ () in
          let legal =
            Conf.insert_submission ~select:ds.Gen.legal_select ~title:"Bench"
              ~author:ds.Gen.legal_author
          in
          let valuation =
            match Repository.match_update repo legal with
            | Some (_, v) -> v
            | None -> failwith "bench update must match the pattern"
          in
          (* the scan side evaluates without an index, as the oracle's
             scan route does *)
          let doc = Repository.doc repo in
          let scan_full () =
            List.filter_map
              (fun c ->
                if Constr.violated_xquery doc c then Some c.Constr.name else None)
              (Repository.constraints repo)
          in
          let params = Pattern.xquery_params valuation in
          let plans =
            List.map
              (fun (ch : Repository.optimized_check) ->
                ( ch.Repository.constraint_name,
                  Xic_xquery.Eval.compile ch.Repository.simplified_xquery ))
              (Repository.optimized_checks repo pattern)
          in
          let scan_simplified () =
            List.filter_map
              (fun (name, plan) ->
                if Xic_xquery.Eval.run_bool doc ~params plan then Some name
                else None)
              plans
          in
          if
            scan_full () <> Repository.check_full repo
            || scan_simplified () <> optimized repo pattern valuation
          then failwith "index bench: scan and indexed verdicts differ";
          let full_scan = time_ms ~reps scan_full in
          let full_idx = time_ms ~reps (fun () -> Repository.check_full repo) in
          let simp_scan = time_ms ~reps:(reps * 20) scan_simplified in
          let simp_idx =
            time_ms ~reps:(reps * 20) (fun () -> optimized repo pattern valuation)
          in
          Printf.printf "%-14d %-12.3f %-12.3f %-9s %-15.4f %-14.4f %s\n%!"
            ds.Gen.stats.Gen.bytes full_scan full_idx
            (Printf.sprintf "%.1fx" (full_scan /. (full_idx +. 1e-9)))
            simp_scan simp_idx
            (Printf.sprintf "%.1fx" (simp_scan /. (simp_idx +. 1e-9))))
        sizes;
      print_newline ())
    [ ("Conflict of interests (Example 1)", Conf.conflict);
      ("Conference workload (Example 2)", Conf.workload) ]

(* ------------------------------------------------------------------ *)
(* Journal commit path                                                  *)
(* ------------------------------------------------------------------ *)

(* The commit path the server takes for one guarded write: the intent
   record written with a deferred sync, then the commit record synced
   (group commit, see [Journal.append]).  The journal lives in the
   working directory, like the server's, so the fsync reaches the same
   file system.  Median, mean and p90 are reported because a commit
   that has to grow the file pays for the size change in its fsync,
   which shows in the tail and the mean, not the median. *)
let journal_bench ~reps () =
  let module J = Xic_journal.Journal in
  let txns = reps * 600 in
  let payload =
    Xic_xupdate.Xupdate.to_string
      (Conf.insert_submission ~select:"/review/track[1]/rev[1]/sub[1]"
         ~title:"Bench Paper" ~author:"Zoe")
  in
  let path =
    Filename.temp_file ~temp_dir:(Sys.getcwd ()) "bench_journal_" ".j"
  in
  let j = J.open_ path in
  let lat =
    Array.init txns (fun _ ->
        let txn = J.next_txn j in
        let t0 = Obs.Clock.now_ns () in
        J.append ~defer_sync:true j
          (J.Intent { txn; seq = 0; strategy = "optimized"; payload });
        J.append j (J.Commit { txn });
        Int64.to_float (Int64.sub (Obs.Clock.now_ns ()) t0) /. 1e6)
  in
  let bytes_per_txn = J.bytes j / txns in
  J.close j;
  Sys.remove path;
  let mean = Array.fold_left ( +. ) 0.0 lat /. float_of_int txns in
  Array.sort Float.compare lat;
  let median = percentile lat 50.0 and p90 = percentile lat 90.0 in
  Printf.printf
    "# Journal commit path (deferred intent + synced commit, ms/txn)\n";
  Printf.printf "# %-8s %-12s %-12s %-12s %s\n" "txns" "median" "mean" "p90"
    "bytes/txn";
  Printf.printf "%-10d %-12.4f %-12.4f %-12.4f %d\n\n%!" txns median mean p90
    bytes_per_txn;
  add_json "journal"
    (Printf.sprintf
       "{\"txns\": %d, \"commit_median_ms\": %.4f, \"commit_mean_ms\": %.4f, \
        \"commit_p90_ms\": %.4f, \"bytes_per_txn\": %d}"
       txns median mean p90 bytes_per_txn)

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                            *)
(* ------------------------------------------------------------------ *)

let micro () =
  let open Bechamel in
  let open Toolkit in
  let s = Conf.schema () in
  let ds = Gen.generate ~seed:42 ~target_bytes:64_000 () in
  let repo = Repository.create s in
  Repository.load_fused ~validate:false repo ds.Gen.pub_xml;
  Repository.load_fused ~validate:false repo ds.Gen.rev_xml;
  Repository.add_constraint repo (Conf.conflict s);
  let pattern = Conf.submission_pattern s in
  Repository.register_pattern repo pattern;
  let doc = Repository.doc repo in
  let mapping = Schema.mapping s in
  let legal =
    Conf.insert_submission ~select:ds.Gen.legal_select ~title:"Bench"
      ~author:ds.Gen.legal_author
  in
  let valuation =
    match Repository.match_update repo legal with
    | Some (_, v) -> v
    | None -> failwith "must match"
  in
  let xpath_all_subs = Xic_xpath.Parser.parse "//sub" in
  let c1 = Conf.conflict s in
  let tests =
    [
      Test.make ~name:"xml_parse_64k" (Staged.stage (fun () ->
          ignore (Xic_xml.Xml_parser.parse_string ds.Gen.rev_xml)));
      Test.make ~name:"xpath_descendant" (Staged.stage (fun () ->
          ignore (Xic_xpath.Eval.select doc xpath_all_subs)));
      Test.make ~name:"shred_64k" (Staged.stage (fun () ->
          ignore (Xic_relmap.Shred.shred mapping doc)));
      Test.make ~name:"compile_constraint" (Staged.stage (fun () ->
          ignore (Conf.conflict s)));
      Test.make ~name:"simplify_conflict" (Staged.stage (fun () ->
          ignore (Pattern.simplify s pattern c1)));
      Test.make ~name:"optimized_check" (Staged.stage (fun () ->
          ignore (optimized repo pattern valuation)));
      Test.make ~name:"pattern_match" (Staged.stage (fun () ->
          ignore (Repository.match_update repo legal)));
    ]
  in
  let grouped = Test.make_grouped ~name:"micro" tests in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:None () in
  Printf.printf "# Micro-benchmarks (monotonic clock, ns/run)\n";
  let raw = Benchmark.all cfg instances grouped in
  let results =
    Analyze.all
      (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
      Instance.monotonic_clock raw
  in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some [ est ] -> Printf.printf "%-30s %14.1f ns/run\n%!" name est
      | _ -> Printf.printf "%-30s (no estimate)\n%!" name)
    (List.sort compare rows);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* PR 7: incremental (delta-driven) checking                           *)
(* ------------------------------------------------------------------ *)

(* Post-update verdict cost, full re-evaluation vs the delta-maintained
   views: per document size, dirty the store with a k-modification
   statement, time one verdict, undo — so the full check faces a
   document-sized problem every sample while the incremental check sees
   only the delta.  Like the paper's optimized curves in Figure 1, the
   incremental column should go flat in document size and scale with k
   instead.  The second table registers Examples 2 and 7 beside Example
   1: their count aggregates are maintained per affected group, so that
   column must go flat too.  The third registers a foreign key (a
   negation) and a minimum cardinality (a count bounded from above),
   whose witnesses removals create: their delta rules must keep the
   column flat as well. *)
let incremental_bench ~sizes ~reps () =
  List.iter
    (fun (title, json_key, extra) ->
      Printf.printf
        "# Incremental checking — maintained views vs full re-evaluation (%s)\n"
        title;
      Printf.printf "# %-12s %-6s %-14s %-16s %s\n" "size(bytes)" "stmts"
        "full(ms)" "incremental(ms)" "speedup";
      let ks = [ 1; 4; 16 ] in
      let rows =
        List.concat_map
          (fun size ->
            let { repo; ds; _ } = setup ~size ~constraint_:Conf.conflict () in
            List.iter
              (fun c -> Repository.add_constraint repo (c (Repository.schema repo)))
              extra;
            ignore (Repository.check_incremental repo : string list);
            List.map
              (fun k ->
                let u =
                  List.concat
                    (List.init k (fun i ->
                         Conf.insert_submission ~select:ds.Gen.legal_select
                           ~title:(Printf.sprintf "Bench Paper %d" i)
                           ~author:ds.Gen.legal_author))
                in
                (* verdict parity, once per row *)
                let undo = Repository.apply_unchecked repo u in
                let full = List.sort compare (Repository.check_full repo) in
                let incr = List.sort compare (Repository.check_incremental repo) in
                if full <> incr then failwith "incremental verdict diverged";
                Repository.rollback repo undo;
                ignore (Repository.check_incremental repo : string list);
                let median f =
                  ignore (f ());
                  let n = max reps 5 in
                  let s = Array.init n (fun _ -> f ()) in
                  Array.sort Float.compare s;
                  s.(n / 2)
                in
                let sample_full () =
                  let undo = Repository.apply_unchecked repo u in
                  let t0 = now () in
                  ignore (Repository.check_full repo : string list);
                  let dt = (now () -. t0) *. 1000.0 in
                  Repository.rollback repo undo;
                  dt
                in
                let sample_incr () =
                  let undo = Repository.apply_unchecked repo u in
                  let t0 = now () in
                  ignore (Repository.check_incremental repo : string list);
                  let dt = (now () -. t0) *. 1000.0 in
                  Repository.rollback repo undo;
                  (* consume the inverse delta outside the timed window *)
                  ignore (Repository.check_incremental repo : string list);
                  dt
                in
                let full_ms = median sample_full in
                let incr_ms = median sample_incr in
                let speedup = full_ms /. (incr_ms +. 1e-9) in
                Printf.printf "%-14d %-6d %-14.3f %-16.4f %.0fx\n%!"
                  ds.Gen.stats.Gen.bytes k full_ms incr_ms speedup;
                Printf.sprintf
                  "{\"bytes\": %d, \"subs\": %d, \"stmts\": %d, \
                   \"full_median_ms\": %.4f, \"incremental_median_ms\": %.5f, \
                   \"speedup\": %.1f}"
                  ds.Gen.stats.Gen.bytes ds.Gen.stats.Gen.submissions k full_ms
                  incr_ms speedup)
              ks)
          sizes
      in
      add_json json_key ("[\n    " ^ String.concat ",\n    " rows ^ "\n  ]");
      print_newline ())
    [ ("Example 1", "incremental", []);
      ("Examples 1, 2 and 7", "incremental_aggregates", [ Conf.workload; Conf.track_load ]);
      ( "Example 1 + foreign key + minimum cardinality",
        "incremental_removal_rules",
        [ (fun s ->
            Constr.make s ~name:"author_published"
              "<- //rev/sub/auts/name/text() -> A and not(//aut[name/text() -> A])");
          (fun s -> Constr.make s ~name:"rev_has_sub" "<- //rev -> Ir and cnt{; Ir/sub} < 1")
        ] ) ]

(* ------------------------------------------------------------------ *)
(* PR 8: the resident check server                                     *)
(* ------------------------------------------------------------------ *)

module Srv = Xic_server.Server
module Proto = Xic_server.Protocol

let frame_bytes payload =
  let n = String.length payload in
  let b = Bytes.create (4 + n) in
  Bytes.set_uint8 b 0 ((n lsr 24) land 0xff);
  Bytes.set_uint8 b 1 ((n lsr 16) land 0xff);
  Bytes.set_uint8 b 2 ((n lsr 8) land 0xff);
  Bytes.set_uint8 b 3 (n land 0xff);
  Bytes.blit_string payload 0 b 4 n;
  Bytes.to_string b

let write_all fd s =
  let n = String.length s in
  let rec go off =
    if off < n then go (off + Unix.write_substring fd s off (n - off))
  in
  go 0

(* The repository every server experiment serves: both generated
   documents and Example 1, plus the submission pattern when guards are
   sent. *)
let served_repo ?(pattern = false) s ds () =
  let repo = Repository.create s in
  Repository.load_fused ~validate:false repo ds.Gen.pub_xml;
  Repository.load_fused ~validate:false repo ds.Gen.rev_xml;
  Repository.add_constraint repo (Conf.conflict s);
  if pattern then Repository.register_pattern repo (Conf.submission_pattern s);
  repo

(* Run [f] against resident servers forked over Unix-domain sockets, one
   per [(setup, journal)]: the child builds its repository with
   [setup ()] (which may also configure the child, its logging say),
   opens a durable journal when [journal], and serves until shut down,
   exiting 97 on any failure.  [f] gets one connected descriptor per
   server, in order (200 connection attempts, 0.1 s apart).  When [f]
   returns, each server is shut down and must exit cleanly; whatever
   happens, every child still running is killed and reaped, and its
   socket and journal are removed. *)
let with_servers servers f =
  let spawn (setup, journal) =
    let sock = Filename.temp_file "bench_srv" ".sock" in
    Sys.remove sock;
    let jpath = Filename.temp_file "bench_srv" ".j" in
    Sys.remove jpath;
    match Unix.fork () with
    | 0 ->
      (try
         let repo = setup () in
         let journal =
           if journal then Some (Xic_journal.Journal.open_ jpath) else None
         in
         let srv = Srv.create ~config:{ Srv.default_config with journal } repo in
         Srv.serve ~idle_timeout:0.05 srv (Srv.listen (Proto.Unix_sock sock));
         Unix._exit 0
       with _ -> Unix._exit 97)
    | pid -> (ref (Some pid), sock, jpath)
  in
  let children = List.map spawn servers in
  Fun.protect ~finally:(fun () ->
      List.iter
        (fun (pid, sock, jpath) ->
          Option.iter
            (fun pid ->
              (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
              try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
            !pid;
          List.iter (fun p -> try Sys.remove p with Sys_error _ -> ())
            [ sock; jpath ])
        children)
  @@ fun () ->
  let rec connect sock n =
    match Proto.connect (Proto.Unix_sock sock) with
    | fd -> fd
    | exception _ when n > 0 ->
      ignore (Unix.select [] [] [] 0.1);
      connect sock (n - 1)
  in
  let fds = List.map (fun (_, sock, _) -> connect sock 200) children in
  let result = f fds in
  List.iter2
    (fun (pid, _, _) fd ->
      ignore (Proto.request fd (Proto.Obj [ ("op", Proto.String "shutdown") ]));
      Unix.close fd;
      let status = snd (Unix.waitpid [] (Option.get !pid)) in
      pid := None;
      if status <> Unix.WEXITED 0 then
        failwith "server child did not exit cleanly")
    children fds;
  result

(* Sustained service rate of the resident server versus paying the
   load on every request (what a one-shot CLI loop does), plus the
   per-request saving of batched guarded transactions.  The server runs
   in a forked child over a Unix-domain socket with a durable (fsync)
   journal; latencies are measured client side, whole round trips. *)
let server_bench ~reps () =
  let size = 256_000 in
  let n_checks = max 200 (reps * 40) in
  Printf.printf "# Resident server vs one-shot loop (%d bytes)\n" size;
  let s = Conf.schema () in
  let ds = Gen.generate ~seed:42 ~target_bytes:size () in
  (* one-shot: every request pays parse + shred + check *)
  let oneshot () =
    let repo = Repository.create s in
    Repository.load_fused ~validate:false repo ds.Gen.pub_xml;
    Repository.load_fused ~validate:false repo ds.Gen.rev_xml;
    Repository.add_constraint repo (Conf.conflict s);
    ignore (Repository.check_full repo : string list)
  in
  let oneshot_med, _ = time_stats ~reps ~clean:true oneshot in
  (* resident: the child keeps everything warm *)
  with_servers [ (served_repo ~pattern:true s ds, true) ] @@ fun fds ->
  let fd = List.hd fds in
  let check_req = Proto.Obj [ ("op", Proto.String "check") ] in
  ignore (Proto.request fd check_req) (* warm up *);
  let lat = Array.init n_checks (fun _ ->
      let t0 = now () in
      ignore (Proto.request fd check_req);
      (now () -. t0) *. 1000.0)
  in
  Array.sort Float.compare lat;
  let total = Array.fold_left ( +. ) 0.0 lat in
  let rps = float_of_int n_checks /. (total /. 1000.0) in
  let p50 = percentile lat 50.0 and p99 = percentile lat 99.0 in
  let oneshot_rps = 1000.0 /. oneshot_med in
  let speedup = rps /. oneshot_rps in
  Printf.printf "# %-26s %-14s %-10s %s\n" "route" "checks/sec" "p50(ms)"
    "p99(ms)";
  Printf.printf "%-28s %-14.1f %-10.3f %.3f\n" "one-shot (load per check)"
    oneshot_rps oneshot_med oneshot_med;
  Printf.printf "%-28s %-14.1f %-10.4f %.4f\n" "resident server" rps p50 p99;
  Printf.printf "sustained speedup: %.0fx over %d requests\n%!" speedup
    n_checks;
  (* guarded updates: serial round trips vs one pipelined batch.
     Every statement journals durably, so the batch's single commit
     fsync (and single composed view-maintenance flush) is the win. *)
  let guard_payload i =
    Proto.to_string
      (Proto.Obj
         [ ("op", Proto.String "guard");
           ( "update",
             Proto.String
               (Xic_xupdate.Xupdate.to_string
                  (Conf.insert_submission ~select:ds.Gen.legal_select
                     ~title:(Printf.sprintf "Bench %d" i)
                     ~author:ds.Gen.legal_author)) ) ])
  in
  let read_applied () =
    match Proto.read_frame fd with
    | Some resp ->
      if not (Proto.bool_field "ok" resp) then failwith "guard errored";
      (match Proto.string_field "outcome" resp with
       | Some "applied" -> ()
       | o ->
         failwith
           ("guard not applied: " ^ Option.value ~default:"?" o))
    | None -> failwith "server closed"
  in
  let serial_round k =
    let t0 = now () in
    for i = 1 to k do
      write_all fd (frame_bytes (guard_payload i));
      read_applied ()
    done;
    (now () -. t0) *. 1000.0 /. float_of_int k
  in
  let batched_round k =
    let b = Buffer.create 4096 in
    for i = 1 to k do
      Buffer.add_string b (frame_bytes (guard_payload i))
    done;
    let t0 = now () in
    (* one write syscall: the whole batch lands in one poll round *)
    write_all fd (Buffer.contents b);
    for _ = 1 to k do
      read_applied ()
    done;
    (now () -. t0) *. 1000.0 /. float_of_int k
  in
  (* The document grows with every applied guard, so measuring all
     serial rounds before all batched rounds would hand the batched
     side a systematically larger instance.  Interleave them in
     alternating order and take per-side medians: both populations
     face the same document-size distribution. *)
  let interleaved k =
    ignore (serial_round k);
    ignore (batched_round k);
    let n = max reps 5 in
    let ss = ref [] and bs = ref [] in
    for i = 1 to n do
      if i mod 2 = 1 then begin
        ss := serial_round k :: !ss;
        bs := batched_round k :: !bs
      end
      else begin
        bs := batched_round k :: !bs;
        ss := serial_round k :: !ss
      end
    done;
    let med l =
      let a = Array.of_list l in
      Array.sort Float.compare a;
      a.(Array.length a / 2)
    in
    (med !ss, med !bs)
  in
  Printf.printf "# %-8s %-22s %-22s %s\n" "batch" "serial(ms/request)"
    "batched(ms/request)" "saving";
  let guard_rows =
    List.map
      (fun k ->
        let serial_ms, batched_ms = interleaved k in
        let saving = (serial_ms -. batched_ms) /. serial_ms *. 100.0 in
        Printf.printf "%-10d %-22.4f %-22.4f %.0f%%\n%!" k serial_ms
          batched_ms saving;
        Printf.sprintf
          "{\"batch\": %d, \"serial_ms_per_request\": %.4f, \
           \"batched_ms_per_request\": %.4f, \"saving_pct\": %.1f}"
          k serial_ms batched_ms saving)
      [ 1; 4; 16 ]
  in
  (* confirm the pipelined rounds really were applied as batches *)
  let stats =
    Proto.request fd (Proto.Obj [ ("op", Proto.String "stats") ])
  in
  (match Option.bind (Proto.member "metrics" stats) (Proto.member "counters") with
   | Some counters ->
     let count name = Option.value ~default:0 (Proto.int_field name counters) in
     Printf.printf "server applied %d batches (%d guards batched)\n%!"
       (count "serve_guard_batches") (count "serve_batched_guards")
   | None -> ());
  add_json "server"
    (Printf.sprintf
       "{\n\
       \    \"size_bytes\": %d,\n\
       \    \"requests\": %d,\n\
       \    \"oneshot_checks_per_sec\": %.2f,\n\
       \    \"oneshot_median_ms\": %.4f,\n\
       \    \"server_checks_per_sec\": %.2f,\n\
       \    \"server_p50_ms\": %.4f,\n\
       \    \"server_p99_ms\": %.4f,\n\
       \    \"sustained_speedup\": %.1f,\n\
       \    \"guards\": [%s]\n\
       \  }"
       ds.Gen.stats.Gen.bytes n_checks oneshot_rps oneshot_med rps p50 p99
       speedup
       (String.concat ", " guard_rows));
  print_newline ()

(* Serve-path cost of the observability stack: request latency against
   a plain server vs one with structured debug logging and request
   tracing enabled.  The metrics registry and the slow-request ring have
   no switch, so every configuration keeps them.  All servers are alive
   at once and the measurement rounds alternate between them in
   interleaved order, so the two populations face the same machine
   state; per-side medians are compared. *)
let server_obs_bench ~reps () =
  let size = 256_000 in
  Printf.printf "# Observability overhead on the serve path (%d bytes)\n" size;
  let s = Conf.schema () in
  let ds = Gen.generate ~seed:42 ~target_bytes:size () in
  (* three configurations: "plain" (no log, no tracing: the always-on
     metrics registry and slow ring only), the production observability
     setting (info-level structured log — per-request debug lines are
     filtered before rendering), and the full diagnostic stack
     (per-request debug lines and request tracing). *)
  let configs = [ ("plain", `Plain); ("log+metrics", `Info);
                  ("debug+trace", `Debug) ] in
  (* the child-side logging setup, then the served repository *)
  let setup mode logpath () =
    (match mode with
     | `Plain -> ()
     | `Info | `Debug ->
       Xic_obs.Log.set_format Xic_obs.Log.Json;
       Xic_obs.Log.set_level
         (match mode with
          | `Debug -> Xic_obs.Log.Debug
          | _ -> Xic_obs.Log.Info);
       (match Xic_obs.Log.open_path logpath with
        | Ok () -> ()
        | Error m -> failwith m);
       if mode = `Debug then Xic_obs.Obs.Trace.set_enabled true);
    served_repo s ds ()
  in
  let logs =
    List.map (fun (name, mode) -> (name, mode, Filename.temp_file "bench_obs" ".log"))
      configs
  in
  Fun.protect ~finally:(fun () ->
      List.iter (fun (_, _, p) -> try Sys.remove p with Sys_error _ -> ()) logs)
  @@ fun () ->
  with_servers
    (List.map (fun (_, mode, logpath) -> (setup mode logpath, false)) logs)
  @@ fun server_fds ->
  let fds = List.map2 (fun (name, _, _) fd -> (name, fd)) logs server_fds in
  let check_req = Proto.Obj [ ("op", Proto.String "check") ] in
  let round fd k =
    let t0 = now () in
    for _ = 1 to k do
      ignore (Proto.request fd check_req)
    done;
    (now () -. t0) *. 1000.0 /. float_of_int k
  in
  (* rounds long enough (~7ms) that scheduler jitter does not dominate
     the microsecond-scale per-check differences being measured *)
  let k = 500 in
  List.iter (fun (_, fd) -> ignore (round fd k)) fds;
  List.iter (fun (_, fd) -> ignore (round fd k)) fds;
  let n = max (6 * reps) 30 in
  let nc = List.length fds in
  let fda = Array.of_list fds in
  let samples = Array.make_matrix nc n 0.0 in
  (* rotate the visiting order every round so no configuration always
     runs first (or last) within a round *)
  for i = 0 to n - 1 do
    for j = 0 to nc - 1 do
      let c = (i + j) mod nc in
      samples.(c).(i) <- round (snd fda.(c)) k
    done
  done;
  let med arr =
    let a = Array.copy arr in
    Array.sort Float.compare a;
    a.(Array.length a / 2)
  in
  let meds =
    List.mapi (fun c (name, _) -> (name, med samples.(c))) fds
  in
  (* overhead from the per-configuration minima: scheduler and cache
     noise on a shared machine is strictly additive, so the minimum
     over rounds is the closest estimate of each configuration's true
     cost, and the ratio of minima the most stable overhead figure *)
  let plain_idx =
    let rec find i = function
      | ("plain", _) :: _ -> i
      | _ :: rest -> find (i + 1) rest
      | [] -> assert false
    in
    find 0 fds
  in
  let minimum arr = Array.fold_left Float.min arr.(0) arr in
  let overhead_of c =
    (minimum samples.(c) /. minimum samples.(plain_idx) -. 1.0) *. 100.0
  in
  let overheads =
    List.mapi (fun c (name, _) -> (name, overhead_of c)) fds
  in
  let plain_ms = List.assoc "plain" meds in
  Printf.printf "# %-30s %-18s %s\n" "configuration" "ms/check (median)"
    "overhead";
  List.iter
    (fun (name, ms) ->
      Printf.printf "%-32s %-18.4f %+.1f%%\n" name ms
        (List.assoc name overheads))
    meds;
  Printf.printf "(%d checks/round, %d rounds per configuration)\n%!" k n;
  let log_ms = List.assoc "log+metrics" meds in
  let dbg_ms = List.assoc "debug+trace" meds in
  add_json "server_obs"
    (Printf.sprintf
       "{\"checks_per_round\": %d, \"rounds\": %d, \"plain_ms_per_check\": \
        %.4f, \"log_metrics_ms_per_check\": %.4f, \
        \"log_metrics_overhead_pct\": %.2f, \"debug_trace_ms_per_check\": \
        %.4f, \"debug_trace_overhead_pct\": %.2f}"
       k n plain_ms log_ms
       (List.assoc "log+metrics" overheads)
       dbg_ms
       (List.assoc "debug+trace" overheads));
  print_newline ()

(* ------------------------------------------------------------------ *)
(* PR 10: copy-on-write generation pins                                *)
(* ------------------------------------------------------------------ *)

module DStore = Xic_datalog.Store

(* Pin open latency versus document size.  A generation handle is an
   O(#relations) pointer capture over the copy-on-write store, so both
   the steady pin (retained-table reuse) and the cold freeze must stay
   flat while the legacy copy-based pin of PR 8 — rebuild every
   relation into a private store — grows linearly with the document. *)
let pins_bench ~sizes ~reps () =
  Printf.printf "# Generation pin open latency vs document size\n";
  Printf.printf "# %-12s %-8s %-14s %-14s %-16s %s\n" "size(bytes)" "facts"
    "pin_open(us)" "freeze(us)" "copy_pin(us)" "speedup";
  let rows =
    List.map
      (fun size ->
        let { repo; ds; _ } = setup ~size ~constraint_:Conf.conflict () in
        let st = Repository.store repo in
        let facts = DStore.total_tuples st in
        (* the steady pin: retained-table reuse plus refcounting — what
           the server pays per pin request *)
        let pin_ms, _ =
          time_stats ~reps ~batch:1000 (fun () ->
              let p = Repository.pin repo in
              Repository.unpin repo p)
        in
        (* the cold handle capture behind the first pin of a generation *)
        let freeze_ms, _ =
          time_stats ~reps ~batch:1000 (fun () -> DStore.freeze st)
        in
        (* what PR 8 paid: rebuild every relation into a private store *)
        let copy_ms, _ =
          time_stats ~reps (fun () -> DStore.of_facts (DStore.to_facts st))
        in
        let pin_us = pin_ms *. 1000.0 in
        let freeze_us = freeze_ms *. 1000.0 in
        let copy_us = copy_ms *. 1000.0 in
        let speedup = copy_us /. Float.max pin_us freeze_us in
        Printf.printf "%-14d %-8d %-14.3f %-14.3f %-16.1f %.0fx\n%!" size
          facts pin_us freeze_us copy_us speedup;
        Printf.sprintf
          "{\"bytes\": %d, \"facts\": %d, \"pin_open_us\": %.3f, \
           \"freeze_us\": %.3f, \"copy_pin_us\": %.1f, \"speedup\": %.0f}"
          ds.Gen.stats.Gen.bytes facts pin_us freeze_us copy_us speedup)
      sizes
  in
  add_json "pins" ("[\n    " ^ String.concat ",\n    " rows ^ "\n  ]");
  print_newline ()

(* Concurrent pinned readers under writer churn, over the socket: pin
   open round trips, plain-check service rate while the pins are held
   and guards keep committing (the versioning layer must not tax the
   hot path), the heap each held pin retains beyond the live store
   once the writer has moved on, and read-under-pin latency (the
   emptiness test over the views the pin froze: the warm-up check
   materializes them before the first pin). *)
let server_pins_bench ~reps () =
  let sizes = [ 256_000; 1_024_000 ] in
  let pins_held = 8 and bursts = 8 in
  let commits_per_burst = 2 in
  Printf.printf "# Pinned readers under writer churn (%d pins held, %d \
                 writer commits)\n"
    pins_held (bursts * commits_per_burst);
  Printf.printf "# %-12s %-20s %-18s %-12s %-24s %s\n" "size(bytes)"
    "pin_open p50/p99(us)" "mixed checks/sec" "pin(bytes)"
    "read_under_pin p50/p99(ms)" "retained";
  let s = Conf.schema () in
  let rows =
    List.map
      (fun size ->
        let ds = Gen.generate ~seed:42 ~target_bytes:size () in
        with_servers [ (served_repo ~pattern:true s ds, true) ] @@ fun fds ->
        let fd = List.hd fds in
        let rq j = Proto.request fd j in
        let check_req = Proto.Obj [ ("op", Proto.String "check") ] in
        ignore (rq check_req) (* warm up *);
        (* pin open latency over the wire; the opened pins are real,
           the first [pins_held] stay held through the churn below *)
        let n_pins = max 100 (reps * 20) in
        let pin_ids = ref [] in
        let pin_lat =
          Array.init n_pins (fun _ ->
              let t0 = now () in
              let resp = rq (Proto.Obj [ ("op", Proto.String "pin") ]) in
              let dt = (now () -. t0) *. 1e6 in
              (match Proto.int_field "pin" resp with
               | Some id -> pin_ids := id :: !pin_ids
               | None -> failwith "pin request failed");
              dt)
        in
        Array.sort Float.compare pin_lat;
        let pin_p50 = percentile pin_lat 50.0
        and pin_p99 = percentile pin_lat 99.0 in
        let held, spare =
          let ids = List.rev !pin_ids in
          (List.filteri (fun i _ -> i < pins_held) ids,
           List.filteri (fun i _ -> i >= pins_held) ids)
        in
        List.iter
          (fun id ->
            ignore
              (rq
                 (Proto.Obj
                    [ ("op", Proto.String "unpin"); ("pin", Proto.Int id) ])))
          spare;
        (* mixed workload: timed plain-check bursts with (untimed)
           guard commits between them — every burst runs against a
           newer generation while the held pins stay at the old one *)
        let guard i =
          let resp =
            rq
              (Proto.Obj
                 [ ("op", Proto.String "guard");
                   ( "update",
                     Proto.String
                       (Xic_xupdate.Xupdate.to_string
                          (Conf.insert_submission ~select:ds.Gen.legal_select
                             ~title:(Printf.sprintf "Churn %d" i)
                             ~author:ds.Gen.legal_author)) ) ])
          in
          match Proto.string_field "outcome" resp with
          | Some "applied" -> ()
          | o ->
            failwith ("churn guard not applied: " ^ Option.value ~default:"?" o)
        in
        let checks_per_burst = 1000 in
        let timed = ref 0.0 and commits = ref 0 in
        for b = 1 to bursts do
          let t0 = now () in
          for _ = 1 to checks_per_burst do
            ignore (rq check_req)
          done;
          timed := !timed +. (now () -. t0);
          for k = 1 to commits_per_burst do
            incr commits;
            guard ((b * 100) + k)
          done
        done;
        let mixed_rps = float_of_int (bursts * checks_per_burst) /. !timed in
        (* what the held pins cost now that the writer has moved on *)
        let hist = rq (Proto.Obj [ ("op", Proto.String "history") ]) in
        let pin_bytes =
          Option.value ~default:0 (Proto.int_field "pin_bytes" hist)
        in
        let retained =
          match Proto.list_field "retained" hist with
          | Some rs -> List.length rs
          | None -> 0
        in
        let per_pin_bytes = pin_bytes / max 1 pins_held in
        (* read-under-pin: the pin's frozen views answer *)
        let first_pin = List.hd held in
        let pinned_req =
          Proto.Obj
            [ ("op", Proto.String "check"); ("pin", Proto.Int first_pin) ]
        in
        ignore (rq pinned_req) (* warm up *);
        let n_reads = max 30 (reps * 6) in
        let read_lat =
          Array.init n_reads (fun _ ->
              let t0 = now () in
              ignore (rq pinned_req);
              (now () -. t0) *. 1000.0)
        in
        Array.sort Float.compare read_lat;
        let read_p50 = percentile read_lat 50.0
        and read_p99 = percentile read_lat 99.0 in
        List.iter
          (fun id ->
            ignore
              (rq
                 (Proto.Obj
                    [ ("op", Proto.String "unpin"); ("pin", Proto.Int id) ])))
          held;
        Printf.printf "%-14d %7.1f / %-10.1f %-18.1f %-12d %10.3f / %-11.3f %d\n%!"
          size pin_p50 pin_p99 mixed_rps per_pin_bytes read_p50 read_p99
          retained;
        Printf.sprintf
          "{\"bytes\": %d, \"pins_held\": %d, \"writer_commits\": %d, \
           \"pin_open_p50_us\": %.2f, \"pin_open_p99_us\": %.2f, \
           \"mixed_checks_per_sec\": %.1f, \"per_pin_bytes\": %d, \
           \"read_under_pin_p50_ms\": %.4f, \"read_under_pin_p99_ms\": \
           %.4f, \"retained_generations\": %d}"
          ds.Gen.stats.Gen.bytes pins_held !commits pin_p50 pin_p99
          mixed_rps per_pin_bytes read_p50 read_p99 retained)
      sizes
  in
  add_json "server_pins" ("[\n    " ^ String.concat ",\n    " rows ^ "\n  ]");
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)
(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let reps = ref 5 in
  let sizes = ref default_sizes in
  let which = ref [] in
  let json = ref None in
  let rec parse = function
    | [] -> ()
    | "--reps" :: n :: rest ->
      reps := int_of_string n;
      parse rest
    | "--sizes" :: s :: rest ->
      sizes := List.map int_of_string (String.split_on_char ',' s);
      parse rest
    | "--json" :: path :: rest ->
      json := Some path;
      parse rest
    | [ "--json" ] ->
      prerr_endline "--json expects the PATH to write the results to";
      exit 2
    | x :: rest ->
      which := x :: !which;
      parse rest
  in
  parse args;
  let which = if !which = [] then [ "all" ] else List.rev !which in
  let reps = !reps and sizes = !sizes in
  let run = function
    | "fig1a" -> fig1a ~sizes ~reps ()
    | "fig1b" -> fig1b ~sizes ~reps ()
    | "fig_simp" -> fig_simp ()
    | "ex45" -> ex45 ()
    | "ablations" -> ablations ~sizes ~reps ()
    | "index" -> index_bench ~sizes ~reps ()
    | "journal" -> journal_bench ~reps ()
    | "incremental" -> incremental_bench ~sizes ~reps ()
    | "pipeline" -> pipeline ~sizes ~reps ()
    | "stages" -> stages ~sizes ~reps ()
    | "ingest" -> ingest ~sizes ~reps ()
    | "coldstart" -> coldstart ~sizes ~reps ()
    | "memory" -> memory_bench ~sizes ()
    | "server" -> server_bench ~reps ()
    | "server_obs" -> server_obs_bench ~reps ()
    | "pins" -> pins_bench ~sizes ~reps ()
    | "server_pins" -> server_pins_bench ~reps ()
    | "micro" -> micro ()
    | "all" ->
      fig1a ~sizes ~reps ();
      fig1b ~sizes ~reps ();
      fig_simp ();
      ex45 ();
      ablations ~sizes ~reps ();
      index_bench ~sizes ~reps ();
      journal_bench ~reps ();
      incremental_bench ~sizes ~reps ();
      stages ~sizes ~reps ();
      ingest ~sizes ~reps ();
      coldstart ~sizes ~reps ();
      memory_bench ~sizes ();
      pipeline ~sizes ~reps ();
      server_bench ~reps ();
      server_obs_bench ~reps ();
      pins_bench ~sizes ~reps ();
      server_pins_bench ~reps ();
      micro ()
    | other ->
      Printf.eprintf
        "unknown experiment %S (expected \
         fig1a|fig1b|fig_simp|ex45|ablations|index|journal|incremental|\
         stages|ingest|coldstart|memory|pipeline|server|server_obs|pins|\
         server_pins|micro|all)\n"
        other;
      exit 2
  in
  List.iter run which;
  match !json with None -> () | Some path -> write_json path ~reps
