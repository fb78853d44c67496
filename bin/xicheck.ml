(* xicheck — command-line front end for the XML integrity checker.

   Subcommands:
     schema     derive and print the relational mapping of a set of DTDs
     compile    compile XPathLog constraints to Datalog and XQuery
     validate   validate documents against their DTDs
     check      evaluate constraints against documents
     simplify   simplify constraints w.r.t. an update pattern
     guard      run an XUpdate statement under integrity control
     txn        run several statements as one journaled transaction
     recover    replay a write-ahead journal after a crash
     checkpoint write a snapshot and fold the journal into it
     publish    compile constraints and patterns into a bundle
     serve      run the resident check server
     client     send one request to a running server
     top        live summary of a running server
     generate   emit a synthetic conference dataset

   DTDs are given as FILE=ROOT pairs; constraints as files of XPathLog
   denials (one per line, optionally labelled "name: <- …"); update
   patterns as XUpdate statement templates whose text values may be
   %name parameters. *)

open Cmdliner
open Xic_core
module Obs = Xic_obs.Obs
module XLog = Xic_obs.Log

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("xicheck: " ^ s); exit 1) fmt

(* All CLI outputs go through the shared atomic-write path: temp file,
   fsync, rename, parent-directory fsync — a crash mid-write never
   leaves a half-written output, and the rename itself is durable. *)
let write_file path contents =
  match Xic_journal.Atomic_file.replace path (contents ^ "\n") with
  | () -> Printf.printf "wrote %s\n" path
  | exception Xic_journal.Atomic_file.Atomic_file_error m ->
    die "cannot write %s: %s" path m

(* Dump the collection, one file per root. *)
let write_roots repo prefix =
  let doc = Repository.doc repo in
  List.iteri
    (fun i root ->
      write_file
        (Printf.sprintf "%s.%d.xml" prefix i)
        (Xic_xml.Xml_printer.node_to_string ~indent:true doc root))
    (Xic_xml.Doc.roots doc)

let open_journal path =
  match Xic_journal.Journal.open_ path with
  | j -> j
  | exception Xic_journal.Journal.Journal_error m -> die "%s" m

let print_degradations report =
  List.iter
    (fun (d : Repository.degradation) ->
      Printf.printf "note: optimized check %s degraded (%s)\n"
        d.Repository.failed_check d.Repository.reason)
    report.Repository.degradations

(* ------------------------------------------------------------------ *)
(* Common arguments                                                    *)
(* ------------------------------------------------------------------ *)

let dtd_arg =
  let doc = "DTD file and its root element, as FILE=ROOT.  Repeatable." in
  Arg.(non_empty & opt_all string [] & info [ "dtd" ] ~docv:"FILE=ROOT" ~doc)

let docs_arg =
  let doc = "XML document file.  Repeatable." in
  Arg.(value & opt_all file [] & info [ "doc" ] ~docv:"FILE" ~doc)

let constraints_arg =
  let doc = "File of XPathLog denials (one per line; 'name: <- …')." in
  Arg.(value & opt (some file) None & info [ "constraints" ] ~docv:"FILE" ~doc)

let pattern_arg =
  let doc =
    "XUpdate statement template whose text values may be %name parameters; \
     used as the update pattern."
  in
  Arg.(value & opt (some file) None & info [ "pattern" ] ~docv:"FILE" ~doc)

let no_validate_arg =
  let doc = "Skip DTD validation when loading documents." in
  Arg.(value & flag & info [ "no-validate" ] ~doc)

let delta_stats_arg =
  let doc =
    "Print the delta maintenance report (mirror flushes, facts added and \
     removed, view evaluations) at exit."
  in
  Arg.(value & flag & info [ "delta-stats" ] ~doc)

let print_delta_stats repo ~delta_stats =
  if delta_stats then print_endline (Repository.delta_summary repo)

let trace_arg =
  let doc =
    "Trace every pipeline stage (parse, shred, simplify, translate, plan \
     compilation, evaluation) and write the spans to $(docv) as Chrome \
     trace_event JSON — or, when $(docv) is '-', as an indented text tree \
     to stderr."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc =
    "Print the metrics registry (pipeline counters and latency histograms) \
     as JSON at exit."
  in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let slow_ms_arg =
  let doc =
    "Record every constraint check slower than $(docv) milliseconds in the \
     slow-check log, printed to stderr at exit (implies tracing)."
  in
  Arg.(value & opt (some float) None & info [ "slow-ms" ] ~docv:"MS" ~doc)

(* Enable the requested instrumentation.  Must run before any document
   loads so the parse span is captured. *)
let obs_setup ~trace ~metrics ~slow_ms =
  if metrics || trace <> None || slow_ms <> None then
    Obs.Metrics.set_detailed true;
  if trace <> None || slow_ms <> None then Obs.Trace.set_enabled true;
  Option.iter (fun ms -> Obs.set_slow_threshold_ms (Some ms)) slow_ms

let print_slow_log () =
  match Obs.Trace.slow_log () with
  | [] -> ()
  | slow ->
    prerr_endline "slow checks:";
    List.iter
      (fun (sp : Obs.Trace.span) ->
        Printf.eprintf "  %s %.3fms\n" sp.Obs.Trace.name
          (Obs.Trace.duration_ms sp))
      slow

(* Write spans to --trace FILE as Chrome JSON, or to stderr as an
   indented text tree for '-'. *)
let write_trace roots = function
  | None -> ()
  | Some "-" -> prerr_string (Obs.Trace.to_text roots)
  | Some path ->
    let oc =
      match open_out path with
      | oc -> oc
      | exception Sys_error m -> die "cannot write %s: %s" path m
    in
    output_string oc (Obs.Trace.to_chrome_json roots);
    output_char oc '\n';
    close_out oc;
    Printf.printf "wrote trace %s\n" path

(* Write the collected trace; runs after the command body, before any
   exit-code decision, so failing checks still produce their trace. *)
let obs_finish ~trace ~slow_ms =
  write_trace (Obs.Trace.roots ()) trace;
  if slow_ms <> None then print_slow_log ()

let print_metrics repo ~metrics =
  if metrics then print_endline (Repository.metrics_json repo)

let load_schema specs =
  let parse spec =
    match String.index_opt spec '=' with
    | Some i ->
      let file = String.sub spec 0 i in
      let root = String.sub spec (i + 1) (String.length spec - i - 1) in
      (read_file file, root)
    | None -> die "bad --dtd %S (expected FILE=ROOT)" spec
  in
  match Schema.create (List.map parse specs) with
  | s -> s
  | exception Schema.Schema_error m -> die "%s" m
  | exception Sys_error m -> die "%s" m

let snapshot_arg =
  let doc =
    "Load the document collection and its relational store from this \
     snapshot checkpoint (see 'xicheck checkpoint') instead of parsing \
     --doc XML.  With --journal, the journal's committed suffix (entries \
     newer than the checkpoint) is replayed on top."
  in
  Arg.(value & opt (some string) None & info [ "snapshot" ] ~docv:"FILE" ~doc)

let load_constraints schema = function
  | None -> []
  | Some path ->
    read_file path |> String.split_on_char '\n'
    |> List.filter_map (fun line ->
           let line = String.trim line in
           if line = "" || (String.length line >= 2 && String.sub line 0 2 = "--")
           then None
           else Some line)
    |> List.mapi (fun i line ->
           let name, src =
             match String.index_opt line ':' with
             | Some j
               when j + 1 < String.length line
                    && line.[j + 1] <> '-'
                    && String.for_all
                         (fun c ->
                           (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
                           || (c >= '0' && c <= '9') || c = '_')
                         (String.sub line 0 j) ->
               (String.sub line 0 j, String.sub line (j + 1) (String.length line - j - 1))
             | _ -> (Printf.sprintf "c%d" (i + 1), line)
           in
           match Constr.make schema ~name src with
           | c -> c
           | exception Constr.Constraint_error m -> die "%s" m)

let load_pattern schema = function
  | None -> None
  | Some path ->
    (match Xic_xupdate.Xupdate.parse_string (read_file path) with
     | [ m ] ->
       (match Pattern.of_modification schema ~name:"pattern" m with
        | p -> Some p
        | exception Pattern.Pattern_error e -> die "%s" e)
     | _ -> die "%s: the pattern template must contain one modification" path
     | exception Xic_xupdate.Xupdate.Xupdate_error m -> die "%s: %s" path m)

(* The document source: the --doc files, or the --snapshot image. *)
let source ~snapshot docs =
  match snapshot with
  | None ->
    Repository.Documents (Seq.map (fun p -> (p, read_file p)) (List.to_seq docs))
  | Some path ->
    if docs <> [] then die "--snapshot and --doc are mutually exclusive";
    Repository.Snapshot path

(* Every command comes up through [Repository.bring_up]: base state,
   constraints, pattern, then the journal's committed suffix.  A
   [writer] appends to the journal it replayed, so a statement that no
   longer replays is fatal: the documents are not the journal's base. *)
let bring_up ?(writer = false) ~no_validate dtds source ~constraints ~pattern
    ~journal =
  let s = load_schema dtds in
  match
    Repository.bring_up ~validate:(not no_validate) s source
      ~constraints:(load_constraints s constraints)
      ~patterns:(Option.to_list (load_pattern s pattern))
      ~journal
  with
  | exception Repository.Repository_error m -> die "%s" m
  | _, Some { Repository.replay_errors = (txn, m) :: _; _ } when writer ->
    die "replay error in journaled transaction %d: %s" txn m
  | up -> up

(* ------------------------------------------------------------------ *)
(* schema                                                              *)
(* ------------------------------------------------------------------ *)

let schema_cmd =
  let run dtds =
    let s = load_schema dtds in
    print_endline (Schema.to_string s)
  in
  Cmd.v
    (Cmd.info "schema" ~doc:"Print the relational mapping derived from the DTDs")
    Term.(const run $ dtd_arg)

(* ------------------------------------------------------------------ *)
(* compile                                                             *)
(* ------------------------------------------------------------------ *)

let compile_cmd =
  let run dtds constraints =
    let s = load_schema dtds in
    List.iter
      (fun (c : Constr.t) ->
        Printf.printf "-- %s\n%s\n" c.Constr.name c.Constr.source;
        Printf.printf "datalog:\n%s\n"
          (Xic_datalog.Term.denials_str c.Constr.datalog);
        Printf.printf "xquery:\n%s\n\n" (Xic_xquery.Ast.to_string c.Constr.xquery))
      (load_constraints s constraints)
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:"Compile XPathLog constraints to Datalog denials and XQuery checks")
    Term.(const run $ dtd_arg $ constraints_arg)

(* ------------------------------------------------------------------ *)
(* validate                                                            *)
(* ------------------------------------------------------------------ *)

let validate_cmd =
  let run dtds docs =
    let s = load_schema dtds in
    let repo = Repository.create s in
    let ok = ref true in
    List.iter
      (fun path ->
        match Repository.load_fused ~validate:true repo (read_file path) with
        | () -> Printf.printf "%s: valid\n" path
        | exception Repository.Repository_error m ->
          ok := false;
          Printf.printf "%s: INVALID (%s)\n" path m)
      docs;
    if not !ok then exit 1
  in
  Cmd.v
    (Cmd.info "validate" ~doc:"Validate documents against their DTDs")
    Term.(const run $ dtd_arg $ docs_arg)

(* ------------------------------------------------------------------ *)
(* check                                                               *)
(* ------------------------------------------------------------------ *)

(* Spans named [name] anywhere in the forest, in completion order. *)
let spans_named name roots =
  let rec go acc (sp : Obs.Trace.span) =
    let acc = if sp.Obs.Trace.name = name then sp :: acc else acc in
    List.fold_left go acc (List.rev sp.Obs.Trace.children)
  in
  List.rev (List.fold_left go [] roots)

(* The --explain report: each constraint's compiled plan (probe choices,
   join strategy, conjunct schedule) plus the timings and eval-step
   cardinalities observed on the traced run just performed. *)
let print_plans repo roots =
  List.iter
    (fun (c : Constr.t) ->
      Printf.printf "\n== plan %s\n" c.Constr.name;
      print_string (Xic_xquery.Eval.describe c.Constr.xquery);
      match spans_named ("check:" ^ c.Constr.name) roots with
      | [] -> ()
      | sps ->
        let total =
          List.fold_left (fun a sp -> a +. Obs.Trace.duration_ms sp) 0.0 sps
        in
        let steps =
          List.fold_left
            (fun a (sp : Obs.Trace.span) ->
              List.fold_left
                (fun a (ch : Obs.Trace.span) ->
                  if ch.Obs.Trace.name <> "eval" then a
                  else
                    match List.assoc_opt "steps" ch.Obs.Trace.attrs with
                    | Some s -> a + int_of_string s
                    | None -> a)
                a sp.Obs.Trace.children)
            0 sps
        in
        Printf.printf "observed: %d run(s), %.3f ms, %d eval steps\n"
          (List.length sps) total steps)
    (Repository.constraints repo)

let check_cmd =
  let explain_arg =
    let doc =
      "Print a violation witness (bindings and node paths) per violated \
       constraint, then each constraint's compiled plan with the timings \
       observed on a traced run."
    in
    Arg.(value & flag & info [ "explain" ] ~doc)
  in
  let run dtds docs snapshot constraints pattern no_validate explain
      delta_stats trace metrics slow_ms =
    obs_setup ~trace ~metrics ~slow_ms;
    (* --explain needs a traced run for its observed timings *)
    if explain then begin
      Obs.Trace.set_enabled true;
      Obs.Metrics.set_detailed true
    end;
    let repo, _ =
      bring_up ~no_validate dtds (source ~snapshot docs) ~constraints ~pattern
        ~journal:None
    in
    let violations =
      if explain then List.map Repository.witness_to_string (Repository.explain repo)
      else List.map (( ^ ) "VIOLATED: ") (Repository.check_full repo)
    in
    if violations = [] then print_endline "consistent";
    List.iter print_endline violations;
    if explain then begin
      ignore (Repository.check_full repo : string list);
      print_plans repo (Obs.Trace.roots ());
      if slow_ms = None then print_slow_log ()
    end;
    print_metrics repo ~metrics;
    print_delta_stats repo ~delta_stats;
    obs_finish ~trace ~slow_ms;
    if violations <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Check integrity constraints against the documents")
    Term.(
      const run $ dtd_arg $ docs_arg $ snapshot_arg $ constraints_arg
      $ pattern_arg $ no_validate_arg $ explain_arg $ delta_stats_arg
      $ trace_arg $ metrics_arg $ slow_ms_arg)

(* ------------------------------------------------------------------ *)
(* simplify                                                            *)
(* ------------------------------------------------------------------ *)

let simplify_cmd =
  let run dtds constraints pattern =
    let s = load_schema dtds in
    let pattern =
      match load_pattern s pattern with
      | Some p -> p
      | None -> die "simplify requires --pattern"
    in
    Printf.printf "-- update pattern U = { %s }\n"
      (String.concat ", " (List.map Xic_datalog.Term.atom_str pattern.Pattern.atoms));
    Printf.printf "-- freshness hypotheses:\n%s\n\n"
      (Xic_datalog.Term.denials_str (Pattern.hypotheses s pattern));
    List.iter
      (fun (c : Constr.t) ->
        let simplified = Pattern.simplify s pattern c in
        Printf.printf "-- %s\n" c.Constr.name;
        (match simplified with
         | [] -> print_endline "(nothing to check for this pattern)"
         | ds ->
           print_endline (Xic_datalog.Term.denials_str ds);
           Printf.printf "xquery: %s\n"
             (Xic_xquery.Ast.to_string
                (Xic_translate.Translate.denials (Schema.mapping s) ds)));
        print_newline ())
      (load_constraints s constraints)
  in
  Cmd.v
    (Cmd.info "simplify"
       ~doc:"Simplify constraints w.r.t. an update pattern (Simp of Section 5)")
    Term.(const run $ dtd_arg $ constraints_arg $ pattern_arg)

(* ------------------------------------------------------------------ *)
(* guard                                                               *)
(* ------------------------------------------------------------------ *)

let output_arg =
  let doc = "Write the resulting collection to this file prefix (one file per root)." in
  Arg.(value & opt (some string) None & info [ "output" ] ~docv:"PREFIX" ~doc)

let journal_arg =
  let doc =
    "Write-ahead journal file: every statement is journaled before it \
     executes, so 'xicheck recover' can replay committed work after a crash."
  in
  Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"FILE" ~doc)

let eval_budget_arg =
  let doc =
    "Step budget per optimized check; a check exhausting it degrades to \
     the full check instead of hanging."
  in
  Arg.(value & opt (some int) None & info [ "eval-budget" ] ~docv:"STEPS" ~doc)

let parse_update path =
  match Xic_xupdate.Xupdate.parse_string (read_file path) with
  | u -> u
  | exception Xic_xupdate.Xupdate.Xupdate_error m -> die "%s: %s" path m

let print_outcome = function
  | Repository.Applied `Optimized ->
    print_endline "applied (validated by the optimized pre-check)"
  | Repository.Applied `Full_check ->
    print_endline "applied (validated by the full check)"
  | Repository.Rejected_early c ->
    Printf.printf "rejected before execution: violates %s\n" c
  | Repository.Rolled_back c -> Printf.printf "rolled back: violates %s\n" c

let guard_cmd =
  let update_arg =
    let doc = "XUpdate statement to execute under integrity control." in
    Arg.(required & opt (some file) None & info [ "update" ] ~docv:"FILE" ~doc)
  in
  let run dtds docs snapshot constraints pattern no_validate update output
      journal eval_budget delta_stats trace metrics slow_ms =
    obs_setup ~trace ~metrics ~slow_ms;
    let repo, _ =
      bring_up ~writer:true ~no_validate dtds (source ~snapshot docs)
        ~constraints ~pattern ~journal
    in
    Repository.set_eval_budget repo eval_budget;
    let u = parse_update update in
    let journal = Option.map open_journal journal in
    let report =
      match Repository.guarded_batch ?journal repo [ u ] with
      | [ r ] -> r
      | _ -> assert false
    in
    Option.iter Xic_journal.Journal.close journal;
    print_degradations report;
    print_outcome report.Repository.outcome;
    print_metrics repo ~metrics;
    print_delta_stats repo ~delta_stats;
    obs_finish ~trace ~slow_ms;
    (match report.Repository.outcome with
     | Repository.Applied _ -> ()
     | Repository.Rejected_early _ | Repository.Rolled_back _ -> exit 1);
    Option.iter (write_roots repo) output
  in
  Cmd.v
    (Cmd.info "guard"
       ~doc:"Execute an XUpdate statement under integrity control")
    Term.(
      const run $ dtd_arg $ docs_arg $ snapshot_arg $ constraints_arg
      $ pattern_arg $ no_validate_arg $ update_arg $ output_arg
      $ journal_arg $ eval_budget_arg $ delta_stats_arg $ trace_arg
      $ metrics_arg $ slow_ms_arg)

(* ------------------------------------------------------------------ *)
(* txn                                                                 *)
(* ------------------------------------------------------------------ *)

let txn_cmd =
  let updates_arg =
    let doc =
      "XUpdate statement file; applied in order as one transaction.  \
       Repeatable."
    in
    Arg.(non_empty & opt_all file [] & info [ "update" ] ~docv:"FILE" ~doc)
  in
  let abort_arg =
    let doc = "Roll the transaction back at the end instead of committing." in
    Arg.(value & flag & info [ "abort" ] ~doc)
  in
  let run dtds docs snapshot constraints pattern no_validate updates output
      journal eval_budget abort delta_stats trace metrics slow_ms =
    obs_setup ~trace ~metrics ~slow_ms;
    let repo, _ =
      bring_up ~writer:true ~no_validate dtds (source ~snapshot docs)
        ~constraints ~pattern ~journal
    in
    Repository.set_eval_budget repo eval_budget;
    let journal = Option.map open_journal journal in
    let tx = Repository.begin_txn ?journal repo in
    let refused = ref 0 in
    List.iteri
      (fun i path ->
        let report = Repository.txn_apply tx (parse_update path) in
        print_degradations report;
        Printf.printf "statement %d (%s): " (i + 1) path;
        print_outcome report.Repository.outcome;
        match report.Repository.outcome with
        | Repository.Applied _ -> ()
        | Repository.Rejected_early _ | Repository.Rolled_back _ -> incr refused)
      updates;
    if abort then begin
      Repository.rollback_txn tx;
      print_endline "transaction rolled back"
    end
    else begin
      Repository.commit_txn tx;
      Printf.printf "transaction committed (%d statements)\n"
        (Repository.txn_statements tx)
    end;
    Option.iter Xic_journal.Journal.close journal;
    print_metrics repo ~metrics;
    print_delta_stats repo ~delta_stats;
    obs_finish ~trace ~slow_ms;
    Option.iter (write_roots repo) output;
    if !refused > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "txn"
       ~doc:
         "Apply several XUpdate statements as one journaled transaction \
          (each statement still guarded individually)")
    Term.(
      const run $ dtd_arg $ docs_arg $ snapshot_arg $ constraints_arg
      $ pattern_arg $ no_validate_arg $ updates_arg $ output_arg
      $ journal_arg $ eval_budget_arg $ abort_arg $ delta_stats_arg
      $ trace_arg $ metrics_arg $ slow_ms_arg)

(* ------------------------------------------------------------------ *)
(* recover                                                             *)
(* ------------------------------------------------------------------ *)

(* recover's exit codes form a taxonomy the torture harness (and any
   supervisor) can branch on:
     0  journal replayed cleanly (a torn *tail* is expected after a
        crash mid-append and still recovers the committed prefix)
     1  replay errors or post-replay violations
     3  the journal file does not exist
     4  a full-length record in the *middle* of the journal failed its
        checksum: silent corruption, not a crash artifact; the valid
        prefix was still replayed, and every writer refuses the file *)
let recover_cmd =
  let journal_arg =
    let doc = "Journal file to recover from." in
    Arg.(
      required & opt (some string) None & info [ "journal" ] ~docv:"FILE" ~doc)
  in
  let run dtds docs snapshot constraints no_validate journal delta_stats
      output =
    let repo, r =
      match
        bring_up ~no_validate dtds (source ~snapshot docs) ~constraints
          ~pattern:None ~journal:(Some journal)
      with
      | repo, Some r -> (repo, r)
      | _, None ->
        Printf.eprintf "xicheck: journal %s not found\n" journal;
        exit 3
    in
    let module J = Xic_journal.Journal in
    (match r.Repository.tail with
     | J.Clean -> ()
     | J.Torn _ ->
       print_endline "discarded a torn record at the end of the journal"
     | J.Corrupt { dropped } ->
       Printf.printf
         "checksum mismatch inside the journal: discarded %d byte(s) from \
          the first corrupt record onward\n"
         dropped);
    Printf.printf "replayed %d transaction(s), %d statement(s); discarded %d\n"
      r.Repository.replayed_txns r.Repository.replayed_statements
      r.Repository.discarded_txns;
    List.iter
      (fun (txn, m) -> Printf.printf "REPLAY ERROR in transaction %d: %s\n" txn m)
      r.Repository.replay_errors;
    List.iter (Printf.printf "VIOLATED after replay: %s\n") r.Repository.post_violations;
    print_delta_stats repo ~delta_stats;
    Option.iter (write_roots repo) output;
    if r.Repository.replay_errors <> [] || r.Repository.post_violations <> [] then
      exit 1;
    match r.Repository.tail with J.Corrupt _ -> exit 4 | J.Clean | J.Torn _ -> ()
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:
         "Replay the committed transactions of a write-ahead journal \
          against freshly loaded base documents (or a snapshot)")
    Term.(
      const run $ dtd_arg $ docs_arg $ snapshot_arg $ constraints_arg
      $ no_validate_arg $ journal_arg $ delta_stats_arg $ output_arg)

(* ------------------------------------------------------------------ *)
(* checkpoint                                                          *)
(* ------------------------------------------------------------------ *)

let checkpoint_cmd =
  let snapshot_out_arg =
    let doc =
      "Snapshot file to write.  If it already exists it is loaded first \
       (so checkpointing is incremental: old snapshot + journal suffix -> \
       new snapshot) and --doc is not allowed."
    in
    Arg.(
      required & opt (some string) None & info [ "snapshot" ] ~docv:"FILE" ~doc)
  in
  let journal_arg =
    let doc =
      "Write-ahead journal to fold into the snapshot.  Its committed \
       suffix is replayed before the snapshot is written, and on success \
       the journal is reset to a fresh generation."
    in
    Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"FILE" ~doc)
  in
  let run dtds docs constraints no_validate journal snapshot =
    let source =
      if Sys.file_exists snapshot then begin
        if docs <> [] then
          die "--doc is not allowed when %s already exists (the snapshot is \
               the document source)"
            snapshot;
        Repository.Snapshot snapshot
      end
      else source ~snapshot:None docs
    in
    let repo, _ =
      bring_up ~writer:true ~no_validate dtds source ~constraints
        ~pattern:None ~journal
    in
    let journal = Option.map open_journal journal in
    let report =
      match Repository.checkpoint ?journal repo snapshot with
      | report -> report
      | exception Repository.Repository_error m -> die "%s" m
    in
    Option.iter Xic_journal.Journal.close journal;
    Printf.printf "checkpointed %d node(s), %d fact(s) to %s (%d bytes)\n"
      report.Repository.snapshot_nodes report.Repository.snapshot_facts
      report.Repository.snapshot_path report.Repository.snapshot_bytes;
    if report.Repository.wal_reset then
      Printf.printf "journal reset after folding %d entries\n"
        report.Repository.wal_entries_folded
  in
  Cmd.v
    (Cmd.info "checkpoint"
       ~doc:
         "Write a crash-consistent snapshot of the repository state and \
          truncate the write-ahead journal")
    Term.(
      const run $ dtd_arg $ docs_arg $ constraints_arg $ no_validate_arg
      $ journal_arg $ snapshot_out_arg)

(* ------------------------------------------------------------------ *)
(* publish                                                             *)
(* ------------------------------------------------------------------ *)

let publish_cmd =
  let output_arg =
    let doc = "Bundle file to write." in
    Arg.(required & opt (some string) None & info [ "output" ] ~docv:"FILE" ~doc)
  in
  let run dtds constraints pattern output =
    let s = load_schema dtds in
    let repo = Repository.create s in
    List.iter (Repository.add_constraint repo) (load_constraints s constraints);
    (match load_pattern s pattern with
     | Some p -> Repository.register_pattern repo p
     | None -> ());
    Bundle.save_file repo output;
    Printf.printf "wrote %s\n" output
  in
  Cmd.v
    (Cmd.info "publish"
       ~doc:
         "Compile constraints and patterns into a design-time bundle (the \
          simplified checks are persisted for runtimes and reviewers)")
    Term.(const run $ dtd_arg $ constraints_arg $ pattern_arg $ output_arg)

(* ------------------------------------------------------------------ *)
(* serve                                                               *)
(* ------------------------------------------------------------------ *)

module Srv = Xic_server.Server
module Proto = Xic_server.Protocol

let socket_arg =
  let doc = "Serve (or reach the server) on this Unix-domain socket path." in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let tcp_arg =
  let doc = "Serve (or reach the server) on this TCP address, as HOST:PORT." in
  Arg.(value & opt (some string) None & info [ "tcp" ] ~docv:"HOST:PORT" ~doc)

let server_address socket tcp =
  match (socket, tcp) with
  | Some path, None -> Proto.Unix_sock path
  | None, Some hp ->
    (match Proto.address_of_string hp with
     | Proto.Tcp _ as a -> a
     | Proto.Unix_sock _ -> die "--tcp expects HOST:PORT, got %S" hp)
  | Some _, Some _ -> die "--socket and --tcp are mutually exclusive"
  | None, None -> die "one of --socket or --tcp is required"

let serve_cmd =
  let checkpoint_on_shutdown_arg =
    let doc =
      "Write a final checkpoint to the --snapshot path during graceful \
       shutdown (SIGINT/SIGTERM or a 'shutdown' request)."
    in
    Arg.(value & flag & info [ "checkpoint-on-shutdown" ] ~doc)
  in
  let log_arg =
    let doc =
      "Write structured server logs to $(docv) ('-' = stderr).  Every \
       line is stamped with the monotonic clock and, while a request is \
       being handled, its trace id."
    in
    Arg.(value & opt (some string) None & info [ "log" ] ~docv:"FILE" ~doc)
  in
  let log_level_arg =
    let doc = "Log level: debug, info, warn or error." in
    Arg.(value & opt string "info" & info [ "log-level" ] ~docv:"LEVEL" ~doc)
  in
  let log_format_arg =
    let doc = "Log line format: text or json (JSON-lines)." in
    Arg.(value & opt string "text" & info [ "log-format" ] ~docv:"FMT" ~doc)
  in
  let serve_trace_arg =
    let doc =
      "Trace every request: each one becomes a span tagged with its op, \
       generation, route and the caller's trace id.  At shutdown the \
       session's spans are written to $(docv) as Chrome trace_event \
       JSON — or, when $(docv) is '-', as an indented text tree to \
       stderr."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let slow_requests_arg =
    let doc = "How many slowest requests the 'slow' op retains." in
    Arg.(value & opt int 8 & info [ "slow-requests" ] ~docv:"N" ~doc)
  in
  let run dtds docs snapshot constraints pattern no_validate journal
      eval_budget socket tcp checkpoint_on_shutdown log log_level log_format
      trace slow_requests =
    (* instrumentation first, so document-load spans join the session *)
    (match XLog.level_of_string log_level with
     | Some l -> XLog.set_level l
     | None -> die "unknown log level %S (debug|info|warn|error)" log_level);
    (match log_format with
     | "text" -> XLog.set_format XLog.Text
     | "json" -> XLog.set_format XLog.Json
     | f -> die "unknown log format %S (text|json)" f);
    (match log with
     | None -> ()
     | Some path ->
       (match XLog.open_path path with
        | Ok () -> ()
        | Error m -> die "cannot open log: %s" m));
    if trace <> None then Obs.Trace.set_enabled true;
    (* bring the state up to date with the journal before serving *)
    let repo, _ =
      bring_up ~writer:true ~no_validate dtds (source ~snapshot docs)
        ~constraints ~pattern ~journal
    in
    Repository.set_eval_budget repo eval_budget;
    let journal = Option.map open_journal journal in
    let config =
      { Srv.journal; snapshot_path = snapshot; checkpoint_on_shutdown;
        slow_capacity = max 1 slow_requests }
    in
    let server = Srv.create ~config repo in
    let addr = server_address socket tcp in
    let lfd =
      match Srv.listen addr with
      | fd -> fd
      | exception Proto.Protocol_error m -> die "%s" m
      | exception Unix.Unix_error (e, _, arg) ->
        die "cannot listen on %s: %s %s"
          (Proto.address_to_string addr)
          (Unix.error_message e) arg
    in
    Printf.printf "serving on %s (pid %d)\n%!"
      (Proto.address_to_string addr)
      (Unix.getpid ());
    Srv.serve server lfd;
    (match addr with
     | Proto.Unix_sock path ->
       (try Sys.remove path with Sys_error _ -> ())
     | Proto.Tcp _ -> ());
    write_trace (Srv.trace_roots server) trace;
    XLog.close ();
    Printf.printf "served %d request(s); shutdown complete\n%!"
      (Srv.requests server)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the resident check server: load once, keep the arena, store, \
          plan cache, indexes and materialized views warm, and answer \
          check/guard/txn/stats/checkpoint requests over a socket")
    Term.(
      const run $ dtd_arg $ docs_arg $ snapshot_arg $ constraints_arg
      $ pattern_arg $ no_validate_arg $ journal_arg $ eval_budget_arg
      $ socket_arg $ tcp_arg $ checkpoint_on_shutdown_arg $ log_arg
      $ log_level_arg $ log_format_arg $ serve_trace_arg $ slow_requests_arg)

(* ------------------------------------------------------------------ *)
(* client                                                              *)
(* ------------------------------------------------------------------ *)

let expect_ok resp =
  if not (Proto.bool_field "ok" resp) then
    die "server error: %s"
      (Option.value ~default:(Proto.to_string resp)
         (Proto.string_field "error" resp));
  resp

let connect addr =
  match Proto.connect addr with
  | fd -> fd
  | exception Proto.Protocol_error m -> die "%s" m

(* One request, one response that must be [ok]. *)
let request fd j =
  match Proto.request fd j with
  | resp -> expect_ok resp
  | exception Proto.Protocol_error m -> die "%s" m

(* Render a guard/statement response with the same wording as the local
   [print_outcome], so server and one-shot CLI transcripts line up. *)
let print_response_outcome resp =
  let constraint_of () =
    Option.value ~default:"?" (Proto.string_field "constraint" resp)
  in
  (match Proto.list_field "degradations" resp with
   | Some ds ->
     List.iter
       (fun d ->
         Printf.printf "note: optimized check %s degraded (%s)\n"
           (Option.value ~default:"?" (Proto.string_field "check" d))
           (Option.value ~default:"?" (Proto.string_field "reason" d)))
       ds
   | None -> ());
  match Proto.string_field "outcome" resp with
  | Some "applied" ->
    (match Proto.string_field "strategy" resp with
     | Some "optimized" ->
       print_endline "applied (validated by the optimized pre-check)"
     | _ -> print_endline "applied (validated by the full check)");
    true
  | Some "rejected" ->
    Printf.printf "rejected before execution: violates %s\n" (constraint_of ());
    false
  | Some "rolled_back" ->
    Printf.printf "rolled back: violates %s\n" (constraint_of ());
    false
  | _ -> die "unexpected response: %s" (Proto.to_string resp)

let client_cmd =
  let op_arg =
    let doc =
      "Operation: ping, check, guard, batch, txn, begin, stmt, commit, \
       abort, pin, unpin, history, checkpoint, stats, metrics, slow, \
       shutdown."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"OP" ~doc)
  in
  let trace_id_arg =
    let doc =
      "Send $(docv) as the request's trace_id: the server stamps it on \
       the request span and every log line, and echoes it on the \
       response."
    in
    Arg.(value & opt (some string) None & info [ "trace-id" ] ~docv:"ID" ~doc)
  in
  let updates_arg =
    let doc = "XUpdate statement file (repeatable for batch/txn)." in
    Arg.(value & opt_all file [] & info [ "update" ] ~docv:"FILE" ~doc)
  in
  let pin_arg =
    let doc = "Pin id (for 'check --pin' and 'unpin')." in
    Arg.(value & opt (some int) None & info [ "pin" ] ~docv:"N" ~doc)
  in
  let as_of_arg =
    let doc =
      "For 'check': time-travel verdict at retained generation $(docv) \
       instead of the live store (see 'history' for what is retained)."
    in
    Arg.(value & opt (some int) None & info [ "as-of" ] ~docv:"GEN" ~doc)
  in
  let generation_arg =
    let doc =
      "For 'pin': pin retained generation $(docv) instead of the current \
       committed one."
    in
    Arg.(
      value & opt (some int) None & info [ "generation" ] ~docv:"GEN" ~doc)
  in
  let path_arg =
    let doc = "Snapshot path for 'checkpoint' (server default otherwise)." in
    Arg.(value & opt (some string) None & info [ "path" ] ~docv:"FILE" ~doc)
  in
  let abort_arg =
    let doc = "For 'txn': apply the statements, then roll the batch back." in
    Arg.(value & flag & info [ "abort" ] ~doc)
  in
  let run op socket tcp updates pin as_of generation path abort trace_id =
    let addr = server_address socket tcp in
    let fd = connect addr in
    (* every frame this invocation sends carries the trace id *)
    let with_trace = function
      | Proto.Obj fields ->
        Proto.Obj
          (match trace_id with
           | Some id -> fields @ [ ("trace_id", Proto.String id) ]
           | None -> fields)
      | j -> j
    in
    let rq j = request fd (with_trace j) in
    let one_update () =
      match updates with
      | [ path ] -> read_file path
      | _ -> die "%s requires exactly one --update FILE" op
    in
    let failed = ref false in
    (match op with
     | "ping" ->
       ignore (rq (Proto.Obj [ ("op", Proto.String "ping") ]));
       print_endline "pong"
     | "check" ->
       let fields =
         ("op", Proto.String "check")
         :: ((match pin with Some id -> [ ("pin", Proto.Int id) ] | None -> [])
             @
             match as_of with
             | Some g -> [ ("as_of", Proto.Int g) ]
             | None -> [])
       in
       let resp = rq (Proto.Obj fields) in
       (match Proto.list_field "violated" resp with
        | Some [] | None ->
          Printf.printf "consistent (generation %d, %s)\n"
            (Option.value ~default:0 (Proto.int_field "generation" resp))
            (Option.value ~default:"live"
               (Proto.string_field "isolation" resp))
        | Some vs ->
          List.iter
            (function
              | Proto.String v -> Printf.printf "VIOLATED: %s\n" v
              | _ -> ())
            vs;
          failed := true)
     | "guard" ->
       let resp =
         rq
           (Proto.Obj
              [ ("op", Proto.String "guard");
                ("update", Proto.String (one_update ())) ])
       in
       if not (print_response_outcome resp) then failed := true
     | "batch" ->
       (* pipeline every guard before reading any response: frames that
          land in one server poll round apply as a single batch *)
       if updates = [] then die "batch requires at least one --update FILE";
       let stmts = List.map read_file updates in
       List.iter
         (fun u ->
           Proto.write_frame fd
             (with_trace
                (Proto.Obj
                   [ ("op", Proto.String "guard"); ("update", Proto.String u) ])))
         stmts;
       List.iteri
         (fun i _ ->
           let resp =
             match Proto.read_frame fd with
             | Some r -> expect_ok r
             | None -> die "server closed the connection"
             | exception Proto.Protocol_error m -> die "%s" m
           in
           Printf.printf "statement %d: " (i + 1);
           if not (print_response_outcome resp) then failed := true)
         stmts
     | "txn" ->
       if updates = [] then die "txn requires at least one --update FILE";
       let stmts = List.map read_file updates in
       let resp =
         rq
           (Proto.Obj
              (( [ ("op", Proto.String "txn");
                   ( "updates",
                     Proto.List
                       (List.map (fun u -> Proto.String u) stmts) ) ]
               @ if abort then [ ("abort", Proto.Bool true) ] else [] )))
       in
       let applied = ref 0 in
       (match Proto.list_field "results" resp with
        | Some rs ->
          List.iteri
            (fun i r ->
              Printf.printf "statement %d: " (i + 1);
              if print_response_outcome r then incr applied
              else failed := true)
            rs
        | None -> ());
       if abort then print_endline "transaction rolled back"
       else Printf.printf "transaction committed (%d statements)\n" !applied
     | "begin" ->
       let resp = rq (Proto.Obj [ ("op", Proto.String "txn_begin") ]) in
       Printf.printf "transaction %d open\n"
         (Option.value ~default:0 (Proto.int_field "txn" resp))
     | "stmt" ->
       let resp =
         rq
           (Proto.Obj
              [ ("op", Proto.String "txn_stmt");
                ("update", Proto.String (one_update ())) ])
       in
       if not (print_response_outcome resp) then failed := true
     | "commit" ->
       let resp = rq (Proto.Obj [ ("op", Proto.String "txn_commit") ]) in
       Printf.printf "transaction committed (%d statements)\n"
         (Option.value ~default:0 (Proto.int_field "statements" resp))
     | "abort" ->
       ignore (rq (Proto.Obj [ ("op", Proto.String "txn_abort") ]));
       print_endline "transaction rolled back"
     | "pin" ->
       let fields =
         ("op", Proto.String "pin")
         :: (match generation with
             | Some g -> [ ("generation", Proto.Int g) ]
             | None -> [])
       in
       let resp = rq (Proto.Obj fields) in
       Printf.printf "pin %d (generation %d)\n"
         (Option.value ~default:0 (Proto.int_field "pin" resp))
         (Option.value ~default:0 (Proto.int_field "generation" resp))
     | "unpin" ->
       (match pin with
        | None -> die "unpin requires --pin N"
        | Some id ->
          ignore
            (rq
               (Proto.Obj
                  [ ("op", Proto.String "unpin"); ("pin", Proto.Int id) ]));
          Printf.printf "unpinned %d\n" id)
     | "history" ->
       let resp = rq (Proto.Obj [ ("op", Proto.String "history") ]) in
       Printf.printf "generation %d, %d retained, %d pin byte(s)\n"
         (Option.value ~default:0 (Proto.int_field "generation" resp))
         (match Proto.list_field "retained" resp with
          | Some rs -> List.length rs
          | None -> 0)
         (Option.value ~default:0 (Proto.int_field "pin_bytes" resp));
       (match Proto.list_field "retained" resp with
        | Some rs ->
          List.iter
            (fun r ->
              Printf.printf "  generation %d: %d ref(s)\n"
                (Option.value ~default:0 (Proto.int_field "generation" r))
                (Option.value ~default:0 (Proto.int_field "refs" r)))
            rs
        | None -> ())
     | "checkpoint" ->
       let fields =
         ("op", Proto.String "checkpoint")
         :: (match path with
             | Some p -> [ ("path", Proto.String p) ]
             | None -> [])
       in
       let resp = rq (Proto.Obj fields) in
       Printf.printf "checkpointed %d node(s), %d fact(s) to %s (%d bytes)\n"
         (Option.value ~default:0 (Proto.int_field "nodes" resp))
         (Option.value ~default:0 (Proto.int_field "facts" resp))
         (Option.value ~default:"?" (Proto.string_field "path" resp))
         (Option.value ~default:0 (Proto.int_field "bytes" resp))
     | "stats" ->
       let resp = rq (Proto.Obj [ ("op", Proto.String "stats") ]) in
       print_endline (Proto.to_string resp)
     | "metrics" ->
       let resp = rq (Proto.Obj [ ("op", Proto.String "metrics") ]) in
       print_string
         (Option.value ~default:"" (Proto.string_field "body" resp))
     | "slow" ->
       let resp = rq (Proto.Obj [ ("op", Proto.String "slow") ]) in
       print_endline (Proto.to_string resp)
     | "shutdown" ->
       ignore (rq (Proto.Obj [ ("op", Proto.String "shutdown") ]));
       print_endline "server stopping"
     | op -> die "unknown client operation %S" op);
    Unix.close fd;
    if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Talk to a running 'xicheck serve' instance (checks, guarded \
          updates, batches, streaming transactions, pins, checkpoints, \
          stats, shutdown)")
    Term.(
      const run $ op_arg $ socket_arg $ tcp_arg $ updates_arg $ pin_arg
      $ as_of_arg $ generation_arg $ path_arg $ abort_arg $ trace_id_arg)

(* ------------------------------------------------------------------ *)
(* top                                                                 *)
(* ------------------------------------------------------------------ *)

(* Live one-screen summary of a running server: polls the stats,
   metrics and slow ops and renders the headline numbers, the per-op
   latency quantiles, the serve gauges and the slowest requests. *)
let top_cmd =
  let interval_arg =
    let doc = "Seconds between refreshes." in
    Arg.(value & opt float 2.0 & info [ "interval" ] ~docv:"SECONDS" ~doc)
  in
  let iterations_arg =
    let doc = "Stop after $(docv) refreshes (default: until interrupted)." in
    Arg.(value & opt (some int) None & info [ "iterations" ] ~docv:"N" ~doc)
  in
  let no_clear_arg =
    let doc = "Do not clear the screen between refreshes (append instead)." in
    Arg.(value & flag & info [ "no-clear" ] ~doc)
  in
  let run socket tcp interval iterations no_clear =
    let addr = server_address socket tcp in
    let fd = connect addr in
    let rq = request fd in
    let num = function
      | Some (Proto.Int i) -> float_of_int i
      | Some (Proto.Float f) -> f
      | _ -> 0.
    in
    let render () =
      let stats = rq (Proto.Obj [ ("op", Proto.String "stats") ]) in
      let slow = rq (Proto.Obj [ ("op", Proto.String "slow") ]) in
      let metrics = rq (Proto.Obj [ ("op", Proto.String "metrics") ]) in
      if not no_clear then print_string "\027[2J\027[H";
      let srv = Option.value ~default:Proto.Null (Proto.member "server" stats) in
      let f name = num (Proto.member name srv) in
      Printf.printf "xicheck top — %s\n" (Proto.address_to_string addr);
      Printf.printf
        "uptime %.1fs  requests %.0f (%.1f/s)  batches %.0f  generation %.0f\n"
        (f "uptime_s") (f "requests") (f "requests_per_sec") (f "batches")
        (f "generation");
      Printf.printf "pins %.0f  open_txn %b\n" (f "pins")
        (Proto.bool_field "open_txn" srv);
      (* serve gauges, straight off the Prometheus exposition *)
      let body = Option.value ~default:"" (Proto.string_field "body" metrics) in
      let gauges =
        List.filter
          (fun line ->
            String.length line > 10
            && String.sub line 0 10 = "xic_serve_"
            && not (String.contains line '{')
            && not
                 (let base =
                    match String.index_opt line ' ' with
                    | Some i -> String.sub line 0 i
                    | None -> line
                  in
                  let n = String.length base in
                  n > 8 && String.sub base (n - 8) 8 = "_seconds"
                  || (n > 4 && String.sub base (n - 4) 4 = "_sum")
                  || (n > 6 && String.sub base (n - 6) 6 = "_count")))
          (String.split_on_char '\n' body)
      in
      if gauges <> [] then begin
        print_endline "";
        List.iter print_endline gauges
      end;
      (match Proto.member "ops" stats with
       | Some (Proto.Obj []) | None -> ()
       | Some (Proto.Obj ops) ->
         Printf.printf "\n%-16s %8s %9s %9s %9s\n" "op" "count" "p50_ms"
           "p90_ms" "p99_ms";
         List.iter
           (fun (op, o) ->
             Printf.printf "%-16s %8.0f %9.3f %9.3f %9.3f\n" op
               (num (Proto.member "count" o))
               (num (Proto.member "p50_ms" o))
               (num (Proto.member "p90_ms" o))
               (num (Proto.member "p99_ms" o)))
           ops
       | Some _ -> ());
      (match Proto.list_field "slow" slow with
       | Some (_ :: _ as entries) ->
         Printf.printf "\nslowest requests:\n";
         List.iter
           (fun e ->
             Printf.printf "  %9.3fms  %-12s span=%s%s\n"
               (num (Proto.member "ms" e))
               (Option.value ~default:"?" (Proto.string_field "op" e))
               (Option.value ~default:"?" (Proto.string_field "span_id" e))
               (match Proto.string_field "trace_id" e with
                | Some id -> " trace=" ^ id
                | None -> ""))
           entries
       | _ -> ());
      flush stdout
    in
    (match iterations with
     | Some n ->
       for i = 1 to n do
         render ();
         if i < n then Unix.sleepf interval
       done
     | None ->
       while true do
         render ();
         Unix.sleepf interval
       done);
    Unix.close fd
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live one-screen summary of a running 'xicheck serve' instance \
          (polls stats, metrics and slow)")
    Term.(
      const run $ socket_arg $ tcp_arg $ interval_arg $ iterations_arg
      $ no_clear_arg)

(* ------------------------------------------------------------------ *)
(* generate                                                            *)
(* ------------------------------------------------------------------ *)

let generate_cmd =
  let size_arg =
    let doc = "Approximate combined size in bytes." in
    Arg.(value & opt int 100_000 & info [ "size" ] ~docv:"BYTES" ~doc)
  in
  let seed_arg =
    let doc = "PRNG seed." in
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc)
  in
  let prefix_arg =
    let doc = "Output file prefix (PREFIX.pub.xml and PREFIX.rev.xml)." in
    Arg.(value & opt string "dataset" & info [ "output" ] ~docv:"PREFIX" ~doc)
  in
  let run size seed prefix =
    let ds = Xic_workload.Generator.generate ~seed ~target_bytes:size () in
    write_file (prefix ^ ".pub.xml") ds.Xic_workload.Generator.pub_xml;
    write_file (prefix ^ ".rev.xml") ds.Xic_workload.Generator.rev_xml;
    let st = ds.Xic_workload.Generator.stats in
    Printf.printf "%d pubs, %d tracks, %d reviewers, %d submissions (%d bytes)\n"
      st.Xic_workload.Generator.pubs st.Xic_workload.Generator.tracks
      st.Xic_workload.Generator.reviewers st.Xic_workload.Generator.submissions
      st.Xic_workload.Generator.bytes
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a synthetic conference dataset")
    Term.(const run $ size_arg $ seed_arg $ prefix_arg)

(* ------------------------------------------------------------------ *)

let () =
  let info =
    Cmd.info "xicheck" ~version:"1.0.0"
      ~doc:"Efficient integrity checking over XML documents (EDBT 2006)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ schema_cmd; compile_cmd; validate_cmd; check_cmd; simplify_cmd;
            guard_cmd; txn_cmd; recover_cmd; checkpoint_cmd; publish_cmd;
            serve_cmd; client_cmd; top_cmd; generate_cmd ]))
