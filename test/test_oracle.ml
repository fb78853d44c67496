(* Differential test oracle (index layer): randomized conference-style
   documents, denials from the paper's constraint class, and random
   XUpdate sequences.  These evaluation routes must agree on every
   check — the indexed planner, the scan interpreter, the Datalog
   evaluation of the shredded relational mapping, the cached compiled
   plans, the fully traced checker (spans + detailed metrics on), the
   fused single-pass loader (parse+intern+shred in one sweep, compared
   relation by relation against a parse-then-shred reference built
   here), the incremental delta-maintained checker (materialized denial
   views vs from-scratch recompute, [Store.equal] on the views), and a
   forked resident server against a fresh one-shot repository — and the
   incrementally maintained indexes must equal indexes rebuilt from
   scratch after every apply / undo / savepoint-rollback /
   crash-recovery sequence.

   Iteration count comes from [XIC_ORACLE_ITERS] (small by default so
   [dune runtest] stays fast); [dune build @oracle] runs 500.  The PRNG
   is seeded per iteration and every failure message carries the seed,
   so failures reproduce deterministically. *)

open Xic_core
module Symbol = Xic_symbol.Symbol
module Conf = Xic_workload.Conference
module Prng = Xic_workload.Prng
module XU = Xic_xupdate.Xupdate
module XP = Xic_xpath
module J = Xic_journal.Journal
module Index = Xic_xml.Index
module Obs = Xic_obs.Obs

let checkb = Alcotest.(check bool)

let iters =
  match Sys.getenv_opt "XIC_ORACLE_ITERS" with
  | Some s -> (try max 1 (int_of_string (String.trim s)) with _ -> 30)
  | None -> 30

(* ------------------------------------------------------------------ *)
(* Random documents (valid against the pub/rev DTDs)                   *)
(* ------------------------------------------------------------------ *)

let names = [| "Ann"; "Bob"; "Carl"; "Dora"; "Ed"; "Fay"; "Gus"; "Hal"; "Ina" |]
let words = [| "Logic"; "Types"; "Query"; "Index"; "Proofs"; "Graphs"; "Views" |]

let buf_elt b tag s = Buffer.add_string b (Printf.sprintf "<%s>%s</%s>" tag s tag)

let gen_pub r =
  let b = Buffer.create 256 in
  Buffer.add_string b "<dblp>";
  for _ = 1 to Prng.int r 5 do
    Buffer.add_string b "<pub>";
    buf_elt b "title" (Prng.pick r words);
    for _ = 0 to Prng.int r 3 do
      Buffer.add_string b "<aut>";
      buf_elt b "name" (Prng.pick r names);
      Buffer.add_string b "</aut>"
    done;
    Buffer.add_string b "</pub>"
  done;
  Buffer.add_string b "</dblp>";
  Buffer.contents b

let gen_sub r b =
  Buffer.add_string b "<sub>";
  buf_elt b "title" (Prng.pick r words ^ " " ^ Prng.pick r words);
  for _ = 0 to Prng.int r 2 do
    Buffer.add_string b "<auts>";
    buf_elt b "name" (Prng.pick r names);
    Buffer.add_string b "</auts>"
  done;
  Buffer.add_string b "</sub>"

(* Between [min_tracks] and [tracks] tracks of one or two revs, each
   rev holding one to [subs] submissions and reviewed by one of
   [reviewers].  The defaults never violate Example 2 (it needs four
   tracks) or Example 7 (five submissions). *)
let gen_rev ?(min_tracks = 1) ?(tracks = 2) ?(subs = 3) ?(reviewers = names) r =
  let b = Buffer.create 512 in
  Buffer.add_string b "<review>";
  for _ = 1 to min_tracks + Prng.int r (tracks - min_tracks + 1) do
    Buffer.add_string b "<track>";
    buf_elt b "name" (Prng.pick r words);
    for _ = 0 to Prng.int r 2 do
      Buffer.add_string b "<rev>";
      buf_elt b "name" (Prng.pick r reviewers);
      for _ = 0 to Prng.int r subs do
        gen_sub r b
      done;
      Buffer.add_string b "</rev>"
    done;
    Buffer.add_string b "</track>"
  done;
  Buffer.add_string b "</review>";
  Buffer.contents b

(* The reference repository: every document is parsed into the arena
   first and registered as a root, and the store is shredded from the
   finished tree on first demand — independent of the fused loader's
   in-pass sink, which route 7 compares against it. *)
let repo_of ~pub ~rev =
  let s = Conf.schema () in
  let repo = Repository.create s in
  let doc = Repository.doc repo in
  List.iter
    (fun xml ->
      let nodes = Xic_xml.Xml_parser.parse_fragment doc xml in
      match List.filter (Xic_xml.Doc.is_element doc) nodes with
      | [ root ] -> Repository.add_document_root repo root
      | _ -> Alcotest.fail "expected exactly one root element")
    [ pub; rev ];
  List.iter
    (Repository.add_constraint repo)
    [ Conf.conflict s; Conf.workload s; Conf.track_load s ];
  Repository.register_pattern repo (Conf.submission_pattern s);
  repo

let random_repo r = repo_of ~pub:(gen_pub r) ~rev:(gen_rev r)

(* Same repository, built through the fused single-pass loader: the
   store is filled by the parser's sink. *)
let repo_of_fused ~pub ~rev =
  let s = Conf.schema () in
  let repo = Repository.create s in
  Repository.load_fused repo pub;
  Repository.load_fused repo rev;
  List.iter
    (Repository.add_constraint repo)
    [ Conf.conflict s; Conf.workload s; Conf.track_load s ];
  Repository.register_pattern repo (Conf.submission_pattern s);
  repo

(* ------------------------------------------------------------------ *)
(* Oracle assertions                                                   *)
(* ------------------------------------------------------------------ *)

let sorted l = List.sort compare l

(* Compare the five routes against one live index, incrementally
   maintained across the whole sequence (the scan route simply passes
   no index) instead of being dropped and rebuilt at every check.  [check_full]
   runs the cached closure plans (compiled route). *)
let check_agreement ~seed repo what =
  let doc = Repository.doc repo in
  let index = Repository.index repo in
  let verdict f =
    sorted
      (List.filter_map
         (fun c -> if f c then Some c.Constr.name else None)
         (Repository.constraints repo))
  in
  let indexed = verdict (fun c -> Constr.violated_xquery ~index doc c) in
  let scan = verdict (fun c -> Constr.violated_xquery doc c) in
  let datalog = sorted (Repository.check_full_datalog repo) in
  let compiled = sorted (Repository.check_full repo) in
  (* Sixth route (route numbers stay fixed across this file, CI and the
     docs, so the fifth is a gap): full instrumentation on.  Spans and detailed metrics
     must not change verdicts, and the observed counters must satisfy
     their structural invariants: every index probe enumerates at least
     one candidate event, and every plan-cache consultation is either a
     hit or a compilation. *)
  Obs.Trace.set_enabled true;
  Obs.Metrics.set_detailed true;
  let traced =
    Fun.protect
      ~finally:(fun () ->
        Obs.Trace.set_enabled false;
        Obs.Metrics.set_detailed false;
        Obs.Trace.reset ())
      (fun () -> sorted (Repository.check_full repo))
  in
  let counters, _ = Repository.metrics repo in
  let cval name = Option.value ~default:0 (List.assoc_opt name counters) in
  checkb
    (Printf.sprintf "[seed %d] %s: probes <= candidates" seed what)
    true
    (cval "eval_index_probes" <= cval "eval_candidates");
  checkb
    (Printf.sprintf "[seed %d] %s: plan hits + misses = requests" seed what)
    true
    (cval "plan_cache_hits" + cval "plan_cache_misses"
     = cval "plan_compile_requests");
  Alcotest.(check (list string))
    (Printf.sprintf "[seed %d] %s: indexed = scan" seed what)
    scan indexed;
  Alcotest.(check (list string))
    (Printf.sprintf "[seed %d] %s: datalog = scan" seed what)
    scan datalog;
  Alcotest.(check (list string))
    (Printf.sprintf "[seed %d] %s: compiled plans = scan" seed what)
    scan compiled;
  Alcotest.(check (list string))
    (Printf.sprintf "[seed %d] %s: traced = scan" seed what)
    scan traced

let check_index_consistent ~seed repo what =
  let i = Repository.index repo in
  ignore (Index.by_name i "sub" : Xic_xml.Doc.node_id list);
  (match Index.consistency_errors i with
   | [] -> ()
   | errs ->
     Alcotest.failf "[seed %d] %s: index inconsistent: %s" seed what
       (String.concat "; " errs))

(* ------------------------------------------------------------------ *)
(* Random updates                                                      *)
(* ------------------------------------------------------------------ *)

let count repo path =
  List.length (XP.Eval.select (Repository.doc repo) (XP.Parser.parse path))

let random_rev_path r repo =
  let t = 1 + Prng.int r (count repo "/review/track") in
  let rv = 1 + Prng.int r (count repo (Printf.sprintf "/review/track[%d]/rev" t)) in
  Printf.sprintf "/review/track[%d]/rev[%d]" t rv

let random_sub_path r repo =
  let rev = random_rev_path r repo in
  let ns = count repo (rev ^ "/sub") in
  if ns = 0 then None
  else Some (Printf.sprintf "%s/sub[%d]" rev (1 + Prng.int r ns))

let sub_content r =
  XU.Elem
    ( "sub",
      [],
      [ XU.Elem ("title", [], [ XU.Text (Prng.pick r words) ]);
        XU.Elem
          ("auts", [], [ XU.Elem ("name", [], [ XU.Text (Prng.pick r names) ]) ])
      ] )

let random_update r repo =
  let mk op select content =
    [ { XU.op; select = XP.Parser.parse select; content } ]
  in
  match Prng.int r 4 with
  | 0 ->
    Option.map
      (fun p ->
        Conf.insert_submission ~select:p ~title:(Prng.pick r words)
          ~author:(Prng.pick r names))
      (random_sub_path r repo)
  | 1 ->
    Option.map
      (fun p -> mk XU.Insert_before p [ sub_content r ])
      (random_sub_path r repo)
  | 2 -> Some (mk XU.Append (random_rev_path r repo) [ sub_content r ])
  | _ ->
    Option.map (fun p -> mk XU.Remove p []) (random_sub_path r repo)

(* ------------------------------------------------------------------ *)
(* Regression: rollback must not leave a stale index                   *)
(* ------------------------------------------------------------------ *)

let fixed_pub =
  {|<dblp><pub><title>Joint</title><aut><name>Carl</name></aut><aut><name>Nora</name></aut></pub><pub><title>Solo</title><aut><name>Ann</name></aut></pub></dblp>|}

let fixed_rev =
  {|<review><track><name>DB</name><rev><name>Carl</name><sub><title>S1</title><auts><name>Ann</name></auts></sub></rev><rev><name>Rita</name><sub><title>S2</title><auts><name>Bob</name></auts></sub></rev></track></review>|}

let fixed_repo () = repo_of ~pub:fixed_pub ~rev:fixed_rev

(* Before the index was maintained at the [Doc] observer level, the undo
   path of [Xupdate] emitted no maintenance events: after a rollback the
   index still listed the reverted insertion.  This reproduces that. *)
let test_rollback_not_stale () =
  let repo = fixed_repo () in
  let i = Repository.index repo in
  checkb "phantom absent before" true (Index.by_pcdata i ~tag:"title" "Phantom" = []);
  let u =
    Conf.insert_submission ~select:"/review/track[1]/rev[1]/sub[1]"
      ~title:"Phantom" ~author:"Zed"
  in
  let undo = Repository.apply_unchecked repo u in
  checkb "insertion indexed" true (Index.by_pcdata i ~tag:"title" "Phantom" <> []);
  Repository.rollback repo undo;
  checkb "rolled-back insertion purged from index" true
    (Index.by_pcdata i ~tag:"title" "Phantom" = []);
  checkb "index consistent after rollback" true (Index.consistent i)

let test_savepoint_rollback_not_stale () =
  let repo = fixed_repo () in
  let i = Repository.index repo in
  ignore (Index.by_name i "sub" : Xic_xml.Doc.node_id list);
  let txn = Repository.begin_txn repo in
  let sp = Repository.txn_savepoint txn in
  (match
     (Repository.txn_apply txn
        (Conf.insert_submission ~select:"/review/track[1]/rev[1]/sub[1]"
           ~title:"Ghost" ~author:"Zed")).Repository.outcome
   with
   | Repository.Applied _ -> ()
   | _ -> Alcotest.fail "legal insertion should apply");
  checkb "insertion indexed" true (Index.by_pcdata i ~tag:"title" "Ghost" <> []);
  Repository.txn_rollback_to txn sp;
  Repository.commit_txn txn;
  checkb "savepoint rollback purged from index" true
    (Index.by_pcdata i ~tag:"title" "Ghost" = []);
  checkb "index consistent after savepoint rollback" true (Index.consistent i)

(* ------------------------------------------------------------------ *)
(* Randomized oracles                                                  *)
(* ------------------------------------------------------------------ *)

let test_apply_undo_oracle () =
  for i = 1 to iters do
    let seed = 1000 + i in
    let r = Prng.create seed in
    let repo = random_repo r in
    check_index_consistent ~seed repo "initial";
    check_agreement ~seed repo "initial";
    let undos = ref [] in
    for s = 1 to 1 + Prng.int r 5 do
      match random_update r repo with
      | None -> ()
      | Some u ->
        undos := Repository.apply_unchecked repo u :: !undos;
        let what = Printf.sprintf "after apply %d" s in
        check_index_consistent ~seed repo what;
        check_agreement ~seed repo what
    done;
    (* Roll back a random suffix (possibly all) of the applied updates,
       in reverse application order. *)
    let k = Prng.int r (List.length !undos + 1) in
    List.iteri
      (fun n u ->
        if n < k then begin
          Repository.rollback repo u;
          check_index_consistent ~seed repo (Printf.sprintf "after undo %d" n)
        end)
      !undos;
    check_agreement ~seed repo "after undos"
  done

let test_txn_savepoint_oracle () =
  for i = 1 to max 1 (iters / 3) do
    let seed = 5000 + i in
    let r = Prng.create seed in
    let repo = random_repo r in
    check_index_consistent ~seed repo "initial";
    let txn = Repository.begin_txn repo in
    let apply_some n =
      for _ = 1 to n do
        match random_update r repo with
        | Some u -> ignore (Repository.txn_apply txn u : Repository.report)
        | None -> ()
      done
    in
    apply_some (1 + Prng.int r 3);
    let sp = Repository.txn_savepoint txn in
    apply_some (1 + Prng.int r 3);
    Repository.txn_rollback_to txn sp;
    check_index_consistent ~seed repo "after savepoint rollback";
    check_agreement ~seed repo "after savepoint rollback";
    apply_some 1;
    if Prng.bool r then Repository.commit_txn txn
    else Repository.rollback_txn txn;
    check_index_consistent ~seed repo "after txn close";
    check_agreement ~seed repo "after txn close"
  done

let fresh_path () = Test_tmp.fresh "test_oracle" ".j"

let test_recover_oracle () =
  for i = 1 to max 1 (iters / 3) do
    let seed = 9000 + i in
    (* Two generators with the same seed: [r] drives the original run,
       [r2] regenerates identical base documents for the crashed copy. *)
    let r = Prng.create seed in
    let r2 = Prng.create seed in
    let repo = random_repo r in
    let path = fresh_path () in
    let j = J.open_ ~sync:false path in
    let txn = Repository.begin_txn ~journal:j repo in
    for _ = 1 to 1 + Prng.int r 3 do
      match random_update r repo with
      | Some u -> ignore (Repository.txn_apply txn u : Repository.report)
      | None -> ()
    done;
    Repository.commit_txn txn;
    J.close j;
    (* "Crash": replay the journal against a fresh repository whose
       index is forced *before* recovery, so replay must maintain it. *)
    let repo2 = repo_of ~pub:(gen_pub r2) ~rev:(gen_rev r2) in
    check_index_consistent ~seed repo2 "before recover";
    ignore (Repository.recover (J.read path) repo2 : Repository.recovery_report);
    check_index_consistent ~seed repo2 "after recover";
    check_agreement ~seed repo2 "after recover";
    Alcotest.(check (list string))
      (Printf.sprintf "[seed %d] recovered verdicts = original" seed)
      (sorted (Repository.check_full repo))
      (sorted (Repository.check_full repo2));
    Sys.remove path
  done

(* ------------------------------------------------------------------ *)
(* Seventh route: fused loader vs parse-then-shred reference          *)
(* ------------------------------------------------------------------ *)

module Store = Xic_datalog.Store

(* Relation-by-relation comparison with a named culprit on mismatch —
   [Store.equal] alone would only say "differs". *)
let check_stores_equal ~seed what reference fused =
  (* Compare non-empty relations only, matching [Store.equal]: removing
     the last tuple of a relation leaves an empty record behind, which a
     from-scratch build never creates. *)
  let rels s =
    Store.relations s
    |> List.filter (fun n -> Store.cardinality s n > 0)
    |> List.sort compare
  in
  Alcotest.(check (list string))
    (Printf.sprintf "[seed %d] %s: same relations" seed what)
    (rels reference) (rels fused);
  List.iter
    (fun rel ->
      let ts s = List.sort compare (Store.tuples s rel) in
      if ts reference <> ts fused then
        Alcotest.failf "[seed %d] %s: relation %s differs (%d vs %d tuples)"
          seed what rel
          (Store.cardinality reference rel)
          (Store.cardinality fused rel))
    (rels reference);
  checkb
    (Printf.sprintf "[seed %d] %s: stores equal" seed what)
    true
    (Store.equal reference fused)

let test_fused_loader_oracle () =
  let run ~seed ~pub ~rev what =
    let reference = repo_of ~pub ~rev in
    let fused = repo_of_fused ~pub ~rev in
    check_stores_equal ~seed what (Repository.store reference)
      (Repository.store fused);
    check_index_consistent ~seed fused what;
    Alcotest.(check (list string))
      (Printf.sprintf "[seed %d] %s: fused verdicts = reference" seed what)
      (sorted (Repository.check_full reference))
      (sorted (Repository.check_full fused));
    Alcotest.(check (list string))
      (Printf.sprintf "[seed %d] %s: fused datalog verdicts = reference" seed
         what)
      (sorted (Repository.check_full_datalog reference))
      (sorted (Repository.check_full_datalog fused))
  in
  (* The paper's running scenario: Example 1 (review conflict) and
     Example 2 (reviewer workload) over the fixed pub/rev documents,
     once consistent and once with a planted conflict (Carl reviews a
     submission he co-authored). *)
  run ~seed:0 ~pub:fixed_pub ~rev:fixed_rev "examples 1+2 consistent";
  let conflicted_rev =
    {|<review><track><name>DB</name><rev><name>Carl</name><sub><title>Joint</title><auts><name>Carl</name></auts></sub></rev></track></review>|}
  in
  run ~seed:0 ~pub:fixed_pub ~rev:conflicted_rev "examples 1+2 violated";
  for i = 1 to iters do
    let seed = 13000 + i in
    let r = Prng.create seed in
    run ~seed ~pub:(gen_pub r) ~rev:(gen_rev r) "random"
  done

(* ------------------------------------------------------------------ *)
(* Eighth route: incremental maintenance vs recompute                  *)
(* ------------------------------------------------------------------ *)

(* Three-way agreement after every commit of a randomized transaction
   stream: (a) the incremental verdict equals the full check, (b) the
   event-maintained store equals a from-scratch re-shred, (c) the
   delta-maintained denial views equal views recomputed from scratch on
   the current store.  Returns the recomputed views, which the next
   check takes as [views]. *)
let check_incremental_agreement ?views ~seed repo what =
  Alcotest.(check (list string))
    (Printf.sprintf "[seed %d] %s: incremental verdict = full" seed what)
    (sorted (Repository.check_full repo))
    (sorted (Repository.check_incremental repo));
  check_stores_equal ~seed
    (what ^ " (maintained store vs re-shred)")
    (Xic_relmap.Shred.shred
       (Schema.mapping (Repository.schema repo))
       (Repository.doc repo))
    (Repository.store repo);
  let maintained =
    match Repository.incr_view repo with
    | Some v -> v
    | None -> Alcotest.failf "[seed %d] %s: no materialized views" seed what
  in
  (* Every site of these constraints binds a variable of its residual,
     so Incr recomputes only when it initializes: [views] must still be
     the live views, initialized once. *)
  Option.iter
    (fun views ->
      let d = Repository.delta_stats repo in
      checkb
        (Printf.sprintf "[seed %d] %s: views maintained, never recomputed" seed what)
        true
        (views == maintained
         && d.Repository.incr_recomputes = d.Repository.incr_entries))
    views;
  let maintained = Store.freeze maintained in
  Repository.set_incremental repo false;  (* drop the views... *)
  ignore (Repository.check_incremental repo : string list);  (* ...recompute *)
  match Repository.incr_view repo with
  | Some fresh ->
    check_stores_equal ~seed (what ^ " (maintained views vs recompute)")
      fresh maintained;
    fresh
  | None -> Alcotest.failf "[seed %d] %s: recompute built no views" seed what

(* Beside Examples 1, 2 and 7, whose views ignore the position column,
   route 8 maintains denials that read it: every sibling shift must
   reach these views.  The lone qualifier uses its node only through
   the position, which the XQuery translation must still quantify.
   [~removals:true] adds denials that removals can violate: a negation
   over the authors the updates insert and remove, and counts bounded
   from above and by equality.  Random documents mostly violate them
   from the start, so they get a stream of their own; an unmatched
   statement there answers only for the constraints that held before
   it. *)
let incr_repo_of ?(removals = false) ~pub ~rev () =
  let repo = repo_of ~pub ~rev in
  List.iter
    (fun (name, src) ->
      Repository.add_constraint repo
        (Constr.make (Repository.schema repo) ~name src))
    ([ ("late_sub", "<- //rev/sub[position() > 5]/auts -> S");
       ("lone_late_sub", "<- //rev/sub[position() > 5]") ]
     @
     if removals then
       [ ("unpublished_rev", "<- //rev[name/text() -> R] and not(//auts[name/text() -> R])");
         ("thin_rev", "<- //rev -> Ir and cnt{; Ir/sub} < 2");
         ("two_subs", "<- //rev -> Ir and cnt{; Ir/sub} = 2") ]
     else []);
  repo

let test_incremental_oracle () =
  (* the paper's fixed scenario, consistent and violated *)
  List.iter
    (fun (what, rev) ->
      let repo = incr_repo_of ~removals:true ~pub:fixed_pub ~rev () in
      ignore (check_incremental_agreement ~seed:0 repo what : Store.t))
    [ ("examples consistent", fixed_rev);
      ( "examples violated",
        {|<review><track><name>DB</name><rev><name>Carl</name><sub><title>Joint</title><auts><name>Carl</name></auts></sub></rev></track></review>|}
      ) ];
  (* Odd iterations draw busier documents: four or five tracks served by
     one reviewer, up to five submissions per rev.  These mostly start
     out violating Example 2 and often Example 7, so the maintained
     count aggregates are also exercised on violated states; the guard
     below fails a run that never commits one. *)
  let gen_rev i r =
    if i mod 2 = 0 then gen_rev r
    else gen_rev ~min_tracks:4 ~tracks:5 ~subs:5 ~reviewers:[| names.(0) |] r
  in
  let committed_violations = ref [] in
  (* pre-checked statements on consistent states skip view maintenance
     (a proven flush); the agreement checks must see that path taken *)
  let proven_flushes () =
    Xic_obs.Obs.Metrics.(value (counter "incr_proven_flushes"))
  in
  let proven0 = proven_flushes () in
  (* Each iteration runs two streams: seeds 17000+ over the base set,
     27000+ with the removal-created denials added. *)
  for i = 1 to iters do
    List.iter
      (fun (seed, removals) ->
        let r = Prng.create seed in
        let repo = incr_repo_of ~removals ~pub:(gen_pub r) ~rev:(gen_rev i r) () in
        let views = ref (check_incremental_agreement ~seed repo "initial") in
        let path = fresh_path () in
        let j = J.open_ ~sync:false path in
        for round = 1 to 1 + Prng.int r 3 do
          let txn = Repository.begin_txn ~journal:j repo in
          for _ = 1 to 1 + Prng.int r 2 do
            match random_update r repo with
            | Some u -> ignore (Repository.txn_apply txn u : Repository.report)
            | None -> ()
          done;
          (* sometimes wind a savepoint forward and roll it back: the
             inverse deltas must retract exactly what the forward pass
             materialized *)
          if Prng.bool r then begin
            let sp = Repository.txn_savepoint txn in
            (match random_update r repo with
             | Some u -> ignore (Repository.txn_apply txn u : Repository.report)
             | None -> ());
            ignore (Repository.check_incremental repo : string list);
            Repository.txn_rollback_to txn sp
          end;
          if Prng.int r 4 = 0 then Repository.rollback_txn txn
          else begin
            Repository.commit_txn txn;
            committed_violations :=
              Repository.check_incremental repo @ !committed_violations
          end;
          views :=
            check_incremental_agreement ~views:!views ~seed repo
              (Printf.sprintf "after txn round %d" round)
        done;
        J.close j;
        (* replay the journal into a fresh repository with views materialized
           before recovery: replay deltas must maintain them too *)
        let r2 = Prng.create seed in
        let repo2 = incr_repo_of ~removals ~pub:(gen_pub r2) ~rev:(gen_rev i r2) () in
        ignore (Repository.check_incremental repo2 : string list);
        let views2 = Option.get (Repository.incr_view repo2) in
        ignore (Repository.recover (J.read path) repo2 : Repository.recovery_report);
        ignore
          (check_incremental_agreement ~views:views2 ~seed repo2 "after recovery replay"
            : Store.t);
        Alcotest.(check (list string))
          (Printf.sprintf "[seed %d] recovered incremental verdict = original" seed)
          (sorted (Repository.check_incremental repo))
          (sorted (Repository.check_incremental repo2));
        Sys.remove path)
      [ (17000 + i, false); (27000 + i, true) ]
  done;
  List.iter
    (fun c ->
      if not (List.mem c !committed_violations) then
        Alcotest.failf
          "coverage: no commit in %d iterations left the %s view non-empty"
          iters c)
    [ "workload"; "track_load"; "late_sub"; "unpublished_rev"; "thin_rev"; "two_subs" ];
  if proven_flushes () = proven0 then
    Alcotest.failf "coverage: no flush in %d iterations took the proven path"
      iters

(* ------------------------------------------------------------------ *)
(* Route 9: the resident server                                        *)
(* ------------------------------------------------------------------ *)

(* A forked server child answers over a Unix-domain socket while the
   parent mirrors the same randomized workload onto a shadow repository
   through the library API.  Every step must agree verdict for verdict:
   live checks, guarded updates, transactional batches, and pinned
   reads (which must keep answering at their generation while newer
   ones commit).  A checkpoint fires mid-stream — truncating the
   server's journal under the pins — and after a graceful shutdown the
   parent restarts from snapshot + journal suffix and re-checks
   parity.  The shadow pins alongside the server, and the views each
   of its pins froze must equal a fresh materialization over a
   repository replayed to that generation. *)

module Srv = Xic_server.Server
module Proto = Xic_server.Protocol

let outcome_tag9 = function
  | Repository.Applied `Optimized -> "applied:optimized"
  | Repository.Applied `Full_check -> "applied:full_check"
  | Repository.Rejected_early c -> "rejected:" ^ c
  | Repository.Rolled_back c -> "rolled_back:" ^ c

let response_tag resp =
  if not (Proto.bool_field "ok" resp) then "error"
  else
    match Proto.string_field "outcome" resp with
    | Some "applied" ->
      (match Proto.string_field "strategy" resp with
       | Some s -> "applied:" ^ s
       | None -> "applied:?")
    | Some o ->
      o ^ ":"
      ^ Option.value ~default:"?" (Proto.string_field "constraint" resp)
    | None -> "error"

let connect_retry sock =
  let rec go n =
    match Proto.connect (Proto.Unix_sock sock) with
    | fd -> fd
    | exception _ when n > 0 ->
      ignore (Unix.select [] [] [] 0.05);
      go (n - 1)
  in
  go 100

let violated_of resp =
  match Proto.list_field "violated" resp with
  | Some vs ->
    sorted
      (List.filter_map
         (function Proto.String v -> Some v | _ -> None)
         vs)
  | None -> [ "<malformed>" ]

let test_server_oracle () =
  for i = 1 to max 2 (iters / 5) do
    let seed = 21000 + i in
    let r = Prng.create seed in
    let pub = gen_pub r and rev = gen_rev r in
    let sock = Test_tmp.fresh "oracle_srv" ".sock" in
    let jpath = Test_tmp.fresh "oracle_srv" ".j" in
    let spath = Test_tmp.fresh "oracle_srv" ".xics" in
    (match Unix.fork () with
     | 0 ->
       (try
          let repo = repo_of ~pub ~rev in
          let j = J.open_ ~sync:false jpath in
          let srv =
            Srv.create
              ~config:
                { Srv.default_config with
                  Srv.journal = Some j; snapshot_path = Some spath }
              repo
          in
          let lfd = Srv.listen (Proto.Unix_sock sock) in
          Srv.serve ~idle_timeout:0.05 srv lfd;
          Unix._exit 0
        with _ -> Unix._exit 97)
     | child ->
       (* whatever happens, never leave the server child running — an
          orphan would hold the test runner's output pipe open forever *)
       Fun.protect ~finally:(fun () ->
           (try Unix.kill child Sys.sigkill with Unix.Unix_error _ -> ());
           (try ignore (Unix.waitpid [] child) with Unix.Unix_error _ -> ()))
       @@ fun () ->
       let shadow = repo_of ~pub ~rev in
       let fd = connect_retry sock in
       let rq j = Proto.request fd j in
       let fail fmt = Alcotest.failf ("[seed %d] server oracle: " ^^ fmt) seed in
       let errors = ref 0 in
       (* durable statement prefix (newest first) and the pin points
          recorded against it, for the end-of-run time-travel oracle *)
       let applied = ref [] in
       let asof_records = ref [] in
       (* every guard and batch the shadow ran (newest first): replaying
          them allocates the same node ids, so views compare exactly *)
       let ops = ref [] in
       let record_applied u tag =
         if String.starts_with ~prefix:"applied" tag then applied := u :: !applied
       in
       let guard_one u =
         let resp =
           rq
             (Proto.Obj
                [ ("op", Proto.String "guard");
                  ("update", Proto.String (XU.to_string u)) ])
         in
         ops := `Guard u :: !ops;
         let shadow_tag =
           match Repository.guarded_update shadow u with
           | o -> outcome_tag9 o
           | exception _ -> incr errors; "error"
         in
         let server_tag = response_tag resp in
         if shadow_tag <> server_tag then
           fail "guard diverged: server %s, shadow %s" server_tag shadow_tag;
         record_applied u shadow_tag
       in
       let check_parity what =
         let resp = rq (Proto.Obj [ ("op", Proto.String "check") ]) in
         Alcotest.(check (list string))
           (Printf.sprintf "[seed %d] %s: server check = shadow" seed what)
           (sorted (Repository.check_full shadow))
           (violated_of resp)
       in
       let steps = 8 + Prng.int r 6 in
       let checkpoint_at = steps / 2 in
       for step = 1 to steps do
         (match Prng.int r 4 with
          | 0 -> check_parity (Printf.sprintf "step %d" step)
          | 1 ->
            (match random_update r shadow with
             | Some u -> guard_one u
             | None -> ())
          | 2 ->
            (* a transactional batch, 1-3 statements generated against
               the pre-batch state on both sides *)
            let us =
              List.filter_map
                (fun _ -> random_update r shadow)
                (List.init (1 + Prng.int r 3) Fun.id)
            in
            if us <> [] then begin
              let resp =
                rq
                  (Proto.Obj
                     [ ("op", Proto.String "txn");
                       ( "updates",
                         Proto.List
                           (List.map
                              (fun u -> Proto.String (XU.to_string u))
                              us) ) ])
              in
              ops := `Batch us :: !ops;
              let shadow_tags =
                match Repository.guarded_batch shadow us with
                | rs ->
                  List.map (fun x -> outcome_tag9 x.Repository.outcome) rs
                | exception _ ->
                  incr errors;
                  List.map (fun _ -> "error") us
              in
              let server_tags =
                if not (Proto.bool_field "ok" resp) then begin
                  incr errors;
                  List.map (fun _ -> "error") us
                end
                else
                  match Proto.list_field "results" resp with
                  | Some rs -> List.map response_tag rs
                  | None -> [ "<malformed>" ]
              in
              Alcotest.(check (list string))
                (Printf.sprintf "[seed %d] step %d: txn batch verdicts" seed
                   step)
                shadow_tags server_tags;
              if List.length us = List.length shadow_tags then
                List.iter2 record_applied us shadow_tags
            end
          | _ ->
            (* a pinned reader opened before a write must keep answering
               the pre-write verdict *)
            let pre = sorted (Repository.check_full shadow) in
            let presp = rq (Proto.Obj [ ("op", Proto.String "pin") ]) in
            let pid =
              match Proto.int_field "pin" presp with
              | Some p -> p
              | None -> fail "pin request failed"
            in
            (* the shadow pins the same generation with its views
               materialized, so the pin freezes them *)
            ignore (Repository.check_incremental shadow : string list);
            let spin = Repository.pin shadow in
            (* remember the generation, the statement prefix it closed
               over and the shadow's operation count — the time-travel
               oracle below replays them *)
            (match Proto.int_field "generation" presp with
             | Some g ->
               if Repository.pin_generation spin <> g then
                 fail "shadow pinned generation %d, server %d"
                   (Repository.pin_generation spin) g;
               asof_records :=
                 (g, List.length !applied, List.length !ops, spin)
                 :: !asof_records
             | None -> fail "pin response lacks a generation");
            (match random_update r shadow with
             | Some u -> guard_one u
             | None -> ());
            let pinned =
              rq
                (Proto.Obj
                   [ ("op", Proto.String "check"); ("pin", Proto.Int pid) ])
            in
            Alcotest.(check (list string))
              (Printf.sprintf "[seed %d] step %d: pinned verdict is pre-write"
                 seed step)
              pre (violated_of pinned);
            ignore
              (rq
                 (Proto.Obj
                    [ ("op", Proto.String "unpin"); ("pin", Proto.Int pid) ])));
         if step = checkpoint_at then begin
           let cresp = rq (Proto.Obj [ ("op", Proto.String "checkpoint") ]) in
           if not (Proto.bool_field "ok" cresp) then
             fail "mid-stream checkpoint failed";
           check_parity "after mid-stream checkpoint"
         end
       done;
       check_parity "final";
       (* time-travel oracle: every recorded pin generation still in the
          server's retained history must answer exactly what a fresh
          repository replayed to that statement prefix answers; pruned
          generations (mid-stream checkpoint, retention bound) must be
          refused, never served stale.  At every recorded generation the
          shadow pin's frozen views must equal a fresh materialization
          over the shadow's operations replayed to that point. *)
       if !errors = 0 then begin
         let hist = rq (Proto.Obj [ ("op", Proto.String "history") ]) in
         if not (Proto.bool_field "ok" hist) then fail "history failed";
         let still_retained =
           match Proto.list_field "retained" hist with
           | Some rs ->
             List.filter_map (fun x -> Proto.int_field "generation" x) rs
           | None -> []
         in
         let applied_fwd = Array.of_list (List.rev !applied) in
         let ops_fwd = Array.of_list (List.rev !ops) in
         List.iter
           (fun (g, n, k, spin) ->
             let rerun = repo_of ~pub ~rev in
             for i = 0 to k - 1 do
               match ops_fwd.(i) with
               | `Guard u -> ignore (Repository.guarded_update rerun u)
               | `Batch us -> ignore (Repository.guarded_batch rerun us)
             done;
             Alcotest.(check int)
               (Printf.sprintf "[seed %d] replay reaches generation %d" seed g)
               g (Repository.generation rerun);
             Repository.set_incremental rerun false;
             ignore (Repository.check_incremental rerun : string list);
             (match (Repository.pin_view spin, Repository.incr_view rerun) with
              | Some frozen, Some fresh ->
                check_stores_equal ~seed
                  (Printf.sprintf "frozen views at generation %d" g)
                  fresh frozen
              | None, _ -> fail "pin at generation %d froze no views" g
              | _, None -> fail "replay to generation %d built no views" g);
             Alcotest.(check (list string))
               (Printf.sprintf "[seed %d] pinned %d = replay" seed g)
               (sorted (Repository.check_full rerun))
               (sorted (Repository.check_pinned shadow spin));
             Repository.unpin shadow spin;
             let resp =
               rq
                 (Proto.Obj
                    [ ("op", Proto.String "check"); ("as_of", Proto.Int g) ])
             in
             if List.mem g still_retained then begin
               if not (Proto.bool_field "ok" resp) then
                 fail "as_of %d refused though retained" g;
               let replay = repo_of ~pub ~rev in
               for k = 0 to n - 1 do
                 ignore (Repository.guarded_update replay applied_fwd.(k))
               done;
               Alcotest.(check (list string))
                 (Printf.sprintf
                    "[seed %d] as_of %d = fresh replay of %d statement(s)"
                    seed g n)
                 (sorted (Repository.check_full replay))
                 (violated_of resp)
             end
             else if Proto.bool_field "ok" resp then
               fail "as_of %d served though pruned from retention" g)
           !asof_records
       end;
       ignore (rq (Proto.Obj [ ("op", Proto.String "shutdown") ]));
       Unix.close fd;
       let _, status = Unix.waitpid [] child in
       (match status with
        | Unix.WEXITED 0 -> ()
        | Unix.WEXITED n -> fail "server child exited %d" n
        | _ -> fail "server child killed");
       (* restart from the durable pair and re-check parity — skipped if
          an apply error interrupted a batch (both sides diverge from
          the journal identically, but not durably) *)
       if !errors = 0 && Sys.file_exists spath then begin
         let s = Conf.schema () in
         let repo2, report =
           Repository.bring_up s (Repository.Snapshot spath)
             ~constraints:[ Conf.conflict s; Conf.workload s; Conf.track_load s ]
             ~patterns:[ Conf.submission_pattern s ] ~journal:(Some jpath)
         in
         (match report with
          | Some { Repository.replay_errors = []; _ } -> ()
          | _ -> fail "the restart must replay the journal cleanly");
         Alcotest.(check (list string))
           (Printf.sprintf "[seed %d] verdict after restart = shadow" seed)
           (sorted (Repository.check_full shadow))
           (sorted (Repository.check_full repo2))
       end;
       List.iter
         (fun p -> try Sys.remove p with Sys_error _ -> ())
         [ sock; jpath; spath ])
  done

(* ------------------------------------------------------------------ *)
(* Symbol interning round trip                                         *)
(* ------------------------------------------------------------------ *)

(* The global table is append-only and hash-consed: [name] must invert
   [intern], and re-interning must return the identical symbol without
   growing the table.  Enough names to grow the table past several
   resizes; [intern_sub] on a padded slice must agree with [intern], and
   [all_names] must list the table in id order. *)
let test_intern_roundtrip () =
  let r = Prng.create 77 in
  let seen = Hashtbl.create 64 in
  for i = 1 to 5000 do
    let s =
      String.init (1 + Prng.int r 12) (fun _ -> Char.chr (33 + Prng.int r 94))
    in
    let held =
      if i mod 50 = 0 then Some (Symbol.count (), Symbol.all_names ()) else None
    in
    let sym = Symbol.intern s in
    checkb (Printf.sprintf "name (intern %S) = %S (iter %d)" s s i) true
      (String.equal (Symbol.name sym) s);
    checkb "re-intern is the identical symbol" true
      (Symbol.equal (Symbol.intern s) sym);
    let pad = String.make (Prng.int r 5) '<' in
    checkb "intern_sub of a padded slice is the same symbol" true
      (Symbol.equal
         (Symbol.intern_sub (pad ^ s ^ pad) (String.length pad) (String.length s))
         sym);
    Option.iter
      (fun (n, a) ->
        Alcotest.(check int) "a held names array keeps its length" n
          (Array.length a))
      held;
    (match Hashtbl.find_opt seen s with
     | Some sym' -> checkb "stable across iterations" true (Symbol.equal sym sym')
     | None -> Hashtbl.replace seen s sym);
    checkb "interned strings are members" true (Symbol.mem s)
  done;
  let before = Symbol.count () in
  Hashtbl.iter (fun s _ -> ignore (Symbol.intern s : Symbol.t)) seen;
  Alcotest.(check int) "re-interning grows nothing" before (Symbol.count ());
  let names = Symbol.all_names () in
  Alcotest.(check int) "all_names lists every symbol" (Symbol.count ())
    (Array.length names);
  Array.iteri
    (fun i n ->
      checkb "all_names.(i) = name i" true
        (String.equal n (Symbol.name (Symbol.unsafe_of_int i))))
    names

(* CI selects differential cases by index ([test differential 3] is the
   fused loader, [4] the incremental recompute): keep their order. *)
let () =
  Alcotest.run "oracle"
    [
      ("server", [ Alcotest.test_case "resident server" `Quick test_server_oracle ]);
      ( "regression",
        [
          Alcotest.test_case "rollback purges index" `Quick test_rollback_not_stale;
          Alcotest.test_case "savepoint rollback purges index" `Quick
            test_savepoint_rollback_not_stale;
          Alcotest.test_case "symbol intern round trip" `Quick
            test_intern_roundtrip;
        ] );
      ( "differential",
        [
          Alcotest.test_case "apply/undo agreement" `Quick test_apply_undo_oracle;
          Alcotest.test_case "txn savepoints" `Quick test_txn_savepoint_oracle;
          Alcotest.test_case "crash recovery" `Quick test_recover_oracle;
          Alcotest.test_case "fused loader" `Quick test_fused_loader_oracle;
          Alcotest.test_case "incremental recompute" `Quick
            test_incremental_oracle;
        ] );
    ]
