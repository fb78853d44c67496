open Xic_core
module Conf = Xic_workload.Conference
module Gen = Xic_workload.Generator
module Prng = Xic_workload.Prng

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* PRNG                                                                *)
(* ------------------------------------------------------------------ *)

let test_prng_deterministic () =
  let a = Prng.create 7 and b = Prng.create 7 in
  for _ = 1 to 100 do
    checkb "same stream" true (Prng.next a = Prng.next b)
  done

let test_prng_bounds () =
  let r = Prng.create 1 in
  for _ = 1 to 1000 do
    let x = Prng.int r 10 in
    checkb "in range" true (x >= 0 && x < 10);
    let y = Prng.range r 5 8 in
    checkb "range" true (y >= 5 && y <= 8)
  done

let test_prng_spread () =
  let r = Prng.create 3 in
  let seen = Hashtbl.create 16 in
  for _ = 1 to 200 do
    Hashtbl.replace seen (Prng.int r 10) ()
  done;
  checkb "covers most values" true (Hashtbl.length seen >= 8)

(* ------------------------------------------------------------------ *)
(* Generator                                                           *)
(* ------------------------------------------------------------------ *)

let dataset = lazy (Gen.generate ~seed:11 ~target_bytes:120_000 ())

let build_repo ds =
  let s = Conf.schema () in
  let repo = Repository.create s in
  Repository.load_fused repo ds.Gen.pub_xml;
  Repository.load_fused repo ds.Gen.rev_xml;
  Repository.add_constraint repo (Conf.conflict s);
  Repository.add_constraint repo (Conf.workload s);
  Repository.add_constraint repo (Conf.track_load s);
  Repository.register_pattern repo (Conf.submission_pattern s);
  repo

let test_generator_deterministic () =
  let a = Gen.generate ~seed:5 ~target_bytes:50_000 () in
  let b = Gen.generate ~seed:5 ~target_bytes:50_000 () in
  checkb "same documents" true (a.Gen.pub_xml = b.Gen.pub_xml && a.Gen.rev_xml = b.Gen.rev_xml);
  let c = Gen.generate ~seed:6 ~target_bytes:50_000 () in
  checkb "seed changes output" true (a.Gen.rev_xml <> c.Gen.rev_xml)

let test_generator_size () =
  let ds = Lazy.force dataset in
  let b = ds.Gen.stats.Gen.bytes in
  checkb (Printf.sprintf "size within 2x of target (%d)" b) true
    (b > 60_000 && b < 240_000)

let test_generator_valid () =
  (* loading validates against the DTDs *)
  let _repo = build_repo (Lazy.force dataset) in
  ()

let test_generator_consistent () =
  let repo = build_repo (Lazy.force dataset) in
  Alcotest.(check (list string)) "consistent by construction" []
    (Repository.check_full_datalog repo)

let test_hooks_present () =
  let ds = Lazy.force dataset in
  let repo = build_repo ds in
  let doc = Repository.doc repo in
  let selects =
    [ ds.Gen.legal_select; ds.Gen.conflict_select; ds.Gen.busy_select ]
  in
  List.iter
    (fun sel ->
      let ns = Xic_xpath.Eval.select doc (Xic_xpath.Parser.parse sel) in
      checki (sel ^ " resolves to a sub") 1 (List.length ns);
      checkb "is a sub" true
        (Xic_xml.Doc.name doc (List.hd ns) = "sub"))
    selects

let test_busy_reviewer_on_threshold () =
  let ds = Lazy.force dataset in
  let repo = build_repo ds in
  let doc = Repository.doc repo in
  let q =
    Printf.sprintf
      "count(//rev[name/text() = \"%s\"]/sub) = 10 and count-distinct(//track[rev[name/text() = \"%s\"]]/name/text()) = 4"
      ds.Gen.busy_reviewer ds.Gen.busy_reviewer
  in
  checkb "10 subs across 4 tracks" true
    (Xic_xquery.Eval.eval_bool doc (Xic_xquery.Parser.parse q))

let test_update_hooks_behave () =
  let ds = Lazy.force dataset in
  let repo = build_repo ds in
  let outcome u = Repository.guarded_update repo u in
  (match
     outcome
       (Conf.insert_submission ~select:ds.Gen.legal_select ~title:"ok"
          ~author:ds.Gen.legal_author)
   with
   | Repository.Applied `Optimized -> ()
   | _ -> Alcotest.fail "legal hook must be applied");
  (match
     outcome
       (Conf.insert_submission ~select:ds.Gen.conflict_select ~title:"self"
          ~author:ds.Gen.conflict_reviewer)
   with
   | Repository.Rejected_early "conflict" -> ()
   | _ -> Alcotest.fail "self-review hook must be rejected");
  (match
     outcome
       (Conf.insert_submission ~select:ds.Gen.conflict_select ~title:"coauthor"
          ~author:ds.Gen.conflict_coauthor)
   with
   | Repository.Rejected_early "conflict" -> ()
   | _ -> Alcotest.fail "co-author hook must be rejected");
  (match
     outcome
       (Conf.insert_submission ~select:ds.Gen.busy_select ~title:"eleventh"
          ~author:ds.Gen.legal_author)
   with
   | Repository.Rejected_early name ->
     checkb "workload or track_load" true (name = "workload" || name = "track_load")
   | _ -> Alcotest.fail "busy hook must be rejected")

let test_scaling_counts () =
  let small = Gen.generate ~seed:2 ~target_bytes:30_000 () in
  let large = Gen.generate ~seed:2 ~target_bytes:300_000 () in
  checkb "more subs at larger size" true
    (large.Gen.stats.Gen.submissions > 3 * small.Gen.stats.Gen.submissions);
  checkb "more pubs at larger size" true
    (large.Gen.stats.Gen.pubs > 3 * small.Gen.stats.Gen.pubs)

(* ------------------------------------------------------------------ *)
(* Randomized end-to-end agreement                                     *)
(* ------------------------------------------------------------------ *)

(* Drive a repository with a random mix of legal and illegal submissions
   and verify, at every step, that (i) the XQuery and Datalog check paths
   agree, (ii) optimized pre-check decisions match post-hoc full checks,
   and (iii) the repository never ends in an inconsistent state. *)
let test_random_update_storm () =
  let ds = Gen.generate ~seed:77 ~target_bytes:60_000 () in
  let repo = build_repo ds in
  let rng = Prng.create 99 in
  let doc = Repository.doc repo in
  let subs () =
    Xic_xpath.Eval.select doc (Xic_xpath.Parser.parse "//sub")
  in
  let applied = ref 0 and rejected = ref 0 in
  for step = 1 to 40 do
    let all = Array.of_list (subs ()) in
    let anchor = Prng.pick rng all in
    let select = Xic_relmap.Shred.path_to_node doc anchor in
    let author =
      match Prng.int rng 4 with
      | 0 -> ds.Gen.conflict_reviewer   (* likely illegal at that anchor *)
      | 1 -> ds.Gen.conflict_coauthor
      | _ -> Printf.sprintf "Random Person %d" step
    in
    let u =
      Conf.insert_submission ~select ~title:(Printf.sprintf "Storm %d" step)
        ~author
    in
    (match Repository.match_update repo u with
     | None -> Alcotest.fail "storm update must match the pattern"
     | Some (p, valuation) ->
       let opt_xq = fst (Repository.try_check_optimized repo p valuation) <> [] in
       let opt_dl =
         let params = Pattern.datalog_params p valuation in
         let store = Repository.store repo in
         List.exists
           (fun (ch : Repository.optimized_check) ->
             List.exists (Xic_datalog.Eval.violated ~params store)
               ch.Repository.simplified)
           (Repository.optimized_checks repo p)
       in
       checkb (Printf.sprintf "step %d: xquery/datalog agree" step) opt_xq opt_dl;
       (* ground truth: apply, full check, roll back *)
       let undo = Repository.apply_unchecked repo u in
       let full = Repository.check_full repo <> [] in
       Repository.rollback repo undo;
       checkb (Printf.sprintf "step %d: optimized = full" step) full opt_xq;
       (* now run the real guarded update *)
       (match Repository.guarded_update repo u with
        | Repository.Applied _ -> incr applied
        | Repository.Rejected_early _ | Repository.Rolled_back _ -> incr rejected))
  done;
  checkb "some applied" true (!applied > 0);
  checkb "some rejected" true (!rejected > 0);
  Alcotest.(check (list string)) "final state consistent" []
    (Repository.check_full repo);
  Alcotest.(check (list string)) "mirror agrees" []
    (Repository.check_full_datalog repo)

let test_removal_storm () =
  (* random removals of auts under a keep-one-author constraint *)
  let s = Conf.schema () in
  let repo = Repository.create s in
  let ds = Gen.generate ~seed:5 ~target_bytes:30_000 () in
  Repository.load_fused repo ds.Gen.pub_xml;
  Repository.load_fused repo ds.Gen.rev_xml;
  Repository.add_constraint repo
    (Constr.make s ~name:"keep_author" "<- //sub -> S and cnt{; S/auts} < 1");
  Repository.register_pattern repo
    (Pattern.make s ~name:"drop_author" ~op:Xic_xupdate.Xupdate.Remove
       ~anchor_type:"auts" ~content:[]);
  let rng = Prng.create 3 in
  let doc = Repository.doc repo in
  for step = 1 to 30 do
    let all =
      Array.of_list (Xic_xpath.Eval.select doc (Xic_xpath.Parser.parse "//auts"))
    in
    let target = Prng.pick rng all in
    let u =
      [ { Xic_xupdate.Xupdate.op = Xic_xupdate.Xupdate.Remove;
          select = Xic_xpath.Parser.parse (Xic_relmap.Shred.path_to_node doc target);
          content = [];
        } ]
    in
    match Repository.guarded_update repo u with
    | Repository.Applied _ | Repository.Rejected_early _ -> ()
    | Repository.Rolled_back _ ->
      Alcotest.fail (Printf.sprintf "step %d: removal must never need rollback" step)
  done;
  Alcotest.(check (list string)) "storm leaves a consistent state" []
    (Repository.check_full repo)

(* ------------------------------------------------------------------ *)
(* Flat pre-check                                                      *)
(* ------------------------------------------------------------------ *)

let repo_of_size ~size constraints =
  let s = Conf.schema () in
  let ds = Gen.generate ~seed:42 ~target_bytes:size () in
  let repo = Repository.create s in
  Repository.load_fused ~validate:false repo ds.Gen.pub_xml;
  Repository.load_fused ~validate:false repo ds.Gen.rev_xml;
  List.iter (fun c -> Repository.add_constraint repo (c s)) constraints;
  Repository.register_pattern repo (Conf.submission_pattern s);
  (repo, ds)

(* The paper's claim (iii), stated as a count instead of a timing: the
   optimized Example 1 check of a legal submission probes the index for
   the new author, so it does the same work on a 16x larger document. *)
let test_precheck_steps_flat () =
  let steps size =
    let repo, ds = repo_of_size ~size [ Conf.conflict ] in
    let u =
      Conf.insert_submission ~select:ds.Gen.legal_select ~title:"Flat"
        ~author:ds.Gen.legal_author
    in
    let p, valuation = Option.get (Repository.match_update repo u) in
    let check () = Repository.try_check_optimized repo p valuation in
    checkb "legal submission passes" true (check () = ([], []));
    snd (Xic_xquery.Eval.with_meter check)
  in
  checki "eval steps at 64 KB = at 1 MB" (steps 64_000) (steps 1_024_000)

(* A guard round as the server runs it — legal insert, view check,
   withdrawal through execute-check-compensate, next pre-check — keeps
   the document-order rank table: no rebuild after the warm-up round.
   The anchor's reviewer holds several revs, so Example 2's
   //rev[name/text() = $R]/sub has nodes from several revs to sort. *)
let test_guard_round_keeps_ranks () =
  let repo, ds =
    repo_of_size ~size:64_000 [ Conf.conflict; Conf.workload; Conf.track_load ]
  in
  let doc = Repository.doc repo in
  let select path = Xic_xpath.Eval.select doc (Xic_xpath.Parser.parse path) in
  let insert_after anchor title =
    Conf.insert_submission ~select:(Xic_relmap.Shred.path_to_node doc anchor)
      ~title ~author:ds.Gen.legal_author
  in
  let legal anchor =
    match Repository.match_update repo (insert_after anchor "Probe") with
    | Some (p, valuation) ->
      Repository.try_check_optimized repo p valuation = ([], [])
    | None -> false
  in
  let first_sub rev =
    List.hd (select (Xic_relmap.Shred.path_to_node doc rev ^ "/sub"))
  in
  let shared_reviewer rev =
    let name = List.hd (Xic_xml.Doc.element_children doc rev) in
    let reviewer = Xic_xml.Doc.text_content doc name in
    List.length (select (Printf.sprintf "//rev[name/text() = \"%s\"]" reviewer)) > 1
  in
  let anchor =
    first_sub
      (List.find
         (fun rev -> shared_reviewer rev && legal (first_sub rev))
         (select "/review/track/rev"))
  in
  let builds = Xic_obs.Obs.Metrics.counter "index_rank_builds" in
  let round i =
    let title = Printf.sprintf "Round %d" i in
    (match Repository.guarded_update repo (insert_after anchor title) with
     | Repository.Applied `Optimized -> ()
     | _ -> Alcotest.fail "legal insert must pass the pre-check");
    Alcotest.(check (list string)) "consistent" [] (Repository.check_incremental repo);
    let withdraw =
      [ { Xic_xupdate.Xupdate.op = Xic_xupdate.Xupdate.Remove;
          select =
            Xic_xpath.Parser.parse
              (Printf.sprintf "//sub[title/text() = \"%s\"]" title);
          content = [] } ]
    in
    (match Repository.guarded_update repo withdraw with
     | Repository.Applied `Full_check -> ()
     | _ -> Alcotest.fail "the withdrawal must be executed and checked");
    checkb "next pre-check passes" true (legal anchor)
  in
  round 0;
  let before = Xic_obs.Obs.Metrics.value builds in
  round 1;
  round 2;
  checki "rank table rebuilds in two rounds" 0
    (Xic_obs.Obs.Metrics.value builds - before)

let () =
  Alcotest.run "workload"
    [
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "bounds" `Quick test_prng_bounds;
          Alcotest.test_case "spread" `Quick test_prng_spread;
        ] );
      ( "generator",
        [
          Alcotest.test_case "deterministic" `Quick test_generator_deterministic;
          Alcotest.test_case "size scaling" `Quick test_generator_size;
          Alcotest.test_case "DTD valid" `Quick test_generator_valid;
          Alcotest.test_case "consistent" `Quick test_generator_consistent;
          Alcotest.test_case "hooks resolve" `Quick test_hooks_present;
          Alcotest.test_case "busy reviewer threshold" `Quick test_busy_reviewer_on_threshold;
          Alcotest.test_case "update hooks behave" `Quick test_update_hooks_behave;
          Alcotest.test_case "count scaling" `Quick test_scaling_counts;
        ] );
      ( "end to end",
        [
          Alcotest.test_case "update storm" `Slow test_random_update_storm;
          Alcotest.test_case "removal storm" `Slow test_removal_storm;
        ] );
      ( "flat pre-check",
        [
          Alcotest.test_case "eval steps independent of size" `Quick
            test_precheck_steps_flat;
          Alcotest.test_case "guard round keeps the rank table" `Quick
            test_guard_round_keeps_ranks;
        ] );
    ]
