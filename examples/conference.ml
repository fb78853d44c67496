(* The paper's running example end to end: the pub.xml / rev.xml schema,
   the constraints of Examples 1, 2 and 7, the submission-insertion update
   pattern of Example 6, and the behaviour of Section 7's two scenarios
   (legal and illegal updates).

   Run with: dune exec examples/conference.exe *)

open Xic_core
module Conf = Xic_workload.Conference
module Gen = Xic_workload.Generator

let hr title = Printf.printf "\n=== %s ===\n" title

let () =
  let schema = Conf.schema () in
  hr "Relational mapping (Section 4.1)";
  print_endline (Schema.to_string schema);

  hr "Constraints (Examples 1, 2, 7)";
  let constraints = [ Conf.conflict schema; Conf.workload schema; Conf.track_load schema ] in
  List.iter
    (fun (c : Constr.t) ->
      Printf.printf "%s (XPathLog):\n  %s\n" c.Constr.name c.Constr.source;
      Printf.printf "as Datalog denials (Example 3):\n%s\n"
        (Xic_datalog.Term.denials_str c.Constr.datalog);
      Printf.printf "as XQuery (Section 6):\n  %s\n\n"
        (Xic_xquery.Ast.to_string c.Constr.xquery))
    constraints;

  hr "Dataset (synthetic DBLP-like, Section 7)";
  let ds = Gen.generate ~seed:1 ~target_bytes:80_000 () in
  Printf.printf "%d publications, %d tracks, %d reviewers, %d submissions (%d bytes)\n"
    ds.Gen.stats.Gen.pubs ds.Gen.stats.Gen.tracks ds.Gen.stats.Gen.reviewers
    ds.Gen.stats.Gen.submissions ds.Gen.stats.Gen.bytes;
  let repo = Repository.create schema in
  Repository.load_fused repo ds.Gen.pub_xml;
  Repository.load_fused repo ds.Gen.rev_xml;
  List.iter (Repository.add_constraint repo) constraints;
  Printf.printf "initial integrity: %s\n"
    (match Repository.check_full repo with
     | [] -> "consistent"
     | vs -> "VIOLATED: " ^ String.concat ", " vs);

  hr "Update pattern (Example 6)";
  let pattern = Conf.submission_pattern schema in
  Printf.printf "U = { %s }\n"
    (String.concat ", " (List.map Xic_datalog.Term.atom_str pattern.Pattern.atoms));
  Printf.printf "Delta (freshness hypotheses):\n%s\n"
    (Xic_datalog.Term.denials_str (Pattern.hypotheses schema pattern));
  Repository.register_pattern repo pattern;
  List.iter
    (fun (c : Repository.optimized_check) ->
      Printf.printf "\nSimp for %s:\n%s\nXQuery:\n  %s\n" c.Repository.constraint_name
        (Xic_datalog.Term.denials_str c.Repository.simplified)
        (Xic_xquery.Ast.to_string c.Repository.simplified_xquery))
    (Repository.optimized_checks repo pattern);

  hr "Guarded updates (Section 7's two scenarios)";
  let submit ~select ~title ~author ~label =
    let u = Conf.insert_submission ~select ~title ~author in
    match Repository.guarded_update repo u with
    | Repository.Applied `Optimized ->
      Printf.printf "%-28s -> applied (checked before execution)\n" label
    | Repository.Applied `Full_check ->
      Printf.printf "%-28s -> applied (full check fallback)\n" label
    | Repository.Rejected_early c ->
      Printf.printf "%-28s -> rejected early, violates %s (update never executed)\n"
        label c
    | Repository.Rolled_back c ->
      Printf.printf "%-28s -> rolled back after violating %s\n" label c
  in
  submit ~select:ds.Gen.legal_select ~title:"Taming Web Services"
    ~author:ds.Gen.legal_author ~label:"legal submission";
  submit ~select:ds.Gen.conflict_select ~title:"A Self Review"
    ~author:ds.Gen.conflict_reviewer ~label:"self-review";
  submit ~select:ds.Gen.conflict_select ~title:"Friends and Co-Authors"
    ~author:ds.Gen.conflict_coauthor ~label:"co-author conflict";
  submit ~select:ds.Gen.busy_select ~title:"The Eleventh Paper"
    ~author:ds.Gen.legal_author ~label:"overloaded reviewer";

  Printf.printf "\nfinal integrity: %s\n"
    (match Repository.check_full repo with
     | [] -> "consistent"
     | vs -> "VIOLATED: " ^ String.concat ", " vs);

  hr "Explaining a violation";
  (* Force an inconsistency through an unchecked update and let the
     checker point at the offending nodes. *)
  let bad =
    Conf.insert_submission ~select:ds.Gen.conflict_select ~title:"Smuggled"
      ~author:ds.Gen.conflict_reviewer
  in
  let undo = Repository.apply_unchecked repo bad in
  List.iter
    (fun w -> print_endline (Repository.witness_to_string w))
    (Repository.explain repo);
  Repository.rollback repo undo;
  Printf.printf "\n(rolled back; repository %s)\n"
    (match Repository.check_full repo with [] -> "consistent again" | _ -> "STILL BROKEN")
