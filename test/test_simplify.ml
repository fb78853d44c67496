module T = Xic_datalog.Term
module P = Xic_datalog.Parser
module S = Xic_datalog.Store
module E = Xic_datalog.Eval
module Sub = Xic_datalog.Subsume
module After = Xic_simplify.After
module Opt = Xic_simplify.Optimize
module Simp = Xic_simplify.Simp

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let variant_set expected got =
  checki "denial count" (List.length expected) (List.length got);
  List.iter
    (fun e ->
      let e = P.parse_denial e in
      checkb
        (Printf.sprintf "expected %s among [%s]" (T.denial_str e)
           (String.concat " | " (List.map T.denial_str got)))
        true
        (List.exists (Sub.variant e) got))
    expected

(* ------------------------------------------------------------------ *)
(* After (Definition 2)                                                *)
(* ------------------------------------------------------------------ *)

let issn = ":- p(X, Y), p(X, Z), Y != Z"
let issn_update = [ P.parse_atom "p(%i, %t)" ]

let test_after_example4 () =
  (* the four denials of Example 4 *)
  let out = After.denial issn_update (P.parse_denial issn) in
  variant_set
    [
      ":- p(X, Y), p(X, Z), Y != Z";
      ":- p(X, Y), X = %i, Z = %t, Y != Z";
      ":- X = %i, Y = %t, p(X, Z), Y != Z";
      ":- X = %i, Y = %t, X = %i, Z = %t, Y != Z";
    ]
    out

let test_after_no_matching_relation () =
  let d = P.parse_denial ":- q(X, Y)" in
  let out = After.denial issn_update d in
  variant_set [ ":- q(X, Y)" ] out

let test_after_negative_literal () =
  (* ¬p(t̄) gains one disequality branch per argument *)
  let d = P.parse_denial ":- q(X, Y), not p(X, Y)" in
  let out = After.denial issn_update d in
  variant_set
    [
      ":- q(X, Y), not p(X, Y), X != %i";
      ":- q(X, Y), not p(X, Y), Y != %t";
    ]
    out

let test_after_negative_certain_match () =
  (* the addition certainly matches the negated atom: the denial can never
     be violated after the update *)
  let d = P.parse_denial ":- not p(%i, %t)" in
  checki "no denials" 0 (List.length (After.denial issn_update d))

let test_after_aggregate_decrement () =
  let d = P.parse_denial ":- rev(Ir, _, _, _), cnt(sub(_, _, Ir, _)) > 4" in
  let u = [ P.parse_atom "sub(%is, %ps, %ir, %t)" ] in
  let out = After.denial u d in
  variant_set
    [
      ":- rev(Ir, _, _, _), Ir = %ir, cnt(sub(_, _, Ir, _)) > 3";
      ":- rev(Ir, _, _, _), Ir != %ir, cnt(sub(_, _, Ir, _)) > 4";
    ]
    out

let test_after_aggregate_unsupported_sum () =
  let d = P.parse_denial ":- q(X), sum(V; p(X, V)) > 10" in
  match After.denial [ P.parse_atom "p(%a, %b)" ] d with
  | exception After.Unsupported _ -> ()
  | _ -> Alcotest.fail "sum aggregates must be rejected under matching updates"

let test_after_two_additions_compose () =
  (* two insertions into the same relation: the bound drops by 2 on the
     doubly-matching branch *)
  let d = P.parse_denial ":- q(G), cnt(p(_, G)) > 9" in
  let u = [ P.parse_atom "p(%x, %g)"; P.parse_atom "p(%y, %g)" ] in
  let out = After.denial u d in
  checkb "a bound of 7 branch exists" true
    (List.exists
       (fun dd ->
         List.exists
           (function
             | T.Agg { T.bound = T.Const (T.Int 7); _ } -> true
             | _ -> false)
           dd.T.body)
       out)

(* ------------------------------------------------------------------ *)
(* After for deletions                                                 *)
(* ------------------------------------------------------------------ *)

let del atoms = List.map P.parse_atom atoms

let test_after_del_positive () =
  (* deleting p(%i, %t): a p-literal survives iff it differs somewhere *)
  let out =
    After.denial_mixed ~ins:[] ~del:(del [ "p(%i, %t)" ]) (P.parse_denial ":- p(X, Y), q(Y)")
  in
  variant_set
    [ ":- p(X, Y), q(Y), X != %i"; ":- p(X, Y), q(Y), Y != %t" ]
    out

let test_after_del_positive_certain () =
  (* the denial's only support is exactly the deleted tuple *)
  let out =
    After.denial_mixed ~ins:[] ~del:(del [ {| p("a") |} ])
      (P.parse_denial {| :- p("a") |})
  in
  checki "denial disappears" 0 (List.length out)

let test_after_del_negation () =
  (* ¬q(X,Y) becomes true if the matching tuple is being deleted *)
  let out =
    After.denial_mixed ~ins:[] ~del:(del [ "q(%a, %b)" ])
      (P.parse_denial ":- p(X, Y), not q(X, Y)")
  in
  variant_set
    [ ":- p(X, Y), not q(X, Y)"; ":- p(X, Y), X = %a, Y = %b" ]
    out

let test_after_del_negation_local_unsupported () =
  match
    After.denial_mixed ~ins:[] ~del:(del [ "q(%a, %b)" ])
      (P.parse_denial ":- p(X), not q(X, _)")
  with
  | exception After.Unsupported _ -> ()
  | _ -> Alcotest.fail "negation with locals under deletion must be rejected"

let test_after_del_aggregate_increment () =
  (* removing a submission raises the present-state bound *)
  let out =
    After.denial_mixed ~ins:[] ~del:(del [ "sub(%is, %ps, %ir, %t)" ])
      (P.parse_denial ":- rev(Ir, _, _, _), cnt(sub(_, _, Ir, _)) < 1")
  in
  variant_set
    [
      ":- rev(Ir, _, _, _), Ir = %ir, cnt(sub(_, _, Ir, _)) < 2";
      ":- rev(Ir, _, _, _), Ir != %ir, cnt(sub(_, _, Ir, _)) < 1";
    ]
    out

let test_after_mixed_replace () =
  (* replace one tuple by another: both transformations compose *)
  let out =
    After.denial_mixed ~ins:(del [ "p(%new)" ]) ~del:(del [ "p(%old)" ])
      (P.parse_denial ":- p(X), q(X)")
  in
  (* transactions are assumed disjoint (%new ≠ %old), so the inserted
     tuple's branch carries no disequality; After leaves the equality to
     Optimize *)
  variant_set [ ":- p(X), q(X), X != %old"; ":- X = %new, q(X)" ] out

(* ------------------------------------------------------------------ *)
(* Optimize                                                            *)
(* ------------------------------------------------------------------ *)

let test_optimize_tautology () =
  let out = Opt.optimize ~hypotheses:[] [ P.parse_denial ":- p(X), %a != %a" ] in
  checki "tautology dropped" 0 (List.length out)

let test_optimize_ground_true () =
  let out = Opt.optimize ~hypotheses:[] [ P.parse_denial {| :- p(X), "a" = "a" |} ] in
  variant_set [ ":- p(X)" ] out

let test_optimize_equality_inlining () =
  let out = Opt.optimize ~hypotheses:[] [ P.parse_denial ":- p(X, Y), X = %i, Y = %t" ] in
  variant_set [ ":- p(%i, %t)" ] out

let test_optimize_subsumed_by_hypothesis () =
  let hyp = P.parse_denial ":- sub(%is, _, _, _)" in
  let out =
    Opt.optimize ~hypotheses:[ hyp ]
      [ P.parse_denial ":- rev(Ir, _, _, N), sub(%is, _, Ir, _)" ]
  in
  checki "subsumed removed" 0 (List.length out)

let test_optimize_variants_dedup () =
  let out =
    Opt.optimize ~hypotheses:[]
      [ P.parse_denial ":- p(%i, Y), Y != %t"; P.parse_denial ":- p(%i, Z), %t != Z" ]
  in
  checki "variants collapse" 1 (List.length out)

let test_optimize_redundant_atom () =
  let out =
    Opt.optimize ~hypotheses:[]
      [ P.parse_denial ":- rev(_, _, _, R), rev(%a, _, _, R), q(R)" ]
  in
  variant_set [ ":- rev(%a, _, _, R), q(R)" ] out

let test_optimize_agg_trivial_bounds () =
  checki "cnt >= 0 erased" 1
    (List.length
       (Opt.optimize ~hypotheses:[]
          [ P.parse_denial ":- p(X), cnt(q(_)) >= 0" ]));
  checkb "body shrank" true
    (match Opt.optimize ~hypotheses:[] [ P.parse_denial ":- p(X), cnt(q(_)) >= 0" ] with
     | [ d ] -> List.length d.T.body = 1
     | _ -> false);
  checki "cnt < 0 drops denial" 0
    (List.length
       (Opt.optimize ~hypotheses:[] [ P.parse_denial ":- p(X), cnt(q(_)) < 0" ]))

(* ------------------------------------------------------------------ *)
(* Simp on the paper's examples                                        *)
(* ------------------------------------------------------------------ *)

let test_simp_example5 () =
  variant_set
    [ ":- p(%i, Y), Y != %t" ]
    (Simp.simp ~update:issn_update [ P.parse_denial issn ])

let conflict_gamma =
  [
    P.parse_denial ":- rev(Ir, _, _, R), sub(Is, _, Ir, _), auts(_, _, Is, R)";
    P.parse_denial
      ":- rev(Ir, _, _, R), sub(Is, _, Ir, _), auts(_, _, Is, A), aut(_, _, Ip, R), aut(_, _, Ip, A)";
  ]

let sub_update =
  [ P.parse_atom "sub(%is, %ps, %ir, %t)"; P.parse_atom "auts(%ia, %pa, %is, %n)" ]

let delta =
  Simp.freshness_hypotheses ~fresh:[ "is"; "ia" ]
    ~children:(function "sub" -> [ ("auts", 4) ] | _ -> [])
    ~arity:(function "sub" | "auts" -> 4 | p -> Alcotest.fail ("arity of " ^ p))
    sub_update

let test_freshness_hypotheses () =
  variant_set
    [ ":- sub(%is, _, _, _)"; ":- auts(_, _, %is, _)"; ":- auts(%ia, _, _, _)" ]
    delta

let test_simp_example6 () =
  variant_set
    [
      ":- rev(%ir, _, _, %n)";
      ":- rev(%ir, _, _, R), aut(_, _, Ip, %n), aut(_, _, Ip, R)";
    ]
    (Simp.simp ~hypotheses:delta ~update:sub_update conflict_gamma)

let test_simp_example7 () =
  variant_set
    [ ":- rev(%ir, _, _, _), cntd(sub(_, _, %ir, _)) > 3" ]
    (Simp.simp ~hypotheses:delta ~update:sub_update
       [ P.parse_denial ":- rev(Ir, _, _, _), cntd(sub(_, _, Ir, _)) > 4" ])

let test_simp_irrelevant_update () =
  (* an update over unrelated relations leaves nothing to check *)
  let out =
    Simp.simp ~update:[ P.parse_atom "pub(%ip, %pp, %d, %t)" ] conflict_gamma
  in
  checki "no residual checks" 0 (List.length out)

(* ------------------------------------------------------------------ *)
(* Theorem 1 as a property                                             *)
(* ------------------------------------------------------------------ *)

(* Random ground stores and updates over p/2, q/2; constraints chosen from
   a pool.  For every consistent state D, D^U |= Γ iff D |= Simp_U(Γ). *)
let constraint_pool =
  [
    ":- p(X, Y), q(X, Y)";
    ":- p(X, X)";
    ":- p(X, Y), p(X, Z), Y != Z";
    ":- p(X, Y), q(Y, Z)";
    ":- q(X, _), cnt(p(X, _)) > 2";
    ":- p(X, Y), not q(X, Y)";
    ":- p(X, _), not q(X, _)";
    ":- q(X, Y), not p(Y, _)";
  ]

let gen_case =
  let open QCheck2.Gen in
  let const = map (fun n -> T.Const (T.Int n)) (int_bound 3) in
  let atom rel = map2 (fun a b -> { T.pred = rel; T.args = [ a; b ] }) const const in
  let fact = oneof [ atom "p"; atom "q" ] in
  triple
    (list_size (int_bound 10) fact)            (* initial facts *)
    (list_size (int_range 1 3) fact)            (* insertion transaction *)
    (oneofl constraint_pool)

let apply_update st u =
  let st' = S.copy st in
  List.iter (fun (a : T.atom) ->
      Facts.add st' a.T.pred
        (List.map
           (function T.Const c -> c | _ -> Alcotest.fail "ground update expected")
           a.T.args))
    u;
  st'

let prop_theorem1 =
  QCheck2.Test.make ~name:"Theorem 1: D |= Simp_U(Γ) iff D^U |= Γ" ~count:500
    gen_case (fun (facts, update, csrc) ->
      let gamma = [ P.parse_denial csrc ] in
      let store =
        S.of_facts
          (List.map
             (fun (a : T.atom) ->
               ( a.T.pred,
                 List.map (function T.Const c -> c | _ -> assert false) a.T.args ))
             facts)
      in
      (* precondition: D consistent with Γ *)
      QCheck2.assume (E.consistent store gamma);
      match Simp.simp ~update gamma with
      | simplified ->
        let after_store = apply_update store update in
        let holds_after = E.consistent after_store gamma in
        let simp_now = E.consistent store simplified in
        holds_after = simp_now
      | exception After.Unsupported _ -> QCheck2.assume_fail ())

let dedup_facts facts =
  List.sort_uniq compare facts

let prop_after_deletions =
  (* the deletion transformation is state-equivalent under set semantics
     and effective deletions (the deleted tuples exist) *)
  QCheck2.Test.make ~name:"After(del): D |= After(Γ) iff D\\U |= Γ" ~count:500
    gen_case (fun (facts, doomed_hint, csrc) ->
      let gamma = [ P.parse_denial csrc ] in
      let facts = dedup_facts facts in
      QCheck2.assume (facts <> []);
      (* effective deletions: pick existing tuples, as many as hinted *)
      let doomed =
        List.filteri (fun i _ -> i < List.length doomed_hint) facts
      in
      let store =
        S.of_facts
          (List.map
             (fun (a : T.atom) ->
               ( a.T.pred,
                 List.map (function T.Const c -> c | _ -> assert false) a.T.args ))
             facts)
      in
      match After.denials_mixed ~ins:[] ~del:doomed gamma with
      | after ->
        let after_store = S.copy store in
        List.iter
          (fun (a : T.atom) ->
            ignore
              (Facts.remove after_store a.T.pred
                 (List.map
                    (function T.Const c -> c | _ -> assert false)
                    a.T.args)))
          (dedup_facts doomed)
        ;
        E.consistent after_store gamma = E.consistent store after
      | exception After.Unsupported _ -> QCheck2.assume_fail ())

let prop_after_equivalence =
  (* After alone must already be state-equivalent (without optimization) *)
  QCheck2.Test.make ~name:"After: D |= After_U(Γ) iff D^U |= Γ" ~count:500
    gen_case (fun (facts, update, csrc) ->
      let gamma = [ P.parse_denial csrc ] in
      let store =
        S.of_facts
          (List.map
             (fun (a : T.atom) ->
               ( a.T.pred,
                 List.map (function T.Const c -> c | _ -> assert false) a.T.args ))
             facts)
      in
      match After.denials update gamma with
      | after ->
        let after_store = apply_update store update in
        E.consistent after_store gamma = E.consistent store after
      | exception After.Unsupported _ -> QCheck2.assume_fail ())

(* ------------------------------------------------------------------ *)
(* Second wave                                                         *)
(* ------------------------------------------------------------------ *)

let test_optimize_idempotent () =
  (* Optimize is a closure operator on our example sets *)
  List.iter
    (fun srcs ->
      let ds = List.map P.parse_denial srcs in
      let once = Opt.optimize ~hypotheses:delta ds in
      let twice = Opt.optimize ~hypotheses:delta once in
      checki (String.concat "|" srcs) (List.length once) (List.length twice);
      List.iter2
        (fun a b -> checkb "same denials" true (Sub.variant a b))
        once twice)
    [
      [ ":- p(X, Y), p(X, Z), Y != Z" ];
      [ ":- rev(Ir, _, _, R), sub(Is, _, Ir, _), auts(_, _, Is, R)" ];
      [ ":- p(X), q(X)"; ":- p(Y), q(Y), r(Y)" ];
    ]

let test_simp_composes_with_two_patterns () =
  (* two successive updates: simplify w.r.t. the first, then the second *)
  let gamma = [ P.parse_denial issn ] in
  let s1 = Simp.simp ~update:[ P.parse_atom "p(%i1, %t1)" ] gamma in
  (* the simplified set itself can be simplified again for a second
     insertion (the paper's compositionality of the framework) *)
  let s2 = Simp.simp ~update:[ P.parse_atom "p(%i2, %t2)" ] s1 in
  checkb "still one check" true (List.length s2 >= 1);
  (* a store consistent with gamma: checking s1 then (after applying u1)
     s2 equals checking gamma after both updates *)
  let store = S.of_facts [ ("p", [ T.Str "a"; T.Str "x" ]) ] in
  let v1 = [ ("i1", T.Str "b"); ("t1", T.Str "y") ] in
  let v2 = [ ("i2", T.Str "b"); ("t2", T.Str "z") ] in
  checkb "first ok" true (not (List.exists (E.violated ~params:v1 store) s1));
  Facts.add store "p" [ T.Str "b"; T.Str "y" ];
  checkb "second rejected (same id, new title)" true
    (List.exists (E.violated ~params:(v1 @ v2) store) s2)

let test_freshness_resolution_rule () =
  (* :- p(%k,_) as hypothesis discharges X != %k when X is bound by p *)
  let hyp = P.parse_denial ":- p(%k, _)" in
  let out =
    Opt.optimize ~hypotheses:[ hyp ]
      [ P.parse_denial ":- p(X, Y), X != %k, q(Y)" ]
  in
  variant_set [ ":- p(X, Y), q(Y)" ] out;
  let out2 =
    Opt.optimize ~hypotheses:[ hyp ]
      [ P.parse_denial ":- p(X, Y), X = %k, q(Y)" ]
  in
  checki "equality makes it trivial" 0 (List.length out2)

let test_after_preserves_labels () =
  let d = P.parse_denial ":- p(X, Y)" in
  let d = { d with T.label = Some "tagged" } in
  let out = After.denial issn_update d in
  checkb "labels survive" true
    (List.for_all (fun o -> o.T.label = Some "tagged") out)

let test_simp_no_hypotheses_still_sound () =
  (* without freshness hypotheses the cntd simplification keeps more
     branches but must not drop the instantiated one *)
  let out =
    Simp.simp ~update:sub_update
      [ P.parse_denial ":- rev(Ir, _, _, _), cntd(sub(_, _, Ir, _)) > 4" ]
  in
  checkb "instantiated branch present" true
    (List.exists
       (fun d ->
         List.exists
           (function
             | T.Agg { T.bound = T.Const (T.Int 3); _ } -> true
             | _ -> false)
           d.T.body)
       out)

let () =
  Alcotest.run "simplify"
    [
      ( "after",
        [
          Alcotest.test_case "example 4" `Quick test_after_example4;
          Alcotest.test_case "unrelated relation" `Quick test_after_no_matching_relation;
          Alcotest.test_case "negative literal" `Quick test_after_negative_literal;
          Alcotest.test_case "negative certain match" `Quick test_after_negative_certain_match;
          Alcotest.test_case "aggregate decrement" `Quick test_after_aggregate_decrement;
          Alcotest.test_case "sum unsupported" `Quick test_after_aggregate_unsupported_sum;
          Alcotest.test_case "two additions compose" `Quick test_after_two_additions_compose;
        ] );
      ( "optimize",
        [
          Alcotest.test_case "tautology" `Quick test_optimize_tautology;
          Alcotest.test_case "ground true literal" `Quick test_optimize_ground_true;
          Alcotest.test_case "equality inlining" `Quick test_optimize_equality_inlining;
          Alcotest.test_case "hypothesis subsumption" `Quick test_optimize_subsumed_by_hypothesis;
          Alcotest.test_case "variant dedup" `Quick test_optimize_variants_dedup;
          Alcotest.test_case "redundant atom" `Quick test_optimize_redundant_atom;
          Alcotest.test_case "trivial aggregate bounds" `Quick test_optimize_agg_trivial_bounds;
        ] );
      ( "simp",
        [
          Alcotest.test_case "example 5 (ISSN)" `Quick test_simp_example5;
          Alcotest.test_case "freshness hypotheses" `Quick test_freshness_hypotheses;
          Alcotest.test_case "example 6 (conflict)" `Quick test_simp_example6;
          Alcotest.test_case "example 7 (aggregate)" `Quick test_simp_example7;
          Alcotest.test_case "irrelevant update" `Quick test_simp_irrelevant_update;
        ] );
      ( "after (deletions)",
        [
          Alcotest.test_case "positive literal" `Quick test_after_del_positive;
          Alcotest.test_case "certain deletion" `Quick test_after_del_positive_certain;
          Alcotest.test_case "negation" `Quick test_after_del_negation;
          Alcotest.test_case "negation locals unsupported" `Quick
            test_after_del_negation_local_unsupported;
          Alcotest.test_case "aggregate increment" `Quick test_after_del_aggregate_increment;
          Alcotest.test_case "mixed replace" `Quick test_after_mixed_replace;
        ] );
      ( "second wave",
        [
          Alcotest.test_case "optimize idempotent" `Quick test_optimize_idempotent;
          Alcotest.test_case "simp composes" `Quick test_simp_composes_with_two_patterns;
          Alcotest.test_case "freshness resolution" `Quick test_freshness_resolution_rule;
          Alcotest.test_case "labels survive" `Quick test_after_preserves_labels;
          Alcotest.test_case "no hypotheses" `Quick test_simp_no_hypotheses_still_sound;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_theorem1;
          QCheck_alcotest.to_alcotest prop_after_equivalence;
          QCheck_alcotest.to_alcotest prop_after_deletions;
        ] );
    ]
