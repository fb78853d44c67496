module T = Xic_datalog.Term
module P = Xic_datalog.Parser
module Tr = Xic_translate.Translate
module Q = Xic_xquery

let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let mapping =
  lazy
    (Xic_relmap.Mapping.build
       [ (Xic_xml.Dtd.parse Xic_workload.Conference.pub_dtd, "dblp");
         (Xic_xml.Dtd.parse Xic_workload.Conference.rev_dtd, "review") ])

let translate src = Tr.denial (Lazy.force mapping) (P.parse_denial src)
let qstr src = Q.Ast.to_string (translate src)

(* ------------------------------------------------------------------ *)
(* Shapes from Section 6 of the paper                                  *)
(* ------------------------------------------------------------------ *)

let test_full_conflict_denial2 () =
  (* paper: some $Ir in //rev, $H in //aut satisfies
     $H/name/text()=$Ir/name/text() and
     $H/../aut/name/text()=$Ir/sub/auts/name/text() *)
  checks "shape"
    "some $Ir in //rev, $_7 in //aut satisfies $_7/name/text() = $Ir/name/text() and $Ir/sub/auts/name/text() = $_7/../aut/name/text()"
    (qstr ":- rev(Ir, _, _, R), sub(Is, _, Ir, _), auts(_, _, Is, A), aut(_, _, Ip, R), aut(_, _, Ip, A)")

let test_simplified_conflict () =
  (* paper: some $D in //aut satisfies $D/name/text()=%n and
     $D/../aut/name/text() = <ir>/name/text() *)
  checks "shape"
    "some $_3 in //aut satisfies $_3/name/text() = %n and $_3/../aut/name/text() = %ir/name/text()"
    (qstr ":- rev(%ir, _, _, R), aut(_, _, Ip, %n), aut(_, _, Ip, R)")

let test_simplified_conflict_first () =
  checks "pure condition" "%ir/name/text() = %n" (qstr ":- rev(%ir, _, _, %n)")

let test_aggregate_example7 () =
  (* paper: exists(for $lr in //rev let $D := $lr/sub where count($D) > 4
     return <idle/>) *)
  checks "shape"
    "exists(for $Ir in //rev let $Agg1 := $Ir/sub where count-distinct($Agg1) > 4 return <idle/>)"
    (qstr ":- rev(Ir, _, _, _), cntd(Is; sub(Is, _, Ir, _)) > 4")

let test_aggregate_simplified () =
  checks "instantiated let"
    "exists(let $Agg1 := %ir/sub where count-distinct($Agg1) > 3 return <idle/>)"
    (qstr ":- rev(%ir, _, _, _), cntd(Is; sub(Is, _, %ir, _)) > 3")

let test_constants_become_filters () =
  checks "Duckburg"
    "some $Ip in //pub satisfies $Ip/title/text() = \"Duckburg tales\" and $Ip/aut/name/text() = \"Goofy\""
    (qstr {| :- pub(Ip, _, _, "Duckburg tales"), aut(_, _, Ip, "Goofy") |})

let test_inlining_chain () =
  (* single-use node variables collapse into the path, keeping only the
     atoms that carry conditions *)
  let s = qstr ":- rev(Ir, _, _, R), sub(Is, _, Ir, _), auts(_, _, Is, R)" in
  checks "chained path" "some $Ir in //rev satisfies $Ir/sub/auts/name/text() = $Ir/name/text()" s

let test_negation () =
  let s = qstr ":- rev(Ir, _, _, R), not pub(_, _, _, _)" in
  checks "negation" "some $Ir in //rev satisfies not(exists(//pub))" s

let test_position_column () =
  let s = qstr ":- sub(Is, 2, _, %t)" in
  checks "position test"
    "some $Is in //sub satisfies position-of($Is) = 2 and $Is/title/text() = %t" s

let test_untranslatable_unsafe () =
  match translate ":- X != Y" with
  | exception Tr.Untranslatable _ -> ()
  | _ -> Alcotest.fail "unsafe comparison must be untranslatable"

(* ------------------------------------------------------------------ *)
(* Generated queries parse and evaluate                                *)
(* ------------------------------------------------------------------ *)

let doc =
  (fun () ->
    let { Xic_xml.Xml_parser.doc; _ } =
      Xic_xml.Xml_parser.parse_string
        {|<dblp><pub><title>J</title><aut><name>Carl</name></aut><aut><name>Nora</name></aut></pub></dblp>|}
    in
    let review, _ =
      Xic_xml.Xml_parser.parse_document_into doc
        {|<review><track><name>DB</name><rev><name>Carl</name><sub><title>S</title><auts><name>Ann</name></auts></sub></rev></track></review>|}
    in
    Xic_xml.Doc.add_root doc review;
    doc)
    ()

let test_generated_queries_reparse () =
  (* reparsing may re-nest Call/Xp wrappers, so compare printed forms *)
  List.iter
    (fun src ->
      let q = translate src in
      let q' = Q.Parser.parse (Q.Ast.to_string q) in
      checks src (Q.Ast.to_string q) (Q.Ast.to_string q'))
    [
      ":- rev(Ir, _, _, R), sub(Is, _, Ir, _), auts(_, _, Is, R)";
      ":- rev(%ir, _, _, R), aut(_, _, Ip, %n), aut(_, _, Ip, R)";
      ":- rev(Ir, _, _, _), cntd(Is; sub(Is, _, Ir, _)) > 4";
      ":- rev(%ir, _, _, %n)";
    ]

let test_eval_full_vs_datalog () =
  (* the translated query and the denial itself must agree on the store *)
  let m = Lazy.force mapping in
  let store = Xic_relmap.Shred.shred m doc in
  List.iter
    (fun src ->
      let d = P.parse_denial src in
      let dl = Xic_datalog.Eval.violated store d in
      let xq = Q.Eval.eval_bool doc (Tr.denial m d) in
      checkb src dl xq)
    [
      (* violated: Ann is not Carl, so no self-review … *)
      ":- rev(Ir, _, _, R), sub(Is, _, Ir, _), auts(_, _, Is, R)";
      (* Carl reviews and co-authored with Nora, but Ann is the sub author *)
      ":- rev(Ir, _, _, R), sub(Is, _, Ir, _), auts(_, _, Is, A), aut(_, _, Ip, R), aut(_, _, Ip, A)";
      (* track with a sub *)
      ":- track(It, _, _, _), rev(Ir, _, It, _), sub(_, _, Ir, _)";
      (* aggregates *)
      ":- rev(Ir, _, _, _), cnt(sub(_, _, Ir, _)) > 0";
      ":- rev(Ir, _, _, _), cnt(sub(_, _, Ir, _)) > 1";
      {| :- pub(Ip, _, _, "J"), aut(_, _, Ip, "Nora") |};
      {| :- pub(Ip, _, _, "J"), aut(_, _, Ip, "Bob") |};
    ]

let test_eval_with_params () =
  let m = Lazy.force mapping in
  let rev =
    List.hd (Xic_xpath.Eval.select doc (Xic_xpath.Parser.parse "//rev"))
  in
  let q = Tr.denial m (P.parse_denial ":- rev(%ir, _, _, %n)") in
  let check_name n expect =
    Alcotest.(check bool) n expect
      (Q.Eval.eval_bool doc
         ~params:[ ("ir", Xic_xpath.Eval.Nodes [ rev ]); ("n", Xic_xpath.Eval.Str n) ]
         q)
  in
  check_name "Carl" true;
  check_name "Ann" false

(* ------------------------------------------------------------------ *)
(* Second wave                                                         *)
(* ------------------------------------------------------------------ *)

let test_disjunction_of_denials () =
  let m = Lazy.force mapping in
  let q =
    Tr.denials m
      [ P.parse_denial ":- rev(%ir, _, _, %n)";
        P.parse_denial ":- track(_, _, _, %n)" ]
  in
  checks "joined with or (fully inlined)"
    "%ir/name/text() = %n or //track/name/text() = %n"
    (Q.Ast.to_string q);
  checkb "false for empty set" true
    (Q.Ast.to_string (Tr.denials m []) = "false()")

let test_node_identity_translation () =
  (* id-variable comparisons become node-identity tests *)
  let s = qstr ":- rev(A, _, T, _), rev(B, _, T, _), A != B" in
  checkb "uses same-node" true
    (let needle = "same-node" in
     let rec find i =
       i + String.length needle <= String.length s
       && (String.sub s i (String.length needle) = needle || find (i + 1))
     in
     find 0)

let test_node_identity_evaluates () =
  (* two distinct revs under one track: A != B as node identity *)
  let m = Lazy.force mapping in
  let { Xic_xml.Xml_parser.doc = d2; _ } =
    Xic_xml.Xml_parser.parse_string
      {|<review><track><name>T</name><rev><name>X</name><sub><title>S</title><auts><name>A</name></auts></sub></rev><rev><name>X</name><sub><title>S2</title><auts><name>B</name></auts></sub></rev></track></review>|}
  in
  let den = P.parse_denial ":- rev(A, _, T, N), rev(B, _, T, N), A != B" in
  let q = Tr.denial m den in
  checkb "duplicate reviewer names in a track" true (Q.Eval.eval_bool d2 q);
  let st = Xic_relmap.Shred.shred m d2 in
  checkb "datalog agrees" true (Xic_datalog.Eval.violated st den)

let test_sum_translation () =
  let m = Lazy.force mapping in
  (* sum over a data column translates … *)
  let den = P.parse_denial ":- track(It, _, _, _), sum(N; rev(_, _, It, N)) > 100" in
  let s = Q.Ast.to_string (Tr.denial m den) in
  checkb "mentions sum" true
    (let needle = "sum(" in
     let rec find i =
       i + String.length needle <= String.length s
       && (String.sub s i (String.length needle) = needle || find (i + 1))
     in
     find 0);
  (* … while sums over Pos columns are (documented) untranslatable *)
  let den2 = P.parse_denial ":- track(It, _, _, _), sum(P; rev(_, P, It, _)) > 100" in
  match Tr.denial m den2 with
  | exception Tr.Untranslatable _ -> ()
  | _ -> Alcotest.fail "sum over positions is expected to be untranslatable"

let test_multiple_aggregates_one_denial () =
  let q =
    qstr
      ":- rev(_, _, _, R), cntd(It; track(It, _, _, _), rev(_, _, It, R)) > 3, \
       cntd(Isu; rev(Irv, _, _, R), sub(Isu, _, Irv, _)) > 10"
  in
  checks "two lets"
    "exists(for $R in //rev/name/text() let $Agg1 := //track[rev[name/text() = $R]] let $Agg2 := //rev[name/text() = $R]/sub where count-distinct($Agg1) > 3 and count-distinct($Agg2) > 10 return <idle/>)"
    q

let test_shared_column_variable () =
  (* the same data variable in two atoms joins their columns *)
  (* single-use node bindings inline completely: an existential general
     comparison over the two node-sets *)
  checks "join by title" "//sub/title/text() = //pub/title/text()"
    (qstr ":- pub(Ip, _, _, T), sub(Is, _, _, T)")

(* XPathLog -> Datalog -> XQuery for a lone positional qualifier: the
   sub node is used only by its position, and position-of reads the
   first node of its argument, so the node must stay bound to a
   quantified variable rather than inline as position-of(//sub). *)
let test_lone_position_qualifier () =
  let m = Lazy.force mapping in
  let d =
    match
      Xic_xpathlog.Compile.parse_and_compile m "<- //rev/sub[position() > 5]"
    with
    | [ d ] -> d
    | ds -> Alcotest.failf "one denial expected, got %d" (List.length ds)
  in
  let q = Tr.denial m d in
  let s = Q.Ast.to_string q in
  checkb ("quantified: " ^ s) true
    (String.length s > 5 && String.sub s 0 5 = "some ");
  (* the late sub is the second rev's sixth; the first //sub is early *)
  let sub i = Printf.sprintf "<sub><title>S%d</title><auts><name>A</name></auts></sub>" i in
  let subs n = String.concat "" (List.init n sub) in
  let { Xic_xml.Xml_parser.doc = d2; _ } =
    Xic_xml.Xml_parser.parse_string
      (Printf.sprintf
         "<review><track><name>T</name><rev><name>X</name>%s</rev><rev><name>Y</name>%s</rev></track></review>"
         (subs 1) (subs 6))
  in
  checkb "datalog finds the late sub" true
    (Xic_datalog.Eval.violated (Xic_relmap.Shred.shred m d2) d);
  checkb "xquery finds the late sub" true (Q.Eval.eval_bool d2 q)

let () =
  Alcotest.run "translate"
    [
      ( "shapes",
        [
          Alcotest.test_case "full conflict denial 2" `Quick test_full_conflict_denial2;
          Alcotest.test_case "simplified conflict" `Quick test_simplified_conflict;
          Alcotest.test_case "simplified conflict (1st)" `Quick test_simplified_conflict_first;
          Alcotest.test_case "aggregate example 7" `Quick test_aggregate_example7;
          Alcotest.test_case "aggregate simplified" `Quick test_aggregate_simplified;
          Alcotest.test_case "constant filters" `Quick test_constants_become_filters;
          Alcotest.test_case "inlining chain" `Quick test_inlining_chain;
          Alcotest.test_case "negation" `Quick test_negation;
          Alcotest.test_case "position column" `Quick test_position_column;
          Alcotest.test_case "unsafe rejected" `Quick test_untranslatable_unsafe;
        ] );
      ( "evaluation",
        [
          Alcotest.test_case "reparse" `Quick test_generated_queries_reparse;
          Alcotest.test_case "datalog agreement" `Quick test_eval_full_vs_datalog;
          Alcotest.test_case "with parameters" `Quick test_eval_with_params;
        ] );
      ( "edge cases",
        [
          Alcotest.test_case "denial disjunction" `Quick test_disjunction_of_denials;
          Alcotest.test_case "node identity shape" `Quick test_node_identity_translation;
          Alcotest.test_case "node identity eval" `Quick test_node_identity_evaluates;
          Alcotest.test_case "sum" `Quick test_sum_translation;
          Alcotest.test_case "two aggregates" `Quick test_multiple_aggregates_one_denial;
          Alcotest.test_case "shared column var" `Quick test_shared_column_variable;
          Alcotest.test_case "lone position qualifier" `Quick
            test_lone_position_qualifier;
        ] );
    ]
