open Xic_xml
module XP = Xic_xpath
module E = XP.Eval

let doc =
  (Xml_parser.parse_string
     {|<review>
        <track><name>DB</name>
          <rev><name>Goofy</name>
            <sub><title>T1</title><auts><name>Mickey</name></auts></sub>
            <sub><title>T2</title><auts><name>Donald</name><name>Daisy</name></auts></sub>
          </rev>
          <rev><name>Minnie</name>
            <sub><title>T3</title><auts><name>Mickey</name></auts></sub>
          </rev>
        </track>
        <track><name>IR</name>
          <rev><name>Goofy</name>
            <sub><title>T4</title><auts><name>Pluto</name></auts></sub>
          </rev>
        </track>
      </review>|})
    .Xml_parser.doc

let attr_doc =
  (Xml_parser.parse_string {|<r><item id="1" cat="a">x</item><item id="2" cat="b">y</item></r>|})
    .Xml_parser.doc

let eval ?(d = doc) ?env s = E.eval d ?env (XP.Parser.parse s)

let nodes ?(d = doc) ?env s =
  match eval ~d ?env s with
  | E.Nodes ns -> ns
  | _ -> Alcotest.fail ("not a node-set: " ^ s)

let count ?(d = doc) s = List.length (nodes ~d s)
let str ?(d = doc) ?env s = E.string_value d (eval ~d ?env s)
let num ?(d = doc) s = E.number (eval ~d s)
let bool_ ?(d = doc) s = E.boolean (eval ~d s)

let checki = Alcotest.(check int)
let checks = Alcotest.(check string)
let checkb = Alcotest.(check bool)
let checkf = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Axes                                                                *)
(* ------------------------------------------------------------------ *)

let test_child_axis () =
  checki "tracks" 2 (count "/review/track");
  checki "revs in first track" 2 (count "/review/track[1]/rev")

let test_descendant_axis () =
  checki "all subs" 4 (count "//sub");
  checki "all names" 10 (count "//name");
  checki "names under track 2" 3 (count "/review/track[2]//name")

let test_self_and_parent () =
  checki "self" 1 (count "/review/track[1]/.");
  checki "parent of rev" 2 (count "//rev/..");
  checks "parent name" "DB" (str "/review/track[1]/rev[1]/../name/text()")

let test_ancestor_axis () =
  checki "ancestors of a title" 4
    (count "/review/track[1]/rev[1]/sub[1]/title/ancestor::*");
  checki "ancestor-or-self" 5
    (count "/review/track[1]/rev[1]/sub[1]/title/ancestor-or-self::*")

let test_sibling_axes () =
  checki "following" 1 (count "/review/track[1]/rev[1]/following-sibling::rev");
  checki "preceding" 1 (count "/review/track[1]/rev[2]/preceding-sibling::rev");
  checki "none before first" 0 (count "/review/track[1]/rev[1]/preceding-sibling::rev")

let test_explicit_axes () =
  checki "descendant::sub" 4 (count "/review/descendant::sub");
  checki "child::track" 2 (count "/review/child::track");
  (* //sub[1] selects the first sub of each rev (predicate applies per
     context), hence three nodes *)
  checki "descendant-or-self" 3 (count "//sub[1]/descendant-or-self::sub")

let test_wildcard_and_node () =
  checki "star children of track 1" 3 (count "/review/track[1]/*");
  checki "node() includes text" 1 (count "/review/track[1]/name/node()")

let test_attribute_axis () =
  (match eval ~d:attr_doc "//item/@id" with
   | E.Strs vs -> Alcotest.(check (list string)) "ids" [ "1"; "2" ] vs
   | _ -> Alcotest.fail "expected attribute strings");
  (match eval ~d:attr_doc "//item/@*" with
   | E.Strs vs -> checki "all attrs" 4 (List.length vs)
   | _ -> Alcotest.fail "expected attribute strings")

(* ------------------------------------------------------------------ *)
(* Predicates                                                          *)
(* ------------------------------------------------------------------ *)

let test_positional_predicates () =
  checks "second sub title" "T2" (str "/review/track[1]/rev[1]/sub[2]/title/text()");
  checks "last()" "T2" (str "/review/track[1]/rev[1]/sub[last()]/title/text()");
  checks "position()=1" "T1"
    (str "/review/track[1]/rev[1]/sub[position() = 1]/title/text()")

let test_value_predicates () =
  checki "revs named Goofy" 2 (count "//rev[name/text() = \"Goofy\"]");
  checki "subs with author Mickey" 2 (count "//sub[auts/name/text() = \"Mickey\"]");
  checki "empty filter" 0 (count "//rev[name/text() = \"Nobody\"]")

let test_predicate_chaining () =
  checki "chained" 1 (count "//rev[name/text() = \"Goofy\"][sub/title/text() = \"T4\"]");
  checki "count in predicate" 1 (count "//rev[count(sub) = 2]")

let test_nested_predicates () =
  checki "nested" 1 (count "//track[rev[name/text() = \"Minnie\"]]")

(* ------------------------------------------------------------------ *)
(* Expressions and functions                                           *)
(* ------------------------------------------------------------------ *)

let test_arithmetic () =
  checkf "add" 7.0 (num "3 + 4");
  checkf "mul prec" 11.0 (num "3 + 4 * 2");
  checkf "div" 2.5 (num "5 div 2");
  checkf "mod" 1.0 (num "7 mod 3");
  checkf "neg" (-3.0) (num "-3")

let test_comparisons_existential () =
  checkb "some author is Mickey" true (bool_ "//auts/name/text() = \"Mickey\"");
  checkb "inequality exists" true (bool_ "//auts/name/text() != \"Mickey\"");
  checkb "no author Scrooge" false (bool_ "//auts/name/text() = \"Scrooge\"");
  checkb "nodeset vs nodeset" true (bool_ "//rev/name/text() = //rev/name/text()")

let test_numeric_compare_on_nodes () =
  checkb "count compare" true (bool_ "count(//sub) > 3");
  checkb "count equal" true (bool_ "count(//track) = 2")

let test_functions () =
  checkf "count" 4.0 (num "count(//sub)");
  checkb "not" true (bool_ "not(count(//sub) = 0)");
  checks "concat" "a-b" (str "concat(\"a\", \"-\", \"b\")");
  checkb "contains" true (bool_ "contains(\"Duckburg\", \"ckb\")");
  checkb "starts-with" true (bool_ "starts-with(\"Duckburg\", \"Duck\")");
  checkf "string-length" 4.0 (num "string-length(\"abcd\")");
  checks "name fn" "review" (str "name(/review)");
  checkb "true/false" true (bool_ "true() and not(false())")

let test_boolean_connectives () =
  checkb "and" false (bool_ "count(//sub) = 4 and count(//track) = 3");
  checkb "or" true (bool_ "count(//sub) = 4 or count(//track) = 3")

let test_union () = checki "union dedups" 7 (count "//sub | //rev | //sub")

let test_variables () =
  let env = [ ("x", E.Str "Goofy"); ("n", E.Num 2.0) ] in
  checkb "var compare" true (E.boolean (eval ~env "//rev/name/text() = $x"));
  checkb "var arith" true (E.boolean (eval ~env "$n + 1 = 3"))

let test_node_variable_path () =
  let rev1 = List.hd (nodes "/review/track[1]/rev[1]") in
  let env = [ ("r", E.Nodes [ rev1 ]) ] in
  checki "steps from variable" 2 (List.length (nodes ~env "$r/sub"));
  checks "text from variable" "Goofy" (str ~env "$r/name/text()")

let test_position_of () =
  (* position among the rev's element children: name=1, sub=2, sub=3 *)
  let sub2 = List.nth (nodes "/review/track[1]/rev[1]/sub") 1 in
  let env = [ ("s", E.Nodes [ sub2 ]) ] in
  checkf "position-of" 3.0 (E.number (eval ~env "position-of($s)"))

let test_param_holes () =
  let env = [ ("%r", E.Str "Goofy") ] in
  checkb "param hole" true (E.boolean (eval ~env "//rev/name/text() = %r"))

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let test_parse_errors () =
  let fails s =
    match XP.Parser.parse s with
    | exception XP.Parser.Parse_error _ -> true
    | _ -> false
  in
  checkb "empty" true (fails "");
  checkb "bad token" true (fails "a ? b");
  checkb "unclosed bracket" true (fails "a[1");
  checkb "trailing" true (fails "a b")

let roundtrip_cases =
  [
    "//rev/name/text()";
    "/review/track[2]/rev[5]/sub[6]";
    "//pub[title/text() = \"Duckburg tales\"]/aut/name/text()";
    "count(//sub) > 4 and not($x = 3)";
    "$a/b//c[@id = \"7\"][2]";
    "a | b | c/d";
    "3 + 4 * -2 - 1";
    "following-sibling::sub[position() = last()]";
    "//track[rev[name/text() = $r]]";
    "%anchor/name/text() = %n";
  ]

let test_roundtrip () =
  List.iter
    (fun s ->
      let e = XP.Parser.parse s in
      let s' = XP.Ast.to_string e in
      let e' = XP.Parser.parse s' in
      Alcotest.(check bool) (s ^ " => " ^ s') true (XP.Ast.equal e e'))
    roundtrip_cases

let test_eval_roundtrip_semantics () =
  List.iter
    (fun s ->
      let e = XP.Parser.parse s in
      let e' = XP.Parser.parse (XP.Ast.to_string e) in
      let v1 = E.eval doc e and v2 = E.eval doc e' in
      Alcotest.(check bool) s true (v1 = v2))
    [ "//sub"; "count(//rev)"; "/review/track[1]//name/text()" ]

(* ------------------------------------------------------------------ *)
(* Second wave: edge cases                                             *)
(* ------------------------------------------------------------------ *)

let test_root_selection () =
  checki "slash selects root" 1 (count "/");
  checks "root name" "review" (str "name(/review)");
  checki "self of root" 1 (count "/review/.")

let test_multi_root_collection () =
  let d = (Xml_parser.parse_string "<one><x/></one>").Xml_parser.doc in
  let two, _ = Xml_parser.parse_document_into d "<two><x/><x/></two>" in
  Doc.add_root d two;
  checki "absolute sees both roots" 3 (count ~d "//x");
  checki "named root one" 1 (count ~d "/one/x");
  checki "named root two" 2 (count ~d "/two/x")

let test_positional_after_filter () =
  (* predicates chain left to right, and // positions apply per parent
     (XPath 1.0: //x[2] ≠ (//x)[2]) *)
  checki "no track has two Goofy revs" 0
    (count "//rev[name/text() = \"Goofy\"][2]");
  checks "filter then position within one track" "T4"
    (str "/review/track[2]/rev[name/text() = \"Goofy\"][1]/sub[1]/title/text()")

let test_last_minus () =
  checks "last()-1" "T1" (str "/review/track[1]/rev[1]/sub[last() - 1]/title/text()")

let test_arithmetic_edge () =
  checkb "div by zero is inf" true (bool_ "1 div 0 > 1000000");
  checkb "nan comparisons false" false (bool_ "number(\"abc\") = number(\"abc\")")

let test_string_order_fallback () =
  (* non-numeric strings compare lexicographically (documented extension) *)
  checkb "apple < banana" true (bool_ "\"apple\" < \"banana\"");
  checkb "numeric strings numeric" true (bool_ "\"9\" < \"10\"")

let test_existential_negation_subtlety () =
  (* != over node-sets is existential, not the negation of = *)
  checkb "eq and neq both true" true
    (bool_ "//rev/name/text() = \"Goofy\" and //rev/name/text() != \"Goofy\"")

let test_boolean_coercions () =
  checkb "empty node-set is false" false (bool_ "//nonexistent");
  checkb "non-empty is true" true (bool_ "//sub");
  checkb "empty string false" false (bool_ "boolean(\"\")");
  checkb "zero false" false (bool_ "boolean(0)")

let test_union_in_predicate () =
  checki "union inside predicate" 2
    (count "//track[rev | name]")

let test_descendant_of_descendant () =
  checki "//track//name" 10 (count "//track//name");
  checki "//rev//name" 8 (count "//rev//name")

let test_attribute_in_predicate () =
  checki "by attribute" 1 (count ~d:attr_doc "//item[@cat = \"b\"]");
  checki "attr existence" 2 (count ~d:attr_doc "//item[@id]")

let test_parser_axis_names_not_reserved () =
  (* axis names usable as element names when not followed by :: *)
  let d = (Xml_parser.parse_string "<r><child>x</child><self/></r>").Xml_parser.doc in
  checki "element named child" 1 (count ~d "/r/child");
  checki "element named self" 1 (count ~d "/r/self")

let test_number_formatting () =
  checks "integer renders plain" "4" (str "count(//sub)");
  checks "string of sum" "7" (str "string(3 + 4)")

let test_string_functions () =
  checks "substring 2-arg" "burg" (str "substring(\"Duckburg\", 5)");
  checks "substring 3-arg" "ckb" (str "substring(\"Duckburg\", 3, 3)");
  checks "substring clamps" "Du" (str "substring(\"Duckburg\", 0, 3)");
  checks "substring empty" "" (str "substring(\"Duckburg\", 99)");
  checks "before" "Duck" (str "substring-before(\"Duck-burg\", \"-\")");
  checks "after" "burg" (str "substring-after(\"Duck-burg\", \"-\")");
  checks "before missing" "" (str "substring-before(\"Duckburg\", \"-\")");
  checks "translate" "DUCK" (str "translate(\"duck\", \"duck\", \"DUCK\")");
  checks "translate drops" "dk" (str "translate(\"duck\", \"uc\", \"\")");
  checks "upper" "DUCK" (str "upper-case(\"Duck\")");
  checks "lower" "duck" (str "lower-case(\"Duck\")");
  checkb "ends-with" true (bool_ "ends-with(\"Duckburg\", \"burg\")");
  checks "string-join" "DB+IR" (str "string-join(//track/name/text(), \"+\")")

(* ------------------------------------------------------------------ *)
(* Properties: random paths                                            *)
(* ------------------------------------------------------------------ *)

(* Random relative location paths over the conference vocabulary. *)
let gen_path =
  let open QCheck2.Gen in
  let name = oneofl [ "review"; "track"; "rev"; "sub"; "auts"; "name"; "title" ] in
  let axis =
    oneofl
      [ ""; "descendant::"; "ancestor::"; "following-sibling::";
        "preceding-sibling::"; "descendant-or-self::"; "self::" ]
  in
  let step =
    oneof
      [ map2 (fun a n -> a ^ n) axis name;
        return "*"; return ".."; return "."; return "node()" ]
  in
  let pred =
    oneof
      [ return ""; return "[1]"; return "[last()]";
        map (fun n -> "[" ^ n ^ "]") name;
        map (fun n -> "[count(" ^ n ^ ") > 0]") name ]
  in
  let full_step = map2 (fun s p -> s ^ p) step pred in
  let sep = oneofl [ "/"; "//" ] in
  map2
    (fun first rest ->
      "//" ^ first ^ String.concat "" (List.map (fun (s, st) -> s ^ st) rest))
    full_step
    (list_size (int_bound 3) (pair sep full_step))

let prop_random_paths_robust =
  QCheck2.Test.make ~name:"random paths: sorted, unique, reprintable" ~count:300
    gen_path (fun src ->
      match XP.Parser.parse src with
      | exception XP.Parser.Parse_error _ -> QCheck2.assume_fail ()
      | e ->
        (match E.eval doc e with
         | exception E.Eval_error _ -> QCheck2.assume_fail ()
         | E.Nodes ns ->
           let sorted = Doc.sort_doc_order doc ns in
           (* results are in document order without duplicates, and the
              reprinted expression evaluates identically *)
           ns = sorted
           && (match E.eval doc (XP.Parser.parse (XP.Ast.to_string e)) with
               | E.Nodes ns' -> ns' = ns
               | _ -> false)
         | _ -> true))

let () =
  Alcotest.run "xpath"
    [
      ( "axes",
        [
          Alcotest.test_case "child" `Quick test_child_axis;
          Alcotest.test_case "descendant" `Quick test_descendant_axis;
          Alcotest.test_case "self/parent" `Quick test_self_and_parent;
          Alcotest.test_case "ancestor" `Quick test_ancestor_axis;
          Alcotest.test_case "siblings" `Quick test_sibling_axes;
          Alcotest.test_case "explicit axes" `Quick test_explicit_axes;
          Alcotest.test_case "wildcard/node()" `Quick test_wildcard_and_node;
          Alcotest.test_case "attribute" `Quick test_attribute_axis;
        ] );
      ( "predicates",
        [
          Alcotest.test_case "positional" `Quick test_positional_predicates;
          Alcotest.test_case "by value" `Quick test_value_predicates;
          Alcotest.test_case "chained" `Quick test_predicate_chaining;
          Alcotest.test_case "nested" `Quick test_nested_predicates;
        ] );
      ( "expressions",
        [
          Alcotest.test_case "arithmetic" `Quick test_arithmetic;
          Alcotest.test_case "existential comparison" `Quick test_comparisons_existential;
          Alcotest.test_case "numeric node compare" `Quick test_numeric_compare_on_nodes;
          Alcotest.test_case "functions" `Quick test_functions;
          Alcotest.test_case "connectives" `Quick test_boolean_connectives;
          Alcotest.test_case "union" `Quick test_union;
          Alcotest.test_case "variables" `Quick test_variables;
          Alcotest.test_case "node variables" `Quick test_node_variable_path;
          Alcotest.test_case "position-of" `Quick test_position_of;
          Alcotest.test_case "param holes" `Quick test_param_holes;
        ] );
      ( "parser",
        [
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "roundtrip semantics" `Quick test_eval_roundtrip_semantics;
        ] );
      ( "edge cases",
        [
          Alcotest.test_case "root selection" `Quick test_root_selection;
          Alcotest.test_case "multi-root collection" `Quick test_multi_root_collection;
          Alcotest.test_case "filter then position" `Quick test_positional_after_filter;
          Alcotest.test_case "last()-1" `Quick test_last_minus;
          Alcotest.test_case "arithmetic edge" `Quick test_arithmetic_edge;
          Alcotest.test_case "string ordering" `Quick test_string_order_fallback;
          Alcotest.test_case "existential !=" `Quick test_existential_negation_subtlety;
          Alcotest.test_case "boolean coercions" `Quick test_boolean_coercions;
          Alcotest.test_case "union in predicate" `Quick test_union_in_predicate;
          Alcotest.test_case "// of //" `Quick test_descendant_of_descendant;
          Alcotest.test_case "attribute predicates" `Quick test_attribute_in_predicate;
          Alcotest.test_case "axis names as elements" `Quick test_parser_axis_names_not_reserved;
          Alcotest.test_case "number formatting" `Quick test_number_formatting;
          Alcotest.test_case "string functions" `Quick test_string_functions;
        ] );
      ("properties", [ QCheck_alcotest.to_alcotest prop_random_paths_robust ]);
    ]
