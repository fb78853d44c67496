open Xic_xml
module Q = Xic_xquery
module E = Xic_xpath.Eval

let doc =
  (Xml_parser.parse_string
     {|<review>
        <track><name>DB</name>
          <rev><name>Goofy</name>
            <sub><title>T1</title><auts><name>Mickey</name></auts></sub>
            <sub><title>T2</title><auts><name>Goofy</name></auts></sub>
          </rev>
          <rev><name>Minnie</name>
            <sub><title>T3</title><auts><name>Mickey</name></auts></sub>
          </rev>
        </track>
      </review>|})
    .Xml_parser.doc

let eval ?env ?params s = Q.Eval.eval doc ?env ?params (Q.Parser.parse s)
let ebool ?env ?params s = Q.Eval.eval_bool doc ?env ?params (Q.Parser.parse s)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Quantifiers                                                         *)
(* ------------------------------------------------------------------ *)

let test_some_basic () =
  checkb "self review exists" true
    (ebool "some $r in //rev satisfies $r/name/text() = $r/sub/auts/name/text()");
  checkb "no reviewer named Pluto" false
    (ebool "some $r in //rev satisfies $r/name/text() = \"Pluto\"")

let test_some_multi_binding () =
  checkb "pair" true
    (ebool
       "some $a in //rev, $b in //rev satisfies $a/name/text() != $b/name/text()");
  checkb "nested dependency" true
    (ebool "some $r in //rev, $s in $r/sub satisfies $s/title/text() = \"T3\"")

let test_every () =
  checkb "every rev has a sub" true
    (ebool "every $r in //rev satisfies count($r/sub) >= 1");
  checkb "not every rev has two subs" false
    (ebool "every $r in //rev satisfies count($r/sub) = 2")

let test_some_over_empty () =
  checkb "some over empty is false" false
    (ebool "some $x in //nonexistent satisfies true()");
  checkb "every over empty is true" true
    (ebool "every $x in //nonexistent satisfies false()")

(* ------------------------------------------------------------------ *)
(* FLWOR                                                               *)
(* ------------------------------------------------------------------ *)

let test_flwor_basic () =
  match eval "for $s in //sub return $s/title/text()" with
  | E.Nodes ns -> checki "four titles" 3 (List.length ns)
  | _ -> Alcotest.fail "expected nodes"

let test_flwor_where () =
  match eval "for $s in //sub where $s/auts/name/text() = \"Mickey\" return $s" with
  | E.Nodes ns -> checki "two Mickey subs" 2 (List.length ns)
  | _ -> Alcotest.fail "expected nodes"

let test_flwor_let_count () =
  checkb "let + count" true
    (ebool "exists(for $r in //rev let $d := $r/sub where count($d) > 1 return <idle/>)");
  checkb "threshold too high" false
    (ebool "exists(for $r in //rev let $d := $r/sub where count($d) > 2 return <idle/>)")

let test_flwor_nested_for () =
  match eval "for $r in //rev for $s in $r/sub return $s" with
  | E.Nodes ns -> checki "flattened product" 3 (List.length ns)
  | _ -> Alcotest.fail "expected nodes"

let test_constructor () =
  (match eval "<idle/>" with
   | E.Str s -> checks "constructor form" "<idle/>" s
   | _ -> Alcotest.fail "expected serialized element");
  checkb "exists of constructed sequence" true
    (ebool "exists(for $t in //track return <hit/>)")

let test_if () =
  checkb "if then else" true
    (ebool "if (count(//rev) = 2) then true() else false()")

(* ------------------------------------------------------------------ *)
(* Parameters                                                          *)
(* ------------------------------------------------------------------ *)

let test_params_data () =
  let params = [ ("n", E.Str "Goofy") ] in
  checkb "author equals param" true (ebool ~params "//auts/name/text() = %n");
  checkb "unknown name" false
    (ebool ~params:[ ("n", E.Str "Scrooge") ] "//auts/name/text() = %n")

let test_params_node () =
  let rev1 =
    match Xic_xpath.Eval.select doc (Xic_xpath.Parser.parse "/review/track[1]/rev[1]") with
    | n :: _ -> n
    | [] -> Alcotest.fail "no rev"
  in
  let params = [ ("anchor", E.Nodes [ rev1 ]) ] in
  checkb "path from node param" true (ebool ~params "%anchor/name/text() = \"Goofy\"");
  checkb "count from node param" true (ebool ~params "count(%anchor/sub) = 2")

let test_params_missing () =
  match ebool "//rev/name/text() = %nope" with
  | exception Q.Eval.Eval_error _ -> ()
  | _ -> Alcotest.fail "expected unbound parameter error"

let test_count_distinct () =
  checkb "distinct author names" true (ebool "count-distinct(//auts/name/text()) = 2");
  checkb "plain count differs" true (ebool "count(//auts/name/text()) = 3");
  (* Element nodes are distinct term instances even when their content
     coincides (two [auts] both read "Mickey") — the Datalog Cnt_D counts
     node identities, and the XQuery route must agree. *)
  checkb "content-identical elements stay distinct" true
    (ebool "count-distinct(//auts) = 3")

(* ------------------------------------------------------------------ *)
(* Parser round-trips                                                  *)
(* ------------------------------------------------------------------ *)

let roundtrip_cases =
  [
    "some $Ir in //rev, $H in //aut satisfies $H/name/text() = $Ir/name/text()";
    "exists(for $lr in //rev let $D := $lr/sub where count($D) > 4 return <idle/>)";
    "some $D in //aut satisfies $D/name/text() = %n and count(//sub) >= %k";
    "every $x in //track satisfies count($x/rev) > 0";
    "if (count(//a) = 1) then true() else false()";
    "%anchor/name/text() = %n";
  ]

let test_roundtrip () =
  List.iter
    (fun s ->
      let e = Q.Parser.parse s in
      let s' = Q.Ast.to_string e in
      let e' = Q.Parser.parse s' in
      Alcotest.(check bool) (s ^ " => " ^ s') true (e = e'))
    roundtrip_cases

let test_params_listing () =
  let e = Q.Parser.parse "some $a in //rev satisfies $a/name/text() = %n and count(%anchor/sub) > %k" in
  Alcotest.(check (list string)) "params in order" [ "n"; "anchor"; "k" ] (Q.Ast.params e)

let test_parse_errors () =
  let fails s =
    match Q.Parser.parse s with
    | exception Q.Parser.Parse_error _ -> true
    | _ -> false
  in
  checkb "missing satisfies" true (fails "some $x in //a");
  checkb "missing return" true (fails "for $x in //a where true()");
  checkb "bad binding" true (fails "for x in //a return $x");
  checkb "mismatched constructor" true (fails "<a>{1}</b>")

(* ------------------------------------------------------------------ *)
(* Second wave                                                         *)
(* ------------------------------------------------------------------ *)

let test_let_shadowing () =
  checkb "inner let shadows outer" true
    (ebool
       "exists(for $r in //rev let $x := $r/sub let $x := $r/name where \
        count($x) = 1 return <i/>)")

let test_nested_quantifiers () =
  checkb "nested some" true
    (ebool
       "some $t in //track satisfies some $r in $t/rev satisfies \
        count($r/sub) >= 2");
  checkb "some under every" true
    (ebool
       "every $r in //rev satisfies some $s in $r/sub satisfies \
        count($s/auts) >= 1")

let test_flwor_multiple_where_bindings () =
  match
    eval
      "for $r in //rev, $s in $r/sub where $s/auts/name/text() = \
       $r/name/text() return $s"
  with
  | E.Nodes ns -> checki "self-reviewed subs" 1 (List.length ns)
  | _ -> Alcotest.fail "expected nodes"

let test_seq_result_concat () =
  match eval "for $t in //track return ($t/name/text(), $t/rev/name/text())" with
  | E.Nodes ns -> checki "interleaved names" 3 (List.length ns)
  | v ->
    Alcotest.fail
      ("expected nodes, got " ^ Xic_xpath.Eval.string_value doc v)

let test_if_inside_flwor () =
  checkb "if in where" true
    (ebool
       "exists(for $r in //rev where (if (count($r/sub) > 1) then true() \
        else false()) return <i/>)")

let test_constructor_with_content () =
  match eval "<wrap>{count(//sub)}</wrap>" with
  | E.Str s -> checks "constructed" "<wrap>3</wrap>" s
  | _ -> Alcotest.fail "expected serialized element"

let test_param_arithmetic () =
  let params = [ ("k", E.Num 2.0) ] in
  checkb "param in arithmetic" true (ebool ~params "count(//rev) = %k");
  checkb "param in comparison chain" true (ebool ~params "%k + 1 = 3")

let test_deep_param_in_path_predicate () =
  let params = [ ("n", E.Str "Minnie") ] in
  checkb "param inside qualifier" true (ebool ~params "exists(//rev[name/text() = %n])")

let test_every_vacuous_and_empty_exists () =
  checkb "exists empty flwor" false
    (ebool "exists(for $x in //track where count($x/rev) > 99 return <i/>)")

(* The innermost-level hash join pays off only across outer tuples: a
   single-binding quantifier answers its equality with an index probe
   and --explain shows no join; two bindings keep it.  Verdicts agree
   either way. *)
let test_join_needs_two_bindings () =
  let has_join q =
    let plan = Q.Eval.describe (Q.Parser.parse q) in
    String.split_on_char '\n' plan
    |> List.exists (fun l -> String.starts_with ~prefix:"join:" (String.trim l))
  in
  let single =
    {|some $a in //auts satisfies $a/name/text() = "Mickey" and $a/../title/text() = "T3"|}
  in
  let double =
    {|some $r in //rev, $a in //auts satisfies $a/name/text() = $r/name/text()|}
  in
  checkb "single binding: no join" false (has_join single);
  checkb "two bindings: join" true (has_join double);
  let idx = Index.create doc in
  List.iter
    (fun q ->
      checkb q (ebool q) (Q.Eval.eval_bool doc ~index:idx (Q.Parser.parse q)))
    [ single; double ]

(* --explain prints the plan that runs.  A single-binding quantifier or
   a one-[for] FLWOR narrows its binding once per evaluation, so the
   probes one indexed evaluation makes equal the [index probe] lines of
   its plan.  So does a two-binding join: its outer binding narrows once,
   and its deepest one is answered from the hash table, its probe line
   labelled as the join's fallback.  A comparand that mentions the bound
   variable, or one bound after it, cannot drive a probe and must not be
   printed as one. *)
let probes_of_run q =
  let module M = Xic_obs.Obs.Metrics in
  let c = M.counter "eval_index_probes" in
  let saved = !M.detailed in
  M.set_detailed true;
  Fun.protect
    ~finally:(fun () -> M.set_detailed saved)
    (fun () ->
      let before = M.value c in
      let v = Q.Eval.eval_bool doc ~index:(Index.create doc) (Q.Parser.parse q) in
      (v, M.value c - before))

(* "bind $v @i: index probe …" and "for $v: index probe …" lines *)
let probe_lines q =
  String.split_on_char '\n' (Q.Eval.describe (Q.Parser.parse q))
  |> List.filter (fun l ->
         match String.index_opt l ':' with
         | Some i ->
           String.starts_with ~prefix:": index probe "
             (String.sub l i (String.length l - i))
         | None -> false)
  |> List.length

let test_explain_matches_run () =
  List.iter
    (fun q ->
      let v, probes = probes_of_run q in
      checki q (probe_lines q) probes;
      checkb ("verdict of " ^ q) (ebool q) v)
    [ {|some $r in //rev, $a in //auts satisfies $a/name/text() = $r/name/text()|};
      {|some $t in //track, $r in //rev satisfies $t/name/text() = "DB" and $r/name/text() = $t/rev/name/text()|};
      {|some $r in //rev satisfies $r/sub/auts/name/text() = $r/name/text()|};
      {|some $r in //rev satisfies $r/name/text() = "Minnie"|};
      {|some $r in //rev satisfies $r/../name/text() = "DB" and $r/name/text() = "Goofy"|};
      {|some $s in //sub satisfies $s/auts/name/text() = $s/../name/text()|};
      {|exists(for $r in //rev where $r/name/text() = "Minnie" return <i/>)|};
      {|exists(for $r in //rev let $n := $r/sub/auts/name/text() where $r/name/text() = $n return <i/>)|};
      {|count(for $t in //track where $t/rev/name/text() = "Goofy" return $t) = 1|} ]

(* A comparand naming a variable bound after the probed one must not
   drive a probe even when an outer scope binds the same name: probing
   with the outer [$b] (a rev, which has no auts) would drop every
   candidate, and the indexed verdict would differ from the scan. *)
let test_later_variable_never_probes () =
  let q =
    {|some $b in //rev satisfies exists(for $a in //rev, $b in //sub where $a/name/text() = $b/auts/name/text() return <i/>)|}
  in
  checkb "scan verdict" true (ebool q);
  checkb "indexed verdict" true
    (Q.Eval.eval_bool doc ~index:(Index.create doc) (Q.Parser.parse q))

(* A chain of child hops probes the index on its last hop and walks the
   parents back up to the bound candidate. *)
let test_chain_probe () =
  List.iter
    (fun (author, expected) ->
      let q =
        Printf.sprintf {|some $r in //rev satisfies $r/sub/auts/name/text() = "%s"|}
          author
      in
      checki ("one probe line: " ^ q) 1 (probe_lines q);
      let v, probes = probes_of_run q in
      checki ("one probe: " ^ q) 1 probes;
      checkb ("scan verdict: " ^ q) expected (ebool q);
      checkb ("indexed verdict: " ^ q) expected v)
    [ ("Mickey", true); ("Goofy", true); ("Pluto", false) ]

let () =
  Alcotest.run "xquery"
    [
      ( "quantifiers",
        [
          Alcotest.test_case "some basic" `Quick test_some_basic;
          Alcotest.test_case "some multi-binding" `Quick test_some_multi_binding;
          Alcotest.test_case "every" `Quick test_every;
          Alcotest.test_case "empty domains" `Quick test_some_over_empty;
          Alcotest.test_case "join needs two bindings" `Quick
            test_join_needs_two_bindings;
          Alcotest.test_case "explain matches the run" `Quick
            test_explain_matches_run;
          Alcotest.test_case "chain probe" `Quick test_chain_probe;
          Alcotest.test_case "a later variable never probes" `Quick
            test_later_variable_never_probes;
        ] );
      ( "flwor",
        [
          Alcotest.test_case "basic" `Quick test_flwor_basic;
          Alcotest.test_case "where" `Quick test_flwor_where;
          Alcotest.test_case "let + count" `Quick test_flwor_let_count;
          Alcotest.test_case "nested for" `Quick test_flwor_nested_for;
          Alcotest.test_case "constructor" `Quick test_constructor;
          Alcotest.test_case "if" `Quick test_if;
        ] );
      ( "parameters",
        [
          Alcotest.test_case "data params" `Quick test_params_data;
          Alcotest.test_case "node params" `Quick test_params_node;
          Alcotest.test_case "missing param" `Quick test_params_missing;
          Alcotest.test_case "count-distinct" `Quick test_count_distinct;
        ] );
      ( "parser",
        [
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "params listing" `Quick test_params_listing;
          Alcotest.test_case "errors" `Quick test_parse_errors;
        ] );
      ( "edge cases",
        [
          Alcotest.test_case "let shadowing" `Quick test_let_shadowing;
          Alcotest.test_case "nested quantifiers" `Quick test_nested_quantifiers;
          Alcotest.test_case "multi-binding where" `Quick test_flwor_multiple_where_bindings;
          Alcotest.test_case "sequence results" `Quick test_seq_result_concat;
          Alcotest.test_case "if inside flwor" `Quick test_if_inside_flwor;
          Alcotest.test_case "constructor content" `Quick test_constructor_with_content;
          Alcotest.test_case "param arithmetic" `Quick test_param_arithmetic;
          Alcotest.test_case "param in qualifier" `Quick test_deep_param_in_path_predicate;
          Alcotest.test_case "empty flwor exists" `Quick test_every_vacuous_and_empty_exists;
        ] );
    ]
