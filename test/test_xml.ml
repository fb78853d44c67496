open Xic_xml

let parse s = (Xml_parser.parse_string s).Xml_parser.doc

let check = Alcotest.(check string)
let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Doc arena                                                           *)
(* ------------------------------------------------------------------ *)

let test_build_tree () =
  let d = Doc.create () in
  let root = Doc.make_element d "a" in
  Doc.set_root d root;
  let b = Doc.make_element d "b" in
  let t = Doc.make_text d "hi" in
  Doc.append_child d ~parent:root b;
  Doc.append_child d ~parent:b t;
  checki "node count" 3 (Doc.node_count d);
  check "text content" "hi" (Doc.text_content d root);
  checki "parent of b" root (Doc.parent d b);
  checkb "b is element" true (Doc.is_element d b);
  checkb "t is text" true (Doc.is_text d t)

let test_positions () =
  let d = parse "<r><a/><b/><a/><b/></r>" in
  let kids = Doc.element_children d (Doc.root d) in
  checki "four children" 4 (List.length kids);
  List.iteri
    (fun i c -> checki (Printf.sprintf "pos %d" i) (i + 1) (Doc.position d c))
    kids

let test_insert_after () =
  let d = parse "<r><a/><c/></r>" in
  let kids = Doc.children d (Doc.root d) in
  let a = List.nth kids 0 in
  let b = Doc.make_element d "b" in
  Doc.insert_after d ~anchor:a b;
  let names = List.map (Doc.name d) (Doc.children d (Doc.root d)) in
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] names;
  checki "position of b" 2 (Doc.position d b)

let test_insert_before () =
  let d = parse "<r><a/><c/></r>" in
  let c = List.nth (Doc.children d (Doc.root d)) 1 in
  let b = Doc.make_element d "b" in
  Doc.insert_before d ~anchor:c b;
  let names = List.map (Doc.name d) (Doc.children d (Doc.root d)) in
  Alcotest.(check (list string)) "order" [ "a"; "b"; "c" ] names

let test_detach_reattach () =
  let d = parse "<r><a/><b/><c/></r>" in
  let b = List.nth (Doc.children d (Doc.root d)) 1 in
  Doc.detach d b;
  checki "two children" 2 (List.length (Doc.children d (Doc.root d)));
  checkb "b alive" true (Doc.live d b);
  let a = List.nth (Doc.children d (Doc.root d)) 0 in
  Doc.insert_after d ~anchor:a b;
  Alcotest.(check (list string)) "restored" [ "a"; "b"; "c" ]
    (List.map (Doc.name d) (Doc.children d (Doc.root d)))

let test_delete_subtree () =
  let d = parse "<r><a><x/><y/></a><b/></r>" in
  let a = List.nth (Doc.children d (Doc.root d)) 0 in
  let before = Doc.node_count d in
  Doc.delete_subtree d a;
  checki "freed three nodes" (before - 3) (Doc.node_count d);
  checkb "a dead" false (Doc.live d a)

let test_doc_order () =
  let d = parse "<r><a><x/></a><b><y/><z/></b></r>" in
  let all = Doc.descendant_or_self d (Doc.root d) in
  let sorted = Doc.sort_doc_order d (List.rev all) in
  Alcotest.(check (list int)) "document order stable" all sorted

let test_multi_root_order () =
  let d = Doc.create () in
  let r1 = Doc.make_element d "one" in
  let r2 = Doc.make_element d "two" in
  (* register in reverse allocation order *)
  Doc.add_root d r2;
  Doc.add_root d r1;
  Alcotest.(check (list int)) "collection order" [ r2; r1 ]
    (Doc.sort_doc_order d [ r1; r2 ])

let test_siblings () =
  let d = parse "<r><a/><b/><c/><d/></r>" in
  let kids = Doc.children d (Doc.root d) in
  let c = List.nth kids 2 in
  Alcotest.(check (list string)) "following" [ "d" ]
    (List.map (Doc.name d) (Doc.following_siblings d c));
  Alcotest.(check (list string)) "preceding" [ "a"; "b" ]
    (List.map (Doc.name d) (Doc.preceding_siblings d c))

let test_ancestors () =
  let d = parse "<r><a><b><c/></b></a></r>" in
  let c = List.hd (Doc.descendants d (Doc.root d) |> List.filter (fun n ->
      Doc.is_element d n && Doc.name d n = "c")) in
  Alcotest.(check (list string)) "ancestors nearest-first" [ "b"; "a"; "r" ]
    (List.map (Doc.name d) (Doc.ancestors d c))

let test_attrs () =
  let d = parse {|<r id="1" lang="en"><a id="2"/></r>|} in
  check "root id" "1" (Option.get (Doc.attr d (Doc.root d) "id"));
  check "lang" "en" (Option.get (Doc.attr d (Doc.root d) "lang"))

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let test_parse_basic () =
  let d = parse "<a><b>x</b><c/></a>" in
  check "root" "a" (Doc.name d (Doc.root d));
  check "text" "x" (Doc.text_content d (Doc.root d))

let test_parse_entities () =
  let d = parse "<a>&lt;&amp;&gt;&quot;&apos;&#65;&#x42;</a>" in
  check "entities" "<&>\"'AB" (Doc.text_content d (Doc.root d))

let test_parse_cdata () =
  let d = parse "<a><![CDATA[<not> & markup]]></a>" in
  check "cdata" "<not> & markup" (Doc.text_content d (Doc.root d))

let test_parse_comments_pis () =
  let d = parse "<?xml version=\"1.0\"?><!-- c --><a><!-- inner --><?pi data?>x</a><!-- post -->" in
  check "text" "x" (Doc.text_content d (Doc.root d))

let test_parse_doctype () =
  let r = Xml_parser.parse_string "<!DOCTYPE a [<!ELEMENT a (#PCDATA)>]><a>x</a>" in
  checkb "dtd captured" true (r.Xml_parser.dtd_text <> None);
  checkb "decl present" true
    (match r.Xml_parser.dtd_text with
     | Some t ->
       let rec find i =
         i + 9 <= String.length t
         && (String.sub t i 9 = "<!ELEMENT" || find (i + 1))
       in
       find 0
     | None -> false)

let test_parse_ws_handling () =
  let d = parse "<a>\n  <b>x</b>\n</a>" in
  checki "whitespace dropped" 1 (List.length (Doc.children d (Doc.root d)));
  let d2 = (Xml_parser.parse_string ~keep_ws:true "<a>\n  <b>x</b>\n</a>").Xml_parser.doc in
  checki "whitespace kept" 3 (List.length (Doc.children d2 (Doc.root d2)))

let test_parse_errors () =
  let fails s =
    match Xml_parser.parse_string s with
    | exception Xml_parser.Parse_error _ -> true
    | _ -> false
  in
  checkb "mismatched tag" true (fails "<a></b>");
  checkb "unterminated" true (fails "<a>");
  checkb "double root" true (fails "<a/><b/>");
  checkb "bad entity" true (fails "<a>&nosuch;</a>");
  checkb "garbage after root" true (fails "<a/>junk")

(* Locations are now recomputed lazily from the failure byte offset;
   these pin the exact line/col values the eager per-character tracker
   produced, so the lazy path is observably identical. *)
let test_parse_error_locations () =
  let loc s =
    match Xml_parser.parse_string s with
    | exception Xml_parser.Parse_error { line; col; _ } -> (line, col)
    | _ -> Alcotest.failf "expected Parse_error on %S" s
  in
  let checklc what want s = Alcotest.(check (pair int int)) what want (loc s) in
  checklc "mismatched close, one line" (1, 10) "<a><b></a>";
  checklc "mismatched close, line 3" (3, 4) "<a>\n  <b>\n</a>";
  checklc "mismatched close after attrs" (3, 8)
    "<root>\n<child attr=\"v\">text\n</wrong>\n</root>";
  checklc "unknown entity" (1, 12) "<a>&nosuch;</a>";
  checklc "unterminated attribute" (1, 9) "<a x='1>";
  checklc "content after root" (1, 5) "<a/><b/>";
  checklc "eof inside element" (1, 4) "<a>";
  checklc "text before root" (1, 1) "line1\n<a/>"

let test_charref_edges () =
  let text s =
    let d = parse s in
    Doc.text_content d (Doc.root d)
  in
  check "hex lower and upper X" "AB" (text "<a>&#x41;&#X42;</a>");
  check "decimal + hex markup chars" "A<" (text "<a>&#65;&#x3C;</a>");
  let fails s =
    match Xml_parser.parse_string s with
    | exception Xml_parser.Parse_error _ -> true
    | _ -> false
  in
  checkb "unterminated entity" true (fails "<a>&amp</a>");
  checkb "empty entity" true (fails "<a>&;</a>");
  checkb "bad hex digits" true (fails "<a>&#xZZ;</a>");
  checkb "empty charref" true (fails "<a>&#;</a>")

let test_attr_quoting () =
  let d = parse "<a k=\"it's\" m='say \"hi\"'/>" in
  let r = Doc.root d in
  check "double-quoted keeps single quote" "it's" (Option.get (Doc.attr d r "k"));
  check "single-quoted keeps double quote" "say \"hi\""
    (Option.get (Doc.attr d r "m"));
  Alcotest.(check (list string))
    "declaration order preserved" [ "k"; "m" ]
    (List.map fst (Doc.attrs d r))

let test_mixed_content_parse () =
  let d = parse "<a>pre<b>mid</b>post</a>" in
  let r = Doc.root d in
  check "mixed text" "premidpost" (Doc.text_content d r);
  checki "three children" 3 (List.length (Doc.children d r))

(* The loader parses one document into an existing arena: the root
   comes back detached, and only [Doc.add_root] makes it reachable. *)
let test_parse_into_arena () =
  let d = parse "<r/>" in
  let n = Doc.node_count d in
  let two, _ = Xml_parser.parse_document_into d "<two><a>1</a><b/></two>" in
  checki "nodes allocated" (n + 4) (Doc.node_count d);
  checkb "detached" true (Doc.parent d two = Doc.no_node);
  checki "one root before attach" 1 (List.length (Doc.roots d));
  Doc.add_root d two;
  checki "two roots" 2 (List.length (Doc.roots d));
  check "attached" "1" (Doc.text_content d two);
  check "old root intact" "" (Doc.text_content d (Doc.root d))

let test_parse_into_one_root () =
  let d = parse "<r/>" in
  let fails s =
    match Xml_parser.parse_document_into d s with
    | _ -> false
    | exception Xml_parser.Parse_error _ -> true
  in
  checkb "two roots refused" true (fails "<a>1</a><b/>");
  checkb "text only refused" true (fails "just text");
  checki "no root registered" 1 (List.length (Doc.roots d))

(* ------------------------------------------------------------------ *)
(* Printer                                                             *)
(* ------------------------------------------------------------------ *)

let test_print_escapes () =
  let d = Doc.create () in
  let r = Doc.make_element d ~attrs:[ ("k", "a\"b<c") ] "r" in
  Doc.set_root d r;
  Doc.append_child d ~parent:r (Doc.make_text d "x<y&z");
  let s = Xml_printer.to_string d in
  check "escaped" "<r k=\"a&quot;b&lt;c\">x&lt;y&amp;z</r>" s

let test_roundtrip_fixed () =
  let src = "<dblp><pub><title>Duck &amp; Cover</title><aut><name>Goofy</name></aut></pub></dblp>" in
  let d = parse src in
  let d2 = parse (Xml_printer.to_string d) in
  checkb "roundtrip" true (Doc.equal_structure d d2)

(* Random tree generator for property tests; attribute values cover the
   characters the printer must escape. *)
let gen_doc =
  let open QCheck2.Gen in
  let tag = oneofl [ "a"; "b"; "c"; "d" ] in
  let text = oneofl [ "x"; "hello"; "a&b"; "<tag>"; "it's \"quoted\"" ] in
  let attrs =
    map
      (List.sort_uniq (fun (a, _) (b, _) -> compare (a : string) b))
      (list_size (int_bound 2)
         (pair
            (oneofl [ "k"; "id"; "v" ])
            (oneofl [ "1"; "a&b"; "it's"; "say \"hi\""; "<x>" ])))
  in
  let rec tree depth =
    if depth = 0 then map (fun t -> `Text t) text
    else
      frequency
        [ (1, map (fun t -> `Text t) text);
          (3,
           map3
             (fun t al kids -> `Elem (t, al, kids))
             tag attrs
             (list_size (int_bound 3) (tree (depth - 1))));
        ]
  in
  map3
    (fun t al kids -> `Elem (t, al, kids))
    tag attrs
    (list_size (int_bound 4) (tree 2))

let build_doc spec =
  let d = Doc.create () in
  let rec go = function
    | `Text t -> Doc.make_text d t
    | `Elem (tag, attrs, kids) ->
      let e = Doc.make_element d ~attrs tag in
      List.iter (fun k -> Doc.append_child d ~parent:e (go k)) kids;
      e
  in
  (match spec with
   | `Elem _ -> Doc.set_root d (go spec)
   | `Text _ -> Doc.set_root d (go (`Elem ("r", [], [ spec ]))));
  d

let prop_roundtrip =
  QCheck2.Test.make ~name:"print/parse round-trip" ~count:200 gen_doc (fun spec ->
      let d = build_doc spec in
      (* keep_ws: generated text may be whitespace-like *)
      let d2 = (Xml_parser.parse_string ~keep_ws:true (Xml_printer.to_string d)).Xml_parser.doc in
      (* Adjacent text nodes merge on reparse; compare text and element
         structure via serialization idempotence instead. *)
      Xml_printer.to_string d2 = Xml_printer.to_string d)

(* ------------------------------------------------------------------ *)
(* DTD                                                                 *)
(* ------------------------------------------------------------------ *)

let rev_dtd = Xic_workload.Conference.rev_dtd

let test_dtd_parse () =
  let d = Dtd.parse rev_dtd in
  Alcotest.(check (list string))
    "elements"
    [ "review"; "track"; "name"; "rev"; "sub"; "title"; "auts" ]
    (Dtd.element_names d);
  checkb "name pcdata" true (Dtd.is_pcdata_only d "name");
  checkb "track not pcdata" false (Dtd.is_pcdata_only d "track")

let test_dtd_multiplicity () =
  let d = Dtd.parse rev_dtd in
  let m parent child = Dtd.child_multiplicity d ~parent ~child in
  Alcotest.(check bool) "track/name one" true (m "track" "name" = Dtd.M_one);
  Alcotest.(check bool) "track/rev many" true (m "track" "rev" = Dtd.M_many);
  Alcotest.(check bool) "track/sub none" true (m "track" "sub" = Dtd.M_none);
  Alcotest.(check bool) "sub/title one" true (m "sub" "title" = Dtd.M_one)

let test_dtd_multiplicity_opt () =
  let d = Dtd.parse "<!ELEMENT a (b?, c*)><!ELEMENT b EMPTY><!ELEMENT c EMPTY>" in
  Alcotest.(check bool) "b opt" true (Dtd.child_multiplicity d ~parent:"a" ~child:"b" = Dtd.M_opt);
  Alcotest.(check bool) "c many" true (Dtd.child_multiplicity d ~parent:"a" ~child:"c" = Dtd.M_many)

let test_dtd_choice_multiplicity () =
  let d = Dtd.parse "<!ELEMENT a (b | c)><!ELEMENT b EMPTY><!ELEMENT c EMPTY>" in
  Alcotest.(check bool) "choice branch is optional" true
    (Dtd.child_multiplicity d ~parent:"a" ~child:"b" = Dtd.M_opt)

let test_dtd_parents_descendants () =
  let d = Dtd.parse rev_dtd in
  Alcotest.(check (list string)) "parents of name" [ "auts"; "rev"; "track" ]
    (List.sort compare (Dtd.parents_of d "name"));
  checkb "sub below review" true (List.mem "sub" (Dtd.descendant_types d "review"))

let test_dtd_validate_ok () =
  let d = Dtd.parse rev_dtd in
  let doc = parse "<review><track><name>T</name><rev><name>R</name><sub><title>S</title><auts><name>A</name></auts></sub></rev></track></review>" in
  Alcotest.(check bool) "valid" true (Dtd.validate d doc = Ok ())

let test_dtd_validate_bad_order () =
  let d = Dtd.parse rev_dtd in
  let doc = parse "<review><track><rev><name>R</name><sub><title>S</title><auts><name>A</name></auts></sub></rev><name>T</name></track></review>" in
  checkb "wrong order rejected" true (Dtd.validate d doc <> Ok ())

let test_dtd_validate_missing_child () =
  let d = Dtd.parse rev_dtd in
  let doc = parse "<review><track><name>T</name></track></review>" in
  checkb "missing rev rejected" true (Dtd.validate d doc <> Ok ())

let test_dtd_validate_undeclared () =
  let d = Dtd.parse rev_dtd in
  let doc = parse "<review><bogus/></review>" in
  checkb "undeclared rejected" true (Dtd.validate d doc <> Ok ())

let test_dtd_attlist () =
  let d = Dtd.parse "<!ELEMENT a EMPTY><!ATTLIST a id CDATA #REQUIRED note CDATA #IMPLIED>" in
  (match Dtd.find d "a" with
   | Some decl ->
     checki "two attrs" 2 (List.length decl.Dtd.attlist);
     checkb "id required" true
       (List.exists (fun (x : Dtd.attr_decl) -> x.Dtd.attr_name = "id" && x.Dtd.required)
          decl.Dtd.attlist)
   | None -> Alcotest.fail "a not declared");
  let doc = parse "<a/>" in
  checkb "missing required attr" true (Dtd.validate d doc <> Ok ());
  let doc2 = parse "<a id=\"1\"/>" in
  checkb "with required attr" true (Dtd.validate d doc2 = Ok ())

let test_dtd_roundtrip () =
  let d = Dtd.parse rev_dtd in
  let d2 = Dtd.parse (Dtd.to_string d) in
  Alcotest.(check (list string)) "same elements" (Dtd.element_names d) (Dtd.element_names d2);
  List.iter2
    (fun (a : Dtd.element_decl) (b : Dtd.element_decl) ->
      checkb ("decl " ^ a.Dtd.elem_name) true (a.Dtd.content = b.Dtd.content))
    (Dtd.declarations d) (Dtd.declarations d2)

let test_dtd_content_star () =
  let d = Dtd.parse "<!ELEMENT l (i)*><!ELEMENT i (#PCDATA)>" in
  let ok n =
    let doc = parse ("<l>" ^ String.concat "" (List.init n (fun _ -> "<i>x</i>")) ^ "</l>") in
    Dtd.validate d doc = Ok ()
  in
  checkb "zero" true (ok 0);
  checkb "one" true (ok 1);
  checkb "many" true (ok 50)

let test_dtd_content_complex () =
  let d = Dtd.parse "<!ELEMENT a (b, (c | d)+, b?)><!ELEMENT b EMPTY><!ELEMENT c EMPTY><!ELEMENT d EMPTY>" in
  let ok s = Dtd.validate d (parse s) = Ok () in
  checkb "b c" true (ok "<a><b/><c/></a>");
  checkb "b c d b" true (ok "<a><b/><c/><d/><b/></a>");
  checkb "missing choice" false (ok "<a><b/></a>");
  checkb "b alone bad" false (ok "<a><c/></a>")

(* The list-based backtracking matcher validation used before content
   models were compiled: the set of child positions reachable after
   consuming a prefix that matches the particle.  Kept as the reference
   the compiled automata must agree with. *)
let matches_content p names =
  let arr = Array.of_list names in
  let n = Array.length arr in
  let dedup_pos l = List.sort_uniq compare l in
  let rec go p positions =
    match p with
    | Dtd.Name (name, occ) ->
      let once ps =
        List.filter_map (fun i -> if i < n && arr.(i) = name then Some (i + 1) else None) ps
      in
      with_occ occ once positions
    | Dtd.Seq (parts, occ) ->
      let once ps = List.fold_left (fun acc part -> go part acc) ps parts in
      with_occ occ once positions
    | Dtd.Choice (parts, occ) ->
      let once ps = dedup_pos (List.concat_map (fun part -> go part ps) parts) in
      with_occ occ once positions
  and with_occ occ once positions =
    match occ with
    | Dtd.One -> once positions
    | Dtd.Opt -> dedup_pos (positions @ once positions)
    | Dtd.Star -> star once positions
    | Dtd.Plus -> star once (once positions)
  and star once positions =
    let seen = Array.make (n + 2) false in
    List.iter (fun i -> seen.(i) <- true) positions;
    let frontier = ref positions in
    while !frontier <> [] do
      let next = once !frontier |> List.filter (fun i -> not seen.(i)) |> dedup_pos in
      List.iter (fun i -> seen.(i) <- true) next;
      frontier := next
    done;
    let acc = ref [] in
    for i = n + 1 downto 0 do
      if seen.(i) then acc := i :: !acc
    done;
    !acc
  in
  List.mem n (go p [ 0 ])

let test_dtd_group_whitespace () =
  let d = Dtd.parse "<!ELEMENT e ( a | b )*><!ELEMENT f ( a , b )><!ELEMENT a EMPTY><!ELEMENT b EMPTY>" in
  (match Dtd.find d "e" with
   | Some { Dtd.content = Dtd.Children (Dtd.Choice ([ Dtd.Name ("a", Dtd.One); Dtd.Name ("b", Dtd.One) ], Dtd.Star)); _ } -> ()
   | _ -> Alcotest.fail "( a | b )* misparsed");
  (match Dtd.find d "f" with
   | Some { Dtd.content = Dtd.Children (Dtd.Seq ([ Dtd.Name ("a", Dtd.One); Dtd.Name ("b", Dtd.One) ], Dtd.One)); _ } -> ()
   | _ -> Alcotest.fail "( a , b ) misparsed");
  checkb "e: b a b" true (Dtd.validate d (parse "<e><b/><a/><b/></e>") = Ok ());
  checkb "f: a b" true (Dtd.validate d (parse "<f><a/><b/></f>") = Ok ());
  checkb "f: b a" false (Dtd.validate d (parse "<f><b/><a/></f>") = Ok ())

let test_dtd_enumerated_attr () =
  let d =
    Dtd.parse
      "<!ELEMENT e EMPTY>\n\
       <!ATTLIST e kind (x|y) #REQUIRED mode ( on | off ) \"on\" id CDATA #IMPLIED>"
  in
  (match Dtd.find d "e" with
   | Some decl ->
     Alcotest.(check (list (pair string bool)))
       "attributes" [ ("kind", true); ("mode", false); ("id", false) ]
       (List.map (fun (a : Dtd.attr_decl) -> (a.Dtd.attr_name, a.Dtd.required)) decl.Dtd.attlist)
   | None -> Alcotest.fail "e not declared");
  checkb "missing kind" true (Dtd.validate d (parse "<e/>") <> Ok ());
  (* values are not checked against the enumeration *)
  checkb "any kind" true (Dtd.validate d (parse "<e kind=\"z\"/>") = Ok ())

(* [#] starts a keyword and never belongs to a name. *)
let test_dtd_hash_keywords () =
  let rejects src =
    match Dtd.parse src with _ -> false | exception Dtd.Parse_error _ -> true
  in
  checkb "#PCDATA inside element content" true
    (rejects "<!ELEMENT a (b, #PCDATA)><!ELEMENT b EMPTY>");
  checkb "element type named #x" true (rejects "<!ELEMENT #x (#PCDATA)>");
  checkb "unknown attribute default" true
    (rejects "<!ELEMENT a EMPTY><!ATTLIST a k CDATA #DEFAULT>");
  checkb "mixed content, #REQUIRED and #FIXED" false
    (rejects
       "<!ELEMENT a (#PCDATA | b)*><!ELEMENT b EMPTY>\n\
        <!ATTLIST b k CDATA #FIXED \"v\" m CDATA #REQUIRED>")

let test_dtd_message_order () =
  let d =
    Dtd.parse "<!ELEMENT r (a,b)><!ELEMENT a EMPTY><!ELEMENT b (#PCDATA)>"
  in
  Alcotest.(check (result unit string))
    "message"
    (Error
       "children of <r> [b a z] do not match its content model; <a> declared EMPTY \
        has content; undeclared element <z>")
    (Dtd.validate d (parse "<r><b/><a>t</a><z/></r>"))

(* Random content models over [a], [b], [c] against random child
   sequences over [a]..[d]: the compiled automaton (through [validate])
   accepts exactly what the reference matcher accepts. *)
let gen_model_case =
  let open QCheck2.Gen in
  let occur = oneofl Dtd.[ One; Opt; Star; Plus ] in
  let name = oneofl [ "a"; "b"; "c" ] in
  let particle =
    sized_size (int_bound 4)
    @@ fix (fun self n ->
           if n = 0 then map2 (fun s o -> Dtd.Name (s, o)) name occur
           else
             frequency
               [ (1, map2 (fun s o -> Dtd.Name (s, o)) name occur);
                 (2, map2 (fun ps o -> Dtd.Seq (ps, o)) (list_size (int_range 1 3) (self (n - 1))) occur);
                 (2, map2 (fun ps o -> Dtd.Choice (ps, o)) (list_size (int_range 1 3) (self (n - 1))) occur) ])
  in
  pair particle (list_size (int_bound 6) (oneofl [ "a"; "b"; "c"; "d" ]))

let prop_compiled_matches_reference =
  QCheck2.Test.make ~name:"compiled content model = reference matcher" ~count:2000
    gen_model_case (fun (p, kids) ->
      let leaf n = { Dtd.elem_name = n; content = Dtd.Empty; attlist = [] } in
      let d =
        Dtd.of_decls
          ({ Dtd.elem_name = "r"; content = Dtd.Children p; attlist = [] }
          :: List.map leaf [ "a"; "b"; "c"; "d" ])
      in
      let doc = parse ("<r>" ^ String.concat "" (List.map (Printf.sprintf "<%s/>") kids) ^ "</r>") in
      (Dtd.validate d doc = Ok ()) = matches_content p kids)

(* ------------------------------------------------------------------ *)
(* Second wave: edge cases                                             *)
(* ------------------------------------------------------------------ *)

let test_single_quoted_attrs () =
  let d = parse "<a k='v' empty=''/>" in
  check "single quotes" "v" (Option.get (Doc.attr d (Doc.root d) "k"));
  check "empty value" "" (Option.get (Doc.attr d (Doc.root d) "empty"))

let test_attr_entities () =
  let d = parse {|<a k="&lt;&amp;&quot;"/>|} in
  check "attr entities" "<&\"" (Option.get (Doc.attr d (Doc.root d) "k"))

let test_utf8_char_refs () =
  let d = parse "<a>&#233;&#x20AC;&#x1F600;</a>" in
  (* é = 2 bytes, € = 3 bytes, emoji = 4 bytes *)
  checki "utf8 lengths" 9 (String.length (Doc.text_content d (Doc.root d)))

let test_deep_nesting () =
  let depth = 2000 in
  let open Buffer in
  let b = create (depth * 8) in
  for _ = 1 to depth do add_string b "<d>" done;
  add_string b "x";
  for _ = 1 to depth do add_string b "</d>" done;
  let d = parse (contents b) in
  checki "deep tree node count" (depth + 1) (Doc.node_count d);
  check "text reachable" "x" (Doc.text_content d (Doc.root d));
  (* descendants and serialization survive the depth *)
  checki "descendants" depth (List.length (Doc.descendants d (Doc.root d)))

let test_wide_tree () =
  let n = 5000 in
  let src = "<r>" ^ String.concat "" (List.init n (fun i -> Printf.sprintf "<c>%d</c>" i)) ^ "</r>" in
  let d = parse src in
  checki "children" n (List.length (Doc.children d (Doc.root d)));
  let last = List.nth (Doc.children d (Doc.root d)) (n - 1) in
  checki "position of last" n (Doc.position d last)

let test_mixed_content_preserved () =
  let d = parse "<p>one <b>two</b> three</p>" in
  check "mixed text" "one two three" (Doc.text_content d (Doc.root d));
  checki "three children" 3 (List.length (Doc.children d (Doc.root d)))

let test_insert_before_first () =
  let d = parse "<r><b/></r>" in
  let b = List.hd (Doc.children d (Doc.root d)) in
  let a = Doc.make_element d "a" in
  Doc.insert_before d ~anchor:b a;
  Alcotest.(check (list string)) "prepended" [ "a"; "b" ]
    (List.map (Doc.name d) (Doc.children d (Doc.root d)))

let test_detach_root_forbidden_ops () =
  let d = parse "<r/>" in
  let c = Doc.make_element d "c" in
  (match Doc.insert_after d ~anchor:(Doc.root d) c with
   | exception Invalid_argument _ -> ()
   | () -> Alcotest.fail "sibling of root must fail")

let test_reattach_after_detach_elsewhere () =
  let d = parse "<r><a><x/></a><b/></r>" in
  let a = List.nth (Doc.children d (Doc.root d)) 0 in
  let x = List.hd (Doc.children d a) in
  Doc.detach d x;
  let b = List.nth (Doc.children d (Doc.root d)) 1 in
  Doc.append_child d ~parent:b x;
  checki "moved" 1 (List.length (Doc.children d b));
  checki "source empty" 0 (List.length (Doc.children d a))

let test_dtd_empty_any () =
  let d = Dtd.parse "<!ELEMENT e EMPTY><!ELEMENT a ANY><!ELEMENT r (e, a)>" in
  checkb "empty ok" true (Dtd.validate ~root:(Doc.root (parse "<r><e/><a><e/>text</a></r>"))
                            d (parse "<r><e/><a><e/>text</a></r>") = Ok ());
  checkb "empty with content" true
    (Dtd.validate d (parse "<r><e>x</e><a/></r>") <> Ok ())

let test_dtd_mixed_validation () =
  let d = Dtd.parse "<!ELEMENT p (#PCDATA | b | i)*><!ELEMENT b (#PCDATA)><!ELEMENT i (#PCDATA)>" in
  checkb "mixed ok" true (Dtd.validate d (parse "<p>a<b>c</b>d<i>e</i></p>") = Ok ());
  checkb "disallowed child" true (Dtd.validate d (parse "<p><u>x</u></p>") <> Ok ())

let test_dtd_nested_groups () =
  let d = Dtd.parse "<!ELEMENT r ((a, b)+ | c)><!ELEMENT a EMPTY><!ELEMENT b EMPTY><!ELEMENT c EMPTY>" in
  let ok s = Dtd.validate d (parse s) = Ok () in
  checkb "ab" true (ok "<r><a/><b/></r>");
  checkb "abab" true (ok "<r><a/><b/><a/><b/></r>");
  checkb "c" true (ok "<r><c/></r>");
  checkb "a alone" false (ok "<r><a/></r>");
  checkb "c after ab" false (ok "<r><a/><b/><c/></r>")

let test_dtd_descendants_recursive () =
  (* recursive content models must not loop *)
  let d = Dtd.parse "<!ELEMENT tree (leaf | tree)*><!ELEMENT leaf EMPTY>" in
  Alcotest.(check (list string)) "descendant types" [ "tree"; "leaf" ]
    (Dtd.descendant_types d "tree")

(* ------------------------------------------------------------------ *)
(* Secondary indexes                                                   *)
(* ------------------------------------------------------------------ *)

let checkl = Alcotest.(check (list int))

let test_index_lazy_build () =
  let d = parse "<r><b>x</b></r>" in
  let i = Index.create d in
  checkb "not built on create" false (Index.built i);
  let b = Doc.make_element d "b" in
  Doc.append_child d ~parent:(Doc.root d) b;
  checkb "mutation before first lookup leaves it unbuilt" false (Index.built i);
  checki "both b elements found" 2 (List.length (Index.by_name i "b"));
  checkb "built after first lookup" true (Index.built i)

let test_index_roots_excluded () =
  let d = parse "<r><a/><x><a/></x></r>" in
  let i = Index.create d in
  checki "by_name sees the root" 1 (List.length (Index.by_name i "r"));
  checkl "//r is empty (child steps never yield roots)" []
    (Index.descendants_named i (Doc.Symbol.intern "r"));
  checki "nested a's" 2
    (List.length (Index.descendants_named i (Doc.Symbol.intern "a")))

let test_index_detached_subtree () =
  let d = parse "<r><x><a/></x></r>" in
  let i = Index.create d in
  checki "a reachable" 1 (List.length (Index.by_name i "a"));
  let x = List.hd (Doc.children d (Doc.root d)) in
  Doc.detach d x;
  checkl "detached subtree invisible" [] (Index.by_name i "a");
  (* mutations inside the detached subtree are ignored by the tables *)
  let a2 = Doc.make_element d "a" in
  Doc.append_child d ~parent:x a2;
  checkl "still invisible" [] (Index.by_name i "a");
  (* reattaching brings the whole subtree (including a2) back *)
  Doc.append_child d ~parent:(Doc.root d) x;
  checki "both a's after reattach" 2 (List.length (Index.by_name i "a"));
  Doc.delete_subtree d x;
  checkl "deleted subtree gone" [] (Index.by_name i "a");
  checkb "consistent" true (Index.consistency_errors i = [])

(* The counters are process-wide registry cells: count by difference. *)
let test_index_stats () =
  let d = parse "<r><a/></r>" in
  let i = Index.create d in
  let s0 = Index.stats () in
  ignore (Index.by_name i "a" : Doc.node_id list);
  ignore (Index.by_name i "a" : Doc.node_id list);
  Index.note_fallback ();
  let st = Index.stats () in
  checki "two hits" 2 (st.Index.hits - s0.Index.hits);
  checkb "build counted as a miss" true (st.Index.misses > s0.Index.misses);
  checki "fallback recorded" 1 (st.Index.fallbacks - s0.Index.fallbacks);
  checki "the registry holds the count" st.Index.hits
    (List.assoc "index_hits" (fst (Xic_obs.Obs.Metrics.snapshot ())))

(* ------------------------------------------------------------------ *)
(* Document-order rank table                                           *)
(* ------------------------------------------------------------------ *)

let rank_builds = Xic_obs.Obs.Metrics.counter "index_rank_builds"

let reachable_nodes d =
  List.concat_map (Doc.descendant_or_self d) (Doc.roots d)

let audit what i =
  match Index.consistency_errors i with
  | [] -> ()
  | errs -> Alcotest.failf "%s: %s" what (String.concat "; " errs)

(* Sorting through the index (which builds the rank table if it is
   absent) agrees with the arena's own order on every sample, and the
   table then passes the audit. *)
let check_sorts what rng d i =
  let nodes = Array.of_list (reachable_nodes d) in
  for _ = 1 to 4 do
    let k = 2 + Random.State.int rng 6 in
    let ids = List.init k (fun _ -> nodes.(Random.State.int rng (Array.length nodes))) in
    checkl what (Doc.sort_doc_order d ids) (Index.sort_doc_order i ids)
  done;
  audit what i

(* A fresh subtree, built detached (its own attaches must leave the
   rank table alone): an element with an attribute and up to two
   children, each a text node, a pair of identical text nodes (one
   by_text key held twice) or an attributed element. *)
let fresh_subtree rng d n =
  let e =
    Doc.make_element d ~attrs:[ ("k", string_of_int (n mod 3)) ] (Printf.sprintf "n%d" n)
  in
  for j = 1 to Random.State.int rng 3 do
    let text () = Doc.make_text d (Printf.sprintf "t%d.%d" n j) in
    match Random.State.int rng 3 with
    | 0 -> Doc.append_child d ~parent:e (text ())
    | 1 -> Doc.append_children d ~parent:e [ text (); text () ]
    | _ ->
      let c = Doc.make_element d ~attrs:[ ("k", "w") ] "m" in
      Doc.append_child d ~parent:c (Doc.make_text d "v");
      Doc.append_child d ~parent:e c
  done;
  e

(* One entry of the test's undo log. *)
type undo =
  | Inserted of Doc.node_id list
  | Removed of { node : Doc.node_id; parent : Doc.node_id; prev : Doc.node_id }

(* Random inserts (every attach mutator), removals and rollbacks that
   re-attach removed subtrees where they were, in LIFO order as an undo
   log does, with the rank table and the value tables live throughout. *)
let test_index_rank_table_random () =
  for seed = 1 to 25 do
    let rng = Random.State.make [| seed |] in
    let d = parse "<r><a><b>x</b><c/></a><a><b>y</b>z</a><d/></r>" in
    let r2 = Doc.make_element d "q" in
    Doc.append_child d ~parent:r2 (Doc.make_element d "a");
    Doc.add_root d r2;
    let i = Index.create d in
    (* the audit compares the value tables only once they are built *)
    ignore (Index.by_name i "a");
    let log = ref [] in
    let what step = Printf.sprintf "seed %d step %d" seed step in
    check_sorts (what 0) rng d i;
    for step = 1 to 60 do
      let nodes = Array.of_list (reachable_nodes d) in
      let pick () = nodes.(Random.State.int rng (Array.length nodes)) in
      (match Random.State.int rng 4 with
       | 0 | 1 -> (
         let anchor = pick () in
         let e = fresh_subtree rng d step in
         let element = Doc.is_element d anchor in
         let child = Doc.parent d anchor <> Doc.no_node in
         match Random.State.int rng 4 with
         | 0 when element ->
           Doc.append_child d ~parent:anchor e;
           log := Inserted [ e ] :: !log
         | 1 when element ->
           let e2 = fresh_subtree rng d (100 + step) in
           Doc.append_children d ~parent:anchor [ e; e2 ];
           log := Inserted [ e; e2 ] :: !log
         | 2 when child ->
           Doc.insert_before d ~anchor e;
           log := Inserted [ e ] :: !log
         | _ when child ->
           Doc.insert_after d ~anchor e;
           log := Inserted [ e ] :: !log
         | _ -> ())
       | 2 ->
         let node = pick () in
         let parent = Doc.parent d node in
         if parent <> Doc.no_node then begin
           log := Removed { node; parent; prev = Doc.prev_sibling d node } :: !log;
           Doc.detach d node
         end
       | _ ->
         for _ = 1 to 1 + Random.State.int rng 3 do
           match !log with
           | [] -> ()
           | entry :: rest ->
             (match entry with
              | Inserted ns -> List.iter (Doc.detach d) (List.rev ns)
              | Removed { node; parent; prev } -> (
                if prev <> Doc.no_node then Doc.insert_after d ~anchor:prev node
                else
                  match Doc.children d parent with
                  | [] -> Doc.append_child d ~parent node
                  | first :: _ -> Doc.insert_before d ~anchor:first node));
             log := rest
         done);
      check_sorts (what step) rng d i
    done
  done

(* Inserting again and again at one spot halves the free gap each time:
   once it is used up the table is dropped and rebuilt, never
   overfilled. *)
let test_index_rank_gap_exhausted () =
  let d = parse "<r><a/><b/></r>" in
  let i = Index.create d in
  let rng = Random.State.make [| 7 |] in
  let b = List.nth (Doc.children d (Doc.root d)) 1 in
  check_sorts "initial" rng d i;
  let before = Xic_obs.Obs.Metrics.value rank_builds in
  for _ = 1 to 200 do
    Doc.insert_before d ~anchor:b (Doc.make_element d "x");
    check_sorts "after insert" rng d i
  done;
  checkb "the exhausted gap forced a rebuild" true
    (Xic_obs.Obs.Metrics.value rank_builds > before)

(* The root-level mutators fire events the table reacts to, and the bulk
   arena moves ([restore], [transplant]) announce their roots, so an
   index watching the destination never serves an empty document's
   tables. *)
let test_index_rank_root_paths () =
  let rng = Random.State.make [| 3 |] in
  let d = parse "<r><a><b/></a><c/></r>" in
  let i = Index.create d in
  check_sorts "initial" rng d i;
  let r2 = Doc.make_element d "s" in
  Doc.append_child d ~parent:r2 (Doc.make_element d "t");
  Doc.add_root d r2;
  check_sorts "after add_root" rng d i;
  Doc.set_root d r2;
  check_sorts "after set_root" rng d i;
  Doc.set_root d (Doc.make_element d "u");
  audit "after set_root to a fresh element" i;
  let src = parse "<r><a>x</a><a>y</a></r>" in
  let buf = Buffer.create 256 in
  Doc.serialize src buf;
  let remap = Array.init (Xic_symbol.Symbol.count ()) Xic_symbol.Symbol.unsafe_of_int in
  let restore_into d =
    Doc.restore d ~remap (Xic_symbol.Wire.cursor (Buffer.contents buf))
  in
  let moved what d i =
    checki (what ^ ": restored a elements indexed") 2
      (List.length (Index.by_name i "a"));
    check_sorts what rng d i
  in
  let d1 = Doc.create () in
  let i1 = Index.create d1 in
  checkl "empty" [] (Index.by_name i1 "a");
  restore_into d1;
  moved "restore" d1 i1;
  let d2 = Doc.create () in
  let i2 = Index.create d2 in
  checkl "empty" [] (Index.by_name i2 "a");
  let scratch = Doc.create () in
  restore_into scratch;
  Doc.transplant ~into:d2 scratch;
  moved "transplant" d2 i2

let () =
  Alcotest.run "xml"
    [
      ( "doc",
        [
          Alcotest.test_case "build tree" `Quick test_build_tree;
          Alcotest.test_case "positions" `Quick test_positions;
          Alcotest.test_case "insert after" `Quick test_insert_after;
          Alcotest.test_case "insert before" `Quick test_insert_before;
          Alcotest.test_case "detach/reattach" `Quick test_detach_reattach;
          Alcotest.test_case "delete subtree" `Quick test_delete_subtree;
          Alcotest.test_case "document order" `Quick test_doc_order;
          Alcotest.test_case "multi-root order" `Quick test_multi_root_order;
          Alcotest.test_case "siblings" `Quick test_siblings;
          Alcotest.test_case "ancestors" `Quick test_ancestors;
          Alcotest.test_case "attributes" `Quick test_attrs;
        ] );
      ( "parser",
        [
          Alcotest.test_case "basic" `Quick test_parse_basic;
          Alcotest.test_case "entities" `Quick test_parse_entities;
          Alcotest.test_case "cdata" `Quick test_parse_cdata;
          Alcotest.test_case "comments/PIs" `Quick test_parse_comments_pis;
          Alcotest.test_case "doctype" `Quick test_parse_doctype;
          Alcotest.test_case "whitespace" `Quick test_parse_ws_handling;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "error locations" `Quick
            test_parse_error_locations;
          Alcotest.test_case "charref edges" `Quick test_charref_edges;
          Alcotest.test_case "attr quoting" `Quick test_attr_quoting;
          Alcotest.test_case "mixed content" `Quick test_mixed_content_parse;
          Alcotest.test_case "parse into an arena" `Quick test_parse_into_arena;
          Alcotest.test_case "parse into takes one root" `Quick
            test_parse_into_one_root;
        ] );
      ( "printer",
        [
          Alcotest.test_case "escaping" `Quick test_print_escapes;
          Alcotest.test_case "roundtrip" `Quick test_roundtrip_fixed;
          QCheck_alcotest.to_alcotest prop_roundtrip;
        ] );
      ( "dtd",
        [
          Alcotest.test_case "parse" `Quick test_dtd_parse;
          Alcotest.test_case "multiplicity" `Quick test_dtd_multiplicity;
          Alcotest.test_case "multiplicity opt/star" `Quick test_dtd_multiplicity_opt;
          Alcotest.test_case "choice multiplicity" `Quick test_dtd_choice_multiplicity;
          Alcotest.test_case "parents/descendants" `Quick test_dtd_parents_descendants;
          Alcotest.test_case "validate ok" `Quick test_dtd_validate_ok;
          Alcotest.test_case "validate bad order" `Quick test_dtd_validate_bad_order;
          Alcotest.test_case "validate missing child" `Quick test_dtd_validate_missing_child;
          Alcotest.test_case "validate undeclared" `Quick test_dtd_validate_undeclared;
          Alcotest.test_case "attlist" `Quick test_dtd_attlist;
          Alcotest.test_case "roundtrip" `Quick test_dtd_roundtrip;
          Alcotest.test_case "star content" `Quick test_dtd_content_star;
          Alcotest.test_case "complex content" `Quick test_dtd_content_complex;
          Alcotest.test_case "whitespace inside groups" `Quick test_dtd_group_whitespace;
          Alcotest.test_case "enumerated attribute types" `Quick test_dtd_enumerated_attr;
          Alcotest.test_case "message order" `Quick test_dtd_message_order;
          Alcotest.test_case "# keywords are not names" `Quick test_dtd_hash_keywords;
          QCheck_alcotest.to_alcotest prop_compiled_matches_reference;
        ] );
      ( "edge cases",
        [
          Alcotest.test_case "single-quoted attrs" `Quick test_single_quoted_attrs;
          Alcotest.test_case "attr entities" `Quick test_attr_entities;
          Alcotest.test_case "utf8 char refs" `Quick test_utf8_char_refs;
          Alcotest.test_case "deep nesting" `Quick test_deep_nesting;
          Alcotest.test_case "wide tree" `Quick test_wide_tree;
          Alcotest.test_case "mixed content" `Quick test_mixed_content_preserved;
          Alcotest.test_case "insert before first" `Quick test_insert_before_first;
          Alcotest.test_case "no sibling of root" `Quick test_detach_root_forbidden_ops;
          Alcotest.test_case "move subtree" `Quick test_reattach_after_detach_elsewhere;
          Alcotest.test_case "EMPTY/ANY" `Quick test_dtd_empty_any;
          Alcotest.test_case "mixed validation" `Quick test_dtd_mixed_validation;
          Alcotest.test_case "nested groups" `Quick test_dtd_nested_groups;
          Alcotest.test_case "recursive DTD" `Quick test_dtd_descendants_recursive;
        ] );
      ( "index",
        [
          Alcotest.test_case "lazy build" `Quick test_index_lazy_build;
          Alcotest.test_case "roots excluded from //" `Quick test_index_roots_excluded;
          Alcotest.test_case "detached subtrees" `Quick test_index_detached_subtree;
          Alcotest.test_case "statistics" `Quick test_index_stats;
          Alcotest.test_case "rank table under random writes" `Quick
            test_index_rank_table_random;
          Alcotest.test_case "rank gap exhausted" `Quick
            test_index_rank_gap_exhausted;
          Alcotest.test_case "rank table and root paths" `Quick
            test_index_rank_root_paths;
        ] );
    ]
