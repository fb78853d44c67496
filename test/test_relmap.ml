open Xic_xml
module M = Xic_relmap.Mapping
module Sh = Xic_relmap.Shred
module S = Xic_datalog.Store
module T = Xic_datalog.Term

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

let mapping () =
  M.build
    [ (Dtd.parse Xic_workload.Conference.pub_dtd, "dblp");
      (Dtd.parse Xic_workload.Conference.rev_dtd, "review") ]

(* ------------------------------------------------------------------ *)
(* Schema derivation                                                   *)
(* ------------------------------------------------------------------ *)

let test_paper_schema () =
  let m = mapping () in
  Alcotest.(check (list string)) "predicates"
    [ "pub"; "aut"; "track"; "rev"; "sub"; "auts" ]
    (List.map (fun (s : M.pred_schema) -> s.M.pname) (M.predicates m))

let test_reprs () =
  let m = mapping () in
  checkb "dblp elided" true (M.repr_of m "dblp" = M.Elided);
  checkb "review elided" true (M.repr_of m "review" = M.Elided);
  checkb "name embedded" true (M.repr_of m "name" = M.Embedded);
  checkb "title embedded" true (M.repr_of m "title" = M.Embedded);
  checkb "pub predicate" true
    (match M.repr_of m "pub" with M.Predicate _ -> true | _ -> false)

let test_columns () =
  let m = mapping () in
  let cols p =
    match M.schema_of m p with
    | Some s -> List.map (fun c -> c.M.col_name) s.M.columns
    | None -> Alcotest.fail (p ^ " has no schema")
  in
  Alcotest.(check (list string)) "pub cols" [ "title" ] (cols "pub");
  Alcotest.(check (list string)) "rev cols" [ "name" ] (cols "rev");
  Alcotest.(check (list string)) "track cols" [ "name" ] (cols "track");
  checki "arity of sub" 4 (M.arity m "sub")

let test_column_index () =
  let m = mapping () in
  Alcotest.(check (option int)) "title of pub" (Some 3)
    (M.column_of m ~pred:"pub" (M.From_pcdata_child "title"));
  Alcotest.(check (option int)) "missing col" None
    (M.column_of m ~pred:"pub" (M.From_pcdata_child "name"))

let test_embedded_edges () =
  let m = mapping () in
  checkb "name in rev" true (M.is_embedded_in m ~parent:"rev" ~child:"name");
  checkb "name in track" true (M.is_embedded_in m ~parent:"track" ~child:"name");
  checkb "sub not embedded" false (M.is_embedded_in m ~parent:"rev" ~child:"sub")

let test_containers () =
  let m = mapping () in
  Alcotest.(check (list string)) "sub container" [ "rev" ] (M.containers_of m "sub");
  Alcotest.(check (list string)) "name containers" [ "aut"; "auts"; "rev"; "track" ]
    (M.containers_of m "name")

let test_predicate_children () =
  let m = mapping () in
  Alcotest.(check (list string)) "children of rev" [ "sub" ] (M.predicate_children m "rev");
  Alcotest.(check (list string)) "children of sub" [ "auts" ] (M.predicate_children m "sub")

let test_attrs_as_columns () =
  let m =
    M.build
      [ (Dtd.parse "<!ELEMENT r (x)*><!ELEMENT x (#PCDATA)><!ATTLIST x id CDATA #REQUIRED>", "r") ]
  in
  (* x has an attribute, so it cannot be embedded; it gets id and text
     columns. *)
  (match M.schema_of m "x" with
   | Some s ->
     Alcotest.(check (list string)) "x cols" [ "id"; "text" ]
       (List.map (fun c -> c.M.col_name) s.M.columns)
   | None -> Alcotest.fail "x must be a predicate")

let test_root_with_attrs_kept () =
  let m =
    M.build [ (Dtd.parse "<!ELEMENT r (x)*><!ELEMENT x EMPTY><!ATTLIST r v CDATA #IMPLIED>", "r") ]
  in
  checkb "attributed root is a predicate" true
    (match M.repr_of m "r" with M.Predicate _ -> true | _ -> false)

let test_conflicting_dtds_rejected () =
  match
    M.build
      [ (Dtd.parse "<!ELEMENT r (a)*><!ELEMENT a (#PCDATA)>", "r");
        (Dtd.parse "<!ELEMENT s (a)*><!ELEMENT a EMPTY>", "s") ]
  with
  | exception M.Mapping_error _ -> ()
  | _ -> Alcotest.fail "conflicting declarations must be rejected"

let test_schema_to_string () =
  let m = mapping () in
  let s = M.schema_to_string m in
  checkb "pub line" true
    (String.length s > 0
     && (let rec find i =
           i + 34 <= String.length s
           && (String.sub s i 34 = "pub(Id, Pos, IdParent_dblp, Title)" || find (i + 1))
         in
         find 0))

(* ------------------------------------------------------------------ *)
(* Shredding                                                           *)
(* ------------------------------------------------------------------ *)

let sample_collection () =
  let { Xml_parser.doc; _ } =
    Xml_parser.parse_string
      {|<dblp><pub><title>P1</title><aut><name>A</name></aut><aut><name>B</name></aut></pub></dblp>|}
  in
  let review, _ =
    Xml_parser.parse_document_into doc
      {|<review><track><name>DB</name><rev><name>R1</name><sub><title>S1</title><auts><name>A</name></auts></sub><sub><title>S2</title><auts><name>B</name></auts></sub></rev></track></review>|}
  in
  Doc.add_root doc review;
  doc

let test_shred_counts () =
  let doc = sample_collection () in
  let st = Sh.shred (mapping ()) doc in
  checki "pubs" 1 (Facts.cardinality st "pub");
  checki "auts (pub)" 2 (Facts.cardinality st "aut");
  checki "tracks" 1 (Facts.cardinality st "track");
  checki "revs" 1 (Facts.cardinality st "rev");
  checki "subs" 2 (Facts.cardinality st "sub");
  checki "auts (rev)" 2 (Facts.cardinality st "auts")

let test_shred_fact_shape () =
  let doc = sample_collection () in
  let m = mapping () in
  let st = Sh.shred m doc in
  match Facts.tuples st "sub" with
  | [ [ T.Int id1; T.Int pos1; T.Int par1; T.Str t1 ];
      [ T.Int _; T.Int pos2; T.Int par2; T.Str t2 ] ] ->
    checks "title 1" "S1" t1;
    checks "title 2" "S2" t2;
    checki "positions differ" 5 (pos1 + pos2);  (* name=1, subs at 2 and 3 *)
    checkb "same parent" true (par1 = par2);
    checkb "id is a live node" true (Doc.live doc id1)
  | _ -> Alcotest.fail "unexpected sub tuples"

let test_shred_parent_links () =
  let doc = sample_collection () in
  let m = mapping () in
  let st = Sh.shred m doc in
  let sub_parents =
    List.map (fun t -> List.nth t 2) (Facts.tuples st "sub") |> List.sort_uniq compare
  in
  let rev_ids = List.map (fun t -> List.nth t 0) (Facts.tuples st "rev") in
  checkb "sub parents are rev ids" true
    (List.for_all (fun p -> List.mem p rev_ids) sub_parents)

let test_path_to_node () =
  let doc = sample_collection () in
  let sub2 =
    List.nth (Xic_xpath.Eval.select doc (Xic_xpath.Parser.parse "//sub")) 1
  in
  checks "positional path" "/review/track[1]/rev[1]/sub[2]" (Sh.path_to_node doc sub2);
  (* the path must re-select the same node *)
  let again =
    Xic_xpath.Eval.select doc (Xic_xpath.Parser.parse (Sh.path_to_node doc sub2))
  in
  checkb "path round-trips" true (again = [ sub2 ])

let test_optional_embedded_as_empty () =
  let m =
    M.build
      [ (Dtd.parse "<!ELEMENT r (e)*><!ELEMENT e (n?)><!ELEMENT n (#PCDATA)>", "r") ]
  in
  let { Xml_parser.doc; _ } = Xml_parser.parse_string "<r><e><n>x</n></e><e/></r>" in
  let st = Sh.shred m doc in
  match List.map (fun t -> List.nth t 3) (Facts.tuples st "e") with
  | [ T.Str "x"; T.Str "" ] -> ()
  | other ->
    Alcotest.fail
      (String.concat "," (List.map T.const_str other) ^ " (expected x, empty)")

(* ------------------------------------------------------------------ *)
(* Second wave                                                         *)
(* ------------------------------------------------------------------ *)

let test_dual_representation () =
  (* a PCDATA type embedded in one parent but repeated in another gets a
     predicate AND stays a column of the embedding parent *)
  let m =
    M.build
      [ ( Dtd.parse
            "<!ELEMENT r (a, b)*><!ELEMENT a (n)><!ELEMENT b (n*)><!ELEMENT n (#PCDATA)>",
          "r" ) ]
  in
  checkb "n is a predicate" true (M.schema_of m "n" <> None);
  checkb "n embedded in a" true (M.is_embedded_in m ~parent:"a" ~child:"n");
  checkb "n not embedded in b" false (M.is_embedded_in m ~parent:"b" ~child:"n");
  let { Xml_parser.doc; _ } =
    Xml_parser.parse_string "<r><a><n>x</n></a><b><n>y</n><n>z</n></b></r>"
  in
  let st = Sh.shred m doc in
  (* all three n elements shred as facts; a also carries the column *)
  checki "n facts" 3 (Facts.cardinality st "n");
  (match Facts.tuples st "a" with
   | [ t ] -> checkb "column carried" true (List.nth t 3 = T.Str "x")
   | _ -> Alcotest.fail "one a fact expected")

let test_mixed_content_type () =
  let m =
    M.build
      [ (Dtd.parse "<!ELEMENT r (p)*><!ELEMENT p (#PCDATA | em)*><!ELEMENT em (#PCDATA)>", "r") ]
  in
  (* mixed-content p is a predicate without a text column (its text is not
     a single scalar); em repeats so it is a predicate with one *)
  (match M.schema_of m "p" with
   | Some s -> Alcotest.(check (list string)) "p cols" []
                 (List.map (fun c -> c.M.col_name) s.M.columns)
   | None -> Alcotest.fail "p must be a predicate");
  (match M.schema_of m "em" with
   | Some s -> Alcotest.(check (list string)) "em cols" [ "text" ]
                 (List.map (fun c -> c.M.col_name) s.M.columns)
   | None -> Alcotest.fail "em must be a predicate")

let test_shred_two_docs_id_disjoint () =
  let doc = sample_collection () in
  let m = mapping () in
  let st = Sh.shred m doc in
  let all_ids =
    List.concat_map
      (fun r -> List.map (fun t -> List.nth t 0) (Facts.tuples st r))
      (S.relations st)
  in
  checki "ids unique across the collection" (List.length all_ids)
    (List.length (List.sort_uniq compare all_ids))

let test_shred_positions_element_only () =
  (* text nodes do not consume positions *)
  let m =
    M.build [ (Dtd.parse "<!ELEMENT r (#PCDATA | x)*><!ELEMENT x EMPTY>", "r") ]
  in
  let { Xml_parser.doc; _ } = Xml_parser.parse_string "<r>aa<x/>bb<x/></r>" in
  let st = Sh.shred m doc in
  Alcotest.(check (list int)) "positions 1,2"
    [ 1; 2 ]
    (List.map
       (fun t -> match List.nth t 1 with T.Int p -> p | _ -> -1)
       (Facts.tuples st "x"))

let test_fact_of_detached_node () =
  let doc = sample_collection () in
  let m = mapping () in
  let sub, _ =
    Xml_parser.parse_document_into doc
      "<sub><title>T</title><auts><name>N</name></auts></sub>"
  in
  (* detached nodes have no parent; their fact carries the sentinel *)
  (match Sh.fact_of_element m doc sub with
   | Some (_, tup) when Array.length tup >= 3 ->
     checkb "sentinel parent" true (List.nth (Facts.consts tup) 2 = T.Int Doc.no_node)
   | _ -> Alcotest.fail "fact expected")

let () =
  Alcotest.run "relmap"
    [
      ( "mapping",
        [
          Alcotest.test_case "paper schema" `Quick test_paper_schema;
          Alcotest.test_case "representations" `Quick test_reprs;
          Alcotest.test_case "columns" `Quick test_columns;
          Alcotest.test_case "column index" `Quick test_column_index;
          Alcotest.test_case "embedded edges" `Quick test_embedded_edges;
          Alcotest.test_case "containers" `Quick test_containers;
          Alcotest.test_case "predicate children" `Quick test_predicate_children;
          Alcotest.test_case "attrs as columns" `Quick test_attrs_as_columns;
          Alcotest.test_case "attributed root kept" `Quick test_root_with_attrs_kept;
          Alcotest.test_case "conflicting DTDs" `Quick test_conflicting_dtds_rejected;
          Alcotest.test_case "schema rendering" `Quick test_schema_to_string;
        ] );
      ( "shred",
        [
          Alcotest.test_case "counts" `Quick test_shred_counts;
          Alcotest.test_case "fact shape" `Quick test_shred_fact_shape;
          Alcotest.test_case "parent links" `Quick test_shred_parent_links;
          Alcotest.test_case "path to node" `Quick test_path_to_node;
          Alcotest.test_case "optional embedded" `Quick test_optional_embedded_as_empty;
        ] );
      ( "edge cases",
        [
          Alcotest.test_case "dual representation" `Quick test_dual_representation;
          Alcotest.test_case "mixed content" `Quick test_mixed_content_type;
          Alcotest.test_case "ids disjoint" `Quick test_shred_two_docs_id_disjoint;
          Alcotest.test_case "element-only positions" `Quick test_shred_positions_element_only;
          Alcotest.test_case "detached fact" `Quick test_fact_of_detached_node;
        ] );
    ]
