open Xic_core
module Conf = Xic_workload.Conference
module XU = Xic_xupdate.Xupdate
module T = Xic_datalog.Term

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)
let checksl = Alcotest.(check (list string))

let schema = lazy (Conf.schema ())

let pub_doc =
  {|<dblp><pub><title>Joint</title><aut><name>Carl</name></aut><aut><name>Nora</name></aut></pub><pub><title>Solo</title><aut><name>Ann</name></aut></pub></dblp>|}

let rev_doc =
  {|<review><track><name>DB</name><rev><name>Carl</name><sub><title>S1</title><auts><name>Ann</name></auts></sub></rev><rev><name>Rita</name><sub><title>S2</title><auts><name>Bob</name></auts></sub></rev></track></review>|}

let make_repo ?(constraints = true) () =
  let s = Lazy.force schema in
  let repo = Repository.create s in
  Repository.load_fused repo pub_doc;
  Repository.load_fused repo rev_doc;
  if constraints then begin
    Repository.add_constraint repo (Conf.conflict s);
    Repository.add_constraint repo (Conf.workload s);
    Repository.add_constraint repo (Conf.track_load s)
  end;
  repo

(* ------------------------------------------------------------------ *)
(* Schema                                                              *)
(* ------------------------------------------------------------------ *)

let test_schema_rendering () =
  let s = Schema.to_string (Lazy.force schema) in
  checkb "mentions rev relation" true
    (let needle = "rev(Id, Pos, IdParent_track, Name)" in
     let rec find i =
       i + String.length needle <= String.length s
       && (String.sub s i (String.length needle) = needle || find (i + 1))
     in
     find 0)

let test_schema_bad_dtd () =
  match Schema.create [ ("<!ELEMENT", "r") ] with
  | exception Schema.Schema_error _ -> ()
  | _ -> Alcotest.fail "bad DTD must be rejected"

let test_load_validates () =
  let repo = Repository.create (Lazy.force schema) in
  let rejects what src =
    match Repository.load_fused repo src with
    | exception Repository.Repository_error _ -> ()
    | () -> Alcotest.failf "%s must be rejected" what
  in
  rejects "invalid document" "<review><track><name>DB</name></track></review>";
  (* an element type outside the schema cannot be shredded *)
  rejects "unknown element" "<review><bogus/></review>";
  (* a document is one root element, with nothing but markup around it *)
  rejects "text before the root" "text<review/>";
  rejects "text after the root" "<review/> trailing";
  checki "no root registered" 0
    (List.length (Xic_xml.Doc.roots (Repository.doc repo)));
  (* but loads fine with validation off *)
  Repository.load_fused ~validate:false repo
    "<review><track><name>DB</name></track></review>"

(* A load that fails part-way into a repository whose store and
   incremental views are live must leave both exact: facts emitted
   in-pass before the failure never survive it. *)
let test_failed_load_keeps_live_state () =
  let repo = make_repo () in
  let before = Repository.check_incremental repo in
  let roots () = List.length (Xic_xml.Doc.roots (Repository.doc repo)) in
  let n = roots () in
  List.iter
    (fun (what, src) ->
      (match Repository.load_fused repo src with
       | exception Repository.Repository_error _ -> ()
       | () -> Alcotest.failf "%s must be rejected" what);
      checki (what ^ ": root count unchanged") n (roots ());
      checkb (what ^ ": store = fresh shred") true
        (Xic_datalog.Store.equal (Repository.store repo)
           (Xic_relmap.Shred.shred
              (Schema.mapping (Repository.schema repo))
              (Repository.doc repo)));
      checksl (what ^ ": incremental = full") (Repository.check_full repo)
        (Repository.check_incremental repo);
      checksl (what ^ ": verdicts unchanged") before
        (Repository.check_incremental repo))
    [ ("DTD reject", "<review><track><name>DB</name></track></review>");
      ("shred reject", "<review><track><name>DB</name><bogus/></track></review>");
      ("junk after the root", rev_doc ^ "junk") ]

let test_schema_from_doctype () =
  let s =
    Schema.of_inline_doctypes
      [ {|<!DOCTYPE team [<!ELEMENT team (member)*><!ELEMENT member (#PCDATA)>]>
          <team><member>Ada</member></team>|} ]
  in
  checkb "member is a predicate with text column" true
    (Xic_relmap.Mapping.schema_of (Schema.mapping s) "member" <> None);
  (match Schema.of_inline_doctypes [ "<team/>" ] with
   | exception Schema.Schema_error _ -> ()
   | _ -> Alcotest.fail "missing DOCTYPE must be rejected")

(* ------------------------------------------------------------------ *)
(* Constraints                                                         *)
(* ------------------------------------------------------------------ *)

let test_constraint_compiles () =
  let c = Conf.conflict (Lazy.force schema) in
  checki "two denials" 2 (List.length c.Constr.datalog);
  checkb "keeps its xpathlog" true
    (c.Constr.xpathlog.Xic_xpathlog.Ast.label = Some "conflict")

let test_constraint_bad_source () =
  match Constr.make (Lazy.force schema) ~name:"bad" "<- //nonexistent -> X and X = \"a\"" with
  | exception Constr.Constraint_error _ -> ()
  | _ -> Alcotest.fail "unknown element must fail"

let test_check_full_consistent () =
  let repo = make_repo () in
  Alcotest.(check (list string)) "consistent" [] (Repository.check_full repo);
  Alcotest.(check (list string)) "datalog agrees" [] (Repository.check_full_datalog repo)

let test_check_full_detects_violation () =
  let s = Lazy.force schema in
  let repo = Repository.create s in
  Repository.load_fused repo pub_doc;
  (* Carl reviews a submission by his co-author Nora *)
  Repository.load_fused repo
    {|<review><track><name>DB</name><rev><name>Carl</name><sub><title>S</title><auts><name>Nora</name></auts></sub></rev></track></review>|};
  Repository.add_constraint repo (Conf.conflict s);
  Alcotest.(check (list string)) "violated" [ "conflict" ] (Repository.check_full repo);
  Alcotest.(check (list string)) "datalog agrees" [ "conflict" ]
    (Repository.check_full_datalog repo)

let test_explain () =
  let s = Lazy.force schema in
  let repo = Repository.create s in
  Repository.load_fused repo pub_doc;
  Repository.load_fused repo
    {|<review><track><name>DB</name><rev><name>Carl</name><sub><title>S</title><auts><name>Carl</name></auts></sub></rev></track></review>|};
  Repository.add_constraint repo (Conf.conflict s);
  (* Carl reviewing himself violates both disjuncts: A = R, and the
     degenerate co-author case aut(Ip,Carl) ∧ aut(Ip,Carl). *)
  match Repository.explain repo with
  | [ w; _ ] ->
    checks "names the constraint" "conflict" w.Repository.witness_constraint;
    checkb "binds R to the reviewer" true
      (List.mem ("R", T.Str "Carl") w.Repository.bindings);
    checkb "locates the rev node" true
      (List.exists
         (fun (_, _, path) -> path = "/review/track[1]/rev[1]")
         w.Repository.nodes);
    checkb "printable" true (String.length (Repository.witness_to_string w) > 0)
  | ws -> Alcotest.fail (Printf.sprintf "expected two witnesses, got %d" (List.length ws))

let test_explain_consistent () =
  let repo = make_repo () in
  Alcotest.(check int) "no witnesses" 0 (List.length (Repository.explain repo))

(* ------------------------------------------------------------------ *)
(* Patterns                                                            *)
(* ------------------------------------------------------------------ *)

let test_pattern_atoms () =
  let p = Conf.submission_pattern (Lazy.force schema) in
  Alcotest.(check (list string)) "relational pattern"
    [ "sub(%i_sub, %p, %anchor, %t)"; "auts(%i_auts, 2, %i_sub, %n)" ]
    (List.map T.atom_str p.Pattern.atoms);
  Alcotest.(check (list string)) "fresh ids" [ "i_sub"; "i_auts" ] p.Pattern.fresh;
  Alcotest.(check (list string)) "data params" [ "t"; "n" ] p.Pattern.data_params

(* A pattern against a statement's modification, its select evaluated
   as {!Repository.match_update} evaluates it. *)
let match_modification repo p (m : XU.modification) =
  let doc = Repository.doc repo in
  match Xic_xpath.Eval.eval doc m.XU.select with
  | Xic_xpath.Eval.Nodes (target :: _) ->
    Pattern.match_modification (Lazy.force schema) doc p m target
  | _ -> None

let test_pattern_match () =
  let repo = make_repo ~constraints:false () in
  let p = Conf.submission_pattern (Lazy.force schema) in
  let u =
    Conf.insert_submission ~select:"/review/track[1]/rev[1]/sub[1]" ~title:"New"
      ~author:"Zoe"
  in
  match match_modification repo p (List.hd u) with
  | Some valuation ->
    let find k = List.assoc k valuation in
    (match find "n" with
     | Pattern.Vstr s -> checks "author param" "Zoe" s
     | _ -> Alcotest.fail "n must be a string");
    (match find "t" with
     | Pattern.Vstr s -> checks "title param" "New" s
     | _ -> Alcotest.fail "t must be a string");
    (match find "anchor" with
     | Pattern.Vnode n ->
       checks "anchor is the rev" "rev"
         (Xic_xml.Doc.name (Repository.doc repo) n)
     | _ -> Alcotest.fail "anchor must be a node")
  | None -> Alcotest.fail "pattern must match"

let test_pattern_no_match_wrong_shape () =
  let repo = make_repo ~constraints:false () in
  let p = Conf.submission_pattern (Lazy.force schema) in
  (* two authors: different shape *)
  let u =
    [ { XU.op = XU.Insert_after;
        select = Xic_xpath.Parser.parse "/review/track[1]/rev[1]/sub[1]";
        content =
          [ XU.Elem ("sub", [],
               [ XU.Elem ("title", [], [ XU.Text "X" ]);
                 XU.Elem ("auts", [], [ XU.Elem ("name", [], [ XU.Text "A" ]) ]);
                 XU.Elem ("auts", [], [ XU.Elem ("name", [], [ XU.Text "B" ]) ]);
               ]) ];
      } ]
  in
  checkb "no match" true
    (match_modification repo p (List.hd u) = None)

let test_pattern_no_match_wrong_anchor () =
  let repo = make_repo ~constraints:false () in
  let p = Conf.submission_pattern (Lazy.force schema) in
  let u =
    [ { (List.hd (Conf.insert_submission ~select:"//rev[1]" ~title:"X" ~author:"A")) with
        XU.select = Xic_xpath.Parser.parse "//rev[1]" } ]
  in
  checkb "anchor type mismatch" true
    (match_modification repo p (List.hd u) = None)

(* [match_update] evaluates a statement's select once, through the
   repository's indexes, however many patterns share its op: a value
   predicate the prober answers counts one index hit. *)
let test_match_update_one_select () =
  let repo = make_repo ~constraints:false () in
  let s = Lazy.force schema in
  let elem tag children = XU.Elem (tag, [], children) in
  let auts n = elem "auts" [ elem "name" [ XU.Text n ] ] in
  (* tried first, and does not match: a submission with two authors *)
  Repository.register_pattern repo
    (Pattern.make s ~name:"two_authors" ~op:XU.Insert_after ~anchor_type:"sub"
       ~content:[ elem "sub" [ elem "title" [ XU.Text "%t" ]; auts "%a"; auts "%b" ] ]);
  Repository.register_pattern repo (Conf.submission_pattern s);
  ignore (Repository.store repo);
  let u =
    Conf.insert_submission ~select:{|//sub[title/text()="S2"]|} ~title:"New"
      ~author:"Zoe"
  in
  let hits () = List.assoc "index_hits" (fst (Xic_obs.Obs.Metrics.snapshot ())) in
  let before = hits () in
  (match Repository.match_update repo u with
   | Some (p, valuation) ->
     checks "the second pattern matches" "insert_submission" p.Pattern.name;
     (match List.assoc "anchor" valuation with
      | Pattern.Vnode n ->
        checks "anchored at Rita's rev" "Rita"
          (Xic_xml.Doc.text_content (Repository.doc repo)
             (List.hd (Xic_xml.Doc.element_children (Repository.doc repo) n)))
      | _ -> Alcotest.fail "anchor must be a node")
   | None -> Alcotest.fail "the statement must match");
  checki "one index hit for both patterns" 1 (hits () - before)

let test_pattern_deletion_non_leaf_rejected () =
  (* sub has predicate children (auts): not a relational leaf *)
  match
    Pattern.make (Lazy.force schema) ~name:"del" ~op:XU.Remove ~anchor_type:"sub"
      ~content:[]
  with
  | exception Pattern.Pattern_error _ -> ()
  | _ -> Alcotest.fail "non-leaf deletion patterns are unsupported"

let test_pattern_deletion_leaf () =
  (* auts is a relational leaf (name is embedded) *)
  let p =
    Pattern.make (Lazy.force schema) ~name:"del_auts" ~op:XU.Remove
      ~anchor_type:"auts" ~content:[]
  in
  Alcotest.(check (list string)) "deletion pattern"
    [ "auts(%target, %p, %anchor, %c_name)" ]
    (List.map T.atom_str p.Pattern.del_atoms);
  Alcotest.(check (list string)) "no insertions" []
    (List.map T.atom_str p.Pattern.atoms)

let test_multi_fragment_pattern () =
  (* a pattern inserting two submissions at once: two anchored position
     parameters, each fragment's own fresh ids *)
  let s = Lazy.force schema in
  let sub_content title_p name_p =
    XU.Elem ("sub", [],
       [ XU.Elem ("title", [], [ XU.Text title_p ]);
         XU.Elem ("auts", [], [ XU.Elem ("name", [], [ XU.Text name_p ]) ]) ])
  in
  let p =
    Pattern.make s ~name:"double_insert" ~op:XU.Insert_after ~anchor_type:"sub"
      ~content:[ sub_content "%t1" "%n1"; sub_content "%t2" "%n2" ]
  in
  Alcotest.(check (list string)) "four atoms"
    [ "sub(%i_sub, %p, %anchor, %t1)"; "auts(%i_auts, 2, %i_sub, %n1)";
      "sub(%i_sub2, %p2, %anchor, %t2)"; "auts(%i_auts2, 2, %i_sub2, %n2)" ]
    (List.map T.atom_str p.Pattern.atoms);
  (* end to end: a double insert where the second author conflicts *)
  let repo = make_repo () in
  Repository.register_pattern repo p;
  let u author2 =
    [ { XU.op = XU.Insert_after;
        select = Xic_xpath.Parser.parse "/review/track[1]/rev[1]/sub[1]";
        content = [ sub_content "First" "Fresh One"; sub_content "Second" author2 ];
      } ]
  in
  (match Repository.guarded_update repo (u "Carl") with
   | Repository.Rejected_early "conflict" -> ()
   | _ -> Alcotest.fail "conflicting second fragment must be rejected");
  (match Repository.guarded_update repo (u "Fresh Two") with
   | Repository.Applied `Optimized -> ()
   | _ -> Alcotest.fail "clean double insert must be applied");
  Alcotest.(check (list string)) "still consistent" [] (Repository.check_full repo)

let test_recursive_dtd_constraints () =
  (* recursive content models: sections nest arbitrarily *)
  let s =
    Schema.create
      [ ( {|<!ELEMENT book (section)+>
            <!ELEMENT section (title, section*)>
            <!ELEMENT title (#PCDATA)>|},
          "book" ) ]
  in
  let c =
    Constr.make s ~name:"unique_titles"
      "<- //section[title/text() -> X] -> S1 and //section[title/text() -> X] -> S2 and S1 != S2"
  in
  let repo = Repository.create s in
  Repository.load_fused repo
    {|<book><section><title>A</title><section><title>B</title></section></section></book>|};
  Repository.add_constraint repo c;
  Alcotest.(check (list string)) "nested sections consistent" []
    (Repository.check_full repo);
  Alcotest.(check (list string)) "datalog agrees" []
    (Repository.check_full_datalog repo);
  (* duplicate a nested title *)
  let u =
    [ { XU.op = XU.Append;
        select = Xic_xpath.Parser.parse "//section[title/text() = \"B\"]";
        content =
          [ XU.Elem ("section", [], [ XU.Elem ("title", [], [ XU.Text "A" ]) ]) ];
      } ]
  in
  match Repository.guarded_update repo u with
  | Repository.Rolled_back "unique_titles" -> ()
  | _ -> Alcotest.fail "duplicate nested title must be caught by the full check"

(* ------------------------------------------------------------------ *)
(* Degradation log                                                     *)
(* ------------------------------------------------------------------ *)

(* A (pattern, constraint) pair [Simp] cannot simplify is logged once,
   when the pattern's checks are compiled; each matching statement
   still reports it degraded, without another log line. *)
let test_unsupported_logged_once () =
  let module Log = Xic_obs.Log in
  let path = Filename.temp_file "xic_core_log" ".log" in
  (match Log.open_path path with Ok () -> () | Error m -> Alcotest.fail m);
  Fun.protect
    ~finally:(fun () -> Log.close (); Sys.remove path)
  @@ fun () ->
  let s =
    Schema.create
      [ ( {|<!ELEMENT shop (item*)>
            <!ELEMENT item (name, price)>
            <!ELEMENT name (#PCDATA)>
            <!ELEMENT price (#PCDATA)>|},
          "shop" ) ]
  in
  let repo = Repository.create s in
  Repository.load_fused repo
    {|<shop><item><name>pen</name><price>30</price></item><item><name>ink</name><price>40</price></item></shop>|};
  Repository.add_constraint repo
    (Constr.make s ~name:"budget" "<- sum{P; //item/price/text() -> P} > 100");
  let append name price =
    Printf.sprintf
      {|<xupdate:modifications version="1.0" xmlns:xupdate="http://www.xmldb.org/xupdate"><xupdate:append select="/shop"><xupdate:element name="item"><name>%s</name><price>%s</price></xupdate:element></xupdate:append></xupdate:modifications>|}
      name price
    |> XU.parse_string
  in
  (match append "%n" "%p" with
   | [ m ] -> Repository.register_pattern repo (Pattern.of_modification s ~name:"item" m)
   | _ -> Alcotest.fail "one modification expected");
  for k = 1 to 3 do
    let r = Repository.guarded_batch repo [ append (Printf.sprintf "cap%d" k) "1" ] in
    match r with
    | [ { Repository.outcome = Repository.Applied `Full_check; degradations = [ d ] } ] ->
      checks "the pair is reported" "budget" d.Repository.failed_check
    | _ -> Alcotest.failf "guard %d: expected a degraded, applied statement" k
  done;
  Log.close ();
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let contains hay needle =
    let n = String.length needle in
    let rec go i = i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  let warns =
    List.filter
      (fun l -> contains l "level=warn" && contains l "budget")
      (String.split_on_char '\n' text)
  in
  checki "one warn line names budget" 1 (List.length warns)

(* ------------------------------------------------------------------ *)
(* Templates                                                           *)
(* ------------------------------------------------------------------ *)

let cat_schema =
  lazy
    (Schema.create
       [ ( {|<!ELEMENT catalog (journal*, article*)>
             <!ELEMENT journal (issn, title)>
             <!ELEMENT issn (#PCDATA)>
             <!ELEMENT title (#PCDATA)>
             <!ELEMENT article (title, in)>
             <!ELEMENT in (#PCDATA)>|},
           "catalog" ) ])

let cat_repo docsrc constraints =
  let s = Lazy.force cat_schema in
  let repo = Repository.create s in
  Repository.load_fused repo docsrc;
  List.iter (Repository.add_constraint repo) (constraints s);
  repo

let test_template_key () =
  let repo =
    cat_repo
      {|<catalog><journal><issn>1</issn><title>A</title></journal>
                 <journal><issn>1</issn><title>B</title></journal></catalog>|}
      (fun s -> [ Templates.key s ~elem:"journal" ~field:(Templates.Child "issn") () ])
  in
  Alcotest.(check (list string)) "key violated" [ "key_journal_issn" ]
    (Repository.check_full repo)

let test_template_foreign_key () =
  let ok =
    cat_repo
      {|<catalog><journal><issn>1</issn><title>A</title></journal>
                 <article><title>X</title><in>1</in></article></catalog>|}
      (fun s ->
        [ Templates.foreign_key s
            ~from:("article", Templates.Child "in")
            ~into:("journal", Templates.Child "issn") () ])
  in
  Alcotest.(check (list string)) "fk holds" [] (Repository.check_full ok);
  let bad =
    cat_repo
      {|<catalog><article><title>X</title><in>9</in></article></catalog>|}
      (fun s ->
        [ Templates.foreign_key s
            ~from:("article", Templates.Child "in")
            ~into:("journal", Templates.Child "issn") () ])
  in
  checkb "fk broken" true (Repository.check_full bad <> [])

let test_template_cardinality () =
  let repo =
    cat_repo
      {|<catalog><journal><issn>1</issn><title>A</title></journal></catalog>|}
      (fun s ->
        [ Templates.max_children s ~parent:"catalog" ~child:"journal" 1;
          Templates.min_children s ~parent:"catalog" ~child:"journal" 1 ])
  in
  Alcotest.(check (list string)) "both hold" [] (Repository.check_full repo)

let test_template_forbidden_value () =
  let repo =
    cat_repo
      {|<catalog><journal><issn>0000-0000</issn><title>A</title></journal></catalog>|}
      (fun s ->
        [ Templates.forbidden_value s ~elem:"journal"
            ~field:(Templates.Child "issn") "0000-0000" ])
  in
  checkb "forbidden value found" true (Repository.check_full repo <> [])

let test_template_distinct_siblings () =
  (* same value under different parents is fine; under one parent it is
     not *)
  let s = Lazy.force schema in
  let repo = Repository.create s in
  Repository.load_fused repo pub_doc;
  Repository.load_fused repo
    {|<review><track><name>DB</name>
        <rev><name>R1</name><sub><title>S</title><auts><name>Ann</name></auts></sub></rev>
        <rev><name>R1</name><sub><title>S</title><auts><name>Ann</name></auts></sub></rev>
      </track></review>|};
  let c =
    Templates.distinct_siblings s ~parent:"track" ~child:"rev"
      ~field:(Templates.Child "name") ()
  in
  Repository.add_constraint repo c;
  checkb "duplicate reviewer in one track" true (Repository.check_full repo <> []);
  checkb "datalog agrees" true (Repository.check_full_datalog repo <> [])

let test_template_simplifies () =
  (* templates go through the same simplification pipeline *)
  let s = Lazy.force cat_schema in
  let repo = Repository.create s in
  Repository.load_fused repo
    {|<catalog><journal><issn>1</issn><title>A</title></journal></catalog>|};
  Repository.add_constraint repo
    (Templates.key s ~elem:"journal" ~field:(Templates.Child "issn") ());
  let pat =
    Pattern.make s ~name:"add_journal" ~op:XU.Append ~anchor_type:"catalog"
      ~content:
        [ XU.Elem ("journal", [],
             [ XU.Elem ("issn", [], [ XU.Text "%i" ]);
               XU.Elem ("title", [], [ XU.Text "%t" ]) ]) ]
  in
  Repository.register_pattern repo pat;
  match Repository.optimized_checks repo pat with
  | [ { Repository.simplified = [ d ]; _ } ] ->
    checkb "single-atom residual check" true
      (List.length d.T.body = 1)
  | _ -> Alcotest.fail "expected one simplified denial"

(* ------------------------------------------------------------------ *)
(* Guarded updates                                                     *)
(* ------------------------------------------------------------------ *)

let guarded_repo () =
  let repo = make_repo () in
  Repository.register_pattern repo (Conf.submission_pattern (Lazy.force schema));
  repo

let test_guarded_legal () =
  let repo = guarded_repo () in
  let u =
    Conf.insert_submission ~select:"/review/track[1]/rev[1]/sub[1]" ~title:"Ok"
      ~author:"Zoe"
  in
  (match Repository.guarded_update repo u with
   | Repository.Applied `Optimized -> ()
   | _ -> Alcotest.fail "legal update must be applied via the optimized path");
  Alcotest.(check (list string)) "still consistent" [] (Repository.check_full repo);
  checki "sub inserted" 3
    (List.length
       (Xic_xpath.Eval.select (Repository.doc repo) (Xic_xpath.Parser.parse "//sub")))

let test_guarded_self_review () =
  let repo = guarded_repo () in
  let u =
    Conf.insert_submission ~select:"/review/track[1]/rev[1]/sub[1]" ~title:"Bad"
      ~author:"Carl"
  in
  (match Repository.guarded_update repo u with
   | Repository.Rejected_early "conflict" -> ()
   | _ -> Alcotest.fail "self-review must be rejected early");
  checki "nothing inserted" 2
    (List.length
       (Xic_xpath.Eval.select (Repository.doc repo) (Xic_xpath.Parser.parse "//sub")))

let test_guarded_coauthor () =
  let repo = guarded_repo () in
  let u =
    Conf.insert_submission ~select:"/review/track[1]/rev[1]/sub[1]" ~title:"Bad"
      ~author:"Nora"
  in
  match Repository.guarded_update repo u with
  | Repository.Rejected_early "conflict" -> ()
  | _ -> Alcotest.fail "co-author submission must be rejected early"

let test_guarded_track_load () =
  let repo = guarded_repo () in
  (* four legal inserts fill reviewer Rita to the limit, the fifth breaks
     Example 7's bound of 4 per track *)
  let insert i =
    Conf.insert_submission ~select:"/review/track[1]/rev[2]/sub[1]"
      ~title:(Printf.sprintf "P%d" i) ~author:(Printf.sprintf "Author%d" i)
  in
  for i = 1 to 3 do
    match Repository.guarded_update repo (insert i) with
    | Repository.Applied _ -> ()
    | _ -> Alcotest.fail "filling insert must be applied"
  done;
  match Repository.guarded_update repo (insert 4) with
  | Repository.Rejected_early "track_load" -> ()
  | Repository.Applied _ -> Alcotest.fail "fifth submission must be rejected"
  | _ -> Alcotest.fail "unexpected outcome"

let test_guarded_fallback_full_check () =
  (* an update that matches no pattern is applied, checked, and kept *)
  let repo = guarded_repo () in
  let u =
    [ { XU.op = XU.Append;
        select = Xic_xpath.Parser.parse "/review/track[1]/rev[1]";
        content =
          [ XU.Elem ("sub", [],
               [ XU.Elem ("title", [], [ XU.Text "App" ]);
                 XU.Elem ("auts", [], [ XU.Elem ("name", [], [ XU.Text "Zed" ]) ]) ]) ];
      } ]
  in
  match Repository.guarded_update repo u with
  | Repository.Applied `Full_check -> ()
  | _ -> Alcotest.fail "unmatched legal update must be applied via full check"

let test_guarded_fallback_rollback () =
  let repo = guarded_repo () in
  let before = Xic_xml.Xml_printer.to_string (Repository.doc repo) in
  let u =
    [ { XU.op = XU.Append;
        select = Xic_xpath.Parser.parse "/review/track[1]/rev[1]";
        content =
          [ XU.Elem ("sub", [],
               [ XU.Elem ("title", [], [ XU.Text "Bad" ]);
                 XU.Elem ("auts", [], [ XU.Elem ("name", [], [ XU.Text "Carl" ]) ]) ]) ];
      } ]
  in
  (match Repository.guarded_update repo u with
   | Repository.Rolled_back "conflict" -> ()
   | _ -> Alcotest.fail "unmatched illegal update must be rolled back");
  checks "state restored" before (Xic_xml.Xml_printer.to_string (Repository.doc repo))

let test_optimized_equals_full_decision () =
  (* the optimized pre-check must agree with apply + full check + undo *)
  let repo = guarded_repo () in
  let p = List.hd (Repository.patterns repo) in
  List.iter
    (fun (author, _expect) ->
      let u =
        Conf.insert_submission ~select:"/review/track[1]/rev[1]/sub[1]" ~title:"T"
          ~author
      in
      match Repository.match_update repo u with
      | None -> Alcotest.fail "update must match the pattern"
      | Some (_, valuation) ->
        let optimized = fst (Repository.try_check_optimized repo p valuation) <> [] in
        let optimized_dl =
          let params = Pattern.datalog_params p valuation in
          let store = Repository.store repo in
          List.exists
            (fun (ch : Repository.optimized_check) ->
              List.exists (Xic_datalog.Eval.violated ~params store)
                ch.Repository.simplified)
            (Repository.optimized_checks repo p)
        in
        let undo = Repository.apply_unchecked repo u in
        let full = Repository.check_full repo <> [] in
        Repository.rollback repo undo;
        Alcotest.(check bool) (author ^ ": optimized = full") full optimized;
        Alcotest.(check bool) (author ^ ": datalog agrees") full optimized_dl)
    [ ("Zoe", false); ("Carl", true); ("Nora", true); ("Rita", true); ("Ann", false) ]

let test_store_mirror_consistency () =
  let repo = guarded_repo () in
  let s1 = Xic_datalog.Store.freeze (Repository.store repo) in
  let u =
    Conf.insert_submission ~select:"/review/track[1]/rev[1]/sub[1]" ~title:"T"
      ~author:"Zoe"
  in
  ignore (Repository.guarded_update repo u);
  let s2 = Repository.store repo in
  checkb "store updated" false (Xic_datalog.Store.equal s1 s2);
  checki "one more sub" 1
    (Facts.cardinality s2 "sub" - Facts.cardinality s1 "sub");
  (* the incrementally maintained mirror equals a full re-shred *)
  checkb "incremental = full re-shred" true
    (Xic_datalog.Store.equal s2
       (Xic_relmap.Shred.shred
          (Schema.mapping (Repository.schema repo))
          (Repository.doc repo)));
  (* and apply + rollback restores the mirror exactly *)
  let undo = Repository.apply_unchecked repo u in
  Repository.rollback repo undo;
  checkb "rollback restores mirror" true
    (Xic_datalog.Store.equal (Repository.store repo) s2)

let test_rollback_mirror_agreement () =
  (* after a compensated (rolled back) update, the incrementally
     maintained relational mirror must agree with the XQuery full check *)
  let repo = guarded_repo () in
  let before = Xic_datalog.Store.freeze (Repository.store repo) in
  let u =
    [ { XU.op = XU.Append;
        select = Xic_xpath.Parser.parse "/review/track[1]/rev[1]";
        content =
          [ XU.Elem ("sub", [],
               [ XU.Elem ("title", [], [ XU.Text "Bad" ]);
                 XU.Elem ("auts", [], [ XU.Elem ("name", [], [ XU.Text "Carl" ]) ]) ]) ];
      } ]
  in
  (match Repository.guarded_update repo u with
   | Repository.Rolled_back "conflict" -> ()
   | _ -> Alcotest.fail "violating update must be rolled back");
  Alcotest.(check (list string)) "full check clean" [] (Repository.check_full repo);
  Alcotest.(check (list string)) "datalog agrees after rollback" []
    (Repository.check_full_datalog repo);
  checkb "mirror equals the pre-update store" true
    (Xic_datalog.Store.equal before (Repository.store repo));
  checkb "mirror equals a full re-shred" true
    (Xic_datalog.Store.equal (Repository.store repo)
       (Xic_relmap.Shred.shred
          (Schema.mapping (Repository.schema repo))
          (Repository.doc repo)))

let test_guarded_deletion () =
  (* deletion patterns: removing an auts can orphan a submission *)
  let s = Lazy.force schema in
  let repo = Repository.create s in
  Repository.load_fused repo pub_doc;
  Repository.load_fused repo
    {|<review><track><name>DB</name><rev><name>Carl</name><sub><title>S1</title><auts><name>Ann</name></auts><auts><name>Bob</name></auts></sub></rev></track></review>|};
  (* every submission keeps at least one author *)
  let keep_author =
    Constr.make s ~name:"keep_author" "<- //sub -> S and cnt{; S/auts} < 1"
  in
  Repository.add_constraint repo keep_author;
  let p = Pattern.make s ~name:"drop_author" ~op:XU.Remove ~anchor_type:"auts" ~content:[] in
  Repository.register_pattern repo p;
  (* upper-bound constraints can never be violated by this removal *)
  let simplified_names =
    List.map (fun (c : Repository.optimized_check) -> (c.constraint_name, c.simplified))
      (Repository.optimized_checks repo p)
  in
  (match List.assoc "keep_author" simplified_names with
   | [] -> Alcotest.fail "keep_author must have a residual check"
   | _ -> ());
  let remove_first_auts () =
    [ { XU.op = XU.Remove; select = Xic_xpath.Parser.parse "//sub[1]/auts[1]"; content = [] } ]
  in
  (match Repository.guarded_update repo (remove_first_auts ()) with
   | Repository.Applied `Optimized -> ()
   | _ -> Alcotest.fail "first removal must be applied via the optimized path");
  (match Repository.guarded_update repo (remove_first_auts ()) with
   | Repository.Rejected_early "keep_author" -> ()
   | _ -> Alcotest.fail "removing the last author must be rejected early");
  checki "one author left" 1
    (List.length
       (Xic_xpath.Eval.select (Repository.doc repo) (Xic_xpath.Parser.parse "//auts")))

let test_pin_retention () =
  let repo = make_repo () in
  (* pins of the same clean generation share one frozen handle *)
  let p0 = Repository.pin repo in
  let p0' = Repository.pin repo in
  checkb "same generation, same handle" true
    (Repository.pin_store p0 == Repository.pin_store p0');
  checkb "handle is frozen" true
    (Xic_datalog.Store.is_frozen (Repository.pin_store p0));
  (match Repository.retained_generations repo with
   | [ (0, 2) ] -> ()
   | rs ->
     Alcotest.failf "expected [(0, 2)], got [%s]"
       (String.concat "; "
          (List.map (fun (g, r) -> Printf.sprintf "(%d, %d)" g r) rs)));
  (* a pristine suffix-sharing pin retains no heap beyond the writer *)
  checki "pristine pin retains nothing" 0 (Repository.retained_bytes repo);
  (* an uncommitted mutation must NOT be served from the stale handle *)
  let u =
    Conf.insert_submission ~select:"/review/track[1]/rev[1]/sub[1]"
      ~title:"Mid" ~author:"Zoe"
  in
  let undo = Repository.apply_unchecked repo u in
  let pm = Repository.pin repo in
  checkb "mutated state gets a fresh handle" true
    (Repository.pin_store pm != Repository.pin_store p0);
  Repository.rollback repo undo;
  Repository.unpin repo pm;
  Repository.unpin repo p0;
  Repository.unpin repo p0';
  (* released generations stay addressable as bounded history *)
  (match Repository.pin_as_of repo 0 with
   | Some p ->
     checksl "time-travel verdict" [] (Repository.check_pinned repo p);
     Repository.unpin repo p
   | None -> Alcotest.fail "generation 0 must remain retained");
  checkb "check_as_of agrees" true (Repository.check_as_of repo 0 = Some []);
  checkb "unknown generation refused" true
    (Repository.check_as_of repo 99 = None)

(* Carl reviews the first rev: authoring a submission under it violates
   the conflict-of-interest denial. *)
let carl_insert () =
  Conf.insert_submission ~select:"/review/track[1]/rev[1]/sub[1]" ~title:"Own"
    ~author:"Carl"

(* A pin freezes the materialized views next to the store: its verdict
   is the emptiness test over them, untouched by later writes. *)
let test_pin_freezes_views () =
  let repo = make_repo () in
  ignore (Repository.check_incremental repo : string list);
  let p = Repository.pin repo in
  checkb "views frozen with the pin" true
    (Xic_datalog.Store.is_frozen (Repository.pin_view p));
  let undo = Repository.apply_unchecked repo (carl_insert ()) in
  checksl "live views see the write" [ "conflict" ]
    (Repository.check_incremental repo);
  checksl "pinned verdict is pre-write" [] (Repository.check_pinned repo p);
  Repository.rollback repo undo;
  Repository.unpin repo p

(* A pin answers for the constraints it was taken with; a pin taken
   after [add_constraint] builds the new views and answers for the new
   list. *)
let test_pin_answers_for_its_constraints () =
  let repo = make_repo () in
  let p = Repository.pin repo in
  checksl "consistent when pinned" [] (Repository.check_pinned repo p);
  Repository.add_constraint repo
    (Constr.make (Lazy.force schema) ~name:"no_ann"
       "<- //auts/name/text() -> N and N = \"Ann\"");
  checksl "the pin keeps its constraints" [] (Repository.check_pinned repo p);
  let p' = Repository.pin repo in
  checkb "a new entry for the new list" true
    (Repository.pin_view p' != Repository.pin_view p);
  checksl "a pin after add_constraint" [ "no_ann" ]
    (Repository.check_pinned repo p');
  checksl "live verdict" [ "no_ann" ] (Repository.check_incremental repo);
  checksl "the old pin still keeps its constraints" []
    (Repository.check_pinned repo p);
  Repository.unpin repo p';
  Repository.unpin repo p

(* A pin taken before any verdict builds the views and freezes them;
   its verdict is the full check's at pin time. *)
let test_pin_before_any_verdict () =
  let repo = make_repo () in
  let undo = Repository.apply_unchecked repo (carl_insert ()) in
  checkb "no views yet" true (Option.is_none (Repository.incr_view repo));
  let p = Repository.pin repo in
  checkb "views frozen with the pin" true
    (Xic_datalog.Store.is_frozen (Repository.pin_view p));
  checksl "pinned verdict = full check" (Repository.check_full repo)
    (Repository.check_pinned repo p);
  checksl "violated" [ "conflict" ] (Repository.check_pinned repo p);
  Repository.rollback repo undo;
  checksl "live verdict after the rollback" [] (Repository.check_incremental repo);
  checksl "the pin still answers for its state" [ "conflict" ]
    (Repository.check_pinned repo p);
  Repository.unpin repo p

(* A flush that cannot maintain the views (here, an exhausted Datalog
   step budget) drops them, so a half-maintained view never answers;
   the next verdict rebuilds them. *)
let test_failed_flush_drops_views () =
  let repo = make_repo () in
  ignore (Repository.check_incremental repo : string list);
  let undo = Repository.apply_unchecked repo (carl_insert ()) in
  ignore
    (Xic_datalog.Eval.with_budget ~steps:1 (fun () -> Repository.store repo)
      : Xic_datalog.Store.t);
  checkb "views dropped" true (Option.is_none (Repository.incr_view repo));
  checksl "rebuilt views = full check" (Repository.check_full repo)
    (Repository.check_incremental repo);
  checksl "violated" [ "conflict" ] (Repository.check_incremental repo);
  Repository.rollback repo undo

let test_duplicate_names_rejected () =
  let repo = make_repo () in
  (match Repository.add_constraint repo (Conf.conflict (Lazy.force schema)) with
   | exception Repository.Repository_error _ -> ()
   | _ -> Alcotest.fail "duplicate constraint must be rejected");
  Repository.register_pattern repo (Conf.submission_pattern (Lazy.force schema));
  match Repository.register_pattern repo (Conf.submission_pattern (Lazy.force schema)) with
  | exception Repository.Repository_error _ -> ()
  | _ -> Alcotest.fail "duplicate pattern must be rejected"

(* ------------------------------------------------------------------ *)
(* Value probes from the store, and text merging                       *)
(* ------------------------------------------------------------------ *)

module PF = Probe_fixture

let checkids = Alcotest.(check (option (list int)))

let probe_doc =
  {|<review><track id="t1"><name>DB</name><rev area="db"><name>Ann</name><note>late</note><sub lang="en"><title>S</title><kw>x</kw><kw>y</kw><auts><name>Bob</name></auts></sub></rev><rev><name>Eve</name><sub><title>T</title><auts><name>Ann</name></auts></sub></rev></track></review>|}

let node repo q =
  match Xic_xpath.Eval.select (Repository.doc repo) (Xic_xpath.Parser.parse q) with
  | [ n ] -> n
  | _ -> Alcotest.failf "%s: expected one node" q

let append_text select s =
  [ { XU.op = XU.Append; select = Xic_xpath.Parser.parse select; content = [ XU.Text s ] } ]

(* Attributes are the relation's attribute columns; an absent one is
   stored as "", which the probe never answers. *)
let test_probe_attribute () =
  let repo = PF.repo_of probe_doc in
  let rev1 = node repo "/review/track[1]/rev[1]" in
  checkids "rev @area" (Some [ rev1 ]) (PF.probe repo ~tag:"rev" "@area" "db");
  checkids "track @id" (Some [ node repo "/review/track[1]" ])
    (PF.probe repo ~tag:"track" "@id" "t1");
  checkids "one hop down" (Some [ rev1 ]) (PF.probe repo ~tag:"rev" "sub/@lang" "en");
  checkids "no such value" (Some []) (PF.probe repo ~tag:"rev" "@area" "ai");
  checkids "the empty key scans" None (PF.probe repo ~tag:"rev" "@area" "");
  Alcotest.(check (list int)) "scan: an absent attribute is no match" []
    (PF.scan repo ~tag:"rev" "@area" "")

(* An element's single text child is the stored value, whether the
   element is embedded ([name], [note]) or has its own relation ([kw]);
   a text appended to it merges, and a rollback splits it again. *)
let test_probe_single_text_child () =
  let repo = PF.repo_of probe_doc in
  let rev1 = node repo "/review/track[1]/rev[1]" in
  let sub1 = node repo "/review/track[1]/rev[1]/sub[1]" in
  checkids "embedded child" (Some [ rev1 ]) (PF.probe repo ~tag:"rev" "name/text()" "Ann");
  checkids "two hops" (Some [ rev1 ]) (PF.probe repo ~tag:"rev" "sub/title/text()" "S");
  checkids "own text column" (Some [ sub1 ]) (PF.probe repo ~tag:"sub" "kw/text()" "y");
  checkids "the candidate's own text" (Some [ node repo "//kw[1]" ])
    (PF.probe repo ~tag:"kw" "text()" "x");
  checkids "an always-embedded type has no column" None
    (PF.probe repo ~tag:"name" "text()" "Ann");
  checkids "a missing optional child is not probed" None
    (PF.probe repo ~tag:"rev" "note/text()" "");
  let undo = Repository.apply_unchecked repo (append_text "/review/track[1]/rev[1]/name" "e") in
  checki "one text child" 1
    (List.length
       (Xic_xml.Doc.children (Repository.doc repo) (node repo "/review/track[1]/rev[1]/name")));
  checkids "pending marks: the probe declines" None
    (PF.probe repo ~tag:"rev" "name/text()" "Anne");
  ignore (Repository.store repo : Xic_datalog.Store.t);
  checkids "merged text" (Some [ rev1 ]) (PF.probe repo ~tag:"rev" "name/text()" "Anne");
  checkids "old text gone" (Some []) (PF.probe repo ~tag:"rev" "name/text()" "Ann");
  Repository.rollback repo undo;
  ignore (Repository.store repo : Xic_datalog.Store.t);
  checkids "rolled back" (Some [ rev1 ]) (PF.probe repo ~tag:"rev" "name/text()" "Ann");
  checks "document restored" probe_doc
    (Xic_xml.Xml_printer.to_string (Repository.doc repo))

(* A removed subtree leaves the store with the next flush, and a
   rollback brings it back. *)
let test_probe_detached_subtree () =
  let repo = PF.repo_of probe_doc in
  let sub1 = node repo "/review/track[1]/rev[1]/sub[1]" in
  let undo =
    Repository.apply_unchecked repo
      [ { XU.op = XU.Remove; select = Xic_xpath.Parser.parse "/review/track[1]/rev[1]/sub[1]"; content = [] } ]
  in
  ignore (Repository.store repo : Xic_datalog.Store.t);
  checkids "detached subtree invisible" (Some []) (PF.probe repo ~tag:"sub" "kw/text()" "x");
  Repository.rollback repo undo;
  ignore (Repository.store repo : Xic_datalog.Store.t);
  checkids "reattached" (Some [ sub1 ]) (PF.probe repo ~tag:"sub" "kw/text()" "x")

(* Text split by a CDATA section or a comment parses as one text node,
   the value the store holds, so the probe, the scan and every verdict
   read "Bob" where a per-segment comparison read "Bo" and "b". *)
let test_split_text_is_one_node () =
  let s = Lazy.force schema in
  let repo = Repository.create s in
  Repository.load_fused repo
    {|<dblp><pub><title>P</title><aut><name>Bo<![CDATA[b]]></name></aut><aut><name>Ann</name></aut></pub></dblp>|};
  Repository.load_fused repo
    {|<review><track><name>DB</name><rev><name>Ann</name><sub><title>S</title><auts><name>Bo<!--c-->b</name></auts></sub></rev></track></review>|};
  let c = Conf.conflict s in
  Repository.add_constraint repo c;
  let doc = Repository.doc repo in
  checki "one text node" 1 (List.length (Xic_xml.Doc.children doc (node repo "//aut[1]/name")));
  List.iter
    (fun (tag, p, key) ->
      checkids
        (Printf.sprintf "//%s[%s = %S]: probe = scan" tag p key)
        (Some (PF.scan repo ~tag p key))
        (PF.probe repo ~tag p key))
    [ ("aut", "name/text()", "Bob"); ("aut", "name/text()", "Bo");
      ("sub", "auts/name/text()", "Bob"); ("sub", "auts/name/text()", "b") ];
  checkb "scan verdict" true (Constr.violated_xquery doc c);
  checksl "full check" [ "conflict" ] (Repository.check_full repo);
  checksl "datalog" [ "conflict" ] (Repository.check_full_datalog repo);
  checksl "views" [ "conflict" ] (Repository.check_incremental repo)

(* A reviewer given a second name holds a value its relation's one
   [name] column cannot: the probe declines until the element fits
   again, and the indexed route answers as the scan does.  A document
   loaded without validation, or restored from a snapshot, is assessed
   the same way. *)
let test_probe_misfit () =
  let repo = PF.repo_of probe_doc in
  let rev1 = node repo "/review/track[1]/rev[1]" in
  let undo =
    Repository.apply_unchecked repo
      [ { XU.op = XU.Append; select = Xic_xpath.Parser.parse "/review/track[1]/rev[1]";
          content = [ XU.Elem ("name", [], [ XU.Text "Zed" ]) ] } ]
  in
  ignore (Repository.store repo : Xic_datalog.Store.t);
  checkids "second name: the probe declines" None (PF.probe repo ~tag:"rev" "name/text()" "Zed");
  Alcotest.(check (list int)) "the scan finds it" [ rev1 ] (PF.scan repo ~tag:"rev" "name/text()" "Zed");
  let q = Xic_xpath.Parser.parse {|//rev[name/text() = "Zed"]|} in
  checkb "indexed = scan" true
    (Xic_xpath.Eval.eval (Repository.doc repo) ~index:(Repository.index repo) q
     = Xic_xpath.Eval.Nodes [ rev1 ]);
  Repository.rollback repo undo;
  ignore (Repository.store repo : Xic_datalog.Store.t);
  checkids "fits again" (Some [ rev1 ]) (PF.probe repo ~tag:"rev" "name/text()" "Ann");
  let unvalidated = Repository.create (Lazy.force PF.schema) in
  Repository.load_fused ~validate:false unvalidated
    {|<review><track id="t1"><name>DB</name><rev><name>Ann</name><name>Eve</name></rev></track></review>|};
  checkids "unvalidated misfit: the probe declines" None
    (PF.probe unvalidated ~tag:"rev" "name/text()" "Ann");
  Alcotest.(check (list int)) "the scan finds the second name" [ node unvalidated "//rev" ]
    (PF.scan unvalidated ~tag:"rev" "name/text()" "Eve");
  let path = Filename.temp_file "misfit" ".xis" in
  ignore (Repository.checkpoint unvalidated path : Repository.checkpoint_report);
  let restored = Repository.create (Lazy.force PF.schema) in
  ignore (Repository.load_snapshot restored path : Xic_snapshot.Snapshot.meta);
  Sys.remove path;
  checkids "restored from a snapshot: the probe declines" None
    (PF.probe restored ~tag:"rev" "name/text()" "Ann")

(* A text appended next to a text child merges with it, so the XQuery
   route, which compares each text child, sees the value the store
   holds: "CarlBob", no co-author of reviewer Ann.  Before the merge
   the full check read "Bob" on its own and reported a conflict that
   the store-based verdicts, and a reload of the printed document, did
   not. *)
let test_appended_text_merges () =
  let s = Lazy.force schema in
  let repo = Repository.create s in
  Repository.load_fused repo
    {|<dblp><pub><title>P</title><aut><name>Bob</name></aut><aut><name>Ann</name></aut></pub></dblp>|};
  Repository.load_fused repo
    {|<review><track><name>DB</name><rev><name>Ann</name><sub><title>S</title><auts><name>Carl</name></auts></sub></rev></track></review>|};
  Repository.add_constraint repo (Conf.conflict s);
  let select = "/review/track[1]/rev[1]/sub[1]/auts[1]/name[1]" in
  let undo = Repository.apply_unchecked repo (append_text select "Bob") in
  checksl "full check" [] (Repository.check_full repo);
  checksl "datalog" [] (Repository.check_full_datalog repo);
  checksl "views" [] (Repository.check_incremental repo);
  let doc = Repository.doc repo in
  checki "one text node" 1 (List.length (Xic_xml.Doc.children doc (node repo select)));
  checks "its text" "CarlBob" (Xic_xml.Doc.text_content doc (node repo select));
  Repository.rollback repo undo;
  checki "rollback restores one text node" 1
    (List.length (Xic_xml.Doc.children doc (node repo select)));
  checks "the original text" "Carl" (Xic_xml.Doc.text_content doc (node repo select))

(* A compensation leaves marks the store has not seen; the next
   statement's pre-check flushes them first, so its value probes read
   the store and none falls back to a scan. *)
let test_precheck_after_compensation () =
  let repo = guarded_repo () in
  let fallbacks () = Xic_obs.Obs.Metrics.(value (counter "index_fallbacks")) in
  let txn = Repository.begin_txn repo in
  (match
     (Repository.txn_apply txn
        [ { XU.op = XU.Append;
            select = Xic_xpath.Parser.parse "/review/track[1]/rev[1]";
            content =
              [ XU.Elem ("sub", [],
                   [ XU.Elem ("title", [], [ XU.Text "Bad" ]);
                     XU.Elem ("auts", [], [ XU.Elem ("name", [], [ XU.Text "Carl" ]) ]) ]) ] } ])
       .Repository.outcome
   with
   | Repository.Rolled_back "conflict" -> ()
   | _ -> Alcotest.fail "the self-review must be compensated");
  let f0 = fallbacks () in
  (match
     (Repository.txn_apply txn
        (Conf.insert_submission ~select:"/review/track[1]/rev[1]/sub[1]"
           ~title:"Late" ~author:"Nora"))
       .Repository.outcome
   with
   | Repository.Rejected_early "conflict" -> ()
   | _ -> Alcotest.fail "a co-author of the reviewer is rejected before execution");
  Repository.commit_txn txn;
  checki "no probe fell back" f0 (fallbacks ())

let () =
  Alcotest.run "core"
    [
      ( "probe",
        [
          Alcotest.test_case "attribute column" `Quick test_probe_attribute;
          Alcotest.test_case "single text child" `Quick test_probe_single_text_child;
          Alcotest.test_case "detached subtree" `Quick test_probe_detached_subtree;
          Alcotest.test_case "split text is one node" `Quick test_split_text_is_one_node;
          Alcotest.test_case "misfit declines" `Quick test_probe_misfit;
        ] );
      ( "schema",
        [
          Alcotest.test_case "rendering" `Quick test_schema_rendering;
          Alcotest.test_case "bad DTD" `Quick test_schema_bad_dtd;
          Alcotest.test_case "load validates" `Quick test_load_validates;
          Alcotest.test_case "failed load keeps live state" `Quick
            test_failed_load_keeps_live_state;
          Alcotest.test_case "from DOCTYPE" `Quick test_schema_from_doctype;
        ] );
      ( "constraints",
        [
          Alcotest.test_case "compiles" `Quick test_constraint_compiles;
          Alcotest.test_case "bad source" `Quick test_constraint_bad_source;
          Alcotest.test_case "full check consistent" `Quick test_check_full_consistent;
          Alcotest.test_case "full check violation" `Quick test_check_full_detects_violation;
          Alcotest.test_case "explain" `Quick test_explain;
          Alcotest.test_case "explain consistent" `Quick test_explain_consistent;
        ] );
      ( "patterns",
        [
          Alcotest.test_case "relational atoms" `Quick test_pattern_atoms;
          Alcotest.test_case "matching" `Quick test_pattern_match;
          Alcotest.test_case "shape mismatch" `Quick test_pattern_no_match_wrong_shape;
          Alcotest.test_case "anchor mismatch" `Quick test_pattern_no_match_wrong_anchor;
          Alcotest.test_case "one select for every pattern" `Quick
            test_match_update_one_select;
          Alcotest.test_case "non-leaf deletion rejected" `Quick
            test_pattern_deletion_non_leaf_rejected;
          Alcotest.test_case "leaf deletion pattern" `Quick test_pattern_deletion_leaf;
          Alcotest.test_case "multi-fragment pattern" `Quick test_multi_fragment_pattern;
          Alcotest.test_case "recursive DTD" `Quick test_recursive_dtd_constraints;
        ] );
      ( "degradation log",
        [
          Alcotest.test_case "an unsupported pair is logged once" `Quick
            test_unsupported_logged_once;
        ] );
      ( "templates",
        [
          Alcotest.test_case "key" `Quick test_template_key;
          Alcotest.test_case "foreign key" `Quick test_template_foreign_key;
          Alcotest.test_case "cardinality" `Quick test_template_cardinality;
          Alcotest.test_case "forbidden value" `Quick test_template_forbidden_value;
          Alcotest.test_case "distinct siblings" `Quick test_template_distinct_siblings;
          Alcotest.test_case "simplifies" `Quick test_template_simplifies;
        ] );
      ( "guarded updates",
        [
          Alcotest.test_case "legal" `Quick test_guarded_legal;
          Alcotest.test_case "self-review" `Quick test_guarded_self_review;
          Alcotest.test_case "co-author" `Quick test_guarded_coauthor;
          Alcotest.test_case "track load limit" `Quick test_guarded_track_load;
          Alcotest.test_case "fallback full check" `Quick test_guarded_fallback_full_check;
          Alcotest.test_case "fallback rollback" `Quick test_guarded_fallback_rollback;
          Alcotest.test_case "pre-check after a compensation" `Quick
            test_precheck_after_compensation;
          Alcotest.test_case "appended text merges" `Quick test_appended_text_merges;
          Alcotest.test_case "optimized = full decision" `Quick test_optimized_equals_full_decision;
          Alcotest.test_case "pin retention" `Quick test_pin_retention;
          Alcotest.test_case "pin freezes views" `Quick test_pin_freezes_views;
          Alcotest.test_case "pin answers for its constraints" `Quick
            test_pin_answers_for_its_constraints;
          Alcotest.test_case "pin before any verdict" `Quick
            test_pin_before_any_verdict;
          Alcotest.test_case "failed flush drops views" `Quick
            test_failed_flush_drops_views;
          Alcotest.test_case "store mirror" `Quick test_store_mirror_consistency;
          Alcotest.test_case "rollback mirror agreement" `Quick
            test_rollback_mirror_agreement;
          Alcotest.test_case "guarded deletion" `Quick test_guarded_deletion;
          Alcotest.test_case "duplicate names" `Quick test_duplicate_names_rejected;
        ] );
    ]
