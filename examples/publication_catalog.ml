(* A publication catalogue with key and referential constraints — the XML
   rendition of the paper's relational Examples 4/5 (ISSN uniqueness),
   plus a foreign-key-style constraint expressed as a safe negation.

   Run with: dune exec examples/publication_catalog.exe *)

open Xic_core
module XU = Xic_xupdate.Xupdate

let dtd =
  {|<!ELEMENT catalog (journal*, article*)>
    <!ELEMENT journal (issn, title)>
    <!ELEMENT issn (#PCDATA)>
    <!ELEMENT title (#PCDATA)>
    <!ELEMENT article (title, in)>
    <!ELEMENT in (#PCDATA)>|}

let () =
  let schema = Schema.create [ (dtd, "catalog") ] in
  Printf.printf "Mapping:\n%s\n\n" (Schema.to_string schema);

  (* Example 4's phi: no two journals share an ISSN with different titles
     — spelled over XML. *)
  let unique_issn =
    Constr.make schema ~name:"unique_issn"
      "<- //journal[issn/text() -> I][title/text() -> Y] and \
       //journal[issn/text() -> I][title/text() -> Z] and Y != Z"
  in
  (* Referential integrity: every article's [in] names an existing
     journal ISSN.  Negation compiles to a 'not' literal. *)
  let article_fk =
    Constr.make schema ~name:"article_fk"
      "<- //article/in/text() -> I and not(//journal[issn/text() -> I])"
  in
  Printf.printf "unique_issn datalog:\n%s\n"
    (Xic_datalog.Term.denials_str unique_issn.Constr.datalog);
  Printf.printf "article_fk datalog:\n%s\n\n"
    (Xic_datalog.Term.denials_str article_fk.Constr.datalog);

  let repo = Repository.create schema in
  Repository.load_fused repo
    {|<catalog>
        <journal><issn>1066-8888</issn><title>The VLDB Journal</title></journal>
        <journal><issn>0362-5915</issn><title>ACM TODS</title></journal>
        <article><title>Integrity Checking Revisited</title><in>1066-8888</in></article>
      </catalog>|};
  Repository.add_constraint repo unique_issn;
  Repository.add_constraint repo article_fk;

  (* Pattern: registering a new journal (Example 4's update). *)
  let add_journal_pattern =
    Pattern.make schema ~name:"add_journal" ~op:XU.Append ~anchor_type:"catalog"
      ~content:
        [ XU.Elem
            ( "journal",
              [],
              [ XU.Elem ("issn", [], [ XU.Text "%i" ]);
                XU.Elem ("title", [], [ XU.Text "%t" ]) ] )
        ]
  in
  Repository.register_pattern repo add_journal_pattern;
  Printf.printf "update pattern U = { %s }\n\n"
    (String.concat ", "
       (List.map Xic_datalog.Term.atom_str add_journal_pattern.Pattern.atoms));
  List.iter
    (fun (c : Repository.optimized_check) ->
      Printf.printf "Simp for %s: %s\n" c.Repository.constraint_name
        (match c.Repository.simplified with
         | [] -> "(nothing to check)"
         | ds -> Xic_datalog.Term.denials_str ds))
    (Repository.optimized_checks repo add_journal_pattern);

  print_newline ();
  let add_journal issn title =
    let u =
      [ { XU.op = XU.Append;
          select = Xic_xpath.Parser.parse "/catalog";
          content =
            [ XU.Elem
                ( "journal",
                  [],
                  [ XU.Elem ("issn", [], [ XU.Text issn ]);
                    XU.Elem ("title", [], [ XU.Text title ]) ] )
            ];
        } ]
    in
    match Repository.guarded_update repo u with
    | Repository.Applied _ -> Printf.printf "+ journal %s %S accepted\n" issn title
    | Repository.Rejected_early c ->
      Printf.printf "- journal %s %S rejected early (%s)\n" issn title c
    | Repository.Rolled_back c ->
      Printf.printf "- journal %s %S rolled back (%s)\n" issn title c
  in
  (* Same ISSN, same title: allowed (the denial needs different titles,
     exactly as the paper's simplified check "there must not already exist
     another publication with the same ISSN and a different title"). *)
  add_journal "2154-0357" "Journal of Reproducibility";
  add_journal "1066-8888" "The VLDB Journal";
  add_journal "1066-8888" "A Different Title";

  (* An article referencing an unknown journal: no registered pattern
     matches, so the fallback applies it, detects the violation with the
     full check, and compensates. *)
  let u =
    [ { XU.op = XU.Append;
        select = Xic_xpath.Parser.parse "/catalog";
        content =
          [ XU.Elem
              ( "article",
                [],
                [ XU.Elem ("title", [], [ XU.Text "Dangling Reference" ]);
                  XU.Elem ("in", [], [ XU.Text "9999-9999" ]) ] )
          ];
      } ]
  in
  (match Repository.guarded_update repo u with
   | Repository.Rolled_back c ->
     Printf.printf "- dangling article rolled back by full check (%s)\n" c
   | _ -> Printf.printf "- unexpected outcome for dangling article\n");

  Printf.printf "\nfinal: %s, %d journals\n"
    (match Repository.check_full repo with [] -> "consistent" | _ -> "violated")
    (List.length
       (Xic_xpath.Eval.select (Repository.doc repo) (Xic_xpath.Parser.parse "//journal")))
