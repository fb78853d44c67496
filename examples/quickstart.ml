(* Quickstart: declare a schema, a constraint and an update pattern, then
   let the repository guard updates.

   Run with: dune exec examples/quickstart.exe *)

open Xic_core

let dtd =
  {|<!ELEMENT team (member)*>
    <!ELEMENT member (name, role)>
    <!ELEMENT name (#PCDATA)>
    <!ELEMENT role (#PCDATA)>|}

let () =
  (* 1. Schema: a DTD per document, with its root element name. *)
  let schema = Schema.create [ (dtd, "team") ] in
  Printf.printf "Relational mapping:\n%s\n\n" (Schema.to_string schema);

  (* 2. An integrity constraint in XPathLog: member names are unique. *)
  let unique_names =
    Constr.make schema ~name:"unique_names"
      "<- //member[name/text() -> N] -> M1 and //member[name/text() -> N] -> M2 and M1 != M2"
  in
  Printf.printf "Compiled to Datalog:\n%s\n\n"
    (Xic_datalog.Term.denials_str unique_names.Constr.datalog);
  Printf.printf "Translated to XQuery:\n%s\n\n"
    (Xic_xquery.Ast.to_string unique_names.Constr.xquery);

  (* 3. A repository with a document. *)
  let repo = Repository.create schema in
  Repository.load_fused repo
    {|<team><member><name>Ada</name><role>lead</role></member>
           <member><name>Alan</name><role>dev</role></member></team>|};
  Repository.add_constraint repo unique_names;

  (* 4. An update pattern: appending a new member.  Registered once, it is
     simplified against every constraint at "schema design time". *)
  let pattern =
    Pattern.make schema ~name:"add_member" ~op:Xic_xupdate.Xupdate.Append
      ~anchor_type:"team"
      ~content:
        [ Xic_xupdate.Xupdate.Elem
            ( "member",
              [],
              [ Xic_xupdate.Xupdate.Elem ("name", [], [ Xic_xupdate.Xupdate.Text "%n" ]);
                Xic_xupdate.Xupdate.Elem ("role", [], [ Xic_xupdate.Xupdate.Text "%r" ]);
              ] )
        ]
  in
  Repository.register_pattern repo pattern;
  List.iter
    (fun (c : Repository.optimized_check) ->
      Printf.printf "Simplified check for %s:\n  %s\n  %s\n\n"
        c.Repository.constraint_name
        (Xic_datalog.Term.denials_str c.Repository.simplified)
        (Xic_xquery.Ast.to_string c.Repository.simplified_xquery))
    (Repository.optimized_checks repo pattern);

  (* 5. Guarded updates: the optimized check runs before execution. *)
  let add name role =
    let u =
      [ { Xic_xupdate.Xupdate.op = Xic_xupdate.Xupdate.Append;
          select = Xic_xpath.Parser.parse "/team";
          content =
            [ Xic_xupdate.Xupdate.Elem
                ( "member",
                  [],
                  [ Xic_xupdate.Xupdate.Elem ("name", [], [ Xic_xupdate.Xupdate.Text name ]);
                    Xic_xupdate.Xupdate.Elem ("role", [], [ Xic_xupdate.Xupdate.Text role ]);
                  ] )
            ];
        } ]
    in
    match Repository.guarded_update repo u with
    | Repository.Applied `Optimized ->
      Printf.printf "+ %-8s accepted (optimized pre-check)\n" name
    | Repository.Applied `Full_check ->
      Printf.printf "+ %-8s accepted (full check)\n" name
    | Repository.Rejected_early c ->
      Printf.printf "- %-8s rejected before execution (violates %s)\n" name c
    | Repository.Rolled_back c ->
      Printf.printf "- %-8s rolled back (violates %s)\n" name c
  in
  add "Grace" "dev";
  add "Ada" "dev";  (* duplicate name: rejected early *)
  add "Edsger" "qa";

  Printf.printf "\nFinal document:\n%s\n"
    (Xic_xml.Xml_printer.to_string ~indent:true (Repository.doc repo))
