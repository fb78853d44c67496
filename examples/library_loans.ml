(* A lending library: aggregate constraints over attributed elements.
   Demonstrates XML attributes as relational columns, count aggregates
   with update-time decrements, and position qualifiers.

   Run with: dune exec examples/library_loans.exe *)

open Xic_core
module XU = Xic_xupdate.Xupdate

let dtd =
  {|<!ELEMENT library (reader*)>
    <!ELEMENT reader (loan*)>
    <!ATTLIST reader id CDATA #REQUIRED category CDATA #IMPLIED>
    <!ELEMENT loan (book)>
    <!ELEMENT book (#PCDATA)>|}

let () =
  let schema = Schema.create [ (dtd, "library") ] in
  Printf.printf "Mapping (attributes become columns):\n%s\n\n"
    (Schema.to_string schema);

  (* At most 3 simultaneous loans per reader. *)
  let loan_limit =
    Constr.make schema ~name:"loan_limit" "<- //reader -> R and cnt{; R/loan} > 3"
  in
  (* 'guest' readers may not borrow at all. *)
  let guest_block =
    Constr.make schema ~name:"guest_block"
      "<- //reader[@category -> C] -> R and R/loan and C = \"guest\""
  in
  Printf.printf "loan_limit: %s\n"
    (Xic_datalog.Term.denials_str loan_limit.Constr.datalog);
  Printf.printf "guest_block: %s\n\n"
    (Xic_datalog.Term.denials_str guest_block.Constr.datalog);

  let repo = Repository.create schema in
  Repository.load_fused repo
    {|<library>
        <reader id="r1" category="member"><loan><book>SICP</book></loan><loan><book>TAPL</book></loan></reader>
        <reader id="r2" category="member"><loan><book>CLRS</book></loan><loan><book>K&amp;R</book></loan><loan><book>Dragon</book></loan></reader>
        <reader id="r3" category="guest"/>
      </library>|};
  Repository.add_constraint repo loan_limit;
  Repository.add_constraint repo guest_block;
  Printf.printf "initial: %s\n\n"
    (match Repository.check_full repo with [] -> "consistent" | vs -> String.concat "," vs);

  (* Pattern: lending one book to a reader (append a loan). *)
  let lend_pattern =
    Pattern.make schema ~name:"lend" ~op:XU.Append ~anchor_type:"reader"
      ~content:
        [ XU.Elem ("loan", [], [ XU.Elem ("book", [], [ XU.Text "%b" ]) ]) ]
  in
  Repository.register_pattern repo lend_pattern;
  List.iter
    (fun (c : Repository.optimized_check) ->
      Printf.printf "Simp for %s:\n  %s\n  -> %s\n" c.Repository.constraint_name
        (match c.Repository.simplified with
         | [] -> "(nothing to check)"
         | ds -> Xic_datalog.Term.denials_str ds)
        (Xic_xquery.Ast.to_string c.Repository.simplified_xquery))
    (Repository.optimized_checks repo lend_pattern);
  print_newline ();

  let lend reader book =
    let u =
      [ { XU.op = XU.Append;
          select =
            Xic_xpath.Parser.parse
              (Printf.sprintf "//reader[@id = \"%s\"]" reader);
          content = [ XU.Elem ("loan", [], [ XU.Elem ("book", [], [ XU.Text book ]) ]) ];
        } ]
    in
    match Repository.guarded_update repo u with
    | Repository.Applied `Optimized -> Printf.printf "+ %s borrows %S\n" reader book
    | Repository.Applied `Full_check ->
      Printf.printf "+ %s borrows %S (full check)\n" reader book
    | Repository.Rejected_early c ->
      Printf.printf "- %s refused %S before execution (%s)\n" reader book c
    | Repository.Rolled_back c ->
      Printf.printf "- %s: %S rolled back (%s)\n" reader book c
  in
  lend "r1" "The Art of Computer Programming";  (* 3rd loan: fine *)
  lend "r1" "Goedel Escher Bach";               (* 4th loan: over the limit *)
  lend "r2" "Real World OCaml";                 (* r2 already holds 3 *)
  lend "r3" "Anything";                         (* guests cannot borrow *)

  (* -------- deletions: returning books ---------------------------- *)
  (* Members must keep at least one active loan. *)
  let keep_one =
    Constr.make schema ~name:"keep_one"
      "<- //reader[@category -> C] -> R and C = \"member\" and cnt{; R/loan} < 1"
  in
  Repository.add_constraint repo keep_one;
  let return_pattern =
    Pattern.make schema ~name:"return_book" ~op:XU.Remove ~anchor_type:"loan"
      ~content:[]
  in
  Repository.register_pattern repo return_pattern;
  Printf.printf "\ndeletion pattern: { %s }\n"
    (String.concat ", "
       (List.map Xic_datalog.Term.atom_str return_pattern.Pattern.del_atoms));
  List.iter
    (fun (c : Repository.optimized_check) ->
      Printf.printf "Simp for %s under returns: %s\n" c.Repository.constraint_name
        (match c.Repository.simplified with
         | [] -> "(returns can never violate it)"
         | ds -> Xic_datalog.Term.denials_str ds))
    (Repository.optimized_checks repo return_pattern);
  print_newline ();
  let return_book reader =
    let u =
      [ { XU.op = XU.Remove;
          select =
            Xic_xpath.Parser.parse
              (Printf.sprintf "//reader[@id = \"%s\"]/loan[1]" reader);
          content = [];
        } ]
    in
    match Repository.guarded_update repo u with
    | Repository.Applied `Optimized -> Printf.printf "+ %s returns a book\n" reader
    | Repository.Applied `Full_check ->
      Printf.printf "+ %s returns a book (full check)\n" reader
    | Repository.Rejected_early c ->
      Printf.printf "- %s may not return: would violate %s\n" reader c
    | Repository.Rolled_back c -> Printf.printf "- %s: return rolled back (%s)\n" reader c
  in
  return_book "r1";
  return_book "r1";
  return_book "r1";  (* would leave a member with zero loans: rejected *)

  Printf.printf "\nloans per reader: %s\n"
    (String.concat ", "
       (List.map
          (fun r ->
            Printf.sprintf "%s=%d"
              (Option.value ~default:"?"
                 (Xic_xml.Doc.attr (Repository.doc repo) r "id"))
              (List.length
                 (Xic_xpath.Eval.select (Repository.doc repo) ~ctx:r
                    (Xic_xpath.Parser.parse "loan"))))
          (Xic_xpath.Eval.select (Repository.doc repo)
             (Xic_xpath.Parser.parse "//reader"))));
  Printf.printf "final: %s\n"
    (match Repository.check_full repo with [] -> "consistent" | vs -> String.concat "," vs)
