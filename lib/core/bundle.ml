let header = "xic-bundle 1"

let one_line s =
  String.map (function '\n' | '\r' -> ' ' | c -> c) s

let template_of_pattern (p : Pattern.t) =
  Xic_xupdate.Xupdate.to_string
    [ { Xic_xupdate.Xupdate.op = p.Pattern.op;
        select =
          Xic_xpath.Ast.Path
            ( Xic_xpath.Ast.Abs,
              [ Xic_xpath.Ast.desc_step;
                { Xic_xpath.Ast.axis = Xic_xpath.Ast.Child;
                  test = Xic_xpath.Ast.Name_test p.Pattern.anchor_type;
                  preds = [];
                } ] );
        content = p.Pattern.content;
      } ]

let save repo =
  let b = Buffer.create 1024 in
  Buffer.add_string b (header ^ "\n\n");
  List.iter
    (fun (c : Constr.t) ->
      Buffer.add_string b
        (Printf.sprintf "constraint %s\n  %s\n\n" c.Constr.name
           (one_line c.Constr.source)))
    (Repository.constraints repo);
  List.iter
    (fun (p : Pattern.t) ->
      Buffer.add_string b
        (Printf.sprintf "pattern %s\n  %s\n\n" p.Pattern.name (template_of_pattern p));
      List.iter
        (fun (ch : Repository.optimized_check) ->
          Buffer.add_string b
            (Printf.sprintf "checks %s %s\n" p.Pattern.name ch.Repository.constraint_name);
          List.iter
            (fun d ->
              Buffer.add_string b
                ("  "
                 ^ one_line
                     (Xic_datalog.Term.denial_str { d with Xic_datalog.Term.label = None })
                 ^ "\n"))
            ch.Repository.simplified;
          Buffer.add_char b '\n')
        (Repository.optimized_checks repo p))
    (Repository.patterns repo);
  Buffer.contents b

let save_file repo path =
  let oc = open_out path in
  output_string oc (save repo);
  close_out oc
