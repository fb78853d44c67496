type t = {
  name : string;
  source : string;
  xpathlog : Xic_xpathlog.Ast.denial;
  datalog : Xic_datalog.Term.denial list;
  xquery : Xic_xquery.Ast.expr;
}

exception Constraint_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Constraint_error s)) fmt

let make schema ~name source =
  let mapping = Schema.mapping schema in
  let xpathlog =
    try Xic_xpathlog.Parser.parse_denial ~label:name source
    with Xic_xpathlog.Parser.Parse_error m -> fail "%s: parse error: %s" name m
  in
  let datalog =
    try Xic_xpathlog.Compile.compile_denial mapping xpathlog
    with Xic_xpathlog.Compile.Compile_error m -> fail "%s: compile error: %s" name m
  in
  let xquery =
    try Xic_translate.Translate.denials mapping datalog
    with Xic_translate.Translate.Untranslatable m ->
      fail "%s: translation error: %s" name m
  in
  { name; source; xpathlog; datalog; xquery }

let violated_xquery ?index doc t =
  try Xic_xquery.Eval.eval_bool doc ?index t.xquery
  with Xic_xquery.Eval.Eval_error m -> fail "%s: evaluation error: %s" t.name m

let violated_compiled ?index doc t plan =
  try Xic_xquery.Eval.run_bool doc ?index plan
  with Xic_xquery.Eval.Eval_error m -> fail "%s: evaluation error: %s" t.name m

let violated_datalog store t =
  List.exists (fun d -> Xic_datalog.Eval.violated store d) t.datalog
