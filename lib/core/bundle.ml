exception Bundle_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Bundle_error s)) fmt

let header = "xic-bundle 1"

let one_line s =
  String.map (function '\n' | '\r' -> ' ' | c -> c) s

(* ------------------------------------------------------------------ *)
(* Saving                                                              *)
(* ------------------------------------------------------------------ *)

let template_of_pattern (p : Pattern.t) =
  Xic_xupdate.Xupdate.to_string
    [ { Xic_xupdate.Xupdate.op =
          (if p.Pattern.op = Xic_xupdate.Xupdate.Remove then
             Xic_xupdate.Xupdate.Remove
           else p.Pattern.op);
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
      match c.Constr.xpathlog with
      | Some _ ->
        Buffer.add_string b
          (Printf.sprintf "constraint %s\n  %s\n\n" c.Constr.name
             (one_line c.Constr.source))
      | None ->
        Buffer.add_string b (Printf.sprintf "constraint-datalog %s\n" c.Constr.name);
        List.iter
          (fun d ->
            Buffer.add_string b
              ("  " ^ one_line (Xic_datalog.Term.denial_str { d with Xic_datalog.Term.label = None }) ^ "\n"))
          c.Constr.datalog;
        Buffer.add_char b '\n')
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

(* ------------------------------------------------------------------ *)
(* Loading                                                             *)
(* ------------------------------------------------------------------ *)

type section = {
  kind : string;
  arg : string;
  body : string list;
}

let parse_sections text =
  let lines = String.split_on_char '\n' text in
  (match lines with
   | first :: _ when String.trim first = header -> ()
   | _ -> fail "not a %s file" header);
  let sections = ref [] in
  let current = ref None in
  let flush () =
    match !current with
    | Some s -> sections := { s with body = List.rev s.body } :: !sections
    | None -> ()
  in
  List.iteri
    (fun i line ->
      if i = 0 || String.trim line = "" then ()
      else if String.length line >= 2 && String.sub line 0 2 = "  " then begin
        match !current with
        | Some s -> current := Some { s with body = String.trim line :: s.body }
        | None -> fail "line %d: continuation outside a section" (i + 1)
      end
      else begin
        flush ();
        match String.index_opt line ' ' with
        | Some j ->
          current :=
            Some
              { kind = String.sub line 0 j;
                arg = String.sub line (j + 1) (String.length line - j - 1);
                body = [];
              }
        | None -> fail "line %d: malformed section header %S" (i + 1) line
      end)
    lines;
  flush ();
  List.rev !sections

let load schema text =
  let sections = parse_sections text in
  let repo = Repository.create schema in
  (* constraints first *)
  List.iter
    (fun s ->
      match s.kind with
      | "constraint" ->
        (match s.body with
         | [ src ] ->
           (match Constr.make schema ~name:s.arg src with
            | c -> Repository.add_constraint repo c
            | exception Constr.Constraint_error m -> fail "%s" m)
         | _ -> fail "constraint %s: expected one source line" s.arg)
      | "constraint-datalog" ->
        let denials =
          List.map
            (fun line ->
              match Xic_datalog.Parser.parse_denial ~label:s.arg line with
              | d -> d
              | exception Xic_datalog.Parser.Parse_error m -> fail "%s: %s" s.arg m)
            s.body
        in
        (match Constr.of_datalog schema ~name:s.arg denials with
         | c -> Repository.add_constraint repo c
         | exception Constr.Constraint_error m -> fail "%s" m)
      | _ -> ())
    sections;
  (* then patterns, and validate the stored checks *)
  List.iter
    (fun s ->
      if s.kind = "pattern" then begin
        match s.body with
        | [ template ] ->
          (match Xic_xupdate.Xupdate.parse_string template with
           | [ m ] ->
             (match Pattern.of_modification schema ~name:s.arg m with
              | p -> Repository.register_pattern repo p
              | exception Pattern.Pattern_error e -> fail "%s" e)
           | _ -> fail "pattern %s: expected one modification" s.arg
           | exception Xic_xupdate.Xupdate.Xupdate_error m -> fail "%s: %s" s.arg m)
        | _ -> fail "pattern %s: expected one template line" s.arg
      end)
    sections;
  (* stale-bundle detection: stored checks must be variants of the
     recomputed ones *)
  List.iter
    (fun s ->
      if s.kind = "checks" then begin
        match String.split_on_char ' ' s.arg with
        | [ pname; cname ] ->
          let p =
            match
              List.find_opt (fun p -> p.Pattern.name = pname) (Repository.patterns repo)
            with
            | Some p -> p
            | None -> fail "checks refer to unknown pattern %s" pname
          in
          let stored =
            List.map
              (fun line ->
                match Xic_datalog.Parser.parse_denial line with
                | d -> d
                | exception Xic_datalog.Parser.Parse_error m ->
                  fail "checks %s: %s" s.arg m)
              s.body
          in
          let current =
            match
              List.find_opt
                (fun (c : Repository.optimized_check) ->
                  c.Repository.constraint_name = cname)
                (Repository.optimized_checks repo p)
            with
            | Some c -> c.Repository.simplified
            | None -> fail "checks refer to unknown constraint %s" cname
          in
          if
            List.length stored <> List.length current
            || not (List.for_all2 Xic_datalog.Subsume.variant stored current)
          then
            fail
              "stale bundle: stored checks for pattern %s / constraint %s differ \
               from the recompiled ones"
              pname cname
        | _ -> fail "malformed checks header %S" s.arg
      end)
    sections;
  repo
