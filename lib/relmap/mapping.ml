open Xic_xml

type col_source =
  | From_attr of string
  | From_pcdata_child of string
  | From_text

type column = {
  col_name : string;
  source : col_source;
  optional : bool;
}

type pred_schema = {
  pname : string;
  columns : column list;
}

type repr =
  | Predicate of pred_schema
  | Embedded
  | Elided

type t = {
  dtds : (Dtd.t * string) list;
  reprs : (string, repr) Hashtbl.t;
  reprs_sym : (Doc.Symbol.t, repr) Hashtbl.t;
  (* (parent, child) pairs where the child is embedded as a column *)
  embedded_edges : (string * string, unit) Hashtbl.t;
  types : string list;  (* declaration order, first DTD first *)
}

exception Mapping_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Mapping_error s)) fmt

let dtds t = t.dtds

(* A child is embeddable into a given parent when it is (#PCDATA)-only,
   has no attributes of its own, and occurs at most once there. *)
let embeddable dtd ~parent ~child =
  Dtd.is_pcdata_only dtd child
  && (match Dtd.find dtd child with
      | Some d -> d.Dtd.attlist = []
      | None -> false)
  && (match Dtd.child_multiplicity dtd ~parent ~child with
      | Dtd.M_one | Dtd.M_opt -> true
      | Dtd.M_many | Dtd.M_none -> false)

let build docs =
  if docs = [] then fail "no documents given";
  (* Merge declarations, rejecting conflicts. *)
  let decls : (string, Dtd.element_decl * Dtd.t) Hashtbl.t = Hashtbl.create 32 in
  let types = ref [] in
  List.iter
    (fun (dtd, root) ->
      (match Dtd.find dtd root with
       | None -> fail "root element <%s> is not declared in its DTD" root
       | Some _ -> ());
      List.iter
        (fun d ->
          match Hashtbl.find_opt decls d.Dtd.elem_name with
          | None ->
            Hashtbl.add decls d.Dtd.elem_name (d, dtd);
            types := d.Dtd.elem_name :: !types
          | Some (d', _) ->
            if d'.Dtd.content <> d.Dtd.content || d'.Dtd.attlist <> d.Dtd.attlist then
              fail "conflicting declarations for element <%s> across DTDs"
                d.Dtd.elem_name)
        (Dtd.declarations dtd))
    docs;
  let types = List.rev !types in
  let roots = List.map snd docs in
  (* In which parents can each type occur, and is it embedded there? *)
  let embedded_edges = Hashtbl.create 32 in
  let occurs_non_embedded = Hashtbl.create 32 in
  List.iter
    (fun parent ->
      let _, dtd = Hashtbl.find decls parent in
      List.iter
        (fun child ->
          if embeddable dtd ~parent ~child then
            Hashtbl.replace embedded_edges (parent, child) ()
          else Hashtbl.replace occurs_non_embedded child ())
        (Dtd.child_names dtd parent))
    types;
  (* Representations. *)
  let reprs = Hashtbl.create 32 in
  let columns_of name =
    let decl, dtd = Hashtbl.find decls name in
    let attr_cols =
      List.map
        (fun (a : Dtd.attr_decl) ->
          { col_name = a.Dtd.attr_name;
            source = From_attr a.Dtd.attr_name;
            optional = not a.Dtd.required;
          })
        decl.Dtd.attlist
    in
    let child_cols =
      List.filter_map
        (fun child ->
          if Hashtbl.mem embedded_edges (name, child) then
            Some
              { col_name = child;
                source = From_pcdata_child child;
                optional =
                  Dtd.child_multiplicity dtd ~parent:name ~child = Dtd.M_opt;
              }
          else None)
        (Dtd.child_names dtd name)
    in
    let text_col =
      if decl.Dtd.content = Dtd.PCData then
        [ { col_name = "text"; source = From_text; optional = false } ]
      else []
    in
    attr_cols @ child_cols @ text_col
  in
  List.iter
    (fun name ->
      let is_root = List.mem name roots in
      let always_embedded =
        (not (Hashtbl.mem occurs_non_embedded name))
        && not is_root
        && Hashtbl.fold
             (fun (_, c) () acc -> acc || c = name)
             embedded_edges false
      in
      let repr =
        if always_embedded then Embedded
        else begin
          let cols = columns_of name in
          if is_root && cols = [] then Elided
          else Predicate { pname = name; columns = cols }
        end
      in
      Hashtbl.replace reprs name repr)
    types;
  let reprs_sym = Hashtbl.create 32 in
  Hashtbl.iter
    (fun name repr -> Hashtbl.replace reprs_sym (Doc.Symbol.intern name) repr)
    reprs;
  { dtds = docs; reprs; reprs_sym; embedded_edges; types }

let repr_of t name =
  match Hashtbl.find_opt t.reprs name with
  | Some r -> r
  | None -> fail "element type <%s> is not part of the schema" name

let repr_of_sym t sym =
  match Hashtbl.find_opt t.reprs_sym sym with
  | Some r -> r
  | None -> fail "element type <%s> is not part of the schema" (Doc.Symbol.name sym)

let predicates t =
  List.filter_map
    (fun name ->
      match Hashtbl.find_opt t.reprs name with
      | Some (Predicate s) -> Some s
      | _ -> None)
    t.types

let schema_of t name =
  match Hashtbl.find_opt t.reprs name with
  | Some (Predicate s) -> Some s
  | _ -> None

let is_embedded_in t ~parent ~child = Hashtbl.mem t.embedded_edges (parent, child)

let column_of t ~pred source =
  Option.bind (schema_of t pred) (fun s ->
      Option.map (( + ) 3) (List.find_index (fun c -> c.source = source) s.columns))

let arity t name =
  match schema_of t name with
  | Some s -> 3 + List.length s.columns
  | None -> fail "<%s> does not map to a predicate" name

let containers_of t name =
  List.concat_map
    (fun (dtd, _) ->
      if Dtd.find dtd name = None then []
      else Dtd.parents_of dtd name)
    t.dtds
  |> List.sort_uniq compare

let predicate_children t name =
  let kids =
    List.concat_map
      (fun (dtd, _) ->
        if Dtd.find dtd name = None then [] else Dtd.child_names dtd name)
      t.dtds
    |> List.sort_uniq compare
  in
  List.filter
    (fun k -> match repr_of t k with Predicate _ -> true | _ -> false)
    kids

let schema_to_string t =
  let parent_suffix name =
    match containers_of t name with
    | [ p ] -> "_" ^ p
    | _ -> ""
  in
  String.concat "\n"
    (List.map
       (fun s ->
         let cap x = String.capitalize_ascii x in
         Printf.sprintf "%s(Id, Pos, IdParent%s%s)" s.pname (parent_suffix s.pname)
           (String.concat ""
              (List.map (fun c -> ", " ^ cap c.col_name) s.columns)))
       (predicates t))
