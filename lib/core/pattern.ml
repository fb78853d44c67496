open Xic_xml
module T = Xic_datalog.Term
module M = Xic_relmap.Mapping
module XU = Xic_xupdate.Xupdate

type t = {
  name : string;
  op : XU.op;
  anchor_type : string;
  content : XU.content list;
  atoms : T.atom list;
  del_atoms : T.atom list;
  fresh : string list;
  anchor_param : string;
  data_params : string list;
}

exception Pattern_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Pattern_error s)) fmt

let is_param_text s =
  String.length s > 1 && s.[0] = '%'
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9') || c = '_')
       (String.sub s 1 (String.length s - 1))

let param_of_text s = String.sub s 1 (String.length s - 1)

(* The text of a content template node (for embedded children). *)
let template_text kids =
  String.concat ""
    (List.filter_map (function XU.Text s -> Some s | XU.Elem _ -> None) kids)

let text_term s = if is_param_text s then T.Param (param_of_text s) else T.Const (T.Str s)

(* ------------------------------------------------------------------ *)
(* Pattern derivation                                                  *)
(* ------------------------------------------------------------------ *)

(* Removal patterns: the removed type must be a relational leaf (every
   child embedded) so the subtree is exactly one tuple. *)
let make_removal schema ~name ~anchor_type =
  let mapping = Schema.mapping schema in
  (match M.repr_of mapping anchor_type with
   | M.Predicate _ -> ()
   | _ -> fail "%s: <%s> does not map to a predicate" name anchor_type
   | exception M.Mapping_error m -> fail "%s: %s" name m);
  (match M.predicate_children mapping anchor_type with
   | [] -> ()
   | kids ->
     fail "%s: cannot remove <%s>: its children %s map to predicates themselves"
       name anchor_type (String.concat ", " kids));
  let schema_cols =
    match M.schema_of mapping anchor_type with
    | Some s -> s.M.columns
    | None -> assert false
  in
  let col_params =
    List.map (fun (c : M.column) -> T.Param ("c_" ^ c.M.col_name)) schema_cols
  in
  {
    name;
    op = XU.Remove;
    anchor_type;
    content = [];
    atoms = [];
    del_atoms =
      [ { T.pred = anchor_type;
          T.args = T.Param "target" :: T.Param "p" :: T.Param "anchor" :: col_params;
        } ];
    fresh = [];
    anchor_param = "anchor";
    data_params = List.map (fun (c : M.column) -> "c_" ^ c.M.col_name) schema_cols;
  }

let make schema ~name ~op ~anchor_type ~content =
  (match op with
   | XU.Remove when content <> [] -> fail "%s: removal patterns take no content" name
   | _ -> ());
  if op = XU.Remove then make_removal schema ~name ~anchor_type
  else begin
  let mapping = Schema.mapping schema in
  let parent_type =
    match op with
    | XU.Append -> anchor_type
    | XU.Insert_after | XU.Insert_before ->
      (match M.containers_of mapping anchor_type with
       | [ p ] -> p
       | [] -> fail "%s: <%s> has no container type" name anchor_type
       | ps ->
         fail "%s: <%s> has several container types (%s); use append patterns"
           name anchor_type (String.concat ", " ps))
    | XU.Remove -> assert false
  in
  let atoms = ref [] in
  let fresh = ref [] in
  let data_params = ref [] in
  let tag_counts = Hashtbl.create 8 in
  let fresh_param base =
    let n = 1 + Option.value ~default:0 (Hashtbl.find_opt tag_counts base) in
    Hashtbl.replace tag_counts base n;
    if n = 1 then base else Printf.sprintf "%s%d" base n
  in
  let note_data t =
    match t with
    | T.Param p when not (List.mem p !data_params) -> data_params := p :: !data_params
    | _ -> ()
  in
  let rec walk parent_term parent_type pos_term = function
    | XU.Text _ -> fail "%s: bare text content is not supported" name
    | XU.Elem (tag, attrs, kids) ->
      (match M.repr_of mapping tag with
       | exception M.Mapping_error m -> fail "%s: %s" name m
       | M.Elided -> fail "%s: cannot insert the root type <%s>" name tag
       | M.Embedded ->
         fail "%s: embedded <%s> reached outside its container (internal)" name tag
       | M.Predicate pschema ->
         (* Type-check against the DTD edge. *)
         let ok_edge =
           List.exists
             (fun (dtd, _) ->
               match Xic_xml.Dtd.find dtd parent_type with
               | None -> false
               | Some _ -> List.mem tag (Xic_xml.Dtd.child_names dtd parent_type))
             (Schema.dtds schema)
         in
         if not ok_edge then
           fail "%s: <%s> is not a valid child of <%s>" name tag parent_type;
         let idp = fresh_param ("i_" ^ tag) in
         fresh := idp :: !fresh;
         let cols =
           List.map
             (fun (c : M.column) ->
               match c.M.source with
               | M.From_attr a ->
                 let v = Option.value ~default:"" (List.assoc_opt a attrs) in
                 let t = text_term v in
                 note_data t;
                 t
               | M.From_pcdata_child ch ->
                 let txt =
                   List.find_map
                     (function
                       | XU.Elem (t, _, ks) when t = ch -> Some (template_text ks)
                       | _ -> None)
                     kids
                 in
                 let t = text_term (Option.value ~default:"" txt) in
                 note_data t;
                 t
               | M.From_text ->
                 let t = text_term (template_text kids) in
                 note_data t;
                 t)
             pschema.M.columns
         in
         atoms :=
           { T.pred = tag; T.args = T.Param idp :: pos_term :: parent_term :: cols }
           :: !atoms;
         (* Recurse into non-embedded element children. *)
         let elem_kids =
           List.filter_map (function XU.Elem _ as e -> Some e | XU.Text _ -> None) kids
         in
         List.iteri
           (fun i kid ->
             match kid with
             | XU.Elem (ktag, _, _) when not (M.is_embedded_in mapping ~parent:tag ~child:ktag) ->
               walk (T.Param idp) tag (T.Const (T.Int (i + 1))) kid
             | _ -> ())
           elem_kids)
  in
  List.iteri
    (fun i c ->
      let pos =
        match op with
        | XU.Append | XU.Insert_after | XU.Insert_before ->
          (* The final position depends on the target node: a parameter. *)
          ignore i;
          T.Param (fresh_param "p")
        | XU.Remove -> assert false
      in
      walk (T.Param "anchor") parent_type pos c)
    content;
  {
    name;
    op;
    anchor_type;
    content;
    atoms = List.rev !atoms;
    del_atoms = [];
    fresh = List.rev !fresh;
    anchor_param = "anchor";
    data_params = List.rev !data_params;
  }
  end

let of_modification schema ~name (m : XU.modification) =
  let anchor_type =
    match m.XU.select with
    | Xic_xpath.Ast.Path (_, steps) when steps <> [] ->
      (match (List.nth steps (List.length steps - 1)).Xic_xpath.Ast.test with
       | Xic_xpath.Ast.Name_test n -> n
       | _ -> fail "%s: the select template must end in a named step" name)
    | _ -> fail "%s: the select template must be a location path" name
  in
  make schema ~name ~op:m.XU.op ~anchor_type ~content:m.XU.content

(* ------------------------------------------------------------------ *)
(* Simplification interface                                            *)
(* ------------------------------------------------------------------ *)

let hypotheses schema t =
  let mapping = Schema.mapping schema in
  Xic_simplify.Simp.freshness_hypotheses ~fresh:t.fresh
    ~children:(fun p ->
      List.map
        (fun c -> (c, M.arity mapping c))
        (M.predicate_children mapping p))
    ~arity:(M.arity mapping)
    t.atoms

let simplify schema t (c : Constr.t) =
  Xic_simplify.Simp.simp ~hypotheses:(hypotheses schema t)
    ~deletions:t.del_atoms ~update:t.atoms c.Constr.datalog

(* ------------------------------------------------------------------ *)
(* Runtime matching                                                    *)
(* ------------------------------------------------------------------ *)

type value =
  | Vnode of Doc.node_id
  | Vstr of string
  | Vint of int

type valuation = (string * value) list

(* Match template content against concrete content, binding %x texts. *)
let rec match_content binds (pat : XU.content) (conc : XU.content) =
  match (pat, conc) with
  | XU.Text p, XU.Text c ->
    if is_param_text p then Some ((param_of_text p, Vstr c) :: binds)
    else if p = c then Some binds
    else None
  | XU.Elem (t1, a1, k1), XU.Elem (t2, a2, k2) ->
    if t1 <> t2 then None
    else begin
      let rec attrs binds = function
        | [] -> if List.length a1 = List.length a2 then Some binds else None
        | (k, pv) :: rest ->
          (match List.assoc_opt k a2 with
           | None -> None
           | Some cv ->
             if is_param_text pv then attrs ((param_of_text pv, Vstr cv) :: binds) rest
             else if pv = cv then attrs binds rest
             else None)
      in
      match attrs binds a1 with
      | None -> None
      | Some binds ->
        if List.length k1 <> List.length k2 then None
        else
          List.fold_left2
            (fun acc p c -> match acc with None -> None | Some b -> match_content b p c)
            (Some binds) k1 k2
    end
  | _ -> None

let match_removal schema doc t target =
  let parent = Doc.parent doc target in
  if parent = Doc.no_node then None
  else begin
    let mapping = Schema.mapping schema in
    match Xic_relmap.Shred.fact_of_element mapping doc target with
    | Some (_, tup) when Array.length tup >= 3 ->
      let cols = Array.to_list (Array.sub tup 3 (Array.length tup - 3)) in
      let col_vals =
        List.map2
          (fun p c ->
            let module V = Xic_datalog.Value in
            (p, if V.is_int c then Vint (V.get_int c) else Vstr (V.get_string c)))
          t.data_params cols
      in
      Some
        ( [ ("target", Vnode target);
            (t.anchor_param, Vnode parent);
            ("p", Vint (Doc.position doc target)) ]
          @ col_vals )
    | _ -> None
  end

let match_modification schema doc t (m : XU.modification) target =
  if
    m.XU.op <> t.op
    || (not (Doc.is_element doc target))
    || Doc.name doc target <> t.anchor_type
  then None
  else if t.op = XU.Remove then match_removal schema doc t target
  else begin
    let anchor =
      match t.op with
      | XU.Append -> Some target
      | XU.Insert_after | XU.Insert_before ->
        let p = Doc.parent doc target in
        if p = Doc.no_node then None else Some p
      | XU.Remove -> None
    in
    match anchor with
    | None -> None
    | Some anchor ->
      if List.length m.XU.content <> List.length t.content then None
      else begin
        let binds =
          List.fold_left2
            (fun acc p c ->
              match acc with None -> None | Some b -> match_content b p c)
            (Some []) t.content m.XU.content
        in
        match binds with
        | None -> None
        | Some binds ->
          let pos =
            match t.op with
            | XU.Insert_after -> Doc.position doc target + 1
            | XU.Insert_before -> Doc.position doc target
            | XU.Append ->
              List.length (Doc.element_children doc target) + 1
            | XU.Remove -> 0
          in
          (* Position parameters p, p2, … count up from the insertion
             point. *)
          let pos_params =
            List.mapi
              (fun i c ->
                ignore c;
                ((if i = 0 then "p" else Printf.sprintf "p%d" (i + 1)), Vint (pos + i)))
              t.content
          in
          Some (((t.anchor_param, Vnode anchor) :: pos_params) @ List.rev binds)
      end
  end

let xquery_params (v : valuation) =
  List.map
    (fun (p, value) ->
      ( p,
        match value with
        | Vnode n -> Xic_xpath.Eval.Nodes [ n ]
        | Vstr s -> Xic_xpath.Eval.Str s
        | Vint i -> Xic_xpath.Eval.Num (float_of_int i) ))
    v

let datalog_params ?(fresh_base = 1_000_000) t (v : valuation) =
  let concrete =
    List.map
      (fun (p, value) ->
        ( p,
          match value with
          | Vnode n -> T.Int n
          | Vstr s -> T.Str s
          | Vint i -> T.Int i ))
      v
  in
  let fresh_ids = List.mapi (fun i p -> (p, T.Int (fresh_base + i))) t.fresh in
  concrete @ fresh_ids
