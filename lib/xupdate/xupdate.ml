open Xic_xml

type content =
  | Elem of string * (string * string) list * content list
  | Text of string

type op =
  | Insert_after
  | Insert_before
  | Append
  | Remove

type modification = {
  op : op;
  select : Xic_xpath.Ast.expr;
  content : content list;
}

type t = modification list

exception Xupdate_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Xupdate_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

let xupdate_ns = "xupdate:"

let strip_prefix name =
  let n = String.length xupdate_ns in
  if String.length name > n && String.sub name 0 n = xupdate_ns then
    Some (String.sub name n (String.length name - n))
  else None

let rec content_of_node doc id =
  match Doc.kind doc id with
  | Doc.Text s -> Text s
  | Doc.Element sym ->
    let tag = Doc.Symbol.name sym in
    (match strip_prefix tag with
     | Some "element" ->
       let name =
         match Doc.attr doc id "name" with
         | Some n -> n
         | None -> fail "xupdate:element without a name attribute"
       in
       (* xupdate:attribute children become attributes of the element, so
          serialized statements ({!to_string}) parse back for replay *)
       let is_attr k =
         Doc.is_element doc k && strip_prefix (Doc.name doc k) = Some "attribute"
       in
       let attr_kids, kids = List.partition is_attr (Doc.children doc id) in
       let attrs =
         List.map
           (fun a ->
             match Doc.attr doc a "name" with
             | Some n -> (n, Doc.text_content doc a)
             | None -> fail "xupdate:attribute without a name attribute")
           attr_kids
       in
       Elem (name, attrs, List.map (content_of_node doc) kids)
     | Some "text" -> Text (Doc.text_content doc id)
     | Some d -> fail "unsupported xupdate content directive %s" d
     | None ->
       Elem
         ( tag,
           Doc.attrs doc id,
           List.map (content_of_node doc) (Doc.children doc id) ))

let op_of_directive = function
  | "insert-after" -> Some Insert_after
  | "insert-before" -> Some Insert_before
  | "append" -> Some Append
  | "remove" -> Some Remove
  | _ -> None

let parse_select doc id =
  match Doc.attr doc id "select" with
  | None -> fail "xupdate directive without a select attribute"
  | Some s ->
    (try Xic_xpath.Parser.parse s
     with Xic_xpath.Parser.Parse_error m -> fail "bad select %S: %s" s m)

let parse_string src =
  let { Xml_parser.doc; _ } =
    try Xml_parser.parse_string src
    with Xml_parser.Parse_error { line; col; msg } ->
      fail "XML error at %d:%d: %s" line col msg
  in
  let root = Doc.root doc in
  (match Doc.kind doc root with
   | Doc.Element sym when strip_prefix (Doc.Symbol.name sym) = Some "modifications" -> ()
   | _ -> fail "expected an <xupdate:modifications> root element");
  List.filter_map
    (fun id ->
      if not (Doc.is_element doc id) then None
      else begin
        let tag = Doc.name doc id in
        match strip_prefix tag with
        | None -> fail "unexpected element <%s> among modifications" tag
        | Some d ->
          (match op_of_directive d with
           | None -> fail "unsupported xupdate operation %s" d
           | Some op ->
             let select = parse_select doc id in
             let content = List.map (content_of_node doc) (Doc.children doc id) in
             if op = Remove && content <> [] then
               fail "xupdate:remove does not take content";
             if op <> Remove && content = [] then
               fail "xupdate:%s requires content" d;
             Some { op; select; content })
      end)
    (Doc.children doc root)

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let rec content_str buf = function
  | Text s -> Buffer.add_string buf (Xml_printer.escape_text s)
  | Elem (tag, attrs, kids) ->
    Buffer.add_string buf ("<xupdate:element name=\"" ^ tag ^ "\">");
    List.iter
      (fun (k, v) ->
        Buffer.add_string buf
          (Printf.sprintf "<xupdate:attribute name=%S>%s</xupdate:attribute>" k
             (Xml_printer.escape_text v)))
      attrs;
    List.iter (content_str buf) kids;
    Buffer.add_string buf "</xupdate:element>"

let op_str = function
  | Insert_after -> "insert-after"
  | Insert_before -> "insert-before"
  | Append -> "append"
  | Remove -> "remove"

let to_string t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    "<xupdate:modifications version=\"1.0\" \
     xmlns:xupdate=\"http://www.xmldb.org/xupdate\">";
  List.iter
    (fun m ->
      Buffer.add_string buf
        (Printf.sprintf "<xupdate:%s select=\"%s\"" (op_str m.op)
           (Xml_printer.escape_attr (Xic_xpath.Ast.to_string m.select)));
      if m.content = [] then Buffer.add_string buf "/>"
      else begin
        Buffer.add_string buf ">";
        List.iter (content_str buf) m.content;
        Buffer.add_string buf ("</xupdate:" ^ op_str m.op ^ ">")
      end)
    t;
  Buffer.add_string buf "</xupdate:modifications>";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Application and rollback                                            *)
(* ------------------------------------------------------------------ *)

type undo_entry =
  | Inserted of Doc.node_id
  | Removed of {
      node : Doc.node_id;
      parent : Doc.node_id;
      prev_sibling : Doc.node_id;  (* [Doc.no_node]: was first child *)
    }

type undo = undo_entry list  (* reverse application order *)

(* Adjacent text items of a template are one text node. *)
let rec coalesce = function
  | Text a :: Text b :: rest -> coalesce (Text (a ^ b) :: rest)
  | c :: rest -> c :: coalesce rest
  | [] -> []

let rec materialize doc = function
  | Text s -> Doc.make_text doc s
  | Elem (tag, attrs, kids) ->
    let id = Doc.make_element doc ~attrs tag in
    List.iter (fun k -> Doc.append_child doc ~parent:id (materialize doc k)) (coalesce kids);
    id

(* Detach [node], recording where it was. *)
let remove doc node acc =
  let parent = Doc.parent doc node and prev_sibling = Doc.prev_sibling doc node in
  let e = Removed { node; parent; prev_sibling } in
  Doc.detach doc node;
  e :: acc

let text_node doc n = n <> Doc.no_node && Doc.is_text doc n

(* The XPath data model has no adjacent text nodes, and the relational
   mapping stores an element's text as one value: inserted text merges
   with the text siblings it touches, and so do the two texts a removal
   brings together.  The run of text siblings around [id] is replaced
   by one joint node, inserted before the run, which is then detached
   node by node, so a rollback restores the run in order and then
   deletes the joint node. *)
let merge_text_run doc id acc =
  if not (text_node doc id) then acc
  else begin
    let rec first n =
      let p = Doc.prev_sibling doc n in
      if text_node doc p then first p else n
    in
    let rec run n =
      if text_node doc n then n :: run (Doc.next_sibling doc n) else []
    in
    match run (first id) with
    | ([] | [ _ ]) -> acc
    | (first :: _) as nodes ->
      let joint =
        Doc.make_text doc (String.concat "" (List.map (Doc.text_content doc) nodes))
      in
      Doc.insert_before doc ~anchor:first joint;
      List.fold_left (fun acc n -> remove doc n acc) (Inserted joint :: acc) nodes
  end

let select_target ?index doc expr =
  match Xic_xpath.Eval.eval doc ?index expr with
  | Xic_xpath.Eval.Nodes (n :: _) -> n
  | Xic_xpath.Eval.Nodes [] ->
    fail "select %s matched no node" (Xic_xpath.Ast.to_string expr)
  | _ -> fail "select %s did not produce a node-set" (Xic_xpath.Ast.to_string expr)
  | exception Xic_xpath.Eval.Eval_error m -> fail "select evaluation failed: %s" m

let apply_one ?index doc m acc =
  let target = select_target ?index doc m.select in
  let insert place acc =
    let ids, acc =
      List.fold_left
        (fun (ids, acc) c ->
          let id = materialize doc c in
          place ids id;
          (id :: ids, Inserted id :: acc))
        ([], acc) m.content
    in
    List.fold_left (fun acc id -> merge_text_run doc id acc) acc ids
  in
  match m.op with
  | Remove ->
    if Doc.parent doc target = Doc.no_node then fail "cannot remove a root element";
    let prev = Doc.prev_sibling doc target in
    merge_text_run doc prev (remove doc target acc)
  | Append -> insert (fun _ id -> Doc.append_child doc ~parent:target id) acc
  | (Insert_after | Insert_before) when Doc.parent doc target = Doc.no_node ->
    fail "cannot insert a sibling of a root element"
  | Insert_after ->
    (* successive fragments keep their order: each anchors on the last *)
    insert
      (fun ids id ->
        Doc.insert_after doc ~anchor:(match ids with last :: _ -> last | [] -> target) id)
      acc
  | Insert_before -> insert (fun _ id -> Doc.insert_before doc ~anchor:target id) acc

let rollback doc undo =
  List.iter
    (function
      | Inserted id -> Doc.delete_subtree doc id
      | Removed { node; parent; prev_sibling } ->
        if prev_sibling <> Doc.no_node then
          Doc.insert_after doc ~anchor:prev_sibling node
        else (
          match Doc.children doc parent with
          | [] -> Doc.append_child doc ~parent node
          | first :: _ -> Doc.insert_before doc ~anchor:first node))
    undo

(* Atomic: when a later modification fails (say, its select matches no
   node) the already-applied prefix is rolled back before the error
   propagates, so a failed statement never leaves the document half
   updated. *)
let apply ?index doc t =
  let rec go acc = function
    | [] -> acc
    | m :: rest ->
      (match apply_one ?index doc m acc with
       | acc -> go acc rest
       | exception e ->
         rollback doc acc;
         raise e)
  in
  go [] t
