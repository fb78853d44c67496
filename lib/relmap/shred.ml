open Xic_xml
module Store = Xic_datalog.Store
module Value = Xic_datalog.Value

exception Shred_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Shred_error s)) fmt

(* Text of the first child element named [want] (the embedded edge
   guarantees at most one), or "" when absent. *)
let embedded_text doc id want =
  let found = ref Doc.no_node in
  Doc.iter_children doc id (fun c ->
      if
        !found = Doc.no_node && Doc.is_element doc c
        && Doc.Symbol.equal (Doc.tag doc c) want
      then found := c);
  if !found = Doc.no_node then "" else Doc.text_content doc !found

(* The value of an extra column (after Id, Pos and IdParent). *)
let column doc id (c : Mapping.column) =
  Value.of_string
    (match c.Mapping.source with
     | Mapping.From_attr a -> Option.value ~default:"" (Doc.attr doc id a)
     | Mapping.From_pcdata_child ch -> embedded_text doc id (Doc.Symbol.intern ch)
     | Mapping.From_text -> Doc.text_content doc id)

(* [tag(id, pos, parent, c₁…cₙ)] as one flat array, built in one
   allocation. *)
let fact id ~pos ~parent ncols col : Store.tuple =
  let id = Value.of_int id and pos = Value.of_int pos and parent = Value.of_int parent in
  match ncols with
  | 0 -> [| id; pos; parent |]
  | 1 -> [| id; pos; parent; col 0 |]
  | 2 ->
    let a = col 0 in
    let b = col 1 in
    [| id; pos; parent; a; b |]
  | n ->
    let tup = Array.make (3 + n) id in
    tup.(1) <- pos;
    tup.(2) <- parent;
    for i = 0 to n - 1 do
      tup.(3 + i) <- col i
    done;
    tup

(* Per-element dispatch on the interned tag: no string hashing on the
   shredding hot path. *)
let fact_of_element_sym mapping doc id =
  if not (Doc.is_element doc id) then None
  else begin
    let tag = Doc.tag doc id in
    match Mapping.repr_of_sym mapping tag with
    | exception Mapping.Mapping_error m -> fail "%s" m
    | Mapping.Embedded | Mapping.Elided -> None
    | Mapping.Predicate schema ->
      let cols = Array.of_list schema.Mapping.columns in
      Some
        ( tag,
          fact id ~pos:(Doc.position doc id) ~parent:(Doc.parent doc id)
            (Array.length cols)
            (fun i -> column doc id cols.(i)) )
  end

(* Streaming endpoint of the fused loader: the parser hands over each
   completed element together with its position, so the store is filled
   during the parse with no second walk and no position recomputation.
   Shaped to plug in directly as [Xml_parser.sink].

   The per-tag dispatch is compiled once per sink: the first element of
   each type resolves its representation and pre-interns its column
   names, later ones hit an array indexed by the tag symbol — no string
   hashing and no mapping lookup on the per-element path. *)
type compiled_repr =
  | Skip
  | Emit of (Doc.node_id -> Value.t) array

let sink ?count mapping doc store =
  let compile tag =
    match Mapping.repr_of_sym mapping tag with
    | exception Mapping.Mapping_error m -> fail "%s" m
    | Mapping.Embedded | Mapping.Elided -> Skip
    | Mapping.Predicate schema ->
      Emit
        (Array.of_list
           (List.map
              (fun (c : Mapping.column) ->
                match c.Mapping.source with
                | Mapping.From_attr a ->
                  let ka = Doc.Symbol.intern a in
                  fun id ->
                    Value.of_string (Option.value ~default:"" (Doc.attr_sym doc id ka))
                | Mapping.From_pcdata_child ch ->
                  let kch = Doc.Symbol.intern ch in
                  fun id -> Value.of_string (embedded_text doc id kch)
                | Mapping.From_text -> fun id -> Value.of_string (Doc.text_content doc id))
              schema.Mapping.columns))
  in
  let memo = ref (Array.make (max 16 (Doc.Symbol.count ())) None) in
  fun id ~pos ->
    let tag = Doc.tag doc id in
    let ti = Doc.Symbol.to_int tag in
    if ti >= Array.length !memo then begin
      let a = Array.make (max (ti + 1) (2 * Array.length !memo)) None in
      Array.blit !memo 0 a 0 (Array.length !memo);
      memo := a
    end;
    let repr =
      match (!memo).(ti) with
      | Some r -> r
      | None ->
        let r = compile tag in
        (!memo).(ti) <- Some r;
        r
    in
    match repr with
    | Skip -> ()
    | Emit cols ->
      Store.add_sym store tag
        (fact id ~pos ~parent:(Doc.parent doc id) (Array.length cols) (fun i ->
             (Array.unsafe_get cols i) id));
      (match count with None -> () | Some r -> incr r)

let fact_of_element mapping doc id =
  Option.map
    (fun (sym, tuple) -> (Doc.Symbol.name sym, tuple))
    (fact_of_element_sym mapping doc id)

let shred_into mapping doc store start =
  let rec go id =
    (match fact_of_element_sym mapping doc id with
     | Some (pred, tuple) -> Store.add_sym store pred tuple
     | None -> ());
    Doc.iter_children doc id (fun c -> if Doc.is_element doc c then go c)
  in
  go start

let shred mapping doc =
  Xic_obs.Obs.Trace.with_span "shred" (fun () ->
      let store = Store.create () in
      List.iter (shred_into mapping doc store) (Doc.roots doc);
      store)

let path_to_node doc id =
  (* index among same-name element siblings, the [n] of XPath steps *)
  let sibling_index id =
    let name = Doc.name doc id in
    1
    + List.length
        (List.filter
           (fun s -> Doc.is_element doc s && Doc.name doc s = name)
           (Doc.preceding_siblings doc id))
  in
  let rec go id acc =
    let p = Doc.parent doc id in
    let label =
      if Doc.is_element doc id then
        Printf.sprintf "/%s[%d]" (Doc.name doc id) (sibling_index id)
      else "/text()"
    in
    if p = Doc.no_node then
      (if Doc.is_element doc id then "/" ^ Doc.name doc id else label) ^ acc
    else go p (label ^ acc)
  in
  go id ""
