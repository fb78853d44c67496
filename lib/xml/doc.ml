module Symbol = Xic_symbol.Symbol

type node_id = int

let no_node = -1

type kind =
  | Element of Symbol.t
  | Text of string

(* Structural-change notifications, consumed by secondary indexes
   (Index.t).  [Attached] fires after the mutation, [Detaching] before
   it, while the parent link and sibling list are still intact — an
   index needs the old shape to find the entries it must drop. *)
type event =
  | Attached of node_id
  | Detaching of node_id

(* Struct-of-arrays arena.  A node is a row across packed int arrays:
   parent / first_child / last_child / next_sib / prev_sib sibling links
   give O(1) append, insert and detach with no per-node list cells.

   [tagk] packs the kind and the payload in one int: an element stores
   its interned tag id (>= 0), a text node stores [lnot i] (< 0) where
   [i] indexes the [texts] pool.  Attributes live in a shared pool of
   parallel arrays ([aname]/[avalue]/[anext]) chained per node from
   [attr_head], preserving declaration order. *)
type t = {
  mutable parent : int array;
  mutable first_child : int array;
  mutable last_child : int array;
  mutable next_sib : int array;
  mutable prev_sib : int array;
  mutable tagk : int array;
  mutable attr_head : int array;
  mutable dead : Bytes.t;
  mutable next_id : int;
  mutable texts : string array;
  mutable n_texts : int;
  mutable aname : int array;
  mutable avalue : string array;
  mutable anext : int array;
  mutable n_attrs : int;
  mutable root_ids : node_id list;  (* registration order *)
  mutable live_count : int;
  mutable observers : (int * (event -> unit)) list;
  mutable next_token : int;
}

let create ?(capacity = 64) () =
  let cap = max 16 capacity in
  { parent = Array.make cap no_node;
    first_child = Array.make cap no_node;
    last_child = Array.make cap no_node;
    next_sib = Array.make cap no_node;
    prev_sib = Array.make cap no_node;
    tagk = Array.make cap 0;
    attr_head = Array.make cap (-1);
    dead = Bytes.make cap '\000';
    next_id = 0;
    texts = Array.make (max 16 (capacity / 4)) "";
    n_texts = 0;
    aname = Array.make 16 0;
    avalue = Array.make 16 "";
    anext = Array.make 16 (-1);
    n_attrs = 0;
    root_ids = [];
    live_count = 0;
    observers = [];
    next_token = 1;
  }

let subscribe doc f =
  let t = doc.next_token in
  doc.next_token <- t + 1;
  doc.observers <- doc.observers @ [ (t, f) ];
  t

let unsubscribe doc t =
  doc.observers <- List.filter (fun (t', _) -> t' <> t) doc.observers

let notify doc e =
  match doc.observers with
  | [] -> ()
  | [ (_, f) ] -> f e
  | obs -> List.iter (fun (_, f) -> f e) obs

let grow_int a len' fill =
  let a' = Array.make len' fill in
  Array.blit a 0 a' 0 (Array.length a);
  a'

let ensure_capacity doc n =
  let len = Array.length doc.parent in
  if n >= len then begin
    let len' = max (n + 1) (2 * len) in
    doc.parent <- grow_int doc.parent len' no_node;
    doc.first_child <- grow_int doc.first_child len' no_node;
    doc.last_child <- grow_int doc.last_child len' no_node;
    doc.next_sib <- grow_int doc.next_sib len' no_node;
    doc.prev_sib <- grow_int doc.prev_sib len' no_node;
    doc.tagk <- grow_int doc.tagk len' 0;
    doc.attr_head <- grow_int doc.attr_head len' (-1);
    let d = Bytes.make len' '\000' in
    Bytes.blit doc.dead 0 d 0 (Bytes.length doc.dead);
    doc.dead <- d
  end

let check doc id =
  if id < 0 || id >= doc.next_id then invalid_arg "Doc: unknown node id"
  else if Bytes.unsafe_get doc.dead id <> '\000' then
    invalid_arg "Doc: dead node id"

let live doc id =
  id >= 0 && id < doc.next_id && Bytes.unsafe_get doc.dead id = '\000'

let alloc doc tagk =
  let id = doc.next_id in
  ensure_capacity doc id;
  doc.tagk.(id) <- tagk;
  (* the remaining columns hold their defaults from [ensure_capacity] /
     [create]; ids are never reused, so no reset is needed *)
  doc.next_id <- id + 1;
  doc.live_count <- doc.live_count + 1;
  id

let add_text_pool doc s =
  let n = doc.n_texts in
  if n >= Array.length doc.texts then begin
    let a = Array.make (2 * Array.length doc.texts) "" in
    Array.blit doc.texts 0 a 0 n;
    doc.texts <- a
  end;
  doc.texts.(n) <- s;
  doc.n_texts <- n + 1;
  n

let add_attr_pool doc k v =
  let n = doc.n_attrs in
  if n >= Array.length doc.aname then begin
    let len' = 2 * Array.length doc.aname in
    doc.aname <- grow_int doc.aname len' 0;
    let a = Array.make len' "" in
    Array.blit doc.avalue 0 a 0 n;
    doc.avalue <- a;
    doc.anext <- grow_int doc.anext len' (-1)
  end;
  doc.aname.(n) <- Symbol.to_int k;
  doc.avalue.(n) <- v;
  doc.anext.(n) <- -1;
  doc.n_attrs <- n + 1;
  n

(* Chain fresh pool slots in declaration order, allocating front-to-back
   so the pool itself also stays in document order. *)
let set_attrs_list doc id attrs =
  let rec alloc_fwd = function
    | [] -> -1
    | (k, v) :: rest ->
      let slot = add_attr_pool doc k v in
      let tail = alloc_fwd rest in
      doc.anext.(slot) <- tail;
      slot
  in
  doc.attr_head.(id) <- alloc_fwd attrs

let make_element_sym doc ?(attrs = []) tag =
  let id = alloc doc (Symbol.to_int tag) in
  if attrs <> [] then set_attrs_list doc id attrs;
  id

let make_element doc ?(attrs = []) tag =
  make_element_sym doc
    ~attrs:(List.map (fun (k, v) -> (Symbol.intern k, v)) attrs)
    (Symbol.intern tag)

let make_text doc s = alloc doc (lnot (add_text_pool doc s))

let is_element doc id =
  check doc id;
  Array.unsafe_get doc.tagk id >= 0

let is_text doc id = not (is_element doc id)

let kind doc id =
  check doc id;
  let tk = Array.unsafe_get doc.tagk id in
  if tk >= 0 then Element (Symbol.unsafe_of_int tk)
  else Text doc.texts.(lnot tk)

let tag doc id =
  check doc id;
  let tk = Array.unsafe_get doc.tagk id in
  if tk >= 0 then Symbol.unsafe_of_int tk
  else invalid_arg "Doc.tag: text node"

let name doc id = Symbol.name (tag doc id)

let parent doc id =
  check doc id;
  Array.unsafe_get doc.parent id

let check_element doc id =
  if not (is_element doc id) then invalid_arg "Doc.set_root: not an element"

let set_root doc id =
  check_element doc id;
  List.iter (fun r -> if r <> id then notify doc (Detaching r)) doc.root_ids;
  let was_root = List.mem id doc.root_ids in
  doc.root_ids <- [ id ];
  if not was_root then notify doc (Attached id)

let add_root doc id =
  check_element doc id;
  if not (List.mem id doc.root_ids) then begin
    doc.root_ids <- doc.root_ids @ [ id ];
    notify doc (Attached id)
  end

let root doc =
  match doc.root_ids with
  | [] -> invalid_arg "Doc.root: no root set"
  | id :: _ -> id

let roots doc = doc.root_ids

let has_root doc = doc.root_ids <> []

let reachable doc id =
  let rec top i = if doc.parent.(i) = no_node then i else top doc.parent.(i) in
  live doc id && List.mem (top id) doc.root_ids

let next_sibling doc id =
  check doc id;
  Array.unsafe_get doc.next_sib id

let prev_sibling doc id =
  check doc id;
  Array.unsafe_get doc.prev_sib id

let last_child doc id =
  check doc id;
  Array.unsafe_get doc.last_child id

let iter_children doc id f =
  check doc id;
  let c = ref (Array.unsafe_get doc.first_child id) in
  while !c <> no_node do
    let next = Array.unsafe_get doc.next_sib !c in
    f !c;
    c := next
  done

let children doc id =
  check doc id;
  let rec go c acc =
    if c = no_node then List.rev acc
    else go (Array.unsafe_get doc.next_sib c) (c :: acc)
  in
  go (Array.unsafe_get doc.first_child id) []

let element_children doc id =
  check doc id;
  let rec go c acc =
    if c = no_node then List.rev acc
    else
      go (Array.unsafe_get doc.next_sib c)
        (if Array.unsafe_get doc.tagk c >= 0 then c :: acc else acc)
  in
  go (Array.unsafe_get doc.first_child id) []

let attrs_sym doc id =
  check doc id;
  let rec go slot acc =
    if slot < 0 then List.rev acc
    else
      go doc.anext.(slot)
        ((Symbol.unsafe_of_int doc.aname.(slot), doc.avalue.(slot)) :: acc)
  in
  go (Array.unsafe_get doc.attr_head id) []

let attrs doc id =
  List.map (fun (k, v) -> (Symbol.name k, v)) (attrs_sym doc id)

let attr_sym doc id k =
  check doc id;
  let ki = Symbol.to_int k in
  let rec go slot =
    if slot < 0 then None
    else if doc.aname.(slot) = ki then Some doc.avalue.(slot)
    else go doc.anext.(slot)
  in
  go (Array.unsafe_get doc.attr_head id)

let attr doc id k = attr_sym doc id (Symbol.intern k)

let check_detached doc id =
  check doc id;
  if doc.parent.(id) <> no_node then invalid_arg "Doc: node already attached"

(* Link [child] as last child of [pid]; no event, no checks. *)
let link_last doc pid child =
  let last = doc.last_child.(pid) in
  if last = no_node then doc.first_child.(pid) <- child
  else doc.next_sib.(last) <- child;
  doc.prev_sib.(child) <- last;
  doc.next_sib.(child) <- no_node;
  doc.last_child.(pid) <- child;
  doc.parent.(child) <- pid

let append_child doc ~parent:pid child =
  check_detached doc child;
  check doc pid;
  link_last doc pid child;
  notify doc (Attached child)

let append_children doc ~parent:pid children =
  List.iter (check_detached doc) children;
  check doc pid;
  List.iter (fun c -> link_last doc pid c) children;
  List.iter (fun c -> notify doc (Attached c)) children

(* Splice [child] into the sibling list of [anchor]; [offset] 0 inserts
   before the anchor, 1 after it. *)
let insert_sibling doc ~anchor ~offset child =
  check_detached doc child;
  check doc anchor;
  let pid = doc.parent.(anchor) in
  if pid = no_node then invalid_arg "Doc.insert_sibling: anchor has no parent";
  let before, after =
    if offset = 0 then (doc.prev_sib.(anchor), anchor)
    else (anchor, doc.next_sib.(anchor))
  in
  (if before = no_node then doc.first_child.(pid) <- child
   else doc.next_sib.(before) <- child);
  (if after = no_node then doc.last_child.(pid) <- child
   else doc.prev_sib.(after) <- child);
  doc.prev_sib.(child) <- before;
  doc.next_sib.(child) <- after;
  doc.parent.(child) <- pid;
  notify doc (Attached child)

let insert_after doc ~anchor child = insert_sibling doc ~anchor ~offset:1 child
let insert_before doc ~anchor child = insert_sibling doc ~anchor ~offset:0 child

let detach doc id =
  check doc id;
  notify doc (Detaching id);
  let pid = doc.parent.(id) in
  if pid <> no_node then begin
    let before = doc.prev_sib.(id) and after = doc.next_sib.(id) in
    (if before = no_node then doc.first_child.(pid) <- after
     else doc.next_sib.(before) <- after);
    (if after = no_node then doc.last_child.(pid) <- before
     else doc.prev_sib.(after) <- before);
    doc.parent.(id) <- no_node;
    doc.prev_sib.(id) <- no_node;
    doc.next_sib.(id) <- no_node
  end
  else doc.root_ids <- List.filter (fun r -> r <> id) doc.root_ids

let rec free doc id =
  if live doc id then begin
    iter_children doc id (fun c -> free doc c);
    Bytes.unsafe_set doc.dead id '\001';
    doc.live_count <- doc.live_count - 1
  end

let delete_subtree doc id =
  detach doc id;
  free doc id

let position doc id =
  check doc id;
  if doc.parent.(id) = no_node then 1
  else begin
    let n = ref 1 in
    let c = ref (doc.prev_sib.(id)) in
    while !c <> no_node do
      if Array.unsafe_get doc.tagk !c >= 0 then incr n;
      c := Array.unsafe_get doc.prev_sib !c
    done;
    !n
  end

let text_content doc id =
  (* fast paths for the overwhelmingly common shapes in the hot loops of
     checking: a text node itself, and a leaf element with one text child *)
  check doc id;
  let tk = Array.unsafe_get doc.tagk id in
  if tk < 0 then doc.texts.(lnot tk)
  else begin
    let fc = doc.first_child.(id) in
    if fc = no_node then ""
    else if doc.next_sib.(fc) = no_node && doc.tagk.(fc) < 0 then
      doc.texts.(lnot doc.tagk.(fc))
    else begin
      let buf = Buffer.create 32 in
      let rec go id =
        let tk = doc.tagk.(id) in
        if tk < 0 then Buffer.add_string buf doc.texts.(lnot tk)
        else iter_children doc id go
      in
      iter_children doc id go;
      Buffer.contents buf
    end
  end

let descendants doc id =
  check doc id;
  let acc = ref [] in
  let rec go id =
    iter_children doc id (fun c ->
        acc := c :: !acc;
        go c)
  in
  go id;
  List.rev !acc

let descendant_or_self doc id = id :: descendants doc id

let following_siblings doc id =
  check doc id;
  let rec go c acc =
    if c = no_node then List.rev acc else go (doc.next_sib.(c)) (c :: acc)
  in
  go (doc.next_sib.(id)) []

let preceding_siblings doc id =
  check doc id;
  let rec go c acc = if c = no_node then acc else go (doc.prev_sib.(c)) (c :: acc) in
  go (doc.prev_sib.(id)) []

let ancestors doc id =
  let rec go id acc =
    let p = parent doc id in
    if p = no_node then List.rev acc else go p (p :: acc)
  in
  go id []

(* 0-based index among all siblings, by walking the prev links. *)
let sib_index doc id =
  let n = ref 0 in
  let c = ref (doc.prev_sib.(id)) in
  while !c <> no_node do
    incr n;
    c := Array.unsafe_get doc.prev_sib !c
  done;
  !n

(* Document-order key: (rank of the containing root, path of child indexes
   from that root).  Detached subtrees rank after all roots, keyed by the
   id of their top node. *)
let order_key doc id =
  check doc id;
  let rec go id acc =
    let p = doc.parent.(id) in
    if p = no_node then (id, acc) else go p (sib_index doc id :: acc)
  in
  let top, path = go id [] in
  let rank =
    let rec find i = function
      | [] -> List.length doc.root_ids + top
      | r :: rest -> if r = top then i else find (i + 1) rest
    in
    find 0 doc.root_ids
  in
  (rank, path)

(* Monomorphic comparators: [compare] on int-list keys dispatches through
   the polymorphic runtime comparator on every element, which shows up in
   the sort-heavy evaluator paths. *)
let rec compare_int_list (a : int list) (b : int list) =
  match (a, b) with
  | [], [] -> 0
  | [], _ :: _ -> -1
  | _ :: _, [] -> 1
  | x :: a', y :: b' -> if x < y then -1 else if x > y then 1 else compare_int_list a' b'

let compare_order_key (ra, pa) (rb, pb) =
  if (ra : int) < rb then -1 else if ra > rb then 1 else compare_int_list pa pb

(* Precompute keys once (Schwartzian transform): [order_key] walks to the
   root, so comparing keys inside the sort would be quadratic in depth. *)
let sort_doc_order doc ids =
  match ids with
  | [] | [ _ ] -> ids
  | _ ->
    let cmp (ka, (a : node_id)) (kb, b) =
      let c = compare_order_key ka kb in
      if c <> 0 then c else Stdlib.compare a b
    in
    List.map (fun id -> (order_key doc id, id)) ids
    |> List.sort_uniq cmp
    |> List.map snd

let node_count doc = doc.live_count
let id_bound doc = doc.next_id

let heap_bytes doc =
  let parts =
    [| Obj.repr doc.parent; Obj.repr doc.first_child; Obj.repr doc.last_child;
       Obj.repr doc.next_sib; Obj.repr doc.prev_sib; Obj.repr doc.tagk;
       Obj.repr doc.attr_head; Obj.repr doc.dead; Obj.repr doc.texts;
       Obj.repr doc.aname; Obj.repr doc.avalue; Obj.repr doc.anext |]
  in
  8 * (Obj.reachable_words (Obj.repr parts) - 1 - Array.length parts)

(* ------------------------------------------------------------------ *)
(* Snapshot (de)serialization                                          *)
(* ------------------------------------------------------------------ *)

module Wire = Xic_symbol.Wire

(* Dump the arena columns verbatim (prefix [0 .. next_id)), so node ids
   survive a save/load round trip — the Datalog store's node-id tuples
   and the journal's replay both rely on that. *)
let serialize doc buf =
  let n = doc.next_id in
  Wire.add_int buf n;
  Wire.add_int buf doc.live_count;
  (* structural links are node ids near their own index — store them
     index-relative so almost every varint is one byte; tagk (small
     symbol ids) and attr_head (mostly -1) are already short as-is *)
  Wire.add_int_array_delta buf doc.parent n;
  Wire.add_int_array_delta buf doc.first_child n;
  Wire.add_int_array_delta buf doc.last_child n;
  Wire.add_int_array_delta buf doc.next_sib n;
  Wire.add_int_array_delta buf doc.prev_sib n;
  Wire.add_int_array buf doc.tagk n;
  Wire.add_int_array buf doc.attr_head n;
  Wire.add_string buf (Bytes.sub_string doc.dead 0 n);
  Wire.add_int buf doc.n_texts;
  for i = 0 to doc.n_texts - 1 do
    Wire.add_string buf doc.texts.(i)
  done;
  Wire.add_int buf doc.n_attrs;
  Wire.add_int_array buf doc.aname doc.n_attrs;
  for i = 0 to doc.n_attrs - 1 do
    Wire.add_string buf doc.avalue.(i)
  done;
  Wire.add_int_array buf doc.anext doc.n_attrs;
  Wire.add_int buf (List.length doc.root_ids);
  List.iter (Wire.add_int buf) doc.root_ids

(* Restore a serialized arena in place into an empty document.  Symbol
   ids are process-local (they depend on interning order), so every
   stored tag and attribute-name id goes through [remap], built by the
   snapshot loader from the saved names table. *)
let restore doc ~remap c =
  if doc.next_id > 0 || doc.root_ids <> [] then
    invalid_arg "Doc.restore: document not empty";
  let n = Wire.get_int c in
  if n < 0 then invalid_arg "Doc.restore: negative node count";
  let live_count = Wire.get_int c in
  let col what a = if Array.length a <> n then
      invalid_arg ("Doc.restore: column length mismatch in " ^ what) else a in
  let parent = col "parent" (Wire.get_int_array_delta c) in
  let first_child = col "first_child" (Wire.get_int_array_delta c) in
  let last_child = col "last_child" (Wire.get_int_array_delta c) in
  let next_sib = col "next_sib" (Wire.get_int_array_delta c) in
  let prev_sib = col "prev_sib" (Wire.get_int_array_delta c) in
  let tagk = col "tagk" (Wire.get_int_array c) in
  let attr_head = col "attr_head" (Wire.get_int_array c) in
  (* [get_string] already returns a fresh copy, safe to take ownership *)
  let dead = Bytes.unsafe_of_string (Wire.get_string c) in
  if Bytes.length dead <> n then invalid_arg "Doc.restore: dead column mismatch";
  let n_texts = Wire.get_int c in
  if n_texts < 0 || n_texts > Wire.remaining c then
    invalid_arg "Doc.restore: bad text count";
  let texts = Wire.get_string_array c n_texts in
  let n_attrs = Wire.get_int c in
  if n_attrs < 0 || n_attrs > Wire.remaining c then
    invalid_arg "Doc.restore: bad attr count";
  let aname = Wire.get_int_array c in
  if Array.length aname <> n_attrs then invalid_arg "Doc.restore: aname mismatch";
  let avalue = Wire.get_string_array c n_attrs in
  let anext = Wire.get_int_array c in
  if Array.length anext <> n_attrs then invalid_arg "Doc.restore: anext mismatch";
  let n_roots = Wire.get_int c in
  if n_roots < 0 || n_roots > Wire.remaining c then
    invalid_arg "Doc.restore: bad root count";
  let root_ids = List.init n_roots (fun _ -> Wire.get_int c) in
  (* flatten the remap to raw ids once, so the per-node loop is two
     array reads — it runs over every node of the arena *)
  let nsyms = Array.length remap in
  let ids = Array.map Symbol.to_int remap in
  for i = 0 to n - 1 do
    let k = Array.unsafe_get tagk i in
    if k >= 0 then begin
      if k >= nsyms then invalid_arg "Doc.restore: symbol id out of range";
      Array.unsafe_set tagk i (Array.unsafe_get ids k)
    end
  done;
  for i = 0 to n_attrs - 1 do
    let k = Array.unsafe_get aname i in
    if k < 0 || k >= nsyms then
      invalid_arg "Doc.restore: symbol id out of range";
    Array.unsafe_set aname i (Array.unsafe_get ids k)
  done;
  doc.parent <- parent;
  doc.first_child <- first_child;
  doc.last_child <- last_child;
  doc.next_sib <- next_sib;
  doc.prev_sib <- prev_sib;
  doc.tagk <- tagk;
  doc.attr_head <- attr_head;
  doc.dead <- dead;
  doc.next_id <- n;
  doc.texts <- (if n_texts = 0 then Array.make 16 "" else texts);
  doc.n_texts <- n_texts;
  doc.aname <- (if n_attrs = 0 then Array.make 16 0 else aname);
  doc.avalue <- (if n_attrs = 0 then Array.make 16 "" else avalue);
  doc.anext <- (if n_attrs = 0 then Array.make 16 (-1) else anext);
  doc.n_attrs <- n_attrs;
  doc.root_ids <- root_ids;
  doc.live_count <- live_count;
  List.iter (fun r -> notify doc (Attached r)) root_ids

let transplant ~into src =
  if into.next_id > 0 || into.root_ids <> [] then
    invalid_arg "Doc.transplant: destination not empty";
  into.parent <- src.parent;
  into.first_child <- src.first_child;
  into.last_child <- src.last_child;
  into.next_sib <- src.next_sib;
  into.prev_sib <- src.prev_sib;
  into.tagk <- src.tagk;
  into.attr_head <- src.attr_head;
  into.dead <- src.dead;
  into.next_id <- src.next_id;
  into.texts <- src.texts;
  into.n_texts <- src.n_texts;
  into.aname <- src.aname;
  into.avalue <- src.avalue;
  into.anext <- src.anext;
  into.n_attrs <- src.n_attrs;
  into.root_ids <- src.root_ids;
  into.live_count <- src.live_count;
  (* leave [src] reusable but disconnected from the moved arena *)
  let empty = create () in
  src.parent <- empty.parent;
  src.first_child <- empty.first_child;
  src.last_child <- empty.last_child;
  src.next_sib <- empty.next_sib;
  src.prev_sib <- empty.prev_sib;
  src.tagk <- empty.tagk;
  src.attr_head <- empty.attr_head;
  src.dead <- empty.dead;
  src.next_id <- 0;
  src.texts <- empty.texts;
  src.n_texts <- 0;
  src.aname <- empty.aname;
  src.avalue <- empty.avalue;
  src.anext <- empty.anext;
  src.n_attrs <- 0;
  src.root_ids <- [];
  src.live_count <- 0;
  List.iter (fun r -> notify into (Attached r)) into.root_ids

let equal_structure d1 d2 =
  let cmp_attr (k1, v1) (k2, v2) =
    let c = Symbol.compare k1 k2 in
    if c <> 0 then c else String.compare v1 v2
  in
  let sorted_attrs l = List.sort cmp_attr l in
  let eq_attrs a1 a2 =
    List.equal
      (fun (k1, v1) (k2, v2) -> Symbol.equal k1 k2 && String.equal v1 v2)
      (sorted_attrs a1) (sorted_attrs a2)
  in
  let rec eq id1 id2 =
    match (kind d1 id1, kind d2 id2) with
    | Text s1, Text s2 -> String.equal s1 s2
    | Element t1, Element t2 ->
      Symbol.equal t1 t2
      && eq_attrs (attrs_sym d1 id1) (attrs_sym d2 id2)
      && (let c1 = children d1 id1 and c2 = children d2 id2 in
          List.length c1 = List.length c2 && List.for_all2 eq c1 c2)
    | _ -> false
  in
  let r1 = roots d1 and r2 = roots d2 in
  List.length r1 = List.length r2 && List.for_all2 eq r1 r2
