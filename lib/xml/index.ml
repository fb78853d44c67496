(* The tag and rank tables of an arena document.

   Nothing is computed until the first lookup (documents that are only
   parsed and validated never pay for indexing); from then on the tables
   are maintained incrementally from the document's mutation events, so
   XUpdate application, undo and crash recovery all leave them
   consistent without cooperation from those layers.

   The tag table is keyed by interned names (Symbol.t), so a lookup
   hashes and compares small ints, never strings.

   Membership invariant: the tag table contains exactly the elements
   reachable from the document's roots.  Detached subtrees enter when
   (re)attached and leave when detached, keyed off Doc.Attached /
   Doc.Detaching — the latter fires before the splice, while the parent
   chain still proves reachability. *)

module Symbol = Xic_symbol.Symbol

type stats = {
  hits : int;
  misses : int;
  fallbacks : int;
  events : int;
}

(* Process-wide in the metrics registry, across every index. *)
let c_hits = Xic_obs.Obs.Metrics.counter "index_hits"
let c_misses = Xic_obs.Obs.Metrics.counter "index_misses"
let c_fallbacks = Xic_obs.Obs.Metrics.counter "index_fallbacks"
let c_events = Xic_obs.Obs.Metrics.counter "index_events"

(* [cache] is the document-order view of [ids] handed to lookups. *)
type bucket = {
  mutable ids : Doc.node_id list;
  mutable cache : Doc.node_id list option;
}

type t = {
  doc : Doc.t;
  mutable built : bool;
  by_name : (Symbol.t, bucket) Hashtbl.t;
  (* document-order rank of every reachable node, indexed by arena id
     (-1 = unranked); maintained across attaches and detaches, see
     [rank_attached] *)
  mutable order : int array option;
}

(* ------------------------------------------------------------------ *)
(* Entry maintenance                                                   *)
(* ------------------------------------------------------------------ *)

(* An element enters or leaves its tag's bucket, which drops the
   bucket's document-order view. *)
let rec add_subtree t id =
  if Doc.is_element t.doc id then begin
    let tag = Doc.tag t.doc id in
    (match Hashtbl.find_opt t.by_name tag with
     | Some b ->
       b.ids <- id :: b.ids;
       b.cache <- None
     | None -> Hashtbl.replace t.by_name tag { ids = [ id ]; cache = None });
    Doc.iter_children t.doc id (add_subtree t)
  end

let rec remove_subtree t id =
  if Doc.is_element t.doc id then begin
    let tag = Doc.tag t.doc id in
    (match Hashtbl.find_opt t.by_name tag with
     | Some b ->
       (* an undo removes the newest entry, which is first *)
       let rec rm = function [] -> [] | x :: l -> if x = id then l else x :: rm l in
       b.ids <- rm b.ids;
       b.cache <- None;
       if b.ids = [] then Hashtbl.remove t.by_name tag
     | None -> ());
    Doc.iter_children t.doc id (remove_subtree t)
  end

(* ------------------------------------------------------------------ *)
(* Rank maintenance                                                    *)
(* ------------------------------------------------------------------ *)

(* Inserting or removing a subtree never changes the relative order of
   the other nodes, so the rank table survives writes: a detached
   subtree loses its ranks, an attached one takes evenly spaced ranks
   strictly between its neighbours in document order.  Each event costs
   O(subtree + depth); the table is dropped (rebuilt by the next sort)
   only for a new root or when the gap between the neighbours is used
   up. *)

let rank arr id = if id >= 0 && id < Array.length arr then arr.(id) else -1

let unrank_subtree t arr id =
  let rec go n =
    if n < Array.length arr then arr.(n) <- -1;
    Doc.iter_children t.doc n go
  in
  go id

(* The node just before [id] in document order is its previous
   sibling's last descendant, or else its parent. *)
let rank_before t arr id p =
  let rec last_descendant n =
    let c = Doc.last_child t.doc n in
    if c = Doc.no_node then n else last_descendant c
  in
  let s = Doc.prev_sibling t.doc id in
  rank arr (if s = Doc.no_node then p else last_descendant s)

(* The node just after [id]'s subtree is the next sibling of the
   nearest ancestor-or-self, else the next root; past the last node the
   bound is [max_int].  A sibling linked but not yet announced
   ([Doc.append_children] links every child before the first event)
   reads -1, which leaves no gap and drops the table. *)
let rank_after t arr id =
  let rec next_root x = function
    | r :: (r' :: _ as rest) -> if r = x then rank arr r' else next_root x rest
    | [ _ ] | [] -> max_int
  in
  let rec up x =
    let s = Doc.next_sibling t.doc x in
    if s <> Doc.no_node then rank arr s
    else
      let p = Doc.parent t.doc x in
      if p = Doc.no_node then next_root x (Doc.roots t.doc) else up p
  in
  up id

let rank_attached t arr id =
  let p = Doc.parent t.doc id in
  if p = Doc.no_node then t.order <- None
  else if rank arr p < 0 then begin
    (* a detached parent is a subtree under construction: it takes its
       ranks when it is attached itself *)
    if Doc.reachable t.doc p then t.order <- None
  end
  else begin
    let lo = rank_before t arr id p and hi = rank_after t arr id in
    let size = ref 0 in
    let rec count n =
      incr size;
      Doc.iter_children t.doc n count
    in
    count id;
    let size = !size in
    if lo < 0 || hi - lo <= size then t.order <- None
    else begin
      let bound = Doc.id_bound t.doc in
      let arr =
        if bound <= Array.length arr then arr
        else begin
          let grown = Array.make (max bound (2 * Array.length arr)) (-1) in
          Array.blit arr 0 grown 0 (Array.length arr);
          t.order <- Some grown;
          grown
        end
      in
      let step = (hi - lo) / (size + 1) in
      let r = ref lo in
      let rec assign n =
        r := !r + step;
        arr.(n) <- !r;
        Doc.iter_children t.doc n assign
      in
      assign id
    end
  end

(* ------------------------------------------------------------------ *)
(* Event handling                                                      *)
(* ------------------------------------------------------------------ *)

let on_event t e =
  (* the rank table has its own lifecycle: it may exist before the tag
     table is built, so it is maintained whether or not that is *)
  (match (t.order, e) with
   | Some arr, Doc.Attached id -> rank_attached t arr id
   | Some arr, Doc.Detaching id -> unrank_subtree t arr id
   | _ -> ());
  if t.built then begin
    Xic_obs.Obs.Metrics.incr c_events;
    match e with
    | Doc.Attached id -> if Doc.reachable t.doc id then add_subtree t id
    | Doc.Detaching id ->
      (* fired pre-splice: the parent link still proves reachability *)
      if Doc.reachable t.doc id then remove_subtree t id
  end

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let raw doc = { doc; built = false; by_name = Hashtbl.create 64; order = None }

let c_index_builds = Xic_obs.Obs.Metrics.counter "index_builds"

let build t =
  Xic_obs.Obs.Trace.with_span "index:build" (fun () ->
      Xic_obs.Obs.Metrics.incr c_index_builds;
      List.iter (add_subtree t) (Doc.roots t.doc);
      t.built <- true)

let create doc =
  let t = raw doc in
  ignore (Doc.subscribe doc (on_event t) : int);
  t

let built t = t.built

let ensure_built t =
  if not t.built then begin
    Xic_obs.Obs.Metrics.incr c_misses;
    build t
  end

(* ------------------------------------------------------------------ *)
(* Document order                                                      *)
(* ------------------------------------------------------------------ *)

(* One DFS assigns every reachable node its document-order rank.
   Sorting an n-element probe result then costs n array reads, where
   [Doc.order_key] walks each node to its root and scans every
   ancestor's child list — quadratic under wide elements.  Ranks are
   spaced [gap] apart, leaving room for the subtrees later attaches
   rank in between; at most [id_bound] nodes are reachable, so every
   rank stays below [max_int / 2]. *)
let build_order t =
  let bound = Doc.id_bound t.doc in
  let arr = Array.make (max 1 bound) (-1) in
  let gap = max_int / (2 * (bound + 2)) in
  let r = ref 0 in
  let rec dfs id =
    r := !r + gap;
    arr.(id) <- !r;
    Doc.iter_children t.doc id dfs
  in
  List.iter dfs (Doc.roots t.doc);
  arr

let c_rank_builds = Xic_obs.Obs.Metrics.counter "index_rank_builds"

let order_table t =
  match t.order with
  | Some arr -> arr
  | None ->
    Xic_obs.Obs.Metrics.incr c_misses;
    Xic_obs.Obs.Metrics.incr c_rank_builds;
    let arr = build_order t in
    t.order <- Some arr;
    arr

(* Ranks are unique per node, so comparing ranks alone both orders and
   deduplicates.  A node outside the table (detached, or allocated after
   the last build) defers the whole list to [Doc.sort_doc_order], which
   ranks detached subtrees after all roots. *)
let sort_doc_order t ids =
  match ids with
  | [] | [ _ ] -> ids
  | _ -> (
    let arr = order_table t in
    let bound = Array.length arr in
    let rec keyed acc = function
      | [] -> Some acc
      | id :: rest ->
        let r = if id >= 0 && id < bound then arr.(id) else -1 in
        if r < 0 then None else keyed ((r, id) :: acc) rest
    in
    match keyed [] ids with
    | None -> Doc.sort_doc_order t.doc ids
    | Some pairs ->
      List.sort_uniq (fun ((a : int), _) (b, _) -> Stdlib.compare a b) pairs
      |> List.map snd)

(* ------------------------------------------------------------------ *)
(* Lookups                                                             *)
(* ------------------------------------------------------------------ *)

(* A tag's elements in document order, sorted once per bucket change. *)
let lookup t tag =
  ensure_built t;
  Xic_obs.Obs.Metrics.incr c_hits;
  match Hashtbl.find_opt t.by_name tag with
  | None -> []
  | Some { cache = Some l; _ } -> l
  | Some b ->
    Xic_obs.Obs.Metrics.incr c_misses;
    let l = sort_doc_order t b.ids in
    b.cache <- Some l;
    l

let by_name t tag = lookup t (Symbol.intern tag)

let descendants_named t tag =
  (* the //tag node-set: named elements that are proper descendants of a
     root (the roots themselves are never results of a child step) *)
  List.filter (fun id -> Doc.parent t.doc id <> Doc.no_node) (lookup t tag)

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let note_hit () = Xic_obs.Obs.Metrics.incr c_hits
let note_fallback () = Xic_obs.Obs.Metrics.incr c_fallbacks

let stats () =
  { hits = Xic_obs.Obs.Metrics.value c_hits;
    misses = Xic_obs.Obs.Metrics.value c_misses;
    fallbacks = Xic_obs.Obs.Metrics.value c_fallbacks;
    events = Xic_obs.Obs.Metrics.value c_events }

let heap_bytes t =
  8 * Obj.reachable_words (Obj.repr (t.by_name, t.order))

(* ------------------------------------------------------------------ *)
(* Consistency audit (for tests)                                       *)
(* ------------------------------------------------------------------ *)

let norm_tbl tbl =
  Hashtbl.fold (fun k (b : bucket) acc -> (k, List.sort compare b.ids) :: acc) tbl []
  |> List.sort compare

(* A DFS over the reachable nodes must see strictly increasing ranks,
   and no other arena id may hold one. *)
let rank_errors t =
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
  (match t.order with
   | None -> ()
   | Some arr ->
     let last = ref (-1) and ordered = ref true in
     let rec dfs id =
       let r = rank arr id in
       if r < 0 then err "reachable node %d has no rank" id
       else if r <= !last then ordered := false;
       last := max !last r;
       Doc.iter_children t.doc id dfs
     in
     List.iter dfs (Doc.roots t.doc);
     if not !ordered then err "rank table out of document order";
     Array.iteri
       (fun id r ->
         if r >= 0 && not (Doc.reachable t.doc id) then
           err "unreachable node %d holds rank %d" id r)
       arr);
  List.rev !errs

let table_errors t =
  if not t.built then []
  else begin
    let fresh = raw t.doc in
    build fresh;
    if norm_tbl t.by_name = norm_tbl fresh.by_name then []
    else [ "tag table diverges from a from-scratch rebuild" ]
  end

let consistency_errors t = rank_errors t @ table_errors t
