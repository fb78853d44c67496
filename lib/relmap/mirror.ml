(** Exact store mirror driven by Doc mutation events.

    Subscribes to the document's mutation observer and keeps the
    shredded fact store equal to what a from-scratch {!Shred.shred}
    would produce, recording every net store change into a
    {!Xic_datalog.Delta} for the incremental evaluator.

    Events only {e mark} nodes dirty (cheap, during mutation storms such
    as a transaction's rollback); {!flush} reconciles each dirty element's
    stored facts against a recomputed [fact_of_element_sym] — so an
    insert-then-delete inside one batch nets out to nothing, and
    position/text-dependent columns of shifted siblings and ancestors
    are refreshed exactly.

    Marking rules, derived from the fact shape
    [tag(id, pos, parent, c₁…cₙ)]:
    - attaching/detaching an element changes its own subtree's facts,
      the [pos] column of every following element sibling, and the
      text columns of its ancestors: an ancestor's text column, or its
      embedded column for the child the change lies under;
    - attaching/detaching a text node changes those ancestors only.

    [Detaching] fires while links are intact, so the same sets are
    reachable; the tag is recorded at mark time because the node may be
    freed before the flush.

    It also keeps the elements that hold more than their fact (a second
    embedded child, element content in a [(#PCDATA)] type), which a
    store lookup would miss: {!exact} is false while any is attached. *)

open Xic_xml
module Store = Xic_datalog.Store
module Delta = Xic_datalog.Delta
module Value = Xic_datalog.Value

type t = {
  mapping : Mapping.t;
  doc : Doc.t;
  store : Store.t;
  dirty : (Doc.node_id, Doc.Symbol.t) Hashtbl.t;
  misfits : (Doc.node_id, unit) Hashtbl.t;
  mutable unaudited : Doc.node_id list;
  mutable token : int;
  mutable active : bool;
}

let mark t id tag = Hashtbl.replace t.dirty id tag

(* Whether a change below [child] reaches the fact of its parent [p]:
   a text column reads all the text below [p], an embedded column the
   text of that one child; no other column reads below [p]. *)
let reads_below t p child =
  let pname = Doc.name t.doc p in
  Mapping.column_of t.mapping ~pred:pname Mapping.From_text <> None
  || Doc.is_element t.doc child
     && Mapping.is_embedded_in t.mapping ~parent:pname ~child:(Doc.name t.doc child)

let mark_ancestors t id =
  let rec up child =
    let p = Doc.parent t.doc child in
    if p <> Doc.no_node then begin
      if reads_below t p child then mark t p (Doc.tag t.doc p);
      up p
    end
  in
  up id

let mark_subtree t id =
  let rec go i =
    if Doc.is_element t.doc i then begin
      mark t i (Doc.tag t.doc i);
      Doc.iter_children t.doc i go
    end
  in
  go id

let mark_structural t id =
  if Doc.is_element t.doc id then begin
    mark_subtree t id;
    List.iter
      (fun s -> if Doc.is_element t.doc s then mark t s (Doc.tag t.doc s))
      (Doc.following_siblings t.doc id)
  end;
  mark_ancestors t id

let on_event t (Doc.Attached id | Doc.Detaching id) =
  if t.active then mark_structural t id

(* Whether the element's fact holds every value a path step reads below
   it: at most one child of each embedded type, and that child, like an
   element with a text column, holds nothing but one text.  True
   throughout a valid document. *)
let fits t id =
  let children e = Doc.children t.doc e in
  let single_text e =
    match children e with [] -> true | [ c ] -> Doc.is_text t.doc c | _ -> false
  in
  match Mapping.repr_of_sym t.mapping (Doc.tag t.doc id) with
  | Mapping.Embedded | Mapping.Elided -> true
  | Mapping.Predicate s ->
    List.for_all
      (fun (c : Mapping.column) ->
        match c.Mapping.source with
        | Mapping.From_attr _ -> true
        | Mapping.From_text -> single_text id
        | Mapping.From_pcdata_child ch -> (
          let named k = Doc.is_element t.doc k && Doc.name t.doc k = ch in
          match List.filter named (children id) with
          | [] -> true
          | [ k ] -> single_text k
          | _ -> false))
      s.Mapping.columns

(* Subtrees are assessed on the first {!exact} after they arrive (a walk
   of the whole document a load without a value probe never pays). *)
let audit t root = t.unaudited <- root :: t.unaudited

let assess t root =
  let rec go i =
    if Doc.is_element t.doc i then begin
      if not (fits t i) then Hashtbl.replace t.misfits i ();
      Doc.iter_children t.doc i go
    end
  in
  if Doc.reachable t.doc root then go root

let create mapping doc store =
  let t =
    { mapping; doc; store; dirty = Hashtbl.create 64; misfits = Hashtbl.create 8;
      unaudited = Doc.roots doc; token = -1; active = true }
  in
  t.token <- Doc.subscribe doc (on_event t);
  t

let detach t =
  Doc.unsubscribe t.doc t.token;
  Hashtbl.reset t.dirty;
  Hashtbl.reset t.misfits;
  t.unaudited <- []

let set_active t b = t.active <- b
let has_dirty t = Hashtbl.length t.dirty > 0

(* With no marks pending, every element is of a type the mapping knows
   (the loader and the flush refuse others), so [fits] can ask. *)
let exact t =
  Hashtbl.length t.dirty = 0
  && begin
    List.iter (assess t) t.unaudited;
    t.unaudited <- [];
    Hashtbl.length t.misfits = 0
  end

(* A live node contributes facts only when its tree is attached to a
   document root (XUpdate materializes replacement content in detached
   scratch trees, whose mutations also fire events). *)
let flush t ~into =
  if has_dirty t then begin
    Hashtbl.iter
      (fun id tag ->
        let old = Store.lookup_sym t.store tag 0 (Value.of_int id) in
        let nw =
          if Doc.reachable t.doc id then
            match Shred.fact_of_element_sym t.mapping t.doc id with
            | Some (_, tup) -> Some tup
            | None -> None  (* embedded / elided element type *)
          else None
        in
        if nw <> None && not (fits t id) then Hashtbl.replace t.misfits id ()
        else Hashtbl.remove t.misfits id;
        match (old, nw) with
        | [], None -> ()
        | [ o ], Some tup when Store.tuple_equal o tup -> ()  (* net no-op *)
        | _ ->
          List.iter
            (fun o ->
              ignore (Store.remove_sym t.store tag o);
              Delta.remove into tag o)
            old;
          (match nw with
           | Some tup ->
             Store.add_sym t.store tag tup;
             Delta.add into tag tup
           | None -> ()))
      t.dirty;
    Hashtbl.reset t.dirty
  end
