(** Exact store mirror driven by Doc mutation events.

    Subscribes to the document's mutation observer and keeps the
    shredded fact store equal to what a from-scratch {!Shred.shred}
    would produce, recording every net store change into a
    {!Xic_datalog.Delta} for the incremental evaluator.

    Events only {e mark} nodes dirty (cheap, during mutation storms such
    as savepoint rollback); {!flush} reconciles each dirty element's
    stored facts against a recomputed [fact_of_element_sym] — so an
    insert-then-delete inside one batch nets out to nothing, and
    position/text-dependent columns of shifted siblings and ancestors
    are refreshed exactly.

    Marking rules, derived from the fact shape
    [tag(id, pos, parent, c₁…cₙ)]:
    - attaching/detaching an element changes its own subtree's facts,
      the [pos] column of every following element sibling, and the
      embedded-text columns of every ancestor;
    - attaching/detaching a text node changes ancestors only.

    [Detaching] fires while links are intact, so the same sets are
    reachable; the tag is recorded at mark time because the node may be
    freed before the flush. *)

open Xic_xml
module Store = Xic_datalog.Store
module Delta = Xic_datalog.Delta
module Value = Xic_datalog.Value

type t = {
  mapping : Mapping.t;
  doc : Doc.t;
  store : Store.t;
  dirty : (Doc.node_id, Doc.Symbol.t) Hashtbl.t;
  mutable token : int;
  mutable active : bool;
}

let mark t id tag = Hashtbl.replace t.dirty id tag

let mark_ancestors t id =
  let rec up i =
    let p = Doc.parent t.doc i in
    if p <> Doc.no_node then begin
      mark t p (Doc.tag t.doc p);
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

let create mapping doc store =
  let t =
    { mapping; doc; store; dirty = Hashtbl.create 64; token = -1; active = true }
  in
  t.token <- Doc.subscribe doc (on_event t);
  t

let detach t =
  Doc.unsubscribe t.doc t.token;
  Hashtbl.reset t.dirty

let set_active t b = t.active <- b
let has_dirty t = Hashtbl.length t.dirty > 0

(* A live node contributes facts only when its tree is attached to a
   document root (XUpdate materializes replacement content in detached
   scratch trees, whose mutations also fire events). *)
let reachable t id =
  let rec top i =
    let p = Doc.parent t.doc i in
    if p = Doc.no_node then i else top p
  in
  List.mem (top id) (Doc.roots t.doc)

let flush t ~into =
  if has_dirty t then begin
    Hashtbl.iter
      (fun id tag ->
        let old = Store.tuples_with_key_sym t.store tag (Value.of_int id) in
        let nw =
          if Doc.live t.doc id && reachable t id then
            match Shred.fact_of_element_sym t.mapping t.doc id with
            | Some (_, tup) -> Some tup
            | None -> None  (* embedded / elided element type *)
          else None
        in
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
