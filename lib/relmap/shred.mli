(** Shredding documents into the relational fact store of the mapping.

    Each non-embedded, non-elided element [e] with node id [i], position
    [p] (among its parent's element children) and parent node id [q]
    yields the fact [e(i, p, q, c₁, …, cₙ)] where the [cᵢ] are attribute
    values and embedded-child text contents ([""] when absent).  A fact
    is built as the store keeps it, one flat {!Xic_datalog.Value} array,
    and a text column is the arena's own string. *)

open Xic_xml

exception Shred_error of string

val fact_of_element :
  Mapping.t -> Doc.t -> Doc.node_id -> (string * Xic_datalog.Store.tuple) option
(** The fact contributed by one element node, if its type maps to a
    predicate.  Embedded-child lookups and the [Pos] column walk the
    arena's sibling links.
    @raise Shred_error for element types outside the schema. *)

val fact_of_element_sym :
  Mapping.t -> Doc.t -> Doc.node_id ->
  (Doc.Symbol.t * Xic_datalog.Store.tuple) option
(** As {!fact_of_element} with the predicate as an interned symbol — the
    shredding loops use this together with {!Xic_datalog.Store.add_sym}
    so the per-element dispatch never hashes a tag string. *)

val sink :
  ?count:int ref ->
  Mapping.t -> Doc.t -> Xic_datalog.Store.t -> Doc.node_id -> pos:int -> unit
(** Streaming shredder for the fused loader: the returned function has
    the shape of [Xml_parser.sink] and adds each completed element's fact
    to the store as the parser closes it — position comes from the
    parser, embedded text and attributes from the freshly built arena, so
    loading needs no second walk and no position recomputation.  [count],
    when given, is incremented per fact emitted.
    @raise Shred_error for element types outside the schema. *)

val shred : Mapping.t -> Doc.t -> Xic_datalog.Store.t
(** Shred all roots of the document/collection into a fresh store. *)

val path_to_node : Doc.t -> Doc.node_id -> string
(** A positional root path such as [/review/track[2]/rev[5]], the display
    form the paper uses for node-valued parameters. *)
