(** XML 1.0 subset parser producing a {!Doc.t} arena document.

    Supported: elements, attributes (single or double quoted), character
    data, CDATA sections, comments, processing instructions (skipped), the
    XML declaration, an optional internal or external DOCTYPE declaration
    (element declarations are exposed as raw text for {!Dtd}), and the five
    predefined entities plus decimal/hexadecimal character references.

    Not supported (rejected or ignored as noted): namespaces are treated as
    plain prefixed names; user-defined entity declarations are rejected. *)

exception Parse_error of { line : int; col : int; msg : string }
(** Locations are computed lazily: the parser tracks only a byte offset
    and recovers line/col from it when raising, so the happy path pays
    nothing for error reporting. *)

type result = {
  doc : Doc.t;
  dtd_text : string option;
      (** Raw text between the brackets of an internal DTD subset, if any. *)
}

type sink = Doc.node_id -> pos:int -> unit
(** Streaming consumer of parsed elements, called once per element as its
    close tag (or self-closing [/>]) completes — its attributes, children
    and embedded text already exist in the document, and its parent link
    is set (except for the root).  [pos] is the element's 1-based
    position among its parent's element children (1 for the root), which
    the parser tracks for free — so a shredder never recomputes
    positions.  Elements arrive in close-tag (post) order. *)

val parse_string : ?keep_ws:bool -> string -> result
(** Parse a complete document.  Unless [keep_ws] is set, text nodes that
    consist solely of whitespace are dropped (the running-example DTDs are
    element-content only, where such whitespace is insignificant).
    @raise Parse_error on malformed input. *)

val parse_document_into :
  ?keep_ws:bool -> ?sink:sink -> Doc.t -> string -> Doc.node_id * string option
(** Fused single-pass loader: parse a complete document (prolog, one root
    element, trailing misc) allocating nodes directly into an existing
    arena, feeding every completed element to [sink].  Nodes are
    allocated in pre-order and attached on their open tag — no child-list
    accumulation, no second walk; names are interned straight off the
    source buffer.  Returns the (detached) root and the internal DTD
    subset; the caller decides whether to register the root
    ({!Doc.add_root}).  On [Parse_error] the partially built subtree
    stays allocated but unreachable (never registered as a root).
    @raise Parse_error on malformed input; anything [sink] raises
    propagates. *)

val unescape : string -> string
(** Resolve predefined entities and character references in attribute or
    text content.  Raises [Failure] on unknown entities. *)
