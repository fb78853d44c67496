(** Serialization of {!Doc.t} documents back to XML text. *)

val escape_text : string -> string
(** Escape [&], [<] and [>] for character data. *)

val escape_attr : string -> string
(** Escape ampersand, angle brackets and double quotes for double-quoted
    attribute values. *)

val to_buffer : ?indent:bool -> Buffer.t -> Doc.t -> Doc.node_id -> unit
(** Serialize the subtree rooted at the given node.  With [indent] (default
    false) element-only content is pretty-printed with two-space
    indentation. *)

val node_to_string : ?indent:bool -> Doc.t -> Doc.node_id -> string

val to_string : ?indent:bool -> Doc.t -> string
(** Serialize the whole document (root element, no XML declaration). *)
