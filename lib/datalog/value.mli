(** One column value of a stored fact, unboxed.

    A value is either an integer or a string, like {!Term.const}, but
    it costs no block of its own: an [Int] is an OCaml immediate and a
    [Str] is the string pointer itself (the shredder hands over the
    arena's own text, so a stored text is not copied).  One [Obj.is_int]
    test tells the kinds apart.  A tuple is a [t array]: one block of
    [1 + arity] words, where a {!Term.const} list took [5 · arity].

    {!Term.const} stays the form at the API edges (the parser, witnesses
    and JSON replies); {!of_const} and {!to_const} convert there, never
    per stored row. *)

type t

val of_int : int -> t
val of_string : string -> t

val is_int : t -> bool

val get_int : t -> int
(** The integer of an [Int]; only where {!is_int} holds. *)

val get_string : t -> string
(** The string of a [Str]; only where {!is_int} does not hold. *)

val equal : t -> t -> bool
(** [Int n] never equals [Str (string_of_int n)]. *)

val hash : t -> int

val compare : t -> t -> int
(** The order of polymorphic compare on {!Term.const}: every [Int]
    before every [Str], ints numerically, strings bytewise. *)

val cmp : Term.cmp -> t -> t -> bool
(** Exactly {!Term.eval_cmp}: within a kind by value, across kinds by
    the printed form of the integer. *)

val to_int : t -> int option
(** The integer an aggregate reads: an [Int] itself, a [Str] when it
    parses as one. *)

val of_const : Term.const -> t
val to_const : t -> Term.const
