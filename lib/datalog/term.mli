(** Terms, atoms, literals and denials of the Datalog dialect used by the
    simplification framework (Section 5 of the paper).

    Besides variables and constants, terms include {e parameters} (the
    paper's boldface [a], [b], …): placeholders for constants that become
    known only at update time.  A parameter behaves like an unknown but
    fixed constant. *)

type const =
  | Int of int
  | Str of string

type term =
  | Var of string
      (** capitalized in concrete syntax; names starting with ['_'] are
          anonymous (each occurrence distinct) *)
  | Const of const
  | Param of string  (** [%name] in concrete syntax *)

type atom = {
  pred : string;
  args : term list;
}

(** Comparison operators of built-in literals. *)
type cmp = Eq | Neq | Lt | Le | Gt | Ge

(** Aggregate operators ([D] suffix = distinct, as in the paper's
    [Cnt_D]). *)
type agg_op = Cnt | CntD | Sum | SumD | Max | Min

(** An aggregate condition [op{target; atoms} cmp bound].  The aggregate
    ranges over the joins of the store tuples matching the conjunction
    [atoms]; variables also occurring outside the aggregate act as
    group-by variables.  [Cnt] counts join rows; [CntD] counts distinct
    values of [target] (or distinct whole local-variable vectors when
    [target] is [None]). *)
type agg = {
  op : agg_op;
  target : term option;
  atoms : atom list;  (** conjunctive pattern, joined most-bound-first *)
  acmp : cmp;
  bound : term;
}

type lit =
  | Rel of atom  (** positive database literal *)
  | Not of atom  (** negated database literal *)
  | Cmp of cmp * term * term
  | Agg of agg

(** A denial [← l1 ∧ … ∧ ln]: consistent iff the body is unsatisfiable. *)
type denial = {
  label : string option;  (** provenance, e.g. the source constraint name *)
  body : lit list;
}

val denial : ?label:string -> lit list -> denial

(** {2 Structural helpers} *)

val is_anon : term -> bool
(** Is the term an anonymous variable (name starting with ['_'])? *)

val term_vars : term -> string list
val atom_vars : atom -> string list
val lit_vars : lit -> string list
val denial_vars : denial -> string list
(** Variables in first-occurrence order, without duplicates. *)

val denial_params : denial -> string list
(** Parameter names, first-occurrence order, without duplicates. *)

val agg_local_vars : lit list -> agg -> string list
(** Variables of the aggregate occurring nowhere else in the given body
    (the aggregate's existential locals). *)

val negate_cmp : cmp -> cmp
val eval_cmp : cmp -> const -> const -> bool

val fresh_var : ?base:string -> unit -> string
(** Globally fresh variable name ["base_<n>"]. *)

(** {2 Printing} *)

val cmp_str : cmp -> string
val agg_op_str : agg_op -> string
val const_str : const -> string
val term_str : term -> string
val atom_str : atom -> string
val lit_str : lit -> string

val denial_str : denial -> string
(** Concrete syntax accepted back by {!Parser}; single-occurrence
    anonymous variables print as ["_"]. *)

val denials_str : denial list -> string
