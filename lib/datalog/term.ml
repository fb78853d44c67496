(** Terms, atoms, literals and denials of the Datalog dialect used by the
    simplification framework (Section 5 of the paper).

    Besides variables and constants, terms include {e parameters}
    (the paper's boldface [a], [b], …): placeholders for constants that
    become known only at update time.  A parameter behaves like an unknown
    but fixed constant: two distinct parameters may or may not denote the
    same value. *)

type const =
  | Int of int
  | Str of string

type term =
  | Var of string     (** capitalized in concrete syntax; names starting
                          with ['_'] are anonymous (each occurrence
                          distinct) *)
  | Const of const
  | Param of string   (** [%name] in concrete syntax *)

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
  target : term option;  (** the counted/summed/extremized term *)
  atoms : atom list;     (** conjunctive pattern, joined most-bound-first *)
  acmp : cmp;
  bound : term;
}

type lit =
  | Rel of atom         (** positive database literal *)
  | Not of atom         (** negated database literal *)
  | Cmp of cmp * term * term
  | Agg of agg

(** A denial [← l1 ∧ … ∧ ln]: consistent iff the body is unsatisfiable. *)
type denial = {
  label : string option;  (** provenance, e.g. the source constraint name *)
  body : lit list;
}

let denial ?label body = { label; body }

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

let is_anon = function Var v -> String.length v > 0 && v.[0] = '_' | _ -> false

let term_vars = function Var v -> [ v ] | Const _ | Param _ -> []

let atom_vars a = List.concat_map term_vars a.args

let lit_vars = function
  | Rel a | Not a -> atom_vars a
  | Cmp (_, t1, t2) -> term_vars t1 @ term_vars t2
  | Agg g ->
    List.concat_map atom_vars g.atoms
    @ (match g.target with Some t -> term_vars t | None -> [])
    @ term_vars g.bound

let dedup xs =
  List.rev (List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) [] xs)

let denial_vars d = dedup (List.concat_map lit_vars d.body)

let term_params = function Param p -> [ p ] | Const _ | Var _ -> []

let lit_params = function
  | Rel a | Not a -> List.concat_map term_params a.args
  | Cmp (_, t1, t2) -> term_params t1 @ term_params t2
  | Agg g ->
    List.concat_map (fun (a : atom) -> List.concat_map term_params a.args) g.atoms
    @ (match g.target with Some t -> term_params t | None -> [])
    @ term_params g.bound

let denial_params d = dedup (List.concat_map lit_params d.body)

(* Variables of an aggregate that are local to it: they occur in the
   aggregated atom (or target) but nowhere else in the denial body. *)
let agg_local_vars denial_body g =
  let inside = dedup (List.concat_map atom_vars g.atoms) in
  let outside =
    List.concat_map
      (fun l -> if l = Agg g then [] else lit_vars l)
      denial_body
  in
  List.filter (fun v -> not (List.mem v outside)) inside

let negate_cmp = function
  | Eq -> Neq | Neq -> Eq | Lt -> Ge | Le -> Gt | Gt -> Le | Ge -> Lt

let eval_cmp op (a : const) (b : const) =
  (* Int/Str comparisons are within the same kind; mixed kinds compare by
     their printed form, which only matters for degenerate inputs. *)
  let r =
    match (a, b) with
    | Int x, Int y -> compare x y
    | Str x, Str y -> compare x y
    | Int x, Str y -> compare (string_of_int x) y
    | Str x, Int y -> compare x (string_of_int y)
  in
  match op with
  | Eq -> r = 0
  | Neq -> r <> 0
  | Lt -> r < 0
  | Le -> r <= 0
  | Gt -> r > 0
  | Ge -> r >= 0

(* ------------------------------------------------------------------ *)
(* Fresh variable renaming                                             *)
(* ------------------------------------------------------------------ *)

let counter = ref 0

let fresh_var ?(base = "V") () =
  incr counter;
  base ^ "_" ^ string_of_int !counter

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let cmp_str = function
  | Eq -> "=" | Neq -> "!=" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="

let agg_op_str = function
  | Cnt -> "cnt" | CntD -> "cntd" | Sum -> "sum" | SumD -> "sumd"
  | Max -> "max" | Min -> "min"

let const_str = function
  | Int i -> string_of_int i
  | Str s -> "\"" ^ s ^ "\""

let term_str = function
  | Var v -> v
  | Const c -> const_str c
  | Param p -> "%" ^ p

let atom_str a = a.pred ^ "(" ^ String.concat ", " (List.map term_str a.args) ^ ")"

let lit_str = function
  | Rel a -> atom_str a
  | Not a -> "not " ^ atom_str a
  | Cmp (op, t1, t2) -> term_str t1 ^ " " ^ cmp_str op ^ " " ^ term_str t2
  | Agg g ->
    let atoms = String.concat ", " (List.map atom_str g.atoms) in
    let inner =
      match g.target with
      | Some t -> term_str t ^ "; " ^ atoms
      | None -> atoms
    in
    agg_op_str g.op ^ "(" ^ inner ^ ") " ^ cmp_str g.acmp ^ " " ^ term_str g.bound

(* Anonymous variables that occur more than once in a denial are join
   positions, so they must keep their name in the printed form;
   single-occurrence ones print as "_". *)
let denial_str d =
  let counts = Hashtbl.create 16 in
  List.iter
    (fun l ->
      List.iter
        (fun v ->
          Hashtbl.replace counts v (1 + Option.value ~default:0 (Hashtbl.find_opt counts v)))
        (lit_vars l))
    d.body;
  let collapse = function
    | Var v
      when String.length v > 0 && v.[0] = '_'
           && Option.value ~default:0 (Hashtbl.find_opt counts v) <= 1 ->
      Var "_"
    | t -> t
  in
  let collapse_atom a = { a with args = List.map collapse a.args } in
  let collapse_lit = function
    | Rel a -> Rel (collapse_atom a)
    | Not a -> Not (collapse_atom a)
    | Cmp (op, t1, t2) -> Cmp (op, collapse t1, collapse t2)
    | Agg g ->
      Agg
        {
          g with
          target = Option.map collapse g.target;
          atoms = List.map collapse_atom g.atoms;
          bound = collapse g.bound;
        }
  in
  (match d.label with Some l -> l ^ ": " | None -> "")
  ^ ":- "
  ^ String.concat ", " (List.map (fun l -> lit_str (collapse_lit l)) d.body)

let denials_str ds = String.concat "\n" (List.map denial_str ds)
