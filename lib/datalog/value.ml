(* An immediate is an [Int]; any block is a [Str]'s string.  Only
   [of_int] and [of_string] build a value, so no other block occurs. *)
type t = Obj.t

let of_int (i : int) : t = Obj.repr i
let of_string (s : string) : t = Obj.repr s

let is_int = Obj.is_int

let get_int (v : t) : int = Obj.obj v
let get_string (v : t) : string = Obj.obj v

let equal a b =
  a == b
  || ((not (Obj.is_int a)) && (not (Obj.is_int b))
     && String.equal (get_string a) (get_string b))

let hash (v : t) = Hashtbl.hash v

let compare a b =
  match (Obj.is_int a, Obj.is_int b) with
  | true, true -> Int.compare (get_int a) (get_int b)
  | true, false -> -1
  | false, true -> 1
  | false, false -> String.compare (get_string a) (get_string b)

(* [Term.eval_cmp]'s rule: mixed kinds compare by the printed form. *)
let cmp op a b =
  let r =
    match (Obj.is_int a, Obj.is_int b) with
    | true, true -> Int.compare (get_int a) (get_int b)
    | false, false -> String.compare (get_string a) (get_string b)
    | true, false -> String.compare (string_of_int (get_int a)) (get_string b)
    | false, true -> String.compare (get_string a) (string_of_int (get_int b))
  in
  match op with
  | Term.Eq -> r = 0
  | Term.Neq -> r <> 0
  | Term.Lt -> r < 0
  | Term.Le -> r <= 0
  | Term.Gt -> r > 0
  | Term.Ge -> r >= 0

let to_int v =
  if Obj.is_int v then Some (get_int v) else int_of_string_opt (get_string v)

let of_const = function Term.Int i -> of_int i | Term.Str s -> of_string s

let to_const v =
  if Obj.is_int v then Term.Int (get_int v) else Term.Str (get_string v)
