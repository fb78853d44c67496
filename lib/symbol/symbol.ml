type t = int

(* One append-only table, grown in place.  Two probe structures are kept
   in step with [names]:
   - [table]: string-keyed Hashtbl for [intern] / [mem] on whole strings;
   - [chains]: FNV-hashed chains of symbol ids for [intern_sub], which
     must probe by a substring of a source buffer without allocating it.
   [chains] doubles once it is half full, so a new name costs amortised
   O(1) and a chain holds about one id. *)

let table : (string, int) Hashtbl.t = Hashtbl.create 64
let names = ref (Array.make 64 "")
let live = ref 0
let chains : int list array ref = ref (Array.make 16 [])

(* FNV-1a over a byte slice; wraps mod 2^63, masked non-negative. *)
let hash_sub s pos len =
  let h = ref (-3750763034362895579) in
  for i = pos to pos + len - 1 do
    h := (!h lxor Char.code (String.unsafe_get s i)) * 1099511628211
  done;
  !h land max_int

let name s =
  if s < 0 || s >= !live then invalid_arg "Symbol.name: unknown symbol"
  else Array.unsafe_get !names s

let chain_add c id =
  let str = Array.unsafe_get !names id in
  let slot = hash_sub str 0 (String.length str) land (Array.length c - 1) in
  c.(slot) <- id :: c.(slot)

let intern str =
  match Hashtbl.find_opt table str with
  | Some id -> id
  | None ->
    let id = !live in
    if id = Array.length !names then begin
      let a = Array.make (2 * id) "" in
      Array.blit !names 0 a 0 id;
      names := a
    end;
    !names.(id) <- str;
    live := id + 1;
    Hashtbl.add table str id;
    if 2 * !live > Array.length !chains then begin
      let c = Array.make (2 * Array.length !chains) [] in
      for i = id downto 0 do chain_add c i done;
      chains := c
    end
    else chain_add !chains id;
    id

let eq_sub nm s pos len =
  String.length nm = len
  &&
  let rec go i =
    i = len
    || Char.equal (String.unsafe_get nm i) (String.unsafe_get s (pos + i))
       && go (i + 1)
  in
  go 0

let intern_sub s pos len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Symbol.intern_sub";
  let c = !chains in
  let rec probe = function
    | [] -> intern (String.sub s pos len)
    | id :: rest ->
      if eq_sub (Array.unsafe_get !names id) s pos len then id else probe rest
  in
  probe (Array.unsafe_get c (hash_sub s pos len land (Array.length c - 1)))

let equal (a : t) (b : t) = a = b
let compare (a : t) (b : t) = Stdlib.compare a b
let hash (s : t) = s
let to_int (s : t) = s
let unsafe_of_int (i : int) : t = i
let count () = !live
let mem str = Hashtbl.mem table str
let all_names () = Array.sub !names 0 !live
