(** Net fact delta of a batch of store mutations.

    The mirror ([Xic_relmap.Mirror]) records every tuple it adds to or
    removes from the shredded store here.  The delta keeps the {e net}
    multiset — a tuple inserted and then deleted inside one batch
    cancels to nothing — which is exactly what the semi-naive
    incremental evaluator ({!Incr}) needs: only net changes can affect a
    denial's materialized result.  Gross counters are kept alongside for
    the [delta_facts_added]/[delta_facts_removed] metrics. *)

module Symbol = Xic_symbol.Symbol

type key = Symbol.t * Store.tuple

type t = {
  net : (key, int ref) Hashtbl.t;  (* +n inserted, -n deleted, never 0 *)
  mutable gross_added : int;
  mutable gross_removed : int;
}

let create () = { net = Hashtbl.create 32; gross_added = 0; gross_removed = 0 }

let bump t key by =
  match Hashtbl.find_opt t.net key with
  | Some r ->
    r := !r + by;
    if !r = 0 then Hashtbl.remove t.net key
  | None -> Hashtbl.add t.net key (ref by)

let add t sym tup =
  t.gross_added <- t.gross_added + 1;
  bump t (sym, tup) 1

let remove t sym tup =
  t.gross_removed <- t.gross_removed + 1;
  bump t (sym, tup) (-1)

let is_empty t = Hashtbl.length t.net = 0
let gross_added t = t.gross_added
let gross_removed t = t.gross_removed

let added t =
  Hashtbl.fold
    (fun (sym, tup) r acc -> if !r > 0 then (sym, tup, !r) :: acc else acc)
    t.net []

let removed t =
  Hashtbl.fold
    (fun (sym, tup) r acc -> if !r < 0 then (sym, tup, - !r) :: acc else acc)
    t.net []

let touched t =
  let syms = Hashtbl.create 8 in
  Hashtbl.iter (fun (sym, _) _ -> Hashtbl.replace syms sym ()) t.net;
  Hashtbl.fold (fun sym () acc -> sym :: acc) syms []

let pp ppf t =
  let line verb (sym, tup, n) =
    Format.fprintf ppf "@[%s %s(%s)%s@]@." verb (Symbol.name sym)
      (String.concat ", "
         (Array.to_list (Array.map (fun v -> Term.const_str (Value.to_const v)) tup)))
      (if n = 1 then "" else Printf.sprintf " x%d" n)
  in
  List.iter (line "+") (added t);
  List.iter (line "-") (removed t)
