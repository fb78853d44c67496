(* A store's facts by relation name, as [Term.const] lists: the tests'
   view of [Xic_datalog.Store], built on its symbol-keyed functions. *)

module S = Xic_datalog.Store
module V = Xic_datalog.Value

let sym = Xic_symbol.Symbol.intern
let tuple cs = Array.of_list (List.map V.of_const cs)
let consts t = List.map V.to_const (Array.to_list t)

let add st p cs = S.add_sym st (sym p) (tuple cs)
let remove st p cs = S.remove_sym st (sym p) (tuple cs)
let mem st p cs = S.mem_sym st (sym p) (tuple cs)
let cardinality st p = S.cardinality_sym st (sym p)
let tuples st p = List.map consts (S.tuples_sym st (sym p))
let with_key st p k = List.map consts (S.lookup_sym st (sym p) 0 (V.of_const k))

let with_col st p col k =
  List.map consts (S.lookup_sym st (sym p) col (V.of_const k))
