(** A copy-on-write versioned fact store: relation name → bag of tuples.

    Each relation keeps an immutable, newest-first cons {e log} of every
    insertion plus a persistent tombstone multiset masking removed
    occurrences.  Because both structures are persistent, {!freeze} and
    {!copy} are O(#relations) pointer captures that share the log with
    the live writer: a frozen generation handle stays bit-stable while
    the writer keeps consing onto its own head, and dropping a handle
    releases only the unshared suffix to the GC.  The writer compacts a
    relation (rebuilding the log without its tombstoned cells) once the
    dead mass dominates, so masked scans stay amortized linear in the
    live size.

    Tuples are lists of constants.  The store keeps insertion order and
    supports removal of single tuples so that update transactions can be
    rolled back; a first-argument hash index accelerates the joins
    performed by {!Eval} (the first column of every mapped relation is the
    node id, which is the most selective join key of the schema of
    Section 4.1).

    Relations are keyed by interned symbols ({!Xic_symbol.Symbol}), so the
    shredder — which holds the document's tag symbols already — reaches a
    relation without hashing a string; the string-named API interns on
    entry. *)

module Symbol = Xic_symbol.Symbol

type tuple = Term.const list

module TupleMap = Map.Make (struct
  type t = Term.const list

  (* polymorphic compare is total on [Term.const] (Int/Str only) *)
  let compare = compare
end)

type rel = {
  (* newest-first insertion log; the cons cells are never mutated, so
     any number of generation handles share them with the writer *)
  mutable log : tuple list;
  mutable nlive : int;  (* log occurrences not masked by a tombstone *)
  (* tombstone multiset: [dead] maps a tuple to how many of its newest
     log occurrences are deleted; persistent, so handles snapshot it by
     pointer *)
  mutable dead : int TupleMap.t;
  mutable ndead : int;
  (* First column → tuples.  Built lazily on the first keyed probe:
     a snapshot load materializes tens of thousands of tuples that may
     never be probed before the next checkpoint, and the per-tuple
     find+add (plus the preallocated bucket array) was the single
     largest cost of a cold start.  Once built, it is maintained
     incrementally by [add_sym] / [remove_sym].  Indexes hold live
     tuples only and are private to each handle (never shared). *)
  mutable index : (Term.const, tuple list ref) Hashtbl.t option;
  (* Secondary indexes, column position → (value → tuples), built
     lazily per column on the first probe of that column.  Tuples
     shorter than the indexed position are omitted: an atom binding
     that position can never match them. *)
  mutable col_index : (int * (Term.const, tuple list ref) Hashtbl.t) list;
}

type t = {
  rels : (Symbol.t, rel) Hashtbl.t;
  frozen : bool;  (* generation handle: all mutation entry points raise *)
}

let create () : t = { rels = Hashtbl.create 16; frozen = false }

let is_frozen (s : t) = s.frozen

let check_writable (s : t) =
  if s.frozen then
    invalid_arg "Xic_datalog.Store: frozen generation handles are immutable"

(* Read-only name lookup: never interns, so probing a relation that was
   never populated does not grow the global symbol table. *)
let sym_opt name = if Symbol.mem name then Some (Symbol.intern name) else None

let get_rel_sym (s : t) sym =
  match Hashtbl.find_opt s.rels sym with
  | Some r -> r
  | None ->
    let r =
      { log = []; nlive = 0; dead = TupleMap.empty; ndead = 0; index = None;
        col_index = [] }
    in
    Hashtbl.add s.rels sym r;
    r

let dead_count r tup =
  match TupleMap.find_opt tup r.dead with Some k -> k | None -> 0

(* Iterate the live tuples of [r], newest first: scanning from the head
   of the log, the first [dead tup] occurrences of each tombstoned tuple
   are skipped — removal masks the newest matching occurrence, exactly
   as the in-place list surgery it replaced used to drop it. *)
let iter_live_newest_first f r =
  if r.ndead = 0 then List.iter f r.log
  else begin
    let dead = ref r.dead in
    let remaining = ref r.ndead in
    List.iter
      (fun tup ->
        if !remaining = 0 then f tup
        else
          match TupleMap.find_opt tup !dead with
          | Some k ->
            decr remaining;
            dead :=
              (if k = 1 then TupleMap.remove tup !dead
               else TupleMap.add tup (k - 1) !dead)
          | None -> f tup)
      r.log
  end

(* Live tuples in insertion order (prepending while scanning newest
   first reverses for free). *)
let live_list r =
  if r.ndead = 0 then List.rev r.log
  else begin
    let acc = ref [] in
    iter_live_newest_first (fun tup -> acc := tup :: !acc) r;
    !acc
  end

(* Writer-side compaction: once the tombstoned mass dominates the live
   tuples, rebuild the log without the dead cells.  Handles frozen
   before the compaction keep their old log pointers (only structural
   sharing with them is lost), so this never invalidates a reader. *)
let compact_rel r =
  if r.ndead > 0 then begin
    r.log <- List.rev (live_list r);
    r.dead <- TupleMap.empty;
    r.ndead <- 0
  end

let maybe_compact r = if r.ndead > 64 && r.ndead > r.nlive then compact_rel r

(* Drop a relation's log, tombstones and indexes in O(1).  Handles
   frozen earlier keep their own pointers, as with compaction. *)
let clear_rel r =
  r.log <- [];
  r.nlive <- 0;
  r.dead <- TupleMap.empty;
  r.ndead <- 0;
  r.index <- None;
  r.col_index <- []

let compact (s : t) =
  check_writable s;
  Hashtbl.iter (fun _ r -> compact_rel r) s.rels

let index_add idx tup =
  match tup with
  | [] -> ()
  | key :: _ ->
    (match Hashtbl.find_opt idx key with
     | Some l -> l := tup :: !l
     | None -> Hashtbl.add idx key (ref [ tup ]))

let ensure_index r =
  match r.index with
  | Some idx -> idx
  | None ->
    let idx = Hashtbl.create (max 64 (2 * r.nlive)) in
    List.iter (index_add idx) (live_list r);
    r.index <- Some idx;
    idx

let col_index_add idx col tup =
  match List.nth_opt tup col with
  | None -> ()
  | Some key ->
    (match Hashtbl.find_opt idx key with
     | Some l -> l := tup :: !l
     | None -> Hashtbl.add idx key (ref [ tup ]))

let ensure_col_index r col =
  match List.assoc_opt col r.col_index with
  | Some idx -> idx
  | None ->
    let idx = Hashtbl.create (max 64 (2 * r.nlive)) in
    List.iter (fun tup -> col_index_add idx col tup) (live_list r);
    r.col_index <- (col, idx) :: r.col_index;
    idx

let add_sym (s : t) sym (tup : tuple) =
  check_writable s;
  let r = get_rel_sym s sym in
  r.log <- tup :: r.log;
  r.nlive <- r.nlive + 1;
  (match r.index with Some idx -> index_add idx tup | None -> ());
  List.iter (fun (col, idx) -> col_index_add idx col tup) r.col_index

let add (s : t) name tup = add_sym s (Symbol.intern name) tup

let remove_sym (s : t) sym (tup : tuple) =
  check_writable s;
  match Hashtbl.find_opt s.rels sym with
  | None -> false
  | Some r ->
    let present =
      match tup with
      | [] ->
        (* arity-0 tuples have no index key; count live occurrences *)
        let occ = ref 0 in
        List.iter (fun t -> if t = [] then incr occ) r.log;
        !occ - dead_count r [] > 0
      | key :: _ ->
        (match Hashtbl.find_opt (ensure_index r) key with
         | Some l -> List.mem tup !l
         | None -> false)
    in
    if present then begin
      r.dead <- TupleMap.add tup (dead_count r tup + 1) r.dead;
      r.ndead <- r.ndead + 1;
      r.nlive <- r.nlive - 1;
      let drop_bucket idx key =
        match Hashtbl.find_opt idx key with
        | Some l ->
          let removed2 = ref false in
          let rec drop = function
            | [] -> []
            | t :: rest when (not !removed2) && t = tup ->
              removed2 := true;
              rest
            | t :: rest -> t :: drop rest
          in
          l := drop !l
        | None -> ()
      in
      (match (r.index, tup) with
       | None, _ | _, [] -> ()
       | Some idx, key :: _ -> drop_bucket idx key);
      List.iter
        (fun (col, idx) ->
          match List.nth_opt tup col with
          | Some key -> drop_bucket idx key
          | None -> ())
        r.col_index;
      (* an emptied relation (a view's witness rows, churning around
         empty) starts afresh, so later scans walk no tombstones *)
      if r.nlive = 0 then clear_rel r else maybe_compact r
    end;
    present

let remove (s : t) name tup =
  match sym_opt name with
  | Some sym -> remove_sym s sym tup
  | None -> false

let tuples_sym (s : t) sym =
  match Hashtbl.find_opt s.rels sym with
  | Some r -> live_list r
  | None -> []

let tuples (s : t) name =
  match sym_opt name with Some sym -> tuples_sym s sym | None -> []

(* Resolve the relation and its [col] index once: the lookup answers
   from that index until the store is next written. *)
let lookup_sym (s : t) sym col =
  match Hashtbl.find_opt s.rels sym with
  | None -> fun _ -> []
  | Some r ->
    let idx = if col = 0 then ensure_index r else ensure_col_index r col in
    fun (key : Term.const) ->
      match Hashtbl.find_opt idx key with Some l -> !l | None -> []

let tuples_with_key_sym (s : t) sym key = lookup_sym s sym 0 key

let tuples_with_key (s : t) name key =
  match sym_opt name with
  | Some sym -> tuples_with_key_sym s sym key
  | None -> []

let tuples_with_col_sym (s : t) sym col key = lookup_sym s sym col key

let tuples_with_col (s : t) name col key =
  match sym_opt name with
  | Some sym -> tuples_with_col_sym s sym col key
  | None -> []

let cardinality_sym (s : t) sym =
  match Hashtbl.find_opt s.rels sym with Some r -> r.nlive | None -> 0

let cardinality (s : t) name =
  match sym_opt name with Some sym -> cardinality_sym s sym | None -> 0

let relations (s : t) =
  Hashtbl.fold (fun sym _ acc -> Symbol.name sym :: acc) s.rels []
  |> List.sort compare

let total_tuples (s : t) =
  Hashtbl.fold (fun _ r acc -> acc + r.nlive) s.rels 0

let mem_sym (s : t) sym tup =
  match tup with
  | key :: _ -> List.mem tup (tuples_with_key_sym s sym key)
  | [] ->
    (match Hashtbl.find_opt s.rels sym with
     | Some r -> r.nlive > 0
     | None -> false)

let mem (s : t) name tup =
  match sym_opt name with Some sym -> mem_sym s sym tup | None -> false

let clear_sym (s : t) sym =
  check_writable s;
  match Hashtbl.find_opt s.rels sym with
  | None -> ()
  | Some r -> clear_rel r

(* ------------------------------------------------------------------ *)
(* Generations: O(1) freeze / copy by structural sharing               *)
(* ------------------------------------------------------------------ *)

(* Both forks capture the log and tombstone pointers of every relation —
   O(#relations) — and start with no indexes (the writer keeps mutating
   its own indexes in place, so sharing them would corrupt the fork;
   each handle rebuilds lazily on its first probe, and the repository
   shares one handle per generation so that build is amortized across
   its readers). *)
let fork ~frozen (s : t) : t =
  let rels = Hashtbl.create (max 16 (2 * Hashtbl.length s.rels)) in
  Hashtbl.iter
    (fun sym r ->
      Hashtbl.add rels sym
        { log = r.log; nlive = r.nlive; dead = r.dead; ndead = r.ndead;
          index = None; col_index = [] })
    s.rels;
  { rels; frozen }

let freeze (s : t) : t = fork ~frozen:true s
let copy (s : t) : t = fork ~frozen:false s

(* Rough heap estimate of one tuple: the log spine cons cell plus, per
   column, a list cons cell and a boxed constant (3 + 5·arity words). *)
let tuple_bytes tup = 8 * (3 + (5 * List.length tup))

let log_len r = r.nlive + r.ndead

let rec drop_cells n l =
  if n <= 0 then l else match l with [] -> [] | _ :: tl -> drop_cells (n - 1) tl

(* Memory a handle retains beyond what it shares with [live]: per
   relation, the handle's log is either a physical suffix of the live
   log (the writer only consed on top — zero retained cost, checked in
   O(live − handle) cell hops) or, after a writer-side compaction or
   clear, an unshared list the handle keeps alive in full. *)
let unshared_bytes ~(live : t) (h : t) =
  Hashtbl.fold
    (fun sym hr acc ->
      let shared =
        match Hashtbl.find_opt live.rels sym with
        | None -> hr.log == []
        | Some lr ->
          let extra = log_len lr - log_len hr in
          extra >= 0 && drop_cells extra lr.log == hr.log
      in
      if shared then acc
      else
        acc + List.fold_left (fun b tup -> b + tuple_bytes tup) 0 hr.log)
    h.rels 0

let of_facts facts =
  let s = create () in
  List.iter (fun (name, tup) -> add s name tup) facts;
  s

let to_facts (s : t) =
  List.concat_map (fun name -> List.map (fun t -> (name, t)) (tuples s name)) (relations s)

(* ------------------------------------------------------------------ *)
(* Snapshot (de)serialization                                          *)
(* ------------------------------------------------------------------ *)

module Wire = Xic_symbol.Wire

(* Relations are stored by name (re-interned on load, so no symbol-id
   remap is needed); only the {e live} tuples are written — the snapshot
   holds the compacted head of the log, never the tombstoned history —
   in insertion order, each constant tagged with a one-byte kind.  Tuple
   strings go through a dedup table written up front: the same name
   recurs across many facts (every author appears in aut/name/text
   tuples), so occurrences are 1–2 byte indices on disk, and the loader
   materializes ONE [Term.Str] per distinct string, shared by every
   tuple that mentions it. *)
let tag_of = function Term.Int _ -> 0 | Term.Str _ -> 1

(* The per-column Int/Str shape shared by every tuple of the relation,
   or [None] when tuples disagree (or the arity exceeds the one-byte
   shape header). *)
let signature live =
  match live with
  | [] -> None
  | t0 :: rest ->
    let s0 = List.map tag_of t0 in
    let arity = List.length s0 in
    if arity > 15 then None
    else if
      List.for_all
        (fun t ->
          List.compare_length_with t arity = 0
          && List.for_all2 (fun tag v -> tag = tag_of v) s0 t)
        rest
    then Some s0
    else None

let serialize (s : t) buf =
  let interned : (string, int) Hashtbl.t = Hashtbl.create 1024 in
  let order = ref [] and n_strings = ref 0 in
  let intern v =
    match Hashtbl.find_opt interned v with
    | Some i -> i
    | None ->
      let i = !n_strings in
      Hashtbl.add interned v i;
      order := v :: !order;
      incr n_strings;
      i
  in
  Hashtbl.iter
    (fun _ r ->
      iter_live_newest_first
        (List.iter (function
          | Term.Str v -> ignore (intern v)
          | Term.Int _ -> ()))
        r)
    s.rels;
  Wire.add_int buf !n_strings;
  List.iter (Wire.add_string buf) (List.rev !order);
  Wire.add_int buf (Hashtbl.length s.rels);
  let add_value = function
    | Term.Int i -> Wire.add_int buf i
    | Term.Str v -> Wire.add_int buf (intern v)
  in
  Hashtbl.iter
    (fun sym r ->
      let live = live_list r in
      Wire.add_string buf (Symbol.name sym);
      Wire.add_int buf r.nlive;
      match signature live with
      | Some sg ->
        (* uniform shape: tags once up front, tuples are bare value
           runs (the normal case — schema-mapped relations have a fixed
           column layout) *)
        Wire.add_u8 buf (List.length sg);
        List.iter (Wire.add_u8 buf) sg;
        List.iter (fun tup -> List.iter add_value tup) live
      | None ->
        (* mixed shapes: per-tuple arity, per-constant tag *)
        Wire.add_u8 buf 0xff;
        List.iter
          (fun tup ->
            Wire.add_u8 buf (List.length tup);
            List.iter
              (fun v ->
                Wire.add_u8 buf (match v with Term.Int _ -> 0 | Term.Str _ -> 1);
                add_value v)
              tup)
          live)
    s.rels

(* Shared [Term.Int] cells for the ids that dominate tuple columns
   (first column is always a node id).  One 64k-entry table amortized
   over every load keeps a cold start from boxing the same small ints
   tens of thousands of times. *)
let small_ints =
  lazy (Array.init (1 lsl 16) (fun i -> Term.Int i))

(* Cold-load fast path: the relation table is preallocated from the
   serialized count and tuples go straight into the rel record — no
   per-tuple [get_rel_sym] lookup, no table resizing, and no index
   (built lazily on the first keyed probe). *)
let deserialize c : t =
  let n_strings = Wire.get_int c in
  if n_strings < 0 || n_strings > Wire.remaining c then
    raise (Wire.Error "store: bad string table length");
  (* One shared [Term.Str] per distinct string: tuples alias these cells,
     so a snapshot load allocates each constant once however many facts
     mention it. *)
  let strings =
    Array.map (fun s -> Term.Str s) (Wire.get_string_array c n_strings)
  in
  let nrels = Wire.get_int c in
  if nrels < 0 || nrels > Wire.remaining c then
    raise (Wire.Error "store: bad relation count");
  let rels : (Symbol.t, rel) Hashtbl.t = Hashtbl.create (max 16 (2 * nrels)) in
  let ints = Lazy.force small_ints in
  let int_const () =
    let i = Wire.get_int c in
    if i >= 0 && i < Array.length ints then Array.unsafe_get ints i
    else Term.Int i
  in
  let str_const () =
    let i = Wire.get_int c in
    if i < 0 || i >= n_strings then
      raise (Wire.Error (Printf.sprintf "store: string index %d out of range" i));
    strings.(i)
  in
  let const () =
    match Wire.get_u8 c with
    | 0 -> int_const ()
    | 1 -> str_const ()
    | k -> raise (Wire.Error (Printf.sprintf "store: bad const tag %d" k))
  in
  for _ = 1 to nrels do
    let name = Wire.get_string c in
    let sym = Symbol.intern name in
    let count = Wire.get_int c in
    if count < 0 || count > Wire.remaining c then
      raise (Wire.Error ("store: bad cardinality for " ^ name));
    let tuples = ref [] in
    (match Wire.get_u8 c with
     | 0xff ->
       (* mixed shapes: per-tuple arity, per-constant tag *)
       for _ = 1 to count do
         (* build common arities directly in order — no [List.rev] copy *)
         let tup =
           match Wire.get_u8 c with
           | 0 -> []
           | 1 -> [ const () ]
           | 2 ->
             let a = const () in
             let b = const () in
             [ a; b ]
           | 3 ->
             let a = const () in
             let b = const () in
             let d = const () in
             [ a; b; d ]
           | arity ->
             let rec go k acc =
               if k = 0 then List.rev acc else go (k - 1) (const () :: acc)
             in
             go arity []
         in
         tuples := tup :: !tuples
       done
     | siglen ->
       if siglen > 15 then
         raise (Wire.Error (Printf.sprintf "store: bad shape header %d" siglen));
       let sg = Array.init siglen (fun _ -> Wire.get_u8 c) in
       Array.iter
         (fun t ->
           if t > 1 then
             raise (Wire.Error (Printf.sprintf "store: bad column tag %d" t)))
         sg;
       (* tuple decode is the bulk of the section; [value] reads the
          varint index directly and keeps the tag dispatch as one
          predictable branch per column *)
       let ilen = Array.length ints in
       let value tag =
         let v = Wire.get_int c in
         if tag = 0 then
           if v >= 0 && v < ilen then Array.unsafe_get ints v else Term.Int v
         else if v >= 0 && v < n_strings then Array.unsafe_get strings v
         else
           raise
             (Wire.Error
                (Printf.sprintf "store: string index %d out of range" v))
       in
       (match sg with
        | [||] -> for _ = 1 to count do tuples := [] :: !tuples done
        | [| a |] -> for _ = 1 to count do tuples := [ value a ] :: !tuples done
        | [| a; b |] ->
          for _ = 1 to count do
            let x = value a in
            let y = value b in
            tuples := [ x; y ] :: !tuples
          done
        | [| a; b; d |] ->
          for _ = 1 to count do
            let x = value a in
            let y = value b in
            let z = value d in
            tuples := [ x; y; z ] :: !tuples
          done
        | sg ->
          let rec row i =
            if i = Array.length sg then []
            else
              let v = value sg.(i) in
              v :: row (i + 1)
          in
          for _ = 1 to count do
            tuples := row 0 :: !tuples
          done));
    Hashtbl.replace rels sym
      { log = !tuples; nlive = count; dead = TupleMap.empty; ndead = 0;
        index = None; col_index = [] }
  done;
  { rels; frozen = false }

let equal (a : t) (b : t) =
  let norm s =
    List.map (fun name -> (name, List.sort compare (tuples s name)))
      (List.filter (fun n -> cardinality s n > 0) (relations s))
  in
  norm a = norm b
