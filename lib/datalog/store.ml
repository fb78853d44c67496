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

    A tuple is one flat array of unboxed {!Value}s.  The store keeps
    insertion order and supports removal of single tuples so that update
    transactions can be rolled back; a first-argument hash index
    accelerates the joins performed by {!Eval} (the first column of
    every mapped relation is the node id, which is the most selective
    join key of the schema of Section 4.1).

    Relations are keyed by interned symbols ({!Xic_symbol.Symbol}), so the
    shredder — which holds the document's tag symbols already — reaches a
    relation without hashing a string. *)

module Symbol = Xic_symbol.Symbol

type tuple = Value.t array

let tuple_equal (a : tuple) (b : tuple) =
  a == b
  || Array.length a = Array.length b
     &&
     let rec go i = i < 0 || (Value.equal a.(i) b.(i) && go (i - 1)) in
     go (Array.length a - 1)

(* Lexicographic by {!Value.compare}, a proper prefix first. *)
let tuple_compare (a : tuple) (b : tuple) =
  let la = Array.length a and lb = Array.length b in
  let rec go i =
    if i = la then if i = lb then 0 else -1
    else if i = lb then 1
    else
      let c = Value.compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

module TupleMap = Map.Make (struct
  type t = tuple

  let compare = tuple_compare
end)

module VTbl = Hashtbl.Make (Value)

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
  mutable index : tuple list ref VTbl.t option;
  (* Secondary indexes, column position → (value → tuples), built
     lazily per column on the first probe of that column.  Tuples
     shorter than the indexed position are omitted: an atom binding
     that position can never match them. *)
  mutable col_index : (int * tuple list ref VTbl.t) list;
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

let col_index_add idx col (tup : tuple) =
  if col < Array.length tup then begin
    let key = Array.unsafe_get tup col in
    match VTbl.find_opt idx key with
    | Some l -> l := tup :: !l
    | None -> VTbl.add idx key (ref [ tup ])
  end

let build_index r col =
  let idx = VTbl.create (max 64 r.nlive) in
  List.iter (col_index_add idx col) (live_list r);
  idx

let ensure_index r =
  match r.index with
  | Some idx -> idx
  | None ->
    let idx = build_index r 0 in
    r.index <- Some idx;
    idx

let ensure_col_index r col =
  match List.assoc_opt col r.col_index with
  | Some idx -> idx
  | None ->
    let idx = build_index r col in
    r.col_index <- (col, idx) :: r.col_index;
    idx

let add_sym (s : t) sym (tup : tuple) =
  check_writable s;
  let r = get_rel_sym s sym in
  r.log <- tup :: r.log;
  r.nlive <- r.nlive + 1;
  (match r.index with Some idx -> col_index_add idx 0 tup | None -> ());
  List.iter (fun (col, idx) -> col_index_add idx col tup) r.col_index

let remove_sym (s : t) sym (tup : tuple) =
  check_writable s;
  match Hashtbl.find_opt s.rels sym with
  | None -> false
  | Some r ->
    let present =
      if Array.length tup = 0 then begin
        (* arity-0 tuples have no index key; count live occurrences *)
        let occ = ref 0 in
        List.iter (fun t -> if Array.length t = 0 then incr occ) r.log;
        !occ - dead_count r tup > 0
      end
      else
        match VTbl.find_opt (ensure_index r) tup.(0) with
        | Some l -> List.exists (tuple_equal tup) !l
        | None -> false
    in
    if present then begin
      r.dead <- TupleMap.add tup (dead_count r tup + 1) r.dead;
      r.ndead <- r.ndead + 1;
      r.nlive <- r.nlive - 1;
      let drop_bucket idx col =
        if col < Array.length tup then
          match VTbl.find_opt idx tup.(col) with
          | Some l ->
            let rec drop = function
              | [] -> []
              | t :: rest when tuple_equal t tup -> rest
              | t :: rest -> t :: drop rest
            in
            l := drop !l
          | None -> ()
      in
      (match r.index with None -> () | Some idx -> drop_bucket idx 0);
      List.iter (fun (col, idx) -> drop_bucket idx col) r.col_index;
      (* an emptied relation (a view's witness rows, churning around
         empty) starts afresh, so later scans walk no tombstones *)
      if r.nlive = 0 then clear_rel r else maybe_compact r
    end;
    present

let tuples_sym (s : t) sym =
  match Hashtbl.find_opt s.rels sym with
  | Some r -> live_list r
  | None -> []

(* Resolve the relation and its [col] index once: the lookup answers
   from that index until the store is next written. *)
let lookup_sym (s : t) sym col =
  match Hashtbl.find_opt s.rels sym with
  | None -> fun _ -> []
  | Some r ->
    let idx = if col = 0 then ensure_index r else ensure_col_index r col in
    fun (key : Value.t) ->
      match VTbl.find_opt idx key with Some l -> !l | None -> []

let cardinality_sym (s : t) sym =
  match Hashtbl.find_opt s.rels sym with Some r -> r.nlive | None -> 0

let relations (s : t) =
  Hashtbl.fold (fun sym _ acc -> Symbol.name sym :: acc) s.rels []
  |> List.sort compare

let total_tuples (s : t) =
  Hashtbl.fold (fun _ r acc -> acc + r.nlive) s.rels 0

let mem_sym (s : t) sym (tup : tuple) =
  if Array.length tup = 0 then cardinality_sym s sym > 0
  else List.exists (tuple_equal tup) (lookup_sym s sym 0 tup.(0))

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

(* Heap estimate of one tuple: the log spine's cons cell (3 words) and
   the array (a header and one word per column); the empty array is a
   shared static atom. *)
let tuple_bytes (tup : tuple) =
  let n = Array.length tup in
  if n = 0 then 24 else 8 * (4 + n)

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

type footprint = { tuple_bytes : int; index_bytes : int }

(* Measured, not estimated: [Obj.reachable_words] over every log and
   tombstone map, less the words of the distinct strings they point to
   (texts are the arena's, not the store's). *)
let footprint (s : t) =
  let logs = Hashtbl.fold (fun _ r acc -> Obj.repr (r.log, r.dead) :: acc) s.rels [] in
  let indexes =
    Hashtbl.fold (fun _ r acc -> Obj.repr (r.index, r.col_index) :: acc) s.rels []
  in
  let words l = Obj.reachable_words (Obj.repr (Array.of_list l)) - 1 - List.length l in
  let texts : (string, string list) Hashtbl.t = Hashtbl.create 1024 in
  let text_words = ref 0 in
  let see (v : Value.t) =
    if not (Value.is_int v) then begin
      let str = Value.get_string v in
      let seen = Option.value ~default:[] (Hashtbl.find_opt texts str) in
      if not (List.memq str seen) then begin
        Hashtbl.replace texts str (str :: seen);
        text_words := !text_words + 1 + ((String.length str + 8) / 8)
      end
    end
  in
  Hashtbl.iter
    (fun _ r ->
      List.iter (Array.iter see) r.log;
      TupleMap.iter (fun tup _ -> Array.iter see tup) r.dead)
    s.rels;
  let tuple_words = words logs - !text_words in
  (* a (log, dead) pair per relation is the wrapper's, not the store's *)
  let tuple_words = tuple_words - (3 * List.length logs) in
  let index_words = words (logs @ indexes) - words logs - (3 * List.length indexes) in
  { tuple_bytes = 8 * tuple_words; index_bytes = 8 * index_words }

let of_facts facts =
  let s = create () in
  List.iter
    (fun (name, tup) ->
      add_sym s (Symbol.intern name) (Array.of_list (List.map Value.of_const tup)))
    facts;
  s

let to_facts (s : t) =
  List.concat_map
    (fun name ->
      List.map
        (fun t -> (name, List.map Value.to_const (Array.to_list t)))
        (tuples_sym s (Symbol.intern name)))
    (relations s)

(* ------------------------------------------------------------------ *)
(* Snapshot (de)serialization                                          *)
(* ------------------------------------------------------------------ *)

module Wire = Xic_symbol.Wire

(* Relations are stored by name (re-interned on load, so no symbol-id
   remap is needed); only the {e live} tuples are written — the snapshot
   holds the compacted head of the log, never the tombstoned history —
   in insertion order, each value tagged with a one-byte kind.  Tuple
   strings go through a dedup table written up front: the same name
   recurs across many facts (every author appears in aut/name/text
   tuples), so occurrences are 1–2 byte indices on disk, and the loader
   materializes ONE string per distinct text, shared by every tuple that
   mentions it. *)
let tag_of v = if Value.is_int v then 0 else 1

(* The per-column Int/Str shape shared by every tuple of the relation,
   or [None] when tuples disagree (or the arity exceeds the one-byte
   shape header). *)
let signature live =
  match live with
  | [] -> None
  | t0 :: rest ->
    let s0 = Array.map tag_of t0 in
    let arity = Array.length s0 in
    if arity > 15 then None
    else if
      List.for_all
        (fun t ->
          Array.length t = arity
          && Array.for_all2 (fun tag v -> tag = tag_of v) s0 t)
        rest
    then Some s0
    else None

let serialize (s : t) buf =
  let interned : (string, int) Hashtbl.t = Hashtbl.create 1024 in
  let order = ref [] and n_strings = ref 0 in
  let intern (v : Value.t) =
    let str = Value.get_string v in
    match Hashtbl.find_opt interned str with
    | Some i -> i
    | None ->
      let i = !n_strings in
      Hashtbl.add interned str i;
      order := str :: !order;
      incr n_strings;
      i
  in
  Hashtbl.iter
    (fun _ r ->
      iter_live_newest_first
        (Array.iter (fun v -> if not (Value.is_int v) then ignore (intern v)))
        r)
    s.rels;
  Wire.add_int buf !n_strings;
  List.iter (Wire.add_string buf) (List.rev !order);
  Wire.add_int buf (Hashtbl.length s.rels);
  let add_value v =
    if Value.is_int v then Wire.add_int buf (Value.get_int v)
    else Wire.add_int buf (intern v)
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
        Wire.add_u8 buf (Array.length sg);
        Array.iter (Wire.add_u8 buf) sg;
        List.iter (Array.iter add_value) live
      | None ->
        (* mixed shapes: per-tuple arity, per-value tag *)
        Wire.add_u8 buf 0xff;
        List.iter
          (fun tup ->
            Wire.add_u8 buf (Array.length tup);
            Array.iter
              (fun v ->
                Wire.add_u8 buf (tag_of v);
                add_value v)
              tup)
          live)
    s.rels

(* Cold-load fast path: the relation table is preallocated from the
   serialized count and tuples go straight into the rel record — no
   per-tuple [get_rel_sym] lookup, no table resizing, and no index
   (built lazily on the first keyed probe).  An [Int] is an immediate,
   so decoding one allocates nothing. *)
let deserialize c : t =
  let n_strings = Wire.get_int c in
  if n_strings < 0 || n_strings > Wire.remaining c then
    raise (Wire.Error "store: bad string table length");
  (* One string per distinct text: tuples alias these, so a snapshot
     load allocates each text once however many facts mention it. *)
  let strings =
    Array.map Value.of_string (Wire.get_string_array c n_strings)
  in
  let nrels = Wire.get_int c in
  if nrels < 0 || nrels > Wire.remaining c then
    raise (Wire.Error "store: bad relation count");
  let rels : (Symbol.t, rel) Hashtbl.t = Hashtbl.create (max 16 (2 * nrels)) in
  (* tuple decode is the bulk of the section; [value] reads the varint
     directly and keeps the tag dispatch as one predictable branch per
     column *)
  let value tag =
    let v = Wire.get_int c in
    if tag = 0 then Value.of_int v
    else if v >= 0 && v < n_strings then Array.unsafe_get strings v
    else
      raise (Wire.Error (Printf.sprintf "store: string index %d out of range" v))
  in
  let tagged () =
    match Wire.get_u8 c with
    | (0 | 1) as tag -> value tag
    | k -> raise (Wire.Error (Printf.sprintf "store: bad const tag %d" k))
  in
  (* common arities are built in one allocation, in column order *)
  let row arity get =
    match arity with
    | 0 -> [||]
    | 1 -> [| get 0 |]
    | 2 ->
      let a = get 0 in
      let b = get 1 in
      [| a; b |]
    | 3 ->
      let a = get 0 in
      let b = get 1 in
      let d = get 2 in
      [| a; b; d |]
    | 4 ->
      let a = get 0 in
      let b = get 1 in
      let d = get 2 in
      let e = get 3 in
      [| a; b; d; e |]
    | n ->
      let tup = Array.make n (Value.of_int 0) in
      for i = 0 to n - 1 do
        tup.(i) <- get i
      done;
      tup
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
       (* mixed shapes: per-tuple arity, per-value tag *)
       for _ = 1 to count do
         let arity = Wire.get_u8 c in
         tuples := row arity (fun _ -> tagged ()) :: !tuples
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
       let get i = value (Array.unsafe_get sg i) in
       for _ = 1 to count do
         tuples := row siglen get :: !tuples
       done);
    Hashtbl.replace rels sym
      { log = !tuples; nlive = count; dead = TupleMap.empty; ndead = 0;
        index = None; col_index = [] }
  done;
  { rels; frozen = false }

let equal (a : t) (b : t) =
  let norm s =
    List.filter_map
      (fun name ->
        let sym = Symbol.intern name in
        if cardinality_sym s sym = 0 then None
        else Some (name, List.sort tuple_compare (tuples_sym s sym)))
      (relations s)
  in
  let na = norm a and nb = norm b in
  List.equal
    (fun (n1, t1) (n2, t2) -> String.equal n1 n2 && List.equal tuple_equal t1 t2)
    na nb
