type occur =
  | One
  | Opt
  | Star
  | Plus

type particle =
  | Name of string * occur
  | Seq of particle list * occur
  | Choice of particle list * occur

type content =
  | PCData
  | Mixed of string list
  | Children of particle
  | Empty
  | Any

type attr_decl = {
  attr_name : string;
  required : bool;
}

type element_decl = {
  elem_name : string;
  content : content;
  attlist : attr_decl list;
}

module Symbol = Xic_symbol.Symbol

(* The Glushkov position automaton of an element-content model, over
   tag symbol ids.  State 0 is the start; state [q > 0] is the [q]-th
   name occurrence of the particle, left to right.  Each state lists its
   edges as two parallel arrays (label, target).  It runs on the set of
   live states, kept as a list: one state for a deterministic model, as
   XML requires, and as many as needed for any other. *)
type automaton = {
  label : int array array;
  target : int array array;
  final : bool array;
}

(* What validation checks of an element's children, decided once per
   declaration. *)
type model =
  | No_content
  | Any_content
  | Text_only
  | Mixed_of of int array  (* tag symbol ids allowed beside text *)
  | Model of automaton

type compiled = {
  tag : string;
  required_attrs : (Symbol.t * string) list;  (* in declaration order *)
  model : model;
}

type t = {
  decls : element_decl list;
  by_name : (string, element_decl) Hashtbl.t;
  by_sym : compiled option array;  (* indexed by tag symbol id *)
}

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

type pstate = { src : string; mutable pos : int }

let peek st = if st.pos >= String.length st.src then '\000' else st.src.[st.pos]

let advance st = st.pos <- st.pos + 1

let is_ws = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let skip_ws st =
  while st.pos < String.length st.src && is_ws (peek st) do
    advance st
  done

let is_name_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '-' || c = '.' || c = ':'

let parse_name st =
  skip_ws st;
  let start = st.pos in
  while st.pos < String.length st.src && is_name_char (peek st) do
    advance st
  done;
  if st.pos = start then fail "expected a name at offset %d" start;
  String.sub st.src start (st.pos - start)

(* A [#] keyword ([#PCDATA], [#REQUIRED], [#IMPLIED], [#FIXED]) at the
   current position; names never contain [#]. *)
let parse_keyword st =
  let at = st.pos in
  advance st;
  if not (is_name_char (peek st)) then fail "expected a keyword at offset %d" at;
  "#" ^ parse_name st

let parse_occur st =
  match peek st with
  | '?' -> advance st; Opt
  | '*' -> advance st; Star
  | '+' -> advance st; Plus
  | _ -> One

let with_occur p occ =
  match p with
  | Name (n, One) -> Name (n, occ)
  | Seq (ps, One) -> Seq (ps, occ)
  | Choice (ps, One) -> Choice (ps, occ)
  | _ when occ = One -> p
  | _ -> Seq ([ p ], occ)

let rec parse_cp st =
  skip_ws st;
  if peek st = '(' then begin
    advance st;
    let group = parse_group st in
    let occ = parse_occur st in
    with_occur group occ
  end
  else begin
    let n = parse_name st in
    let occ = parse_occur st in
    Name (n, occ)
  end

and parse_group st =
  let first = parse_cp st in
  skip_ws st;
  match peek st with
  | ')' -> advance st; first
  | '|' ->
    let rec alts acc =
      skip_ws st;
      match peek st with
      | '|' ->
        advance st;
        alts (parse_cp st :: acc)
      | ')' -> advance st; List.rev acc
      | c -> fail "unexpected %C in choice group" c
    in
    Choice (alts [ first ], One)
  | ',' ->
    let rec items acc =
      skip_ws st;
      match peek st with
      | ',' ->
        advance st;
        items (parse_cp st :: acc)
      | ')' -> advance st; List.rev acc
      | c -> fail "unexpected %C in sequence group" c
    in
    Seq (items [ first ], One)
  | c -> fail "unexpected %C in content group" c

let parse_content st =
  skip_ws st;
  if peek st <> '(' then begin
    let kw = parse_name st in
    match kw with
    | "EMPTY" -> Empty
    | "ANY" -> Any
    | _ -> fail "expected content model, got %S" kw
  end
  else begin
    let lparen = st.pos in
    advance st;
    skip_ws st;
    if peek st = '#' then begin
      let kw = parse_keyword st in
      if kw <> "#PCDATA" then fail "expected #PCDATA, got %S" kw;
      skip_ws st;
      let rec names acc =
        skip_ws st;
        match peek st with
        | '|' -> advance st; names (parse_name st :: acc)
        | ')' -> advance st; List.rev acc
        | c -> fail "unexpected %C in mixed content" c
      in
      let ns = names [] in
      (* Optional trailing star for mixed content. *)
      if peek st = '*' then advance st;
      if ns = [] then PCData else Mixed ns
    end
    else begin
      (* Back to the '(' so parse_cp sees the full group. *)
      st.pos <- lparen;
      Children (parse_cp st)
    end
  end

(* Skip an attribute type's enumeration [( name | name ... )]. *)
let parse_enumeration st =
  advance st;
  let rec values () =
    ignore (parse_name st : string);
    skip_ws st;
    match peek st with
    | '|' -> advance st; values ()
    | ')' -> advance st
    | c -> fail "unexpected %C in enumerated attribute type" c
  in
  values ()

(* Parse one <!ELEMENT ...> or <!ATTLIST ...> declaration body. *)
let parse_decl st decls attlists =
  skip_ws st;
  if st.pos >= String.length st.src then ()
  else begin
    if not (peek st = '<') then fail "expected '<!' at offset %d" st.pos;
    advance st;
    if peek st <> '!' then fail "expected '<!' at offset %d" st.pos;
    advance st;
    if st.pos + 1 < String.length st.src && peek st = '-' then begin
      (* comment <!-- ... --> *)
      match
        let rec find i =
          if i + 3 > String.length st.src then None
          else if String.sub st.src i 3 = "-->" then Some i
          else find (i + 1)
        in
        find st.pos
      with
      | None -> fail "unterminated comment in DTD"
      | Some i -> st.pos <- i + 3
    end
    else begin
      let kw = parse_name st in
      match kw with
      | "ELEMENT" ->
        let name = parse_name st in
        let content = parse_content st in
        skip_ws st;
        if peek st <> '>' then fail "expected '>' closing ELEMENT %s" name;
        advance st;
        decls := (name, content) :: !decls
      | "ATTLIST" ->
        let elem = parse_name st in
        let rec atts acc =
          skip_ws st;
          if peek st = '>' then begin
            advance st;
            List.rev acc
          end
          else begin
            let aname = parse_name st in
            skip_ws st;
            (* The type: a keyword or an enumeration [(x|y)], whose
               values are not checked. *)
            if peek st = '(' then parse_enumeration st
            else ignore (parse_name st : string);
            skip_ws st;
            let default =
              if peek st = '#' then begin
                match parse_keyword st with
                | ("#REQUIRED" | "#IMPLIED" | "#FIXED") as kw -> kw
                | kw -> fail "unexpected attribute default %S" kw
              end
              else if peek st = '"' || peek st = '\'' then begin
                let q = peek st in
                advance st;
                while peek st <> q && st.pos < String.length st.src do
                  advance st
                done;
                advance st;
                ""
              end
              else ""
            in
            (* #FIXED is followed by a quoted literal. *)
            (if default = "#FIXED" then begin
               skip_ws st;
               if peek st = '"' || peek st = '\'' then begin
                 let q = peek st in
                 advance st;
                 while peek st <> q && st.pos < String.length st.src do
                   advance st
                 done;
                 advance st
               end
             end);
            atts ({ attr_name = aname; required = default = "#REQUIRED" } :: acc)
          end
        in
        attlists := (elem, atts []) :: !attlists
      | _ -> fail "unsupported DTD declaration <!%s" kw
    end
  end

(* ------------------------------------------------------------------ *)
(* Compiled content models                                             *)
(* ------------------------------------------------------------------ *)

let sym_id name = Symbol.to_int (Symbol.intern name)

(* Glushkov construction: number the name occurrences 1..n left to
   right, then compute each subexpression's nullability and first and
   last positions, and link every last position of a repeated or
   sequenced part to the first positions that may follow it. *)
let glushkov p =
  let rec count = function
    | Name _ -> 1
    | Seq (ps, _) | Choice (ps, _) -> List.fold_left (fun n p -> n + count p) 0 ps
  in
  let n = count p in
  let label = Array.make (n + 1) (-1) in
  let follow = Array.make (n + 1) [] in
  let link lasts firsts = List.iter (fun q -> follow.(q) <- firsts @ follow.(q)) lasts in
  let next = ref 0 in
  let occur occ ((_, first, last) as r) =
    match occ with
    | One -> r
    | Opt -> (true, first, last)
    | Star ->
      link last first;
      (true, first, last)
    | Plus ->
      link last first;
      r
  in
  let rec go = function
    | Name (name, occ) ->
      incr next;
      let q = !next in
      label.(q) <- sym_id name;
      occur occ (false, [ q ], [ q ])
    | Seq (ps, occ) ->
      occur occ
        (List.fold_left
           (fun (nl, f, l) p ->
             let nl', f', l' = go p in
             link l f';
             (nl && nl', (if nl then f @ f' else f), if nl' then l' @ l else l'))
           (true, [], []) ps)
    | Choice (ps, occ) ->
      occur occ
        (List.fold_left
           (fun (nl, f, l) p ->
             let nl', f', l' = go p in
             (nl || nl', f @ f', l @ l'))
           (false, [], []) ps)
  in
  let nullable, first, last = go p in
  follow.(0) <- first;
  let edges = Array.map (fun qs -> Array.of_list (List.sort_uniq compare qs)) follow in
  let final = Array.init (n + 1) (fun q -> if q = 0 then nullable else List.mem q last) in
  { label = Array.map (Array.map (fun q -> label.(q))) edges; target = edges; final }

let compile_decl d =
  let model =
    match d.content with
    | Empty -> No_content
    | Any -> Any_content
    | PCData -> Text_only
    | Mixed ns -> Mixed_of (Array.of_list (List.map sym_id ns))
    | Children p -> Model (glushkov p)
  in
  {
    tag = d.elem_name;
    required_attrs =
      List.filter_map
        (fun a -> if a.required then Some (Symbol.intern a.attr_name, a.attr_name) else None)
        d.attlist;
    model;
  }

let of_decls decls =
  let by_name = Hashtbl.create 16 in
  List.iter (fun d -> Hashtbl.replace by_name d.elem_name d) decls;
  let tagged = List.map (fun d -> (sym_id d.elem_name, d)) decls in
  let by_sym =
    Array.make (1 + List.fold_left (fun m (s, _) -> max m s) (-1) tagged) None
  in
  (* a later declaration of the same name wins, as in [by_name] *)
  List.iter (fun (s, d) -> by_sym.(s) <- Some (compile_decl d)) tagged;
  { decls; by_name; by_sym }

let parse src =
  let st = { src; pos = 0 } in
  let decls = ref [] in
  let attlists = ref [] in
  while skip_ws st; st.pos < String.length st.src do
    parse_decl st decls attlists
  done;
  let attlist_for name =
    List.concat_map (fun (e, atts) -> if e = name then atts else []) (List.rev !attlists)
  in
  let ds =
    List.rev_map
      (fun (name, content) -> { elem_name = name; content; attlist = attlist_for name })
      !decls
  in
  of_decls ds

let declarations t = t.decls
let find t name = Hashtbl.find_opt t.by_name name
let element_names t = List.map (fun d -> d.elem_name) t.decls

(* ------------------------------------------------------------------ *)
(* Content-model analysis                                              *)
(* ------------------------------------------------------------------ *)

type multiplicity =
  | M_one
  | M_opt
  | M_many
  | M_none

(* (min, max) occurrence bounds of [child] in a particle; max is capped at
   2, meaning "more than one". *)
let rec bounds child = function
  | Name (n, occ) -> apply_occ occ (if n = child then (1, 1) else (0, 0))
  | Seq (ps, occ) ->
    let min_, max_ =
      List.fold_left
        (fun (mn, mx) p ->
          let m, x = bounds child p in
          (mn + m, min 2 (mx + x)))
        (0, 0) ps
    in
    apply_occ occ (min_, max_)
  | Choice (ps, occ) ->
    let min_, max_ =
      List.fold_left
        (fun (mn, mx) p ->
          let m, x = bounds child p in
          (min mn m, max mx x))
        (max_int, 0) ps
    in
    let min_ = if min_ = max_int then 0 else min_ in
    apply_occ occ (min_, max_)

and apply_occ occ (mn, mx) =
  match occ with
  | One -> (mn, mx)
  | Opt -> (0, mx)
  | Star -> (0, if mx > 0 then 2 else 0)
  | Plus -> (mn, if mx > 0 then 2 else 0)

let child_multiplicity t ~parent ~child =
  match find t parent with
  | None -> M_none
  | Some d ->
    (match d.content with
     | PCData | Empty -> M_none
     | Any -> M_many
     | Mixed ns -> if List.mem child ns then M_many else M_none
     | Children p ->
       (match bounds child p with
        | _, 0 -> M_none
        | 1, 1 -> M_one
        | 0, 1 -> M_opt
        | _ -> M_many))

let rec particle_names = function
  | Name (n, _) -> [ n ]
  | Seq (ps, _) | Choice (ps, _) -> List.concat_map particle_names ps

let dedup xs =
  let seen = Hashtbl.create 8 in
  List.filter
    (fun x ->
      if Hashtbl.mem seen x then false
      else begin
        Hashtbl.add seen x ();
        true
      end)
    xs

let child_names t name =
  match find t name with
  | None -> []
  | Some d ->
    (match d.content with
     | PCData | Empty | Any -> []
     | Mixed ns -> dedup ns
     | Children p -> dedup (particle_names p))

let is_pcdata_only t name =
  match find t name with
  | Some { content = PCData; _ } -> true
  | _ -> false

let parents_of t name =
  List.filter_map
    (fun d -> if List.mem name (child_names t d.elem_name) then Some d.elem_name else None)
    t.decls

let descendant_types t name =
  let visited = Hashtbl.create 8 in
  let rec go n =
    List.iter
      (fun c ->
        if not (Hashtbl.mem visited c) then begin
          Hashtbl.add visited c ();
          go c
        end)
      (child_names t n)
  in
  go name;
  List.filter (Hashtbl.mem visited) (element_names t)

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)
(* ------------------------------------------------------------------ *)

(* Adds to [acc] the targets of [q]'s edges, from the [k]-th on, that
   carry [sym]. *)
let rec edges a q sym k acc =
  let labels = a.label.(q) in
  if k = Array.length labels then acc
  else begin
    let t = a.target.(q).(k) in
    edges a q sym (k + 1) (if labels.(k) = sym && not (List.mem t acc) then t :: acc else acc)
  end

(* The live states after the child tag [sym], from the live states
   [live]. *)
let rec step a sym acc = function
  | [] -> acc
  | q :: live -> step a sym (edges a q sym 0 acc) live

let rec accepting a = function
  | [] -> false
  | q :: live -> a.final.(q) || accepting a live

(* Runs [a] over the children of [id]: whether [id] has text children,
   and whether [a] accepts its element children. *)
let run a doc id =
  let live = ref [ 0 ] and text = ref false in
  Doc.iter_children doc id (fun c ->
      if Doc.is_element doc c then live := step a (Symbol.to_int (Doc.tag doc c)) [] !live
      else text := true);
  (!text, accepting a !live)

let has_element_child doc id =
  let found = ref false in
  Doc.iter_children doc id (fun c -> if Doc.is_element doc c then found := true);
  !found

let validate ?root:start t doc =
  let start = match start with Some r -> r | None -> Doc.root doc in
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let check id =
    let sym = Symbol.to_int (Doc.tag doc id) in
    match if sym < Array.length t.by_sym then t.by_sym.(sym) else None with
    | None -> err "undeclared element <%s>" (Doc.name doc id)
    | Some d ->
      List.iter
        (fun (a, name) ->
          if Doc.attr_sym doc id a = None then
            err "<%s> misses required attribute %s" d.tag name)
        d.required_attrs;
      (match d.model with
       | No_content ->
         if Doc.last_child doc id <> Doc.no_node then
           err "<%s> declared EMPTY has content" d.tag
       | Any_content -> ()
       | Text_only ->
         if has_element_child doc id then
           err "<%s> declared (#PCDATA) has child elements" d.tag
       | Mixed_of allowed ->
         Doc.iter_children doc id (fun c ->
             if Doc.is_element doc c && not (Array.mem (Symbol.to_int (Doc.tag doc c)) allowed)
             then err "<%s> has disallowed child <%s>" d.tag (Doc.name doc c))
       | Model a ->
         let text, ok = run a doc id in
         if text then err "<%s> with element content contains text" d.tag;
         if not ok then
           (* the child names are spelled out for the message only *)
           err "children of <%s> [%s] do not match its content model" d.tag
             (String.concat " " (List.map (Doc.name doc) (Doc.element_children doc id))))
  in
  (* pre-order: an element's own errors before its descendants' *)
  let rec visit id =
    if Doc.is_element doc id then begin
      check id;
      Doc.iter_children doc id visit
    end
  in
  visit start;
  match !errors with
  | [] -> Ok ()
  | es -> Error (String.concat "; " (List.rev es))

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let occur_str = function One -> "" | Opt -> "?" | Star -> "*" | Plus -> "+"

let rec particle_str ?(top = false) p =
  match p with
  | Name (n, occ) -> (if top then "(" ^ n ^ ")" else n) ^ occur_str occ
  | Seq (ps, occ) ->
    "(" ^ String.concat ", " (List.map particle_str ps) ^ ")" ^ occur_str occ
  | Choice (ps, occ) ->
    "(" ^ String.concat " | " (List.map particle_str ps) ^ ")" ^ occur_str occ

let content_str = function
  | PCData -> "(#PCDATA)"
  | Mixed ns -> "(#PCDATA | " ^ String.concat " | " ns ^ ")*"
  | Empty -> "EMPTY"
  | Any -> "ANY"
  | Children p -> particle_str ~top:true p

let to_string t =
  String.concat "\n"
    (List.concat_map
       (fun d ->
         let elem = Printf.sprintf "<!ELEMENT %s %s>" d.elem_name (content_str d.content) in
         let atts =
           if d.attlist = [] then []
           else
             [ Printf.sprintf "<!ATTLIST %s %s>" d.elem_name
                 (String.concat " "
                    (List.map
                       (fun a ->
                         Printf.sprintf "%s CDATA %s" a.attr_name
                           (if a.required then "#REQUIRED" else "#IMPLIED"))
                       d.attlist))
             ]
         in
         elem :: atts)
       t.decls)
