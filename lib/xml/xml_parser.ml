module Symbol = Xic_symbol.Symbol

exception Parse_error of { line : int; col : int; msg : string }

type result = {
  doc : Doc.t;
  dtd_text : string option;
}

type sink = Doc.node_id -> pos:int -> unit

(* The state is a bare cursor: no per-character line/col bookkeeping.
   Error locations are recomputed from the failure offset in [fail] —
   the only place that needs them — so the happy path just bumps [pos]. *)
type state = {
  src : string;
  mutable pos : int;
}

let make_state src = { src; pos = 0 }

(* Line/col of a byte offset, 1-based, newline resets the column —
   identical to what the old per-character tracking accumulated. *)
let line_col_of_offset src pos =
  let line = ref 1 and bol = ref 0 in
  for i = 0 to pos - 1 do
    if String.unsafe_get src i = '\n' then begin
      incr line;
      bol := i + 1
    end
  done;
  (!line, pos - !bol + 1)

let fail st msg =
  let line, col = line_col_of_offset st.src st.pos in
  raise (Parse_error { line; col; msg })

let eof st = st.pos >= String.length st.src

let peek st = if eof st then '\000' else String.unsafe_get st.src st.pos

let advance st = if not (eof st) then st.pos <- st.pos + 1

let looking_at st s =
  let n = String.length s in
  st.pos + n <= String.length st.src
  &&
  let rec go i =
    i >= n
    || Char.equal
         (String.unsafe_get st.src (st.pos + i))
         (String.unsafe_get s i)
       && go (i + 1)
  in
  go 0

let expect st s =
  if looking_at st s then st.pos <- st.pos + String.length s
  else fail st (Printf.sprintf "expected %S" s)

let is_ws = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

let skip_ws st =
  let len = String.length st.src in
  let i = ref st.pos in
  while !i < len && is_ws (String.unsafe_get st.src !i) do
    incr i
  done;
  st.pos <- !i

let is_name_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'

let is_name_char c =
  is_name_start c || (c >= '0' && c <= '9') || c = '-' || c = '.'

(* Scan a name in place, returning its (start, length) span so callers can
   intern straight off the source buffer without a substring. *)
let parse_name_span st =
  if not (is_name_start (peek st)) then fail st "expected a name";
  let len = String.length st.src in
  let start = st.pos in
  let i = ref (start + 1) in
  while !i < len && is_name_char (String.unsafe_get st.src !i) do
    incr i
  done;
  st.pos <- !i;
  (start, !i - start)

let parse_name st =
  let start, len = parse_name_span st in
  String.sub st.src start len

let parse_name_sym st =
  let start, len = parse_name_span st in
  Symbol.intern_sub st.src start len

(* Entity and character reference resolution ------------------------------ *)

let resolve_entity name =
  match name with
  | "lt" -> "<"
  | "gt" -> ">"
  | "amp" -> "&"
  | "apos" -> "'"
  | "quot" -> "\""
  | _ ->
    if String.length name > 1 && name.[0] = '#' then begin
      let code =
        if name.[1] = 'x' || name.[1] = 'X' then
          int_of_string ("0x" ^ String.sub name 2 (String.length name - 2))
        else int_of_string (String.sub name 1 (String.length name - 1))
      in
      (* Encode as UTF-8. *)
      let b = Buffer.create 4 in
      if code < 0x80 then Buffer.add_char b (Char.chr code)
      else if code < 0x800 then begin
        Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
        Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
      end
      else if code < 0x10000 then begin
        Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
        Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
        Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
      end
      else begin
        Buffer.add_char b (Char.chr (0xF0 lor (code lsr 18)));
        Buffer.add_char b (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
        Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
        Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
      end;
      Buffer.contents b
    end
    else failwith (Printf.sprintf "unknown entity &%s;" name)

let unescape s =
  if not (String.contains s '&') then s
  else begin
    let b = Buffer.create (String.length s) in
    let n = String.length s in
    let i = ref 0 in
    while !i < n do
      if s.[!i] = '&' then begin
        match String.index_from_opt s !i ';' with
        | None -> failwith "unterminated entity reference"
        | Some j ->
          Buffer.add_string b (resolve_entity (String.sub s (!i + 1) (j - !i - 1)));
          i := j + 1
      end
      else begin
        Buffer.add_char b s.[!i];
        incr i
      end
    done;
    Buffer.contents b
  end

(* Unescape the slice [start, stop) of [src]: one substring when it holds
   no reference (the overwhelming case), the buffer path otherwise.  The
   scan must stay bounded by [stop] — [String.index_from_opt] would walk
   to the end of the whole source on reference-free documents. *)
let unescape_range src start stop =
  let rec has_ref i = i < stop && (String.unsafe_get src i = '&' || has_ref (i + 1)) in
  if has_ref start then unescape (String.sub src start (stop - start))
  else String.sub src start (stop - start)

let all_ws_range src start stop =
  let rec go i = i >= stop || (is_ws (String.unsafe_get src i) && go (i + 1)) in
  go start

(* Lexical scanning of document pieces ------------------------------------ *)

let parse_attr_value st =
  let quote = peek st in
  if quote <> '"' && quote <> '\'' then fail st "expected quoted attribute value";
  st.pos <- st.pos + 1;
  let start = st.pos in
  match String.index_from_opt st.src start quote with
  | None ->
    st.pos <- String.length st.src;
    fail st "unterminated attribute value"
  | Some j ->
    st.pos <- j + 1;
    (try unescape_range st.src start j with Failure m -> fail st m)

let parse_attrs_sym st =
  let rec go acc =
    skip_ws st;
    if is_name_start (peek st) then begin
      let k = parse_name_sym st in
      skip_ws st;
      expect st "=";
      skip_ws st;
      let v = parse_attr_value st in
      go ((k, v) :: acc)
    end
    else List.rev acc
  in
  go []

let skip_until st stop =
  let n = String.length stop in
  let len = String.length st.src in
  let c0 = String.unsafe_get stop 0 in
  let rec find i =
    if i + n > len then None
    else if
      Char.equal (String.unsafe_get st.src i) c0
      &&
      let rec eq k =
        k >= n
        || Char.equal (String.unsafe_get st.src (i + k)) (String.unsafe_get stop k)
           && eq (k + 1)
      in
      eq 1
    then Some i
    else find (i + 1)
  in
  match find st.pos with
  | None -> fail st (Printf.sprintf "unterminated construct, expected %S" stop)
  | Some i ->
    let text = String.sub st.src st.pos (i - st.pos) in
    st.pos <- i + n;
    text

let skip_comment st =
  expect st "<!--";
  ignore (skip_until st "-->")

let skip_pi st =
  expect st "<?";
  ignore (skip_until st "?>")

(* DOCTYPE: capture the internal subset text, skip external ids. *)
let parse_doctype st =
  expect st "<!DOCTYPE";
  skip_ws st;
  let _name = parse_name st in
  skip_ws st;
  (* Optional SYSTEM/PUBLIC external id: skip quoted strings. *)
  while peek st <> '[' && peek st <> '>' && not (eof st) do
    if peek st = '"' || peek st = '\'' then ignore (parse_attr_value st) else advance st
  done;
  let subset =
    if peek st = '[' then begin
      advance st;
      let text = skip_until st "]" in
      Some text
    end
    else None
  in
  skip_ws st;
  expect st ">";
  subset

(* Content parsing ---------------------------------------------------------

   One fused pass: nodes are allocated in document (pre-order) position —
   elements on their open tag, before their children — and attached to
   the parent immediately, so there is no child-list accumulation or
   reversal and no second walk over the finished tree.  [sink], when
   given, is invoked on each element as its close tag completes (its
   children, hence its embedded text, already exist) with the element's
   1-based position among its parent's element children, which the
   content loop tracks for free.  Text and CDATA segments parted only by
   (dropped) comments or PIs are one text node, as in the XPath data
   model: [pending] collects them until an element or the content ends. *)

let flush_text doc parent pending =
  match !pending with
  | [] -> ()
  | segs ->
    pending := [];
    let text = match segs with [ s ] -> s | _ -> String.concat "" (List.rev segs) in
    Doc.append_child doc ~parent (Doc.make_text doc text)

let rec parse_content_into st doc ~keep_ws ~sink parent =
  let elts = ref 0 in
  let pending = ref [] in
  let continue = ref true in
  while !continue do
    if eof st then continue := false
    else if String.unsafe_get st.src st.pos = '<' then begin
      if looking_at st "</" then continue := false
      else if looking_at st "<!--" then skip_comment st
      else if looking_at st "<![CDATA[" then begin
        st.pos <- st.pos + 9;
        pending := skip_until st "]]>" :: !pending
      end
      else if looking_at st "<?" then skip_pi st
      else begin
        flush_text doc parent pending;
        incr elts;
        ignore (parse_element_into st doc ~keep_ws ~sink ~pos:!elts ~parent)
      end
    end
    else begin
      let start = st.pos in
      let stop =
        match String.index_from_opt st.src start '<' with
        | None -> String.length st.src
        | Some i -> i
      in
      st.pos <- stop;
      if keep_ws || not (all_ws_range st.src start stop) then begin
        let text =
          try unescape_range st.src start stop with Failure m -> fail st m
        in
        pending := text :: !pending
      end
    end
  done;
  flush_text doc parent pending

and parse_element_into st doc ~keep_ws ~sink ~pos ~parent =
  expect st "<";
  let tag = parse_name_sym st in
  let attrs = parse_attrs_sym st in
  skip_ws st;
  let id = Doc.make_element_sym doc ~attrs tag in
  if parent <> Doc.no_node then Doc.append_child doc ~parent id;
  (if looking_at st "/>" then st.pos <- st.pos + 2
   else begin
     expect st ">";
     parse_content_into st doc ~keep_ws ~sink id;
     expect st "</";
     let close = parse_name_sym st in
     if not (Symbol.equal close tag) then
       fail st
         (Printf.sprintf "mismatched closing tag </%s> for <%s>"
            (Symbol.name close) (Symbol.name tag));
     skip_ws st;
     expect st ">"
   end);
  (match sink with None -> () | Some f -> f id ~pos);
  id

let parse_prolog st =
  let dtd = ref None in
  let continue = ref true in
  while !continue do
    skip_ws st;
    if looking_at st "<?" then skip_pi st
    else if looking_at st "<!--" then skip_comment st
    else if looking_at st "<!DOCTYPE" then dtd := parse_doctype st
    else continue := false
  done;
  !dtd

let parse_document_into ?(keep_ws = false) ?sink doc src =
  let st = make_state src in
  let dtd_text = parse_prolog st in
  skip_ws st;
  if peek st <> '<' then fail st "expected root element";
  let root = parse_element_into st doc ~keep_ws ~sink ~pos:1 ~parent:Doc.no_node in
  skip_ws st;
  while not (eof st) do
    if looking_at st "<!--" then skip_comment st
    else if looking_at st "<?" then skip_pi st
    else fail st "content after root element"
  done;
  (root, dtd_text)

(* ~12 source bytes per node is a conservative fit for element-content
   documents; overshooting merely leaves slack in the arena columns. *)
let capacity_of_bytes len = (len / 12) + 16

let parse_string ?keep_ws src =
  let doc = Doc.create ~capacity:(capacity_of_bytes (String.length src)) () in
  let root, dtd_text = parse_document_into ?keep_ws doc src in
  Doc.set_root doc root;
  { doc; dtd_text }
