type json =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of json list
  | Obj of (string * json) list
  | Raw of string

exception Protocol_error of string

(* Version of the request vocabulary, echoed by the server's [ping].
   2 added generation handles: pin {generation}, check {as_of}, and the
   history op over the retained-generation table; 3 refuses a txn
   request carrying abort. *)
let version = 3

let err fmt = Printf.ksprintf (fun s -> raise (Protocol_error s)) fmt

(* ------------------------------------------------------------------ *)
(* Byte queues                                                         *)
(* ------------------------------------------------------------------ *)

(* A growable byte queue whose live bytes are [buf.[first .. last-1]].
   The server keeps one per connection for inbound frames, scanned in
   place, and one per loop for the reply being encoded. *)
type queue = { mutable buf : Bytes.t; mutable first : int; mutable last : int }

let queue () = { buf = Bytes.empty; first = 0; last = 0 }
let capacity q = Bytes.length q.buf

(* Room for [n] more bytes at the end: slide the live bytes to the
   front, and double the capacity only when that is not enough. *)
let grow q n =
  let live = q.last - q.first in
  let cap = ref (max 256 (Bytes.length q.buf)) in
  while live + n > !cap do cap := 2 * !cap done;
  let buf = if !cap = Bytes.length q.buf then q.buf else Bytes.create !cap in
  Bytes.blit q.buf q.first buf 0 live;
  q.buf <- buf;
  q.first <- 0;
  q.last <- live

let reserve q n = if q.last + n > Bytes.length q.buf then grow q n

(* An emptied queue starts over at offset 0; one that grew past the
   server's read size for an outsized frame gives that memory back. *)
let release_limit = 65536

let clear q =
  q.first <- 0;
  q.last <- 0;
  if Bytes.length q.buf > release_limit then q.buf <- Bytes.empty

let push q b off len =
  reserve q len;
  Bytes.blit b off q.buf q.last len;
  q.last <- q.last + len

let add_char q c =
  reserve q 1;
  Bytes.unsafe_set q.buf q.last c;
  q.last <- q.last + 1

let add_substring q s off len =
  reserve q len;
  Bytes.blit_string s off q.buf q.last len;
  q.last <- q.last + len

let add_string q s = add_substring q s 0 (String.length s)

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

(* Runs of plain characters go in with one blit each. *)
let add_escaped q s =
  let n = String.length s in
  let rec go from i =
    if i = n then add_substring q s from (i - from)
    else
      match s.[i] with
      | ('"' | '\\' | '\000' .. '\031') as c ->
        add_substring q s from (i - from);
        (match c with
         | '"' -> add_string q "\\\""
         | '\\' -> add_string q "\\\\"
         | '\n' -> add_string q "\\n"
         | '\r' -> add_string q "\\r"
         | '\t' -> add_string q "\\t"
         | c -> add_string q (Printf.sprintf "\\u%04x" (Char.code c)));
        go (i + 1) (i + 1)
      | _ -> go from (i + 1)
  in
  go 0 0

let rec print q = function
  | Null -> add_string q "null"
  | Bool true -> add_string q "true"
  | Bool false -> add_string q "false"
  | Int i -> add_string q (string_of_int i)
  | Float f ->
    if Float.is_finite f then add_string q (Printf.sprintf "%.12g" f)
    else add_string q "null"
  | String s ->
    add_char q '"';
    add_escaped q s;
    add_char q '"'
  | List l ->
    add_char q '[';
    List.iteri
      (fun i v ->
        if i > 0 then add_char q ',';
        print q v)
      l;
    add_char q ']'
  | Obj kvs ->
    add_char q '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then add_char q ',';
        add_char q '"';
        add_escaped q k;
        add_string q "\":";
        print q v)
      kvs;
    add_char q '}'
  | Raw s -> add_string q s

let to_string j =
  let q = queue () in
  print q j;
  Bytes.sub_string q.buf 0 q.last

(* ------------------------------------------------------------------ *)
(* Parsing (recursive descent; no dependency)                          *)
(* ------------------------------------------------------------------ *)

let add_utf8 b code =
  (* single-escape BMP code points; lone surrogates encode as-is *)
  if code < 0x80 then Buffer.add_char b (Char.chr code)
  else if code < 0x800 then begin
    Buffer.add_char b (Char.chr (0xc0 lor (code lsr 6)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3f)))
  end
  else begin
    Buffer.add_char b (Char.chr (0xe0 lor (code lsr 12)));
    Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
    Buffer.add_char b (Char.chr (0x80 lor (code land 0x3f)))
  end

(* Parse the JSON document in [s.[off .. off+len-1]] without copying it
   out first; error offsets count from [off]. *)
let of_substring s off len =
  let n = off + len in
  let pos = ref off in
  let at () = !pos - off in
  let peek () =
    if !pos >= n then err "json: unexpected end of input" else s.[!pos]
  in
  let skip_ws () =
    while
      !pos < n
      && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      incr pos
    done
  in
  let lit w v =
    let l = String.length w in
    let rec same i = i = l || (s.[!pos + i] = w.[i] && same (i + 1)) in
    if !pos + l <= n && same 0 then begin
      pos := !pos + l;
      v
    end
    else err "json: invalid literal at offset %d" (at ())
  in
  let is_digit c = c >= '0' && c <= '9' in
  (* a string without escapes is one [String.sub] *)
  let rec plain_end i =
    if i >= n then err "json: unterminated string"
    else
      match s.[i] with
      | '"' -> Some i
      | '\\' -> None
      | _ -> plain_end (i + 1)
  in
  let parse_escaped () =
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then err "json: unterminated string";
      match s.[!pos] with
      | '"' ->
        incr pos;
        Buffer.contents b
      | '\\' ->
        incr pos;
        if !pos >= n then err "json: unterminated escape";
        (match s.[!pos] with
         | '"' -> Buffer.add_char b '"'
         | '\\' -> Buffer.add_char b '\\'
         | '/' -> Buffer.add_char b '/'
         | 'b' -> Buffer.add_char b '\b'
         | 'f' -> Buffer.add_char b '\012'
         | 'n' -> Buffer.add_char b '\n'
         | 'r' -> Buffer.add_char b '\r'
         | 't' -> Buffer.add_char b '\t'
         | 'u' ->
           if !pos + 4 >= n then err "json: truncated \\u escape";
           let code =
             match int_of_string_opt ("0x" ^ String.sub s (!pos + 1) 4) with
             | Some c -> c
             | None -> err "json: bad \\u escape at offset %d" (at ())
           in
           pos := !pos + 4;
           add_utf8 b code
         | c -> err "json: bad escape '\\%c'" c);
        incr pos;
        go ()
      | c ->
        Buffer.add_char b c;
        incr pos;
        go ()
    in
    go ()
  in
  let parse_string () =
    incr pos; (* opening quote *)
    match plain_end !pos with
    | Some i ->
      let v = String.sub s !pos (i - !pos) in
      pos := i + 1;
      v
    | None -> parse_escaped ()
  in
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    if peek () = '-' then incr pos;
    while !pos < n && is_digit s.[!pos] do incr pos done;
    if !pos < n && s.[!pos] = '.' then begin
      is_float := true;
      incr pos;
      while !pos < n && is_digit s.[!pos] do incr pos done
    end;
    if !pos < n && (s.[!pos] = 'e' || s.[!pos] = 'E') then begin
      is_float := true;
      incr pos;
      if !pos < n && (s.[!pos] = '+' || s.[!pos] = '-') then incr pos;
      while !pos < n && is_digit s.[!pos] do incr pos done
    end;
    let lex = String.sub s start (!pos - start) in
    if !is_float then
      match float_of_string_opt lex with
      | Some f -> Float f
      | None -> err "json: bad number %S" lex
    else
      match int_of_string_opt lex with
      | Some i -> Int i
      | None ->
        (match float_of_string_opt lex with
         | Some f -> Float f
         | None -> err "json: bad number %S" lex)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | 'n' -> lit "null" Null
    | 't' -> lit "true" (Bool true)
    | 'f' -> lit "false" (Bool false)
    | '"' -> String (parse_string ())
    | '[' ->
      incr pos;
      skip_ws ();
      if peek () = ']' then begin
        incr pos;
        List []
      end
      else
        let rec go acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | ',' ->
            incr pos;
            go (v :: acc)
          | ']' ->
            incr pos;
            List (List.rev (v :: acc))
          | c -> err "json: expected ',' or ']', got '%c'" c
        in
        go []
    | '{' ->
      incr pos;
      skip_ws ();
      if peek () = '}' then begin
        incr pos;
        Obj []
      end
      else
        let pair () =
          skip_ws ();
          if peek () <> '"' then err "json: expected object key at %d" (at ());
          let k = parse_string () in
          skip_ws ();
          if peek () <> ':' then err "json: expected ':' at %d" (at ());
          incr pos;
          (k, parse_value ())
        in
        let rec go acc =
          let kv = pair () in
          skip_ws ();
          match peek () with
          | ',' ->
            incr pos;
            go (kv :: acc)
          | '}' ->
            incr pos;
            Obj (List.rev (kv :: acc))
          | c -> err "json: expected ',' or '}', got '%c'" c
        in
        go []
    | '-' | '0' .. '9' -> parse_number ()
    | c -> err "json: unexpected character '%c' at offset %d" c (at ())
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then err "json: trailing garbage at offset %d" (at ());
  v

let of_string s = of_substring s 0 (String.length s)

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

let string_field k j =
  match member k j with Some (String s) -> Some s | _ -> None

let int_field k j = match member k j with Some (Int i) -> Some i | _ -> None

let bool_field ?(default = false) k j =
  match member k j with Some (Bool b) -> b | _ -> default

let list_field k j = match member k j with Some (List l) -> Some l | _ -> None

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

let max_frame = 16 * 1024 * 1024

(* One wording for every cap violation, wherever it is caught: the
   offending length and the cap, by name, so a client staring at a
   garbage or hostile stream knows exactly what was refused and why. *)
let bad_length len =
  if len > max_frame then
    err "frame length %d exceeds the %d-byte (16 MiB) frame cap" len max_frame
  else err "malformed frame length %d (not a length-prefixed frame?)" len

let rec write_all fd b off len =
  if len > 0 then begin
    let n =
      try Unix.write fd b off len
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    write_all fd b (off + n) (len - n)
  end

(* The payload goes in behind a 4-byte placeholder that is then patched
   with its length, so the frame is encoded once and sent from [q] as it
   stands. *)
let send_frame q fd j =
  clear q;
  Fun.protect ~finally:(fun () -> clear q) @@ fun () ->
  add_string q "\000\000\000\000";
  print q j;
  let len = q.last - 4 in
  if len > max_frame then
    err "cannot send a %d-byte frame: exceeds the %d-byte (16 MiB) frame cap"
      len max_frame;
  Bytes.set_int32_be q.buf 0 (Int32.of_int len);
  write_all fd q.buf 0 q.last

let write_frame fd j = send_frame (queue ()) fd j

(* [`Eof] only when the stream ends exactly on a frame boundary
   ([off = 0]); EOF mid-frame is a protocol error. *)
let read_full fd b off0 len0 =
  let rec go off len =
    if len = 0 then `Ok
    else
      match Unix.read fd b off len with
      | 0 -> if off = off0 then `Eof else err "connection closed mid-frame"
      | n -> go (off + n) (len - n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off len
  in
  go off0 len0

let frame_length b pos =
  (Bytes.get_uint16_be b pos lsl 16) lor Bytes.get_uint16_be b (pos + 2)

let read_frame fd =
  let hdr = Bytes.create 4 in
  match read_full fd hdr 0 4 with
  | `Eof -> None
  | `Ok ->
    let len = frame_length hdr 0 in
    if len < 0 || len > max_frame then bad_length len;
    let payload = Bytes.create len in
    (match read_full fd payload 0 len with
     | `Eof -> err "connection closed mid-frame"
     | `Ok -> Some (of_string (Bytes.unsafe_to_string payload)))

(* Two passes: the first walks the headers to the end of the complete
   frames and refuses a bad length before any frame is delivered, the
   second hands each payload to [f] where it lies. *)
let scan_frames q f =
  let rec complete pos =
    if q.last - pos < 4 then pos
    else begin
      let len = frame_length q.buf pos in
      if len < 0 || len > max_frame then bad_length len;
      if q.last - pos - 4 < len then pos else complete (pos + 4 + len)
    end
  in
  let stop = complete q.first in
  let s = Bytes.unsafe_to_string q.buf in
  let rec deliver pos =
    if pos < stop then begin
      let len = frame_length q.buf pos in
      q.first <- pos + 4 + len;
      f s (pos + 4) len;
      deliver (pos + 4 + len)
    end
  in
  deliver q.first;
  if q.first = q.last then clear q

(* ------------------------------------------------------------------ *)
(* Client side                                                         *)
(* ------------------------------------------------------------------ *)

type address = Unix_sock of string | Tcp of string * int

let address_to_string = function
  | Unix_sock p -> p
  | Tcp (h, p) -> Printf.sprintf "%s:%d" h p

let address_of_string s =
  match String.rindex_opt s ':' with
  | Some i when i > 0 && i < String.length s - 1 ->
    let port = String.sub s (i + 1) (String.length s - i - 1) in
    (match int_of_string_opt port with
     | Some p when not (String.contains s '/') -> Tcp (String.sub s 0 i, p)
     | _ -> Unix_sock s)
  | _ -> Unix_sock s

let connect addr =
  let domain, sockaddr =
    match addr with
    | Unix_sock path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
    | Tcp (host, port) ->
      let ip =
        try (Unix.gethostbyname host).Unix.h_addr_list.(0)
        with Not_found -> err "unknown host %s" host
      in
      (Unix.PF_INET, Unix.ADDR_INET (ip, port))
  in
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (try Unix.connect fd sockaddr
   with Unix.Unix_error (e, _, _) ->
     Unix.close fd;
     err "connect %s: %s" (address_to_string addr) (Unix.error_message e));
  fd

let request fd j =
  write_frame fd j;
  match read_frame fd with
  | Some r -> r
  | None -> err "server closed the connection"
