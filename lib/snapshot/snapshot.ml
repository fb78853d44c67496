module Wire = Xic_symbol.Wire
module Symbol = Xic_symbol.Symbol
module Doc = Xic_xml.Doc
module Store = Xic_datalog.Store
module FP = Xic_journal.Failpoint
module AF = Xic_journal.Atomic_file
module Obs = Xic_obs.Obs

let magic = "XICSNAP1\n"
let version = 1
let digest_len = Checksum.width (* per-section checksum *)

(* Section tags, in file order. *)
let tag_meta = 1
let tag_symbols = 2
let tag_doc = 3
let tag_store = 4
let tag_end = 0xff (* tag byte only: its presence proves the file is whole *)

let () =
  List.iter FP.declare
    [ "snapshot_write"; "snapshot_fsync"; "snapshot_rename"; "snapshot_dirsync";
      "snapshot_read" ]

type error =
  | Missing
  | Not_a_snapshot
  | Unsupported_version of int
  | Truncated of string
  | Checksum_mismatch of string
  | Malformed of string

exception Snapshot_error of string * error

let error_message = function
  | Missing -> "no such file"
  | Not_a_snapshot -> "not a snapshot file (bad magic)"
  | Unsupported_version v -> Printf.sprintf "unsupported snapshot version %d" v
  | Truncated what -> Printf.sprintf "truncated (%s)" what
  | Checksum_mismatch section ->
    Printf.sprintf "checksum mismatch in the %s section" section
  | Malformed what -> Printf.sprintf "malformed (%s)" what

let err path e = raise (Snapshot_error (path, e))

type meta = {
  journal_generation : int;
  journal_watermark : int;
  nodes : int;
  facts : int;
  symbols : int;
}

let c_saves = Obs.Metrics.counter "snapshot_saves"
let c_loads = Obs.Metrics.counter "snapshot_loads"
let c_bytes_written = Obs.Metrics.counter "snapshot_bytes_written"
let c_bytes_read = Obs.Metrics.counter "snapshot_bytes_read"

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)
(* ------------------------------------------------------------------ *)

let add_section buf tag payload =
  Wire.add_u8 buf tag;
  Wire.add_int buf (Buffer.length payload);
  let body = Buffer.contents payload in
  Buffer.add_string buf body;
  Buffer.add_string buf (Checksum.to_bytes (Checksum.sum body 0 (String.length body)))

let encode ~journal doc store =
  let jgen, jmark = journal in
  let names = Symbol.all_names () in
  let buf = Buffer.create (1 lsl 16) in
  Buffer.add_string buf magic;
  Wire.add_int buf version;
  let section tag fill =
    let payload = Buffer.create 4096 in
    fill payload;
    add_section buf tag payload
  in
  section tag_meta (fun b ->
      Wire.add_int b jgen;
      Wire.add_int b jmark;
      Wire.add_int b (Doc.node_count doc);
      Wire.add_int b (Store.total_tuples store);
      Wire.add_int b (Array.length names));
  section tag_symbols (fun b ->
      Wire.add_int b (Array.length names);
      Array.iter (Wire.add_string b) names);
  section tag_doc (fun b -> Doc.serialize doc b);
  section tag_store (fun b -> Store.serialize store b);
  Wire.add_u8 buf tag_end;
  Buffer.contents buf

let save ?(journal = (0, 0)) path doc store =
  Obs.Trace.with_span "snapshot_save" @@ fun () ->
  let image = encode ~journal doc store in
  AF.replace ~fp:"snapshot" path image;
  Obs.Metrics.incr c_saves;
  Obs.Metrics.add c_bytes_written (String.length image);
  String.length image

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)
(* ------------------------------------------------------------------ *)

(* Grow-anew scratch for whole-file reads.  A checkpoint is MB-sized,
   and allocating a fresh buffer per load both faults-in the pages and
   feeds the major GC; one reused buffer does neither. *)
let scratch = ref Bytes.empty

(* Read the whole file and hand [f] a string over its bytes, mediated by
   the [snapshot_read] failpoint (an armed short read delivers a prefix,
   surfacing as a [Truncated] error).  The string may alias the shared
   scratch buffer — so [f] (and everything it calls) must copy out what
   it keeps, must not escape the string, and must not call [with_image]
   again.  Every section decoder obeys this: meta, symbols, document and
   store all build their own structures. *)
let with_image path f =
  if not (Sys.file_exists path) then err path Missing;
  let fd =
    try Unix.openfile path [ Unix.O_RDONLY ] 0
    with Unix.Unix_error (e, _, _) ->
      err path (Malformed (Unix.error_message e))
  in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  let size = (Unix.fstat fd).Unix.st_size in
  let deliver = FP.read_fault "snapshot_read" ~len:size in
  (* exact size, not grow-only: a stale tail would defeat truncation
     detection *)
  if Bytes.length !scratch <> deliver then scratch := Bytes.create deliver;
  let b = !scratch in
  let rec fill off =
    if off < deliver then
      match AF.with_retries (fun () -> Unix.read fd b off (deliver - off)) with
      | 0 -> off
      | n -> fill (off + n)
    else off
  in
  let got = fill 0 in
  Obs.Metrics.add c_bytes_read got;
  f
    (if got = Bytes.length b then Bytes.unsafe_to_string b
     else Bytes.sub_string b 0 got)

let section_name = function
  | 1 -> "meta"
  | 2 -> "symbols"
  | 3 -> "document"
  | 4 -> "store"
  | t -> Printf.sprintf "unknown (tag %d)" t

(* A section located inside the file image — bodies are never copied
   out: verification uses [Digest.substring] and decoding runs a cursor
   positioned at [off], so a 2 MB container costs one read, not three
   copies.  (A decoder can therefore only be confined to its section by
   its own length fields; that is fine because every section's checksum
   is verified before its decoder runs, so the lengths are the ones the
   writer produced.) *)
type section = { off : int; len : int; digest_off : int }

(* Split the container into its sections.  Structure (lengths, end
   marker) is checked here; checksum verification is deferred to
   [check_digest], which runs just before each section is decoded. *)
let split_sections path s =
  let mlen = String.length magic in
  if String.length s < mlen || String.sub s 0 mlen <> magic then
    err path (if String.length s < mlen then Truncated "header" else Not_a_snapshot);
  let c = Wire.cursor ~pos:mlen s in
  let v = try Wire.get_int c with Wire.Error _ -> err path (Truncated "version") in
  if v <> version then err path (Unsupported_version v);
  let sections = ref [] in
  let rec scan () =
    let tag =
      try Wire.get_u8 c
      with Wire.Error _ -> err path (Truncated "missing end marker")
    in
    if tag = tag_end then ()
    else begin
      let len =
        try Wire.get_int c
        with Wire.Error _ -> err path (Truncated (section_name tag ^ " header"))
      in
      if len < 0 || len + digest_len > Wire.remaining c then
        err path (Truncated (section_name tag ^ " section"));
      let off = c.Wire.pos in
      c.Wire.pos <- c.Wire.pos + len;
      let digest_off = c.Wire.pos in
      c.Wire.pos <- c.Wire.pos + digest_len;
      sections := (tag, { off; len; digest_off }) :: !sections;
      scan ()
    end
  in
  scan ();
  let find tag =
    match List.assoc_opt tag !sections with
    | Some sec -> sec
    | None -> err path (Malformed ("missing " ^ section_name tag ^ " section"))
  in
  (find tag_meta, find tag_symbols, find tag_doc, find tag_store)

(* Verify a section's checksum in place and return a cursor over its
   body. *)
let check_digest path tag s sec =
  if not (Checksum.check s sec.digest_off (Checksum.sum s sec.off sec.len)) then
    err path (Checksum_mismatch (section_name tag));
  Wire.cursor ~pos:sec.off s

let decode_meta path c =
  try
    let journal_generation = Wire.get_int c in
    let journal_watermark = Wire.get_int c in
    let nodes = Wire.get_int c in
    let facts = Wire.get_int c in
    let symbols = Wire.get_int c in
    { journal_generation; journal_watermark; nodes; facts; symbols }
  with Wire.Error m -> err path (Malformed m)

let load path doc =
  Obs.Trace.with_span "snapshot_load" @@ fun () ->
  (* A load is one bulk allocation burst (arena columns, text pool,
     store tuples) whose liveness is known — nearly everything allocated
     survives.  Running the incremental major GC at its steady-state
     pace against that burst just taxes the load; relax it for the
     duration and restore the caller's setting after. *)
  let gc = Gc.get () in
  Fun.protect ~finally:(fun () -> Gc.set gc) @@ fun () ->
  Gc.set { gc with Gc.space_overhead = 800 };
  with_image path @@ fun s ->
  let meta_s, sym_s, doc_s, store_s = split_sections path s in
  let meta = decode_meta path (check_digest path tag_meta s meta_s) in
  let store =
    let c = check_digest path tag_store s store_s in
    try Store.deserialize c with Wire.Error m -> err path (Malformed m)
  in
  (* The document restores into a scratch arena, transplanted into the
     caller's [doc] only after both sections have decoded: a failure
     must not leave [doc] half-restored. *)
  let sym_c = check_digest path tag_symbols s sym_s in
  (* Re-intern the saved names table: [remap.(old_id)] is the loading
     process's symbol for the same name. *)
  let remap =
    try
      let n = Wire.get_int sym_c in
      if n < 0 || n > Wire.remaining sym_c then
        raise (Wire.Error "bad symbol count");
      Array.init n (fun _ -> Symbol.intern (Wire.get_string sym_c))
    with Wire.Error m -> err path (Malformed m)
  in
  let doc_c = check_digest path tag_doc s doc_s in
  let scratch = Doc.create () in
  (try Doc.restore scratch ~remap doc_c
   with
   | Wire.Error m -> err path (Malformed m)
   | Invalid_argument m -> err path (Malformed m));
  Doc.transplant ~into:doc scratch;
  Obs.Metrics.incr c_loads;
  (meta, store)

(* [read_meta] verifies every section (not just the one it decodes): it
   gates snapshot reuse on the resume path, so "meta reads fine but the
   store is corrupt" must surface here, not at the later full load. *)
let read_meta path =
  with_image path @@ fun s ->
  let meta_s, sym_s, doc_s, store_s = split_sections path s in
  ignore (check_digest path tag_symbols s sym_s);
  ignore (check_digest path tag_doc s doc_s);
  ignore (check_digest path tag_store s store_s);
  decode_meta path (check_digest path tag_meta s meta_s)
