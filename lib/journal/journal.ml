type entry =
  | Intent of { txn : int; seq : int; strategy : string; payload : string }
  | Commit of { txn : int }
  | Abort of { txn : int }
  | Truncate of { txn : int; keep : int }

type tail =
  | Clean
  | Torn of { dropped : int }
  | Corrupt of { dropped : int }

type read_result = {
  entries : entry list;
  torn : bool;
  tail : tail;
  generation : int;
}

exception Journal_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Journal_error s)) fmt

let header_v1 = "XICJ1\n"
let header_v2 = "XICJ2\n"
let header_len = String.length header_v2 (* both 6 bytes *)
let gen_len = 8 (* v2: big-endian generation follows the magic *)
let digest_len = 16 (* MD5 *)

(* The file grows by zero-filled extents of this size, each synced
   once, so the appends that fill an extent overwrite allocated blocks
   and their commit fsyncs never change the file size.  The zeros come
   from one small static buffer: an extent-sized string would grow the
   major heap, and with it a server's resident size. *)
let extent = 1 lsl 20
let zeros = String.make 65536 '\000'

(* Failpoint sites of the append/reset path, declared up front so the
   torture harness can enumerate them before any journal I/O happens. *)
let () =
  List.iter Failpoint.declare
    [ "mid_write"; "journal_write"; "journal_fsync"; "journal_grow";
      "journal_create"; "journal_reset"; "journal_reset_rename" ]

type t = {
  jpath : string;
  mutable fd : Unix.file_descr;
  sync : bool;
  mutable next : int;
  mutable gen : int;
  mutable entries_written : int;  (* valid records currently in the file *)
  mutable logical : int;  (* end of the last record: where appends go *)
  mutable physical : int;  (* file size: [logical] plus the zero tail *)
  mutable closed : bool;
}

let path t = t.jpath
let generation t = t.gen
let entry_count t = t.entries_written

(* Appended bytes in the current generation (since the last reset) —
   the logical end, not the preallocated file size.  Exposed as the
   server's journal_bytes_since_checkpoint gauge. *)
let bytes t = if t.closed then 0 else t.logical

let txn_of = function
  | Intent { txn; _ } | Commit { txn } | Abort { txn } | Truncate { txn; _ } -> txn

(* ------------------------------------------------------------------ *)
(* Record (de)serialization                                            *)
(* ------------------------------------------------------------------ *)

(* The payload is a header line (tag + integers + strategy word) followed,
   for intents, by the opaque statement text. *)
let entry_payload = function
  | Intent { txn; seq; strategy; payload } ->
    Printf.sprintf "intent %d %d %s\n%s" txn seq strategy payload
  | Commit { txn } -> Printf.sprintf "commit %d" txn
  | Abort { txn } -> Printf.sprintf "abort %d" txn
  | Truncate { txn; keep } -> Printf.sprintf "truncate %d %d" txn keep

let entry_of_payload s =
  let line, rest =
    match String.index_opt s '\n' with
    | Some i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
    | None -> (s, "")
  in
  let int_ v = match int_of_string_opt v with
    | Some i -> i
    | None -> fail "malformed journal record header %S" line
  in
  match String.split_on_char ' ' line with
  | [ "intent"; txn; seq; strategy ] ->
    Intent { txn = int_ txn; seq = int_ seq; strategy; payload = rest }
  | [ "commit"; txn ] -> Commit { txn = int_ txn }
  | [ "abort"; txn ] -> Abort { txn = int_ txn }
  | [ "truncate"; txn; keep ] -> Truncate { txn = int_ txn; keep = int_ keep }
  | _ -> fail "unknown journal record %S" line

let fresh_header gen =
  let b = Bytes.create (header_len + gen_len) in
  Bytes.blit_string header_v2 0 b 0 header_len;
  Bytes.set_int64_be b header_len (Int64.of_int gen);
  Bytes.to_string b

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)
(* ------------------------------------------------------------------ *)

let input_upto ic buf len =
  let rec go off =
    if off >= len then off
    else
      match input ic buf off (len - off) with
      | 0 -> off
      | n -> go (off + n)
  in
  go 0

(* Is every byte from offset [off] to the end of the file zero? *)
let zero_from ic off =
  seek_in ic off;
  let buf = Bytes.create 4096 in
  let rec go () =
    match input ic buf 0 (Bytes.length buf) with
    | 0 -> true
    | n ->
      let rec zero i = i >= n || (Bytes.get buf i = '\000' && zero (i + 1)) in
      zero 0 && go ()
  in
  go ()

(* Scan all valid records; [valid_end] is the byte offset just past the
   last intact record, where appends may safely resume.  A zero length
   prefix followed only by zeros is the zero tail of a preallocated
   extent: the log ends there; one with non-zero bytes after it is a
   damaged record ([Corrupt]).  Any other bad record — one cut short by the end of the file, or failing its
   checksum with its last byte and everything after it zero — is [Torn]
   (an append that never finished); any other checksum failure is
   [Corrupt]. *)
let scan_file p =
  let ic = try open_in_bin p with Sys_error m -> fail "%s" m in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let size = in_channel_length ic in
  let gen =
    match really_input_string ic header_len with
    | h when h = header_v1 -> 0
    | h when h = header_v2 ->
      (match really_input_string ic gen_len with
       | g -> Int64.to_int (String.get_int64_be g 0)
       | exception End_of_file -> fail "%s: not a journal file (truncated header)" p)
    | _ -> fail "%s: not a journal file (bad header)" p
    | exception End_of_file -> fail "%s: not a journal file (truncated header)" p
  in
  let entries = ref [] in
  let tail = ref Clean in
  let valid_end = ref (pos_in ic) in
  let lenb = Bytes.create 4 in
  let dropped () = size - !valid_end in
  let rec scan () =
    match input_upto ic lenb 4 with
    | 0 -> ()  (* clean end of file *)
    | n when n < 4 -> tail := Torn { dropped = dropped () }
    | _ ->
      let len = Int32.to_int (Bytes.get_int32_be lenb 0) in
      let last = !valid_end + 4 + len + digest_len - 1 in
      if len = 0 then begin
        if not (zero_from ic !valid_end) then
          tail := Corrupt { dropped = dropped () }
      end
      else if len < 0 then tail := Corrupt { dropped = dropped () }
      else if last >= size then tail := Torn { dropped = dropped () }
      else begin
        let payload = really_input_string ic len in
        let digest = really_input_string ic digest_len in
        if Digest.string payload = digest then begin
          entries := entry_of_payload payload :: !entries;
          valid_end := pos_in ic;
          scan ()
        end
        else if zero_from ic last then tail := Torn { dropped = dropped () }
        else tail := Corrupt { dropped = dropped () }
      end
  in
  scan ();
  (List.rev !entries, !tail, !valid_end, gen)

let read p =
  let entries, tail, _, generation = scan_file p in
  { entries; torn = tail <> Clean; tail; generation }

(* ------------------------------------------------------------------ *)
(* Appending                                                           *)
(* ------------------------------------------------------------------ *)

let open_ ?(sync = true) p =
  let fresh =
    (not (Sys.file_exists p)) || (try (Unix.stat p).Unix.st_size = 0 with Unix.Unix_error _ -> true)
  in
  let entries, valid_end, gen =
    if fresh then ([], header_len + gen_len, 1)
    else
      (* the torn tail, if any, is truncated away below *)
      let entries, _tail, valid_end, gen = scan_file p in
      (entries, valid_end, gen)
  in
  Failpoint.hit "journal_create";
  let fd =
    try Unix.openfile p [ Unix.O_RDWR; Unix.O_CREAT ] 0o644
    with Unix.Unix_error (e, _, _) -> fail "%s: %s" p (Unix.error_message e)
  in
  (try
     if fresh then begin
       let h = fresh_header gen in
       Atomic_file.write_all fd h 0 (String.length h)
     end
     else begin
       Unix.ftruncate fd valid_end;
       ignore (Unix.lseek fd valid_end Unix.SEEK_SET)
     end;
     if sync then begin
       Atomic_file.fsync fd;
       (* a freshly created journal is a new directory entry: make the
          entry itself durable, or a crash can lose the whole file *)
       if fresh then Atomic_file.fsync_parent_dir p
     end
   with Unix.Unix_error (e, _, _) ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     fail "%s: %s" p (Unix.error_message e));
  let next = 1 + List.fold_left (fun m e -> max m (txn_of e)) 0 entries in
  { jpath = p; fd; sync; next; gen;
    entries_written = List.length entries;
    logical = valid_end; physical = valid_end; closed = false }

let next_txn t =
  let id = t.next in
  t.next <- t.next + 1;
  id

let c_appends = Xic_obs.Obs.Metrics.counter "journal_appends"
let c_fsyncs = Xic_obs.Obs.Metrics.counter "journal_fsyncs"
let c_resets = Xic_obs.Obs.Metrics.counter "journal_resets"

(* A failed write leaves the tail torn (or the fill half done) and the
   file position unknown; a failed fsync may have dropped dirty pages,
   so a later fsync could report durability for records that are gone.
   Either way, poison the handle so no later append lands on it. *)
let poison ?(what = "write") t exn =
  t.closed <- true;
  match exn with
  | Unix.Unix_error (e, _, _) -> fail "%s failed: %s" what (Unix.error_message e)
  | _ -> raise exn

(* Zero-fill the file from its physical end to the first extent
   boundary at or past [need], sync the fill once, and return to the
   logical end.  The [journal_grow] failpoint fires half-way through
   the fill. *)
let grow t need =
  let target = (need + extent - 1) / extent * extent in
  let fill upto =
    while t.physical < upto do
      let n = min (String.length zeros) (upto - t.physical) in
      Atomic_file.write_all t.fd zeros 0 n;
      t.physical <- t.physical + n
    done
  in
  match
    ignore (Unix.lseek t.fd t.physical Unix.SEEK_SET);
    fill (t.physical + ((target - t.physical) / 2));
    Failpoint.hit "journal_grow";
    fill target;
    if t.sync then Atomic_file.fsync t.fd;
    ignore (Unix.lseek t.fd t.logical Unix.SEEK_SET)
  with
  | () -> ()
  | exception exn -> poison t exn

let append ?(defer_sync = false) t e =
  if t.closed then fail "journal %s is closed" t.jpath;
  Xic_obs.Obs.Metrics.incr c_appends;
  let payload = entry_payload e in
  let lenb = Bytes.create 4 in
  Bytes.set_int32_be lenb 0 (Int32.of_int (String.length payload));
  let record = Bytes.to_string lenb ^ payload ^ Digest.string payload in
  let rlen = String.length record in
  (* Keep a whole zero length prefix past the record, so a crashed file
     never ends in a partial one. *)
  if t.logical + rlen + 4 > t.physical then grow t (t.logical + rlen + 4);
  (* Two half-writes so the [mid_write] failpoint leaves a torn record;
     each half is mediated by [journal_write] (torn-write / EIO
     injection with bounded retry). *)
  let guarded_write s off len =
    match Atomic_file.write_all ~fp:"journal_write" t.fd s off len with
    | () -> ()
    | exception exn -> poison t exn
  in
  let half = rlen / 2 in
  guarded_write record 0 half;
  (match Failpoint.hit "mid_write" with
   | () -> ()
   | exception exn -> poison t exn);
  guarded_write record half (rlen - half);
  t.logical <- t.logical + rlen;
  (if t.sync && not defer_sync then
     match Atomic_file.fsync ~fp:"journal_fsync" t.fd with
     | () -> Xic_obs.Obs.Metrics.incr c_fsyncs
     | exception exn -> poison ~what:"fsync" t exn);
  t.entries_written <- t.entries_written + 1;
  if txn_of e >= t.next then t.next <- txn_of e + 1

(* Atomically replace the journal with a fresh one of the next
   generation.  Reset-by-rename rather than ftruncate: a crash between
   truncating and rewriting the header would leave an unreadable file,
   whereas rename leaves either the old journal (whose entries the
   snapshot watermark skips) or the new empty one.  The new file's fd
   stays valid across the rename (same inode), so the handle simply
   swaps over. *)
let reset t =
  if t.closed then fail "journal %s is closed" t.jpath;
  Failpoint.hit "journal_reset";
  let gen' = t.gen + 1 in
  let dir = Filename.dirname t.jpath in
  let tmp =
    try Filename.temp_file ~temp_dir:dir (Filename.basename t.jpath ^ ".") ".tmp"
    with Sys_error m -> fail "cannot create temp file in %s: %s" dir m
  in
  let fd' =
    try Unix.openfile tmp [ Unix.O_RDWR; Unix.O_TRUNC ] 0o644
    with Unix.Unix_error (e, _, _) -> fail "%s: %s" tmp (Unix.error_message e)
  in
  (try
     let h = fresh_header gen' in
     Atomic_file.write_all fd' h 0 (String.length h);
     if t.sync then Atomic_file.fsync fd';
     Unix.chmod tmp 0o644
   with
   | Unix.Unix_error (e, _, _) ->
     (try Unix.close fd' with Unix.Unix_error _ -> ());
     (try Sys.remove tmp with Sys_error _ -> ());
     fail "%s: %s" tmp (Unix.error_message e)
   | exn ->
     (try Unix.close fd' with Unix.Unix_error _ -> ());
     (try Sys.remove tmp with Sys_error _ -> ());
     raise exn);
  (match Failpoint.hit "journal_reset_rename" with
   | () -> ()
   | exception exn ->
     (try Unix.close fd' with Unix.Unix_error _ -> ());
     (try Sys.remove tmp with Sys_error _ -> ());
     raise exn);
  (try Atomic_file.with_retries (fun () -> Unix.rename tmp t.jpath)
   with Unix.Unix_error (e, _, _) ->
     (try Unix.close fd' with Unix.Unix_error _ -> ());
     (try Sys.remove tmp with Sys_error _ -> ());
     fail "rename %s -> %s: %s" tmp t.jpath (Unix.error_message e));
  if t.sync then Atomic_file.fsync_dir dir;
  (try Unix.close t.fd with Unix.Unix_error _ -> ());
  t.fd <- fd';
  t.gen <- gen';
  t.entries_written <- 0;
  t.logical <- header_len + gen_len;
  t.physical <- t.logical;
  Xic_obs.Obs.Metrics.incr c_resets

(* Trim the zero tail, so a cleanly closed journal holds exactly its
   records. *)
let close t =
  if not t.closed then begin
    t.closed <- true;
    let failed e = fail "close failed: %s" (Unix.error_message e) in
    match if t.physical > t.logical then Unix.ftruncate t.fd t.logical with
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close t.fd with Unix.Unix_error _ -> ());
      failed e
    | () -> ( try Unix.close t.fd with Unix.Unix_error (e, _, _) -> failed e)
  end

(* ------------------------------------------------------------------ *)
(* Replay grouping                                                     *)
(* ------------------------------------------------------------------ *)

let committed entries =
  let intents : (int, entry list) Hashtbl.t = Hashtbl.create 8 in  (* reverse order *)
  let aborted = Hashtbl.create 8 in
  let commits = ref [] in
  let rec drop k l =
    if k <= 0 then l else match l with [] -> [] | _ :: tl -> drop (k - 1) tl
  in
  List.iter
    (fun e ->
      match e with
      | Intent { txn; _ } ->
        Hashtbl.replace intents txn (e :: (try Hashtbl.find intents txn with Not_found -> []))
      | Truncate { txn; keep } ->
        let cur = try Hashtbl.find intents txn with Not_found -> [] in
        Hashtbl.replace intents txn (drop (List.length cur - keep) cur)
      | Abort { txn } -> Hashtbl.replace aborted txn ()
      | Commit { txn } -> if not (List.mem txn !commits) then commits := txn :: !commits)
    entries;
  List.rev !commits
  |> List.filter (fun txn -> not (Hashtbl.mem aborted txn))
  |> List.map (fun txn ->
         (txn, List.rev (try Hashtbl.find intents txn with Not_found -> [])))

(* The [Intent] envelope (seq, strategy) only matters while the journal
   is being written; replay needs just the statement strings. *)
let committed_payloads entries =
  List.map
    (fun (txn, intents) ->
      ( txn,
        List.filter_map
          (function Intent { payload; _ } -> Some payload | _ -> None)
          intents ))
    (committed entries)
