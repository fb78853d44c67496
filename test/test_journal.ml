(* Durability: write-ahead journal, fault injection, crash recovery,
   transactions, and evaluation budgets. *)

open Xic_core
module Conf = Xic_workload.Conference
module XU = Xic_xupdate.Xupdate
module J = Xic_journal.Journal
module FP = Xic_journal.Failpoint

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* Journal files live in a shared temp directory removed at exit (CI
   runs these binaries from the repo root, not only dune's sandbox). *)
let fresh_path () = Test_tmp.fresh "test_journal" ".j"

let schema = lazy (Conf.schema ())

let pub_doc =
  {|<dblp><pub><title>Joint</title><aut><name>Carl</name></aut><aut><name>Nora</name></aut></pub><pub><title>Solo</title><aut><name>Ann</name></aut></pub></dblp>|}

let rev_doc =
  {|<review><track><name>DB</name><rev><name>Carl</name><sub><title>S1</title><auts><name>Ann</name></auts></sub></rev><rev><name>Rita</name><sub><title>S2</title><auts><name>Bob</name></auts></sub></rev></track></review>|}

let make_repo () =
  let s = Lazy.force schema in
  let repo = Repository.create s in
  Repository.load_fused repo pub_doc;
  Repository.load_fused repo rev_doc;
  Repository.add_constraint repo (Conf.conflict s);
  Repository.register_pattern repo (Conf.submission_pattern s);
  repo

let snapshot repo = Xic_xml.Xml_printer.to_string (Repository.doc repo)

let legal_update ?(title = "Ok") ?(author = "Zoe") () =
  Conf.insert_submission ~select:"/review/track[1]/rev[1]/sub[1]" ~title ~author

let illegal_update () =
  legal_update ~title:"Bad" ~author:"Carl" ()

(* An update matching no registered pattern, exercising the full-check
   fallback (and its journal records). *)
let unmatched_update author =
  [ { XU.op = XU.Append;
      select = Xic_xpath.Parser.parse "/review/track[1]/rev[1]";
      content =
        [ XU.Elem ("sub", [],
             [ XU.Elem ("title", [], [ XU.Text "App" ]);
               XU.Elem ("auts", [], [ XU.Elem ("name", [], [ XU.Text author ]) ]) ]) ];
    } ]

let guard_report repo u =
  match Repository.guarded_batch repo [ u ] with
  | [ r ] -> r
  | _ -> Alcotest.fail "one statement, one report"

let stmt tx u = (Repository.txn_apply tx u).Repository.outcome

let recover_fresh path =
  let repo = make_repo () in
  let report = Repository.recover (J.read path) repo in
  (repo, report)

(* ------------------------------------------------------------------ *)
(* Journal file format                                                 *)
(* ------------------------------------------------------------------ *)

let test_journal_roundtrip () =
  let p = fresh_path () in
  let j = J.open_ ~sync:false p in
  let t1 = J.next_txn j in
  let t2 = J.next_txn j in
  let entries =
    [ J.Intent { txn = t1; seq = 0; strategy = "optimized"; payload = "<u>one</u>" };
      J.Commit { txn = t1 };
      J.Intent { txn = t2; seq = 0; strategy = "full_check"; payload = "line1\nline2" };
      J.Abort { txn = t2 } ]
  in
  List.iter (J.append j) entries;
  J.close j;
  let rr = J.read p in
  checkb "clean tail" true (rr.J.tail = J.Clean);
  checkb "entries survive the round trip" true (rr.J.entries = entries);
  (* only t1 committed; multi-line payloads intact *)
  (match J.committed rr.J.entries with
   | [ (txn, [ J.Intent { payload; _ } ]) ] ->
     checki "committed txn" t1 txn;
     checks "payload" "<u>one</u>" payload
   | _ -> Alcotest.fail "expected exactly the committed transaction")

let test_journal_torn_tail () =
  let p = fresh_path () in
  let j = J.open_ p in
  J.append j (J.Intent { txn = 1; seq = 0; strategy = "optimized"; payload = "ok" });
  J.append j (J.Commit { txn = 1 });
  J.close j;
  (* simulate a crash mid-record: garbage half-record at the tail *)
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 p in
  output_string oc "\000\000\000\042torn";
  close_out oc;
  let rr = J.read p in
  checkb "torn tail detected" true (rr.J.tail <> J.Clean);
  checki "valid prefix kept" 2 (List.length rr.J.entries);
  (* reopening truncates the tail so appends land on a valid prefix *)
  let j = J.open_ p in
  checki "next txn past journaled ids" 2 (J.next_txn j);
  J.append j (J.Commit { txn = 5 });
  J.close j;
  let rr = J.read p in
  checkb "clean after reopen + append" true (rr.J.tail = J.Clean);
  checki "three records" 3 (List.length rr.J.entries)

let read_bin path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  really_input_string ic (in_channel_length ic)

let write_bin path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* "XICJ2\n" + 8-byte generation *)
let header_len = 14

(* Byte offset just past record [i] (records are
   [4-byte BE length | payload | 16-byte MD5]). *)
let record_end file i =
  let pos = ref header_len in
  for _ = 0 to i do
    let b k = Char.code file.[!pos + k] in
    let len = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
    pos := !pos + 4 + len + 16
  done;
  !pos

(* Cut the journal at EVERY byte offset inside the last record: each
   truncation must classify as a torn tail and keep exactly the intact
   prefix — no cut point may corrupt recovery. *)
let test_torn_at_every_byte_offset () =
  let p = fresh_path () in
  let j = J.open_ ~sync:false p in
  J.append j
    (J.Intent { txn = 1; seq = 0; strategy = "optimized"; payload = "payload-one" });
  J.append j (J.Commit { txn = 1 });
  J.close j;
  let full = read_bin p in
  let n = String.length full in
  let rec1_end = record_end full 0 in
  checki "two records span the file" n (record_end full 1);
  let cut_path = fresh_path () in
  for cut = header_len to n - 1 do
    write_bin cut_path (String.sub full 0 cut);
    let rr = J.read cut_path in
    let expect_entries, prefix_end =
      if cut >= rec1_end then (1, rec1_end) else (0, header_len)
    in
    checki
      (Printf.sprintf "cut at %d keeps the intact prefix" cut)
      expect_entries
      (List.length rr.J.entries);
    match rr.J.tail with
    | J.Clean ->
      checkb (Printf.sprintf "cut at %d clean only on a boundary" cut) true
        (cut = prefix_end)
    | J.Torn { dropped } ->
      checki (Printf.sprintf "cut at %d dropped bytes" cut) (cut - prefix_end)
        dropped
    | J.Corrupt _ ->
      Alcotest.fail
        (Printf.sprintf "cut at %d: truncation must never read as corruption"
           cut)
  done;
  (* reopening any truncation for append still works: the torn suffix is
     discarded and fresh records land on the valid prefix *)
  write_bin cut_path (String.sub full 0 (n - 3));
  let j = J.open_ cut_path in
  J.append j (J.Commit { txn = 9 });
  J.close j;
  let rr = J.read cut_path in
  checkb "clean after reopen" true (rr.J.tail = J.Clean);
  checki "prefix + fresh record" 2 (List.length rr.J.entries)

(* A full-length record failing its checksum in the MIDDLE of the file:
   record 2 of three (intent, intent, commit) has a payload byte
   flipped.  Returns the path, the intact bytes and the offset of the
   bad record. *)
let corrupt_mid_journal () =
  let p = fresh_path () in
  let j = J.open_ ~sync:false p in
  J.append j
    (J.Intent { txn = 1; seq = 0; strategy = "optimized"; payload = "first" });
  J.append j
    (J.Intent { txn = 1; seq = 1; strategy = "optimized"; payload = "second" });
  J.append j (J.Commit { txn = 1 });
  J.close j;
  let full = read_bin p in
  let rec1_end = record_end full 0 in
  let b = Bytes.of_string full in
  let i = rec1_end + 5 in
  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
  write_bin p (Bytes.to_string b);
  (p, full, rec1_end)

(* Such a record is not a crash artifact: it must classify as Corrupt
   (so `xicheck recover` can exit 4), still replaying the valid prefix. *)
let test_corrupt_mid_record () =
  let p, full, rec1_end = corrupt_mid_journal () in
  let rr = J.read p in
  checki "valid prefix kept" 1 (List.length rr.J.entries);
  match rr.J.tail with
  | J.Corrupt { dropped } ->
    checki "bad record and everything after dropped"
      (String.length full - rec1_end) dropped
  | J.Clean | J.Torn _ ->
    Alcotest.fail "mid-file checksum mismatch must classify as Corrupt"

(* Opening it for append must not truncate it at the damage: the
   committed record behind it would vanish and the file would then read
   as clean.  The open is refused, naming the bytes at stake, and the
   file stays byte-identical. *)
let test_open_refuses_corrupt () =
  let p, full, rec1_end = corrupt_mid_journal () in
  let damaged = read_bin p in
  (match J.open_ p with
   | exception J.Journal_error m ->
     checks "the error names the bytes and the way on"
       (Printf.sprintf
          "journal %s: checksum mismatch inside the journal, %d byte(s) from \
           the first corrupt record onward; refusing to append (run 'xicheck \
           recover' on it)"
          p (String.length full - rec1_end))
       m
   | j ->
     J.close j;
     Alcotest.fail "a corrupt journal must not open for append");
  checks "bytes and size unchanged" damaged (read_bin p)

let test_reset_bumps_generation () =
  let p = fresh_path () in
  let j = J.open_ p in
  checki "fresh journals start at generation 1" 1 (J.generation j);
  checki "empty" 0 (J.entry_count j);
  J.append j (J.Intent { txn = 1; seq = 0; strategy = "optimized"; payload = "x" });
  J.append j (J.Commit { txn = 1 });
  checki "two entries" 2 (J.entry_count j);
  J.reset j;
  checki "generation bumped" 2 (J.generation j);
  checki "truncated" 0 (J.entry_count j);
  (* the handle stays usable across the rename swap *)
  J.append j (J.Commit { txn = 7 });
  J.close j;
  let rr = J.read p in
  checki "read generation" 2 rr.J.generation;
  checki "only post-reset records" 1 (List.length rr.J.entries);
  (* a crash before the reset rename leaves the old journal intact *)
  let p2 = fresh_path () in
  let j2 = J.open_ p2 in
  J.append j2 (J.Commit { txn = 3 });
  FP.set ~action:FP.Raise "journal_reset_rename";
  (Fun.protect ~finally:FP.clear @@ fun () ->
   match J.reset j2 with
   | exception FP.Triggered "journal_reset_rename" -> ()
   | () -> Alcotest.fail "armed reset failpoint must fire");
  J.close j2;
  let rr = J.read p2 in
  checki "old generation survives the crashed reset" 1 rr.J.generation;
  checki "old entries survive" 1 (List.length rr.J.entries)

let test_journal_not_a_journal () =
  let p = fresh_path () in
  let oc = open_out p in
  output_string oc "<not-a-journal/>\n";
  close_out oc;
  match J.read p with
  | exception J.Journal_error _ -> ()
  | _ -> Alcotest.fail "bad header must be rejected"

let test_committed_truncate () =
  (* a compensation: a truncate record drops the suffix *)
  let i n = J.Intent { txn = 7; seq = n; strategy = "optimized"; payload = string_of_int n } in
  let entries = [ i 0; i 1; i 2; J.Truncate { txn = 7; keep = 1 }; i 3; J.Commit { txn = 7 } ] in
  match J.committed entries with
  | [ (7, [ J.Intent { payload = "0"; _ }; J.Intent { payload = "3"; _ } ]) ] -> ()
  | _ -> Alcotest.fail "truncate must drop intents past its mark"

let test_failpoint_mid_write () =
  let p = fresh_path () in
  let j = J.open_ p in
  J.append j (J.Commit { txn = 1 });
  FP.set ~action:FP.Raise "mid_write";
  Fun.protect ~finally:FP.clear @@ fun () ->
  (match J.append j (J.Commit { txn = 2 }) with
   | exception FP.Triggered "mid_write" -> ()
   | () -> Alcotest.fail "armed failpoint must fire");
  (* the handle is poisoned, the file carries a torn tail *)
  FP.clear ();
  (match J.append j (J.Commit { txn = 3 }) with
   | exception J.Journal_error _ -> ()
   | () -> Alcotest.fail "append on a torn journal must be refused");
  let rr = J.read p in
  checkb "torn" true (rr.J.tail <> J.Clean);
  checki "only the first record" 1 (List.length rr.J.entries)

(* An fsync that fails with EIO may have dropped the dirty pages it was
   flushing; a later fsync succeeding would claim durability for them.
   The failed fsync poisons the handle like a failed write. *)
let test_failed_fsync_poisons () =
  let p = fresh_path () in
  let j = J.open_ p in
  J.append j (J.Commit { txn = 1 });
  FP.set ~action:(FP.Eio { failures = 1 }) "journal_fsync";
  Fun.protect ~finally:FP.clear @@ fun () ->
  (match J.append j (J.Commit { txn = 2 }) with
   | exception J.Journal_error _ -> ()
   | () -> Alcotest.fail "the injected fsync EIO must surface");
  (match J.append j (J.Commit { txn = 3 }) with
   | exception J.Journal_error m ->
     checkb "refused as closed" true
       (let n = String.length m in n >= 6 && String.sub m (n - 6) 6 = "closed")
   | () -> Alcotest.fail "append after a failed fsync must be refused");
  (try J.close j with J.Journal_error _ -> ())

(* With tracing on, a firing failpoint leaves a zero-duration span event
   named after it, so fault-injection runs are visible in the trace. *)
let test_failpoint_records_span_event () =
  let module Obs = Xic_obs.Obs in
  Obs.Trace.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.set_enabled false;
      Obs.Trace.reset ())
  @@ fun () ->
  Obs.Trace.reset ();
  let p = fresh_path () in
  let j = J.open_ p in
  FP.set ~action:FP.Raise "mid_write";
  (Fun.protect ~finally:FP.clear @@ fun () ->
   Obs.Trace.with_span "test" (fun () ->
       match J.append j (J.Commit { txn = 1 }) with
       | exception FP.Triggered "mid_write" -> ()
       | () -> Alcotest.fail "armed failpoint must fire"));
  let rec has name (sp : Obs.Trace.span) =
    sp.Obs.Trace.name = name || List.exists (has name) sp.Obs.Trace.children
  in
  checkb "failpoint:mid_write event in trace" true
    (List.exists (has "failpoint:mid_write") (Obs.Trace.roots ()))

(* ------------------------------------------------------------------ *)
(* Preallocated extents                                                *)
(* ------------------------------------------------------------------ *)

let intent txn payload = J.Intent { txn; seq = 0; strategy = "optimized"; payload }

(* The file as a crash would leave it: the open handle's bytes,
   untrimmed, copied aside. *)
let crashed_copy j =
  let p = fresh_path () in
  write_bin p (read_bin (J.path j));
  p

let file_size p = (Unix.stat p).Unix.st_size

let last_digest_byte file rec_end = Char.code file.[rec_end - 1]

(* Cut the last record at every offset and zero the rest of the extent,
   as an append into preallocated space leaves it: every cut is torn
   and the committed prefix replays.  A cut that keeps only zero bytes
   of the record (the high bytes of its length prefix) is byte-identical
   to no write at all and reads as the clean end of the log. *)
let test_torn_into_zero_extent () =
  let p = fresh_path () in
  let j = J.open_ ~sync:false p in
  J.append j (intent 1 "first");
  J.append j (J.Commit { txn = 1 });
  J.append j (intent 2 "in flight");
  let full = read_bin p in
  checki "the file is one extent" J.extent (String.length full);
  let prefix_end = record_end full 1 and last_end = record_end full 2 in
  checki "bytes is the logical end" last_end (J.bytes j);
  checkb "the last record's digest does not end in zero" true
    (last_digest_byte full last_end <> 0);
  let cut_path = fresh_path () in
  for cut = prefix_end to last_end - 1 do
    write_bin cut_path
      (String.sub full 0 cut ^ String.make (J.extent - cut) '\000');
    let rr = J.read cut_path in
    let ctx = Printf.sprintf "cut at %d" cut in
    checki (ctx ^ ": the prefix is kept") 2 (List.length rr.J.entries);
    (match J.committed_payloads rr.J.entries with
     | [ (1, [ "first" ]) ] -> ()
     | _ -> Alcotest.fail (ctx ^ ": the committed prefix must replay"));
    let only_zeros =
      String.for_all (( = ) '\000') (String.sub full prefix_end (cut - prefix_end))
    in
    match rr.J.tail with
    | J.Torn { dropped } ->
      checki (ctx ^ ": dropped to the physical end") (J.extent - prefix_end)
        dropped
    | J.Clean ->
      checkb (ctx ^ ": clean only when nothing non-zero was written") true
        only_zeros
    | J.Corrupt _ -> Alcotest.fail (ctx ^ ": a cut must never read as corruption")
  done;
  J.close j

(* A full-length final record failing its checksum, followed by the
   zero tail: its last byte is not zero, so it is bit rot, not a torn
   append. *)
let test_corrupt_before_zero_tail () =
  let p = fresh_path () in
  let j = J.open_ ~sync:false p in
  J.append j (intent 1 "first");
  J.append j (J.Commit { txn = 1 });
  let full = read_bin p in
  J.close j;
  let rec1_end = record_end full 0 and last_end = record_end full 1 in
  checkb "the last record's digest does not end in zero" true
    (last_digest_byte full last_end <> 0);
  let b = Bytes.of_string full in
  let mid = (rec1_end + last_end) / 2 in
  Bytes.set b mid (Char.chr (Char.code (Bytes.get b mid) lxor 0x10));
  let rot = fresh_path () in
  write_bin rot (Bytes.to_string b);
  let rr = J.read rot in
  checki "valid prefix kept" 1 (List.length rr.J.entries);
  match rr.J.tail with
  | J.Corrupt { dropped } ->
    checki "bad record and zero tail dropped" (J.extent - rec1_end) dropped
  | J.Clean | J.Torn _ ->
    Alcotest.fail "a full-length bad record before zeros must read as Corrupt"

(* A zeroed length prefix in the middle of the journal — a zeroed
   sector, or one rotted byte of a short record's length — is damage,
   not the zero tail: the committed records after it must not vanish
   as a clean end of the log.  Closed and untrimmed files alike. *)
let test_zero_length_mid_journal () =
  let j = J.open_ ~sync:false (fresh_path ()) in
  J.append j (intent 1 "first");
  J.append j (J.Commit { txn = 1 });
  J.append j (intent 2 "second");
  J.append j (J.Commit { txn = 2 });
  let untrimmed = crashed_copy j in
  let closed = J.path j in
  J.close j;
  List.iter
    (fun (what, p) ->
      let full = read_bin p in
      let rec2 = record_end full 1 in
      let b = Bytes.of_string full in
      Bytes.fill b rec2 4 '\000';
      write_bin p (Bytes.to_string b);
      let rr = J.read p in
      checkb (what ^ ": the prefix is kept") true
        (rr.J.entries = [ intent 1 "first"; J.Commit { txn = 1 } ]);
      match rr.J.tail with
      | J.Corrupt { dropped } ->
        checki (what ^ ": the damaged record and everything after dropped")
          (String.length full - rec2) dropped
      | J.Clean | J.Torn _ ->
        Alcotest.fail (what ^ ": a zero length before live records must read as Corrupt"))
    [ ("closed", closed); ("untrimmed", untrimmed) ]

(* Records that cross an extent boundary grow the file by a whole
   extent and read back intact, untrimmed or closed. *)
let test_record_straddles_extent () =
  let p = fresh_path () in
  let j = J.open_ ~sync:false p in
  let payload k = String.make 100_000 (Char.chr (Char.code 'a' + k)) in
  let n = 12 in
  for k = 0 to n - 1 do
    J.append j (intent (k + 1) (payload k))
  done;
  let full = read_bin p in
  checki "grown to two extents" (2 * J.extent) (String.length full);
  checkb "some record straddles the boundary" true
    (List.exists
       (fun i -> record_end full (i - 1) < J.extent && J.extent < record_end full i)
       (List.init (n - 1) (fun i -> i + 1)));
  let check_entries what path =
    let rr = J.read path in
    checkb (what ^ ": clean") true (rr.J.tail = J.Clean);
    checkb (what ^ ": every record intact") true
      (rr.J.entries = List.init n (fun k -> intent (k + 1) (payload k)))
  in
  check_entries "untrimmed" (crashed_copy j);
  let logical = J.bytes j in
  J.close j;
  checki "closed file trimmed to the logical end" logical (file_size p);
  check_entries "closed" p

(* A crash leaves the zero tail in place: reopening truncates it and
   appends resume at the logical end. *)
let test_reopen_untrimmed () =
  let j = J.open_ ~sync:false (fresh_path ()) in
  J.append j (intent 1 "first");
  J.append j (J.Commit { txn = 1 });
  let logical = J.bytes j in
  let p = crashed_copy j in
  J.close j;
  checki "the crashed file keeps its zero tail" J.extent (file_size p);
  let rr = J.read p in
  checkb "a zero tail reads clean" true (rr.J.tail = J.Clean);
  let j = J.open_ p in
  checki "appends resume at the logical end" logical (J.bytes j);
  checki "next txn past journaled ids" 2 (J.next_txn j);
  J.append j (J.Commit { txn = 2 });
  J.close j;
  let rr = J.read p in
  checkb "clean" true (rr.J.tail = J.Clean);
  checkb "prefix + fresh record" true
    (rr.J.entries = [ intent 1 "first"; J.Commit { txn = 1 }; J.Commit { txn = 2 } ])

(* The header and the records, laid out by hand: what the journal
   writes without preallocation. *)
let unallocated_image gen payloads =
  let b = Buffer.create 256 in
  Buffer.add_string b "XICJ2\n";
  Buffer.add_int64_be b (Int64.of_int gen);
  List.iter
    (fun payload ->
      Buffer.add_int32_be b (Int32.of_int (String.length payload));
      Buffer.add_string b payload;
      Buffer.add_string b (Digest.string payload))
    payloads;
  Buffer.contents b

let test_close_trims () =
  let p = fresh_path () in
  let j = J.open_ p in
  J.append ~defer_sync:true j (intent 1 "<u>one</u>");
  J.append j (J.Commit { txn = 1 });
  J.append j (J.Abort { txn = 2 });
  checki "preallocated while open" J.extent (file_size p);
  let logical = J.bytes j in
  J.close j;
  checki "size = bytes after close" logical (file_size p);
  checks "byte-identical to the unallocated layout"
    (unallocated_image 1
       [ "intent 1 0 optimized\n<u>one</u>"; "commit 1"; "abort 2" ])
    (read_bin p)

(* A reset in the middle of an extent starts an unallocated file; the
   next append grows it afresh. *)
let test_reset_mid_extent () =
  let p = fresh_path () in
  let j = J.open_ p in
  J.append j (intent 1 "first");
  J.append j (J.Commit { txn = 1 });
  J.reset j;
  checki "reset file holds only the header" header_len (file_size p);
  checki "bytes after reset" header_len (J.bytes j);
  J.append j (J.Commit { txn = 5 });
  checki "the next append grows one extent" J.extent (file_size p);
  let logical = J.bytes j in
  J.close j;
  checks "closed file is the header and the new record"
    (unallocated_image 2 [ "commit 5" ])
    (read_bin p);
  checki "size = bytes" logical (file_size p)

(* A crash half-way through a zero fill loses nothing committed: the
   half-filled tail is zeros, which read as the clean end of the log. *)
let test_crash_mid_grow () =
  let p = fresh_path () in
  let j = J.open_ p in
  J.append j (intent 1 "first");
  J.append j (J.Commit { txn = 1 });
  J.close j;
  let j = J.open_ p in
  FP.set ~action:FP.Raise "journal_grow";
  (Fun.protect ~finally:FP.clear @@ fun () ->
   match J.append j (J.Commit { txn = 2 }) with
   | exception FP.Triggered "journal_grow" -> ()
   | () -> Alcotest.fail "armed grow failpoint must fire");
  (match J.append j (J.Commit { txn = 3 }) with
   | exception J.Journal_error _ -> ()
   | () -> Alcotest.fail "append after a failed grow must be refused");
  J.close j;
  checkb "the fill stopped half-way" true
    (file_size p > header_len && file_size p < J.extent);
  let rr = J.read p in
  checkb "clean" true (rr.J.tail = J.Clean);
  checkb "the committed prefix survives" true
    (rr.J.entries = [ intent 1 "first"; J.Commit { txn = 1 } ])

(* ------------------------------------------------------------------ *)
(* Crash recovery properties                                           *)
(* ------------------------------------------------------------------ *)

(* For every named crash point, recovery from the journal must yield the
   pre-update state (the commit record never made it) with constraints
   intact — never a torn or half-applied document. *)
let test_crash_before_commit_recovers_pre_state () =
  List.iter
    (fun fp ->
      let p = fresh_path () in
      let repo = make_repo () in
      let before = snapshot repo in
      let j = J.open_ p in
      FP.set ~action:FP.Raise fp;
      (Fun.protect ~finally:FP.clear @@ fun () ->
       match Repository.guarded_update ~journal:j repo (legal_update ()) with
       | exception FP.Triggered _ -> ()
       | _ -> Alcotest.fail (fp ^ ": armed failpoint must fire"));
      (try J.close j with J.Journal_error _ -> ());
      let recovered, report = recover_fresh p in
      checks (fp ^ ": pre-update state") before (snapshot recovered);
      checki (fp ^ ": nothing replayed") 0 report.Repository.replayed_txns;
      checkb (fp ^ ": in-flight txn discarded") true
        (report.Repository.discarded_txns <= 1);
      Alcotest.(check (list string)) (fp ^ ": consistent") []
        report.Repository.post_violations)
    [ "before_apply"; "after_apply"; "before_commit"; "mid_write" ]

let test_committed_update_recovers_post_state () =
  let p = fresh_path () in
  let repo = make_repo () in
  let j = J.open_ p in
  (match Repository.guarded_update ~journal:j repo (legal_update ()) with
   | Repository.Applied `Optimized -> ()
   | _ -> Alcotest.fail "legal update must apply via the optimized path");
  let after = snapshot repo in
  J.close j;
  let recovered, report = recover_fresh p in
  checks "post-update state" after (snapshot recovered);
  checki "one txn" 1 report.Repository.replayed_txns;
  checki "one statement" 1 report.Repository.replayed_statements;
  checkb "clean tail" true (report.Repository.tail = J.Clean);
  Alcotest.(check (list string)) "consistent" [] report.Repository.post_violations

let test_refused_updates_leave_no_committed_trace () =
  let p = fresh_path () in
  let repo = make_repo () in
  let before = snapshot repo in
  let j = J.open_ p in
  (* rejected before execution: no records at all *)
  (match Repository.guarded_update ~journal:j repo (illegal_update ()) with
   | Repository.Rejected_early "conflict" -> ()
   | _ -> Alcotest.fail "self-review must be rejected early");
  (* executed, violating, compensated: intent + truncate + abort *)
  (match Repository.guarded_update ~journal:j repo (unmatched_update "Carl") with
   | Repository.Rolled_back "conflict" -> ()
   | _ -> Alcotest.fail "violating fallback must be rolled back");
  J.close j;
  checks "repository unchanged" before (snapshot repo);
  let recovered, report = recover_fresh p in
  checks "recovery yields the base state" before (snapshot recovered);
  checki "nothing replayed" 0 report.Repository.replayed_txns

(* A guard call whose statements are all compensated closes with an
   abort record, not an empty commit: recovery counts it as discarded. *)
let test_all_compensated_batch_aborts () =
  let p = fresh_path () in
  let repo = make_repo () in
  let before = snapshot repo in
  let j = J.open_ p in
  (match
     Repository.guarded_batch ~journal:j repo
       [ unmatched_update "Carl"; unmatched_update "Carl" ]
   with
   | [ { Repository.outcome = Repository.Rolled_back "conflict"; _ };
       { Repository.outcome = Repository.Rolled_back "conflict"; _ } ] -> ()
   | _ -> Alcotest.fail "both statements must be compensated");
  J.close j;
  let rr = J.read p in
  (match List.rev rr.J.entries with
   | J.Abort _ :: _ -> ()
   | _ -> Alcotest.fail "the batch must close with an abort record");
  checkb "no commit record" false
    (List.exists (function J.Commit _ -> true | _ -> false) rr.J.entries);
  checki "no generation" 0 (Repository.generation repo);
  let recovered, report = recover_fresh p in
  checks "base state" before (snapshot recovered);
  checki "nothing replayed" 0 report.Repository.replayed_txns;
  checki "the batch is discarded" 1 report.Repository.discarded_txns

(* Recovery advances the generation exactly as the live writer did: a
   committed transaction whose statements were all compensated makes no
   generation on either side. *)
let test_recovered_generation_matches_live () =
  let p = fresh_path () in
  let repo = make_repo () in
  let j = J.open_ p in
  ignore (Repository.guarded_batch ~journal:j repo [ unmatched_update "Carl" ]);
  let tx = Repository.begin_txn ~journal:j repo in
  (match stmt tx (unmatched_update "Carl") with
   | Repository.Rolled_back "conflict" -> ()
   | _ -> Alcotest.fail "violating statement must be compensated");
  Repository.commit_txn tx;
  (match Repository.guarded_update ~journal:j repo (legal_update ()) with
   | Repository.Applied _ -> ()
   | _ -> Alcotest.fail "legal update must apply");
  J.close j;
  let recovered, report = recover_fresh p in
  checks "same state" (snapshot repo) (snapshot recovered);
  checki "recovered generation = live generation" (Repository.generation repo)
    (Repository.generation recovered);
  checki "live generation" 1 (Repository.generation repo);
  Alcotest.(check (list string)) "consistent" [] report.Repository.post_violations

(* Journals written while runtime simplification was a guard strategy
   carry intents labelled "runtime_simplified"; replay ignores the label,
   so they still recover. *)
let test_runtime_simplified_intent_replays () =
  let p = fresh_path () in
  let j = J.open_ p in
  let txn = J.next_txn j in
  J.append j
    (J.Intent
       { txn; seq = 0; strategy = "runtime_simplified";
         payload = XU.to_string (legal_update ()) });
  J.append j (J.Commit { txn });
  J.close j;
  let live = make_repo () in
  (match Repository.guarded_update live (legal_update ()) with
   | Repository.Applied _ -> ()
   | _ -> Alcotest.fail "legal update must apply");
  let recovered, report = recover_fresh p in
  checki "replayed" 1 report.Repository.replayed_statements;
  Alcotest.(check (list (pair int string))) "no replay error" []
    report.Repository.replay_errors;
  checks "same state as a live guard" (snapshot live) (snapshot recovered);
  checki "generation" 1 (Repository.generation recovered)

(* ------------------------------------------------------------------ *)
(* Transactions                                                        *)
(* ------------------------------------------------------------------ *)

(* A compensated statement between two that stand: its intent is cut by
   a truncate record, and the statement after it takes its sequence
   number. *)
let test_txn_commit_and_recover () =
  let p = fresh_path () in
  let repo = make_repo () in
  let j = J.open_ p in
  let tx = Repository.begin_txn ~journal:j repo in
  (match stmt tx (legal_update ~title:"A" ~author:"Zoe" ()) with
   | Repository.Applied _ -> ()
   | _ -> Alcotest.fail "statement 1 must apply");
  (match stmt tx (unmatched_update "Carl") with
   | Repository.Rolled_back "conflict" -> ()
   | _ -> Alcotest.fail "statement 2 must be compensated");
  checki "statement 2 undone" 1 (Repository.txn_statements tx);
  (match stmt tx (legal_update ~title:"C" ~author:"Ada" ()) with
   | Repository.Applied _ -> ()
   | _ -> Alcotest.fail "statement 3 must apply");
  Repository.commit_txn tx;
  let after = snapshot repo in
  J.close j;
  checkb "statement 2 was rolled back" false
    (let doc = Repository.doc repo in
     Xic_xpath.Eval.select doc (Xic_xpath.Parser.parse "//sub/title") |> List.exists
       (fun n -> Xic_xml.Doc.text_content doc n = "App"));
  checkb "the journal holds a truncate record" true
    (List.exists
       (function J.Truncate { keep = 1; _ } -> true | _ -> false)
       (J.read p).J.entries);
  let recovered, report = recover_fresh p in
  checks "replay equals the committed state" after (snapshot recovered);
  checki "one txn, two effective statements" 2 report.Repository.replayed_statements;
  Alcotest.(check (list string)) "consistent" [] report.Repository.post_violations

let test_txn_statement_violation_keeps_txn_open () =
  let p = fresh_path () in
  let repo = make_repo () in
  let j = J.open_ p in
  let tx = Repository.begin_txn ~journal:j repo in
  (match stmt tx (legal_update ()) with
   | Repository.Applied _ -> ()
   | _ -> Alcotest.fail "legal statement must apply");
  (* a violating full-check statement is compensated individually *)
  (match stmt tx (unmatched_update "Carl") with
   | Repository.Rolled_back "conflict" -> ()
   | _ -> Alcotest.fail "violating statement must be rolled back");
  checki "only the legal statement counted" 1 (Repository.txn_statements tx);
  Repository.commit_txn tx;
  let after = snapshot repo in
  J.close j;
  let recovered, _ = recover_fresh p in
  checks "replay skips the compensated statement" after (snapshot recovered)

let test_txn_rollback () =
  let p = fresh_path () in
  let repo = make_repo () in
  let before = snapshot repo in
  let j = J.open_ p in
  let tx = Repository.begin_txn ~journal:j repo in
  ignore (Repository.txn_apply tx (legal_update ~title:"A" ~author:"Zoe" ()));
  ignore (Repository.txn_apply tx (legal_update ~title:"B" ~author:"Max" ()));
  Repository.rollback_txn tx;
  J.close j;
  checks "rollback restores the document" before (snapshot repo);
  (match stmt tx (legal_update ()) with
   | exception Repository.Repository_error _ -> ()
   | _ -> Alcotest.fail "closed transaction must refuse statements");
  let recovered, report = recover_fresh p in
  checks "aborted txn is not replayed" before (snapshot recovered);
  checki "discarded" 1 report.Repository.discarded_txns

(* Every transaction group-commits: the intents of a journaled
   three-statement transaction ride on its commit record's fsync. *)
let test_txn_syncs_once () =
  let p = fresh_path () in
  let repo = make_repo () in
  let j = J.open_ p in
  let fsyncs = Xic_obs.Obs.Metrics.counter "journal_fsyncs" in
  let before = Xic_obs.Obs.Metrics.value fsyncs in
  let tx = Repository.begin_txn ~journal:j repo in
  List.iter
    (fun (title, author) ->
      match stmt tx (legal_update ~title ~author ()) with
      | Repository.Applied _ -> ()
      | _ -> Alcotest.fail "legal statement must apply")
    [ ("A", "Zoe"); ("B", "Max"); ("C", "Ada") ];
  Repository.commit_txn tx;
  checki "one fsync, at the commit record" 1
    (Xic_obs.Obs.Metrics.value fsyncs - before);
  J.close j;
  let _, report = recover_fresh p in
  checki "all three statements replay" 3 report.Repository.replayed_statements

(* ------------------------------------------------------------------ *)
(* Evaluation budgets and graceful degradation                         *)
(* ------------------------------------------------------------------ *)

let test_budget_exceeded_raises () =
  let repo = make_repo () in
  let q = (List.hd (Repository.constraints repo)).Constr.xquery in
  (match
     Xic_xquery.Eval.with_budget ~steps:1 (fun () ->
         Xic_xquery.Eval.eval_bool (Repository.doc repo) q)
   with
   | exception Xic_xpath.Eval.Budget_exceeded -> ()
   | _ -> Alcotest.fail "one step cannot evaluate a full constraint");
  (* generous budgets do not change results; the budget is scoped *)
  checkb "result under ample budget" false
    (Xic_xquery.Eval.with_budget ~steps:1_000_000 (fun () ->
         Xic_xquery.Eval.eval_bool (Repository.doc repo) q));
  checkb "no budget left installed" false
    (match Xic_xquery.Eval.eval_bool (Repository.doc repo) q with
     | b -> b
     | exception Xic_xpath.Eval.Budget_exceeded ->
       Alcotest.fail "budget must be uninstalled outside with_budget")

let test_budget_datalog () =
  let repo = make_repo () in
  let s = Repository.store repo in
  let d = List.hd (List.hd (Repository.constraints repo)).Constr.datalog in
  (match
     Xic_datalog.Eval.with_budget ~steps:1 (fun () -> Xic_datalog.Eval.violated s d)
   with
   | exception Xic_datalog.Eval.Budget_exceeded -> ()
   | _ -> Alcotest.fail "one step cannot evaluate a denial");
  checkb "ample budget" false
    (Xic_datalog.Eval.with_budget ~steps:1_000_000 (fun () ->
         Xic_datalog.Eval.violated s d))

let test_exhausted_budget_degrades_to_full_check () =
  let repo = make_repo () in
  Repository.set_eval_budget repo (Some 1);
  (* the optimized pre-check cannot finish in one step: the update must
     still be applied — via the full check — and the report must say so *)
  let report = guard_report repo (legal_update ()) in
  (match report.Repository.outcome with
   | Repository.Applied `Full_check -> ()
   | _ -> Alcotest.fail "exhausted budget must fall back to the full check");
  (match report.Repository.degradations with
   | [ { Repository.failed_check = "conflict"; reason } ] ->
     checks "reason" "step budget exhausted" reason
   | _ -> Alcotest.fail "the degradation must be reported");
  (* correctness is preserved: an illegal unmatched update is still refused *)
  let report = guard_report repo (unmatched_update "Carl") in
  (match report.Repository.outcome with
   | Repository.Rolled_back "conflict" -> ()
   | _ -> Alcotest.fail "full-check fallback must still reject violations");
  Alcotest.(check (list string)) "consistent" [] (Repository.check_full repo);
  (* with the budget lifted the optimized path is back *)
  Repository.set_eval_budget repo None;
  match Repository.guarded_update repo (legal_update ~title:"Y" ~author:"Uma" ()) with
  | Repository.Applied `Optimized -> ()
  | _ -> Alcotest.fail "no budget: optimized path again"

let test_try_check_optimized_reports_degradations () =
  let repo = make_repo () in
  let u = legal_update () in
  match Repository.match_update repo u with
  | None -> Alcotest.fail "update must match the pattern"
  | Some (p, valuation) ->
    Repository.set_eval_budget repo (Some 1);
    let violated, degs = Repository.try_check_optimized repo p valuation in
    Alcotest.(check (list string)) "no verdict" [] violated;
    checki "one degradation" 1 (List.length degs);
    Repository.set_eval_budget repo None;
    let violated, degs = Repository.try_check_optimized repo p valuation in
    Alcotest.(check (list string)) "legal" [] violated;
    checki "no degradation" 0 (List.length degs)

(* ------------------------------------------------------------------ *)
(* Statement serialization and atomicity                               *)
(* ------------------------------------------------------------------ *)

let test_xupdate_attribute_roundtrip () =
  let u =
    [ { XU.op = XU.Append;
        select = Xic_xpath.Parser.parse "/review/track[1]";
        content =
          [ XU.Elem ("rev", [ ("id", "r9"); ("note", "a<b&\"c\"") ],
               [ XU.Elem ("name", [], [ XU.Text "Eve" ]) ]) ];
      } ]
  in
  let s = XU.to_string u in
  let u' = XU.parse_string s in
  checks "serialization is a fixpoint" s (XU.to_string u');
  match u' with
  | [ { XU.content = [ XU.Elem ("rev", attrs, _) ]; _ } ] ->
    Alcotest.(check (list (pair string string)))
      "attributes survive" [ ("id", "r9"); ("note", "a<b&\"c\"") ] attrs
  | _ -> Alcotest.fail "unexpected parse"

let test_apply_is_atomic () =
  let repo = make_repo () in
  let before = snapshot repo in
  let u =
    legal_update ()
    @ [ { XU.op = XU.Remove;
          select = Xic_xpath.Parser.parse "//no-such-element";
          content = [] } ]
  in
  (match XU.apply (Repository.doc repo) u with
   | exception XU.Xupdate_error _ -> ()
   | _ -> Alcotest.fail "failing modification must raise");
  checks "prefix rolled back" before (snapshot repo)

let () =
  Alcotest.run "journal"
    [
      ( "journal file",
        [
          Alcotest.test_case "round trip" `Quick test_journal_roundtrip;
          Alcotest.test_case "torn tail" `Quick test_journal_torn_tail;
          Alcotest.test_case "torn at every byte offset" `Quick
            test_torn_at_every_byte_offset;
          Alcotest.test_case "corrupt mid-record" `Quick
            test_corrupt_mid_record;
          Alcotest.test_case "open refuses a corrupt journal" `Quick
            test_open_refuses_corrupt;
          Alcotest.test_case "reset bumps the generation" `Quick
            test_reset_bumps_generation;
          Alcotest.test_case "bad header" `Quick test_journal_not_a_journal;
          Alcotest.test_case "truncate grouping" `Quick test_committed_truncate;
          Alcotest.test_case "mid-write failpoint" `Quick test_failpoint_mid_write;
          Alcotest.test_case "failed fsync poisons" `Quick
            test_failed_fsync_poisons;
          Alcotest.test_case "failpoint traced as span event" `Quick
            test_failpoint_records_span_event;
        ] );
      ( "preallocated extents",
        [
          Alcotest.test_case "torn into a zero extent" `Quick
            test_torn_into_zero_extent;
          Alcotest.test_case "corrupt before the zero tail" `Quick
            test_corrupt_before_zero_tail;
          Alcotest.test_case "zero length inside the journal" `Quick
            test_zero_length_mid_journal;
          Alcotest.test_case "record straddles an extent" `Quick
            test_record_straddles_extent;
          Alcotest.test_case "reopen an untrimmed file" `Quick
            test_reopen_untrimmed;
          Alcotest.test_case "close trims" `Quick test_close_trims;
          Alcotest.test_case "reset mid-extent" `Quick test_reset_mid_extent;
          Alcotest.test_case "crash mid-grow" `Quick test_crash_mid_grow;
        ] );
      ( "crash recovery",
        [
          Alcotest.test_case "crash before commit" `Quick
            test_crash_before_commit_recovers_pre_state;
          Alcotest.test_case "committed survives" `Quick
            test_committed_update_recovers_post_state;
          Alcotest.test_case "refused leaves no trace" `Quick
            test_refused_updates_leave_no_committed_trace;
          Alcotest.test_case "all-compensated batch aborts" `Quick
            test_all_compensated_batch_aborts;
          Alcotest.test_case "recovered generation = live" `Quick
            test_recovered_generation_matches_live;
          Alcotest.test_case "runtime_simplified intent replays" `Quick
            test_runtime_simplified_intent_replays;
        ] );
      ( "transactions",
        [
          Alcotest.test_case "commit + compensation + recover" `Quick
            test_txn_commit_and_recover;
          Alcotest.test_case "statement violation" `Quick
            test_txn_statement_violation_keeps_txn_open;
          Alcotest.test_case "rollback" `Quick test_txn_rollback;
          Alcotest.test_case "one fsync per transaction" `Quick
            test_txn_syncs_once;
        ] );
      ( "budgets",
        [
          Alcotest.test_case "xquery budget" `Quick test_budget_exceeded_raises;
          Alcotest.test_case "datalog budget" `Quick test_budget_datalog;
          Alcotest.test_case "degrades to full check" `Quick
            test_exhausted_budget_degrades_to_full_check;
          Alcotest.test_case "try_check_optimized" `Quick
            test_try_check_optimized_reports_degradations;
        ] );
      ( "statements",
        [
          Alcotest.test_case "attribute round trip" `Quick
            test_xupdate_attribute_roundtrip;
          Alcotest.test_case "atomic apply" `Quick test_apply_is_atomic;
        ] );
    ]
