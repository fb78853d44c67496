(* Crash-consistent snapshots: round trips, cross-process symbol
   remapping, the load-error taxonomy, and atomicity of the write path
   under injected faults. *)

open Xic_core
module Conf = Xic_workload.Conference
module J = Xic_journal.Journal
module FP = Xic_journal.Failpoint
module Snap = Xic_snapshot.Snapshot
module Doc = Xic_xml.Doc
module Store = Xic_datalog.Store

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* Snapshot files live in a shared temp directory removed at exit. *)
let fresh_path () = Test_tmp.fresh "test_snapshot" ".xis"

let schema = lazy (Conf.schema ())

let pub_doc =
  {|<dblp><pub><title>Joint</title><aut><name>Carl</name></aut><aut><name>Nora</name></aut></pub><pub><title>Solo</title><aut><name>Ann</name></aut></pub></dblp>|}

let rev_doc =
  {|<review><track><name>DB</name><rev><name>Carl</name><sub><title>S1</title><auts><name>Ann</name></auts></sub></rev><rev><name>Rita</name><sub><title>S2</title><auts><name>Bob</name></auts></sub></rev></track></review>|}

(* A repository comes up as a restart does. *)
let bring_up
    ?(source = Repository.Documents (List.to_seq [ ("pub", pub_doc); ("rev", rev_doc) ]))
    journal =
  let s = Lazy.force schema in
  Repository.bring_up s source ~constraints:[ Conf.conflict s ]
    ~patterns:[ Conf.submission_pattern s ] ~journal

let make_repo () = fst (bring_up None)

let xml repo = Xic_xml.Xml_printer.to_string (Repository.doc repo)

let legal_update ?(title = "Ok") ?(author = "Zoe") () =
  Conf.insert_submission ~select:"/review/track[1]/rev[1]/sub[1]" ~title ~author

(* Cold start from a snapshot, as a resident checker does. *)
let reload path = fst (bring_up ~source:(Repository.Snapshot path) None)

let read_bin path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  really_input_string ic (in_channel_length ic)

let write_bin path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* ------------------------------------------------------------------ *)
(* Round trips                                                         *)
(* ------------------------------------------------------------------ *)

let test_roundtrip () =
  let p = fresh_path () in
  let repo = make_repo () in
  let report = Repository.checkpoint repo p in
  checkb "bytes written" true (report.Repository.snapshot_bytes > 0);
  checkb "journal not reset without one" false report.Repository.wal_reset;
  let repo2 = reload p and meta = Snap.read_meta p in
  checki "meta nodes" report.Repository.snapshot_nodes meta.Snap.nodes;
  checki "meta facts" report.Repository.snapshot_facts meta.Snap.facts;
  checki "no journal covered" 0 meta.Snap.journal_generation;
  checks "document round trip" (xml repo) (xml repo2);
  checkb "arena structure round trip" true
    (Doc.equal_structure (Repository.doc repo) (Repository.doc repo2));
  checkb "store round trip" true
    (Store.equal (Repository.store repo) (Repository.store repo2));
  Alcotest.(check (list string))
    "verdict equality" (Repository.check_full repo)
    (Repository.check_full repo2)

let test_roundtrip_after_updates () =
  let p = fresh_path () in
  let repo = make_repo () in
  (match Repository.guarded_update repo (legal_update ()) with
   | Repository.Applied _ -> ()
   | _ -> Alcotest.fail "legal update must apply");
  ignore (Repository.checkpoint repo p);
  let repo2 = reload p in
  checks "post-update state round trips" (xml repo) (xml repo2);
  (* the loaded repository is live: further guarded updates work *)
  (match
     Repository.guarded_update repo2 (legal_update ~title:"N" ~author:"Uma" ())
   with
   | Repository.Applied _ -> ()
   | _ -> Alcotest.fail "loaded repository must accept updates");
  (match
     Repository.guarded_update repo2 (legal_update ~title:"B" ~author:"Carl" ())
   with
   | Repository.Rejected_early "conflict" | Repository.Rolled_back "conflict" ->
     ()
   | _ -> Alcotest.fail "loaded repository must still enforce constraints")

let test_read_meta () =
  let p = fresh_path () in
  let repo = make_repo () in
  let report = Repository.checkpoint repo p in
  let meta = Snap.read_meta p in
  checki "nodes" report.Repository.snapshot_nodes meta.Snap.nodes;
  checkb "symbols persisted" true (meta.Snap.symbols > 0)

(* Interning order is process-local, so snapshot symbol ids generally
   differ from the loader's: a child process shifts its table with junk
   symbols before building the state, and the parent must still load
   names (not raw ids) correctly. *)
let test_symbol_remap_across_processes () =
  let p = fresh_path () in
  match Unix.fork () with
  | 0 ->
    (* child — never runs the parent's test harness code again *)
    let code =
      try
        for i = 0 to 99 do
          ignore (Xic_symbol.Symbol.intern (Printf.sprintf "junk-%d" i))
        done;
        let repo = make_repo () in
        ignore (Repository.checkpoint repo p);
        0
      with _ -> 1
    in
    Unix._exit code
  | pid ->
    let expected = xml (make_repo ()) in
    let _, status = Unix.waitpid [] pid in
    checkb "child wrote the snapshot" true (status = Unix.WEXITED 0);
    let repo2 = reload p in
    checks "names survive the id shift" expected (xml repo2);
    Alcotest.(check (list string))
      "constraints evaluate on remapped state" []
      (Repository.check_full repo2)

(* ------------------------------------------------------------------ *)
(* Error taxonomy                                                      *)
(* ------------------------------------------------------------------ *)

let load_err path =
  match Snap.load path (Doc.create ()) with
  | _ -> Alcotest.fail (path ^ ": corrupted snapshot must not load")
  | exception Snap.Snapshot_error (_, e) -> e

let test_error_taxonomy () =
  let p = fresh_path () in
  let repo = make_repo () in
  ignore (Repository.checkpoint repo p);
  let good = read_bin p in
  let n = String.length good in
  (match load_err "no_such_snapshot.xis" with
   | Snap.Missing -> ()
   | e -> Alcotest.fail ("missing file: " ^ Snap.error_message e));
  let bad_magic = fresh_path () in
  write_bin bad_magic ("XXXSNAP1\n" ^ String.sub good 9 (n - 9));
  (match load_err bad_magic with
   | Snap.Not_a_snapshot -> ()
   | e -> Alcotest.fail ("bad magic: " ^ Snap.error_message e));
  let bad_version = fresh_path () in
  let b = Bytes.of_string good in
  (* version is a zigzag varint: one byte 0x42 decodes to 33 *)
  Bytes.set b 9 '\066';
  write_bin bad_version (Bytes.to_string b);
  (match load_err bad_version with
   | Snap.Unsupported_version 33 -> ()
   | e -> Alcotest.fail ("bad version: " ^ Snap.error_message e));
  (* cutting the end marker, or any suffix, is Truncated *)
  List.iter
    (fun keep ->
      let cut = fresh_path () in
      write_bin cut (String.sub good 0 keep);
      match load_err cut with
      | Snap.Truncated _ -> ()
      | e ->
        Alcotest.fail
          (Printf.sprintf "cut at %d: %s" keep (Snap.error_message e)))
    [ n - 1; n - 17; n / 2 ];
  (* flipping a payload byte is a checksum mismatch, and the document
     must not be half-restored *)
  let flipped = fresh_path () in
  let b = Bytes.of_string good in
  let mid = n / 2 in
  Bytes.set b mid (Char.chr (Char.code (Bytes.get b mid) lxor 0xff));
  write_bin flipped (Bytes.to_string b);
  let doc = Doc.create () in
  (match Snap.load flipped doc with
   | _ -> Alcotest.fail "flipped byte must not load"
   | exception Snap.Snapshot_error (_, Snap.Checksum_mismatch _) -> ()
   | exception Snap.Snapshot_error (_, e) ->
     Alcotest.fail ("flipped byte: " ^ Snap.error_message e));
  checkb "document untouched by the failed load" false (Doc.has_root doc)

(* ------------------------------------------------------------------ *)
(* Atomicity under injected faults                                     *)
(* ------------------------------------------------------------------ *)

(* A save that dies at any failpoint — torn mid-write, before the
   rename — must leave the previous snapshot byte-identical. *)
let test_crashed_save_keeps_old_snapshot () =
  List.iter
    (fun (site, action) ->
      let p = fresh_path () in
      let repo = make_repo () in
      ignore (Repository.checkpoint repo p);
      let before = read_bin p in
      (match Repository.guarded_update repo (legal_update ()) with
       | Repository.Applied _ -> ()
       | _ -> Alcotest.fail "legal update must apply");
      FP.set ~action site;
      (Fun.protect ~finally:FP.clear @@ fun () ->
       match Repository.checkpoint repo p with
       | _ -> Alcotest.fail (site ^ ": armed failpoint must fire")
       | exception FP.Triggered _ -> ());
      checks (site ^ ": old snapshot intact") before (read_bin p);
      let repo2 = reload p in
      checkb (site ^ ": old snapshot still loads") true
        (Repository.check_full repo2 = []))
    [ ("snapshot_write", FP.Torn_write { keep = 0.5; crash = false });
      ("snapshot_fsync", FP.Raise);
      ("snapshot_rename", FP.Raise) ]

let test_short_read_is_truncated () =
  let p = fresh_path () in
  let repo = make_repo () in
  ignore (Repository.checkpoint repo p);
  FP.set ~action:(FP.Short_read { keep = 0.5 }) "snapshot_read";
  (Fun.protect ~finally:FP.clear @@ fun () ->
   match Snap.load p (Doc.create ()) with
   | _ -> Alcotest.fail "short read must not load"
   | exception Snap.Snapshot_error (_, Snap.Truncated _) -> ());
  (* the short read disarms after firing: the next load succeeds *)
  let repo2 = reload p in
  checks "full read after the fault" (xml repo) (xml repo2)

let test_injected_eio_is_retried () =
  let p = fresh_path () in
  let repo = make_repo () in
  FP.set ~action:(FP.Eio { failures = 2 }) "snapshot_write";
  let report =
    Fun.protect ~finally:FP.clear @@ fun () -> Repository.checkpoint repo p
  in
  checkb "save survives two injected EIOs" true
    (report.Repository.snapshot_bytes > 0);
  let repo2 = reload p in
  checks "snapshot readable" (xml repo) (xml repo2)

(* ------------------------------------------------------------------ *)
(* Checkpoint + journal: watermark and generation arithmetic           *)
(* ------------------------------------------------------------------ *)

let test_recover_skip_generation_rule () =
  let meta g w =
    { Snap.journal_generation = g; journal_watermark = w; nodes = 0;
      facts = 0; symbols = 0 }
  in
  let rr gen n =
    { J.entries = List.init n (fun i -> J.Commit { txn = i });
      tail = J.Clean; generation = gen }
  in
  checki "newer journal replays in full" 0
    (Repository.recover_skip (meta 1 2) (rr 2 5));
  checki "same generation skips the watermark" 2
    (Repository.recover_skip (meta 1 2) (rr 1 5));
  checki "watermark capped at the entry count" 3
    (Repository.recover_skip (meta 1 5) (rr 1 3));
  checki "stale journal is skipped entirely" 5
    (Repository.recover_skip (meta 2 0) (rr 1 5))

(* The full cycle: journaled updates, checkpoint folds + truncates,
   more journaled updates, crash, recover = snapshot + suffix. *)
let test_checkpoint_folds_journal () =
  let p = fresh_path () in
  let jp = Printf.sprintf "%s.j" (fresh_path ()) in
  let repo = make_repo () in
  let j = J.open_ jp in
  (match Repository.guarded_update ~journal:j repo (legal_update ()) with
   | Repository.Applied _ -> ()
   | _ -> Alcotest.fail "update 1 must apply");
  let gen_before = J.generation j in
  let report = Repository.checkpoint ~journal:j repo p in
  checkb "journal reset" true report.Repository.wal_reset;
  checkb "entries folded" true (report.Repository.wal_entries_folded > 0);
  checki "generation bumped" (gen_before + 1) (J.generation j);
  checki "journal emptied" 0 (J.entry_count j);
  (* post-checkpoint update lands in the fresh generation *)
  (match
     Repository.guarded_update ~journal:j repo
       (legal_update ~title:"After" ~author:"Uma" ())
   with
   | Repository.Applied _ -> ()
   | _ -> Alcotest.fail "update 2 must apply");
  let after = xml repo in
  J.close j;
  (* cold recovery: the snapshot, then only the journal's suffix *)
  let cold () =
    let repo, report = bring_up ~source:(Repository.Snapshot p) (Some jp) in
    (repo, Option.get report)
  in
  let repo2, r = cold () in
  checki "one suffix txn" 1 r.Repository.replayed_txns;
  checks "snapshot + suffix = crash state" after (xml repo2);
  (* a crash between snapshot rename and journal reset is also safe:
     the same generation skips the prefix the snapshot folded *)
  let j = J.open_ jp in
  FP.set ~action:FP.Raise "checkpoint_truncate";
  (Fun.protect ~finally:FP.clear @@ fun () ->
   match Repository.checkpoint ~journal:j repo2 p with
   | exception FP.Triggered _ -> ()
   | _ -> Alcotest.fail "armed checkpoint failpoint must fire");
  J.close j;
  let repo3, r = cold () in
  checki "nothing replayed twice" 0 r.Repository.replayed_txns;
  checks "snapshot alone = crash state" after (xml repo3)

let () =
  Alcotest.run "snapshot"
    [
      ( "round trips",
        [
          Alcotest.test_case "state round trip" `Quick test_roundtrip;
          Alcotest.test_case "after updates" `Quick test_roundtrip_after_updates;
          Alcotest.test_case "read_meta" `Quick test_read_meta;
          Alcotest.test_case "symbol remap across processes" `Quick
            test_symbol_remap_across_processes;
        ] );
      ( "error taxonomy",
        [ Alcotest.test_case "classified load errors" `Quick test_error_taxonomy ] );
      ( "fault injection",
        [
          Alcotest.test_case "crashed save keeps the old snapshot" `Quick
            test_crashed_save_keeps_old_snapshot;
          Alcotest.test_case "short read" `Quick test_short_read_is_truncated;
          Alcotest.test_case "injected EIO retried" `Quick
            test_injected_eio_is_retried;
        ] );
      ( "checkpoint protocol",
        [
          Alcotest.test_case "recover_skip generations" `Quick
            test_recover_skip_generation_rule;
          Alcotest.test_case "checkpoint folds the journal" `Quick
            test_checkpoint_folds_journal;
        ] );
    ]
