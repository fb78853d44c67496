(* The resident check server: protocol codec round trips, snapshot
   isolation (pinned readers vs a committing writer, and across
   checkpoint truncation), batched guarded updates vs serial parity,
   and graceful-shutdown durability — including a failpoint-driven
   crash in the shutdown path while a streaming transaction is open. *)

open Xic_core
module Conf = Xic_workload.Conference
module XU = Xic_xupdate.Xupdate
module J = Xic_journal.Journal
module FP = Xic_journal.Failpoint
module P = Xic_server.Protocol
module Srv = Xic_server.Server

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)
let checksl = Alcotest.(check (list string))

let tmp_path =
  let n = ref 0 in
  fun suffix ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "xic_server_%d_%d_%s" (Unix.getpid ()) !n suffix)

(* ------------------------------------------------------------------ *)
(* Fixtures (the pub/rev conference pair from the paper)               *)
(* ------------------------------------------------------------------ *)

let fixed_pub =
  {|<dblp><pub><title>Joint</title><aut><name>Carl</name></aut><aut><name>Nora</name></aut></pub><pub><title>Solo</title><aut><name>Ann</name></aut></pub></dblp>|}

let fixed_rev =
  {|<review><track><name>DB</name><rev><name>Carl</name><sub><title>S1</title><auts><name>Ann</name></auts></sub></rev><rev><name>Rita</name><sub><title>S2</title><auts><name>Bob</name></auts></sub></rev></track></review>|}

(* A repository comes up as the server does; [restart] replays a
   journal the way a restarted server would. *)
let bring_up journal =
  let s = Conf.schema () in
  Repository.bring_up s
    (Repository.Documents (List.to_seq [ ("pub", fixed_pub); ("rev", fixed_rev) ]))
    ~constraints:[ Conf.conflict s; Conf.workload s; Conf.track_load s ]
    ~patterns:[ Conf.submission_pattern s ] ~journal

let make_repo () = fst (bring_up None)

let restart jpath =
  let repo, report = bring_up (Some jpath) in
  (repo, Option.get report)

let legal_insert ?(title = "Fresh") ?(author = "Zoe") () =
  Conf.insert_submission ~select:"/review/track[1]/rev[1]/sub[1]" ~title
    ~author

(* Inserting Carl as an author of a submission Carl reviews violates
   the conflict-of-interest denial. *)
let illegal_insert () =
  Conf.insert_submission ~select:"/review/track[1]/rev[1]/sub[1]"
    ~title:"Own" ~author:"Carl"

(* ------------------------------------------------------------------ *)
(* Protocol codec                                                      *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let v =
    P.Obj
      [ ("op", P.String "check");
        ("n", P.Int (-42));
        ("x", P.Float 1.5);
        ("t", P.Bool true);
        ("z", P.Null);
        ("esc", P.String "a\"b\\c\nd\te\r\x01f");
        ("uni", P.String "caf\xc3\xa9");
        ("l", P.List [ P.Int 1; P.String "two"; P.List []; P.Obj [] ]) ]
  in
  let s = P.to_string v in
  checkb "round trip" true (P.of_string s = v);
  (* escapes survive a second round *)
  checks "stable" s (P.to_string (P.of_string s));
  (* \uXXXX escapes decode to UTF-8 *)
  (match P.of_string "{\"u\":\"\\u00e9A\"}" with
   | P.Obj [ ("u", P.String s) ] -> checks "unicode escape" "\xc3\xa9A" s
   | _ -> Alcotest.fail "unicode escape object expected");
  checkb "whitespace tolerated" true
    (P.of_string " { \"a\" : [ 1 , 2 ] } " = P.Obj [ ("a", P.List [ P.Int 1; P.Int 2 ]) ])

let test_json_raw () =
  checks "raw embedded verbatim"
    {|{"ok":true,"metrics":{"a":[1,2]}}|}
    (P.to_string
       (P.Obj [ ("ok", P.Bool true); ("metrics", P.Raw {|{"a":[1,2]}|}) ]))

let test_json_errors () =
  let fails s =
    match P.of_string s with
    | exception P.Protocol_error _ -> true
    | _ -> false
  in
  checkb "trailing garbage" true (fails {|{"a":1} x|});
  checkb "truncated" true (fails {|{"a":|});
  checkb "bad literal" true (fails "trve");
  checkb "unterminated string" true (fails {|"abc|})

let frame payload =
  let n = String.length payload in
  let hdr = Bytes.create 4 in
  Bytes.set_uint8 hdr 0 ((n lsr 24) land 0xff);
  Bytes.set_uint8 hdr 1 ((n lsr 16) land 0xff);
  Bytes.set_uint8 hdr 2 ((n lsr 8) land 0xff);
  Bytes.set_uint8 hdr 3 (n land 0xff);
  Bytes.to_string hdr ^ payload

(* Scan every frame a queue holds, in order, as payload strings. *)
let scan q =
  let got = ref [] in
  P.scan_frames q (fun s off len -> got := String.sub s off len :: !got);
  List.rev !got

let push_string q s = P.push q (Bytes.of_string s) 0 (String.length s)

(* A partial frame or header stays queued until the rest arrives. *)
let test_incremental_framing () =
  let a = frame "{\"a\":1}" and b = frame "{\"b\":2}" and c = frame "{\"c\":3}" in
  let partial = String.sub c 0 6 in
  let q = P.queue () in
  push_string q (a ^ b ^ partial);
  checksl "two complete frames" [ "{\"a\":1}"; "{\"b\":2}" ] (scan q);
  push_string q (String.sub c 6 (String.length c - 6));
  checksl "partial remainder" [ "{\"c\":3}" ] (scan q);
  let q = P.queue () in
  push_string q "\x00\x00";
  checksl "short header kept" [] (scan q);
  push_string q "\x00\x07{\"d\":4}";
  checksl "short header completed" [ "{\"d\":4}" ] (scan q);
  let q = P.queue () in
  push_string q "\x7f\xff\xff\xff rest";
  match scan q with
  | exception P.Protocol_error _ -> ()
  | _ -> Alcotest.fail "oversized frame length must be refused"

let three_frames =
  [ "{\"op\":\"ping\"}"; "[]"; "{\"op\":\"check\",\"n\":[1,2,3]}" ]

(* A stream of three frames cut at every byte offset, inside headers
   included, must frame exactly as when it arrives whole. *)
let test_scan_every_split () =
  let stream = String.concat "" (List.map frame three_frames) in
  let n = String.length stream in
  for k = 0 to n do
    let q = P.queue () in
    push_string q (String.sub stream 0 k);
    let first = scan q in
    push_string q (String.sub stream k (n - k));
    checksl (Printf.sprintf "split at %d" k) three_frames (first @ scan q)
  done

let test_scan_one_read () =
  let q = P.queue () in
  push_string q (String.concat "" (List.map frame three_frames));
  let got = ref [] in
  P.scan_frames q (fun s off len -> got := P.of_substring s off len :: !got);
  checkb "every frame of one read decodes" true
    (List.rev !got = List.map P.of_string three_frames);
  checksl "nothing left over" [] (scan q)

(* A frame of exactly [max_frame] bytes, fed in 4 KiB reads: it decodes
   once complete, and the queue never holds more than twice the cap. *)
let test_scan_max_frame () =
  let payload = "\"" ^ String.make (P.max_frame - 2) 'x' ^ "\"" in
  let stream = Bytes.of_string (frame payload) in
  let q = P.queue () and peak = ref 0 and decoded = ref [] in
  let n = Bytes.length stream in
  let rec feed off =
    if off < n then begin
      let len = min 4096 (n - off) in
      P.push q stream off len;
      peak := max !peak (P.capacity q);
      P.scan_frames q (fun s off len ->
          decoded := P.of_substring s off len :: !decoded);
      feed (off + len)
    end
  in
  feed 0;
  checki "one frame" 1 (List.length !decoded);
  checkb "payload intact" true
    (List.hd !decoded = P.String (String.make (P.max_frame - 2) 'x'));
  checkb
    (Printf.sprintf "capacity %d <= 2 x max_frame" !peak)
    true
    (!peak <= 2 * P.max_frame)

(* ------------------------------------------------------------------ *)
(* Snapshot isolation                                                  *)
(* ------------------------------------------------------------------ *)

let test_pin_across_commit () =
  let repo = make_repo () in
  checki "fresh repository at generation 0" 0 (Repository.generation repo);
  let p0 = Repository.pin repo in
  checki "pin records the generation" 0 (Repository.pin_generation p0);
  checksl "pinned state consistent" [] (Repository.check_pinned repo p0);
  (* the writer commits generation 1 *)
  (match Repository.guarded_update repo (legal_insert ()) with
   | Repository.Applied _ -> ()
   | _ -> Alcotest.fail "legal insertion should apply");
  checki "commit bumps the generation" 1 (Repository.generation repo);
  checksl "old pin verdict unchanged" [] (Repository.check_pinned repo p0);
  (* mutate the live store into a violating state behind the pin's back *)
  ignore (Repository.apply_unchecked repo (illegal_insert ()) : XU.undo);
  checkb "live state violated" true (Repository.check_full repo <> []);
  checksl "pinned reader still sees generation 0 as consistent" []
    (Repository.check_pinned repo p0);
  let p1 = Repository.pin repo in
  checkb "fresh pin sees the violation" true
    (Repository.check_pinned repo p1 <> [])

let test_pin_across_checkpoint () =
  let jpath = tmp_path "pin.j" and spath = tmp_path "pin.xics" in
  let j = J.open_ jpath in
  let repo = make_repo () in
  (match Repository.guarded_update ~journal:j repo (legal_insert ()) with
   | Repository.Applied _ -> ()
   | _ -> Alcotest.fail "legal insertion should apply");
  let p = Repository.pin repo in
  checki "pin at generation 1" 1 (Repository.pin_generation p);
  (* checkpoint truncates the journal the pinned generation was built
     from; the pin must not care *)
  let r = Repository.checkpoint ~journal:j repo spath in
  checkb "journal reset by checkpoint" true r.Repository.wal_reset;
  checksl "pin survives checkpoint truncation" []
    (Repository.check_pinned repo p);
  (match Repository.guarded_update ~journal:j repo (legal_insert ~title:"Next" ~author:"Kim" ()) with
   | Repository.Applied _ -> ()
   | _ -> Alcotest.fail "post-checkpoint insertion should apply");
  checksl "pin unaffected by post-checkpoint commits" []
    (Repository.check_pinned repo p);
  J.close j;
  Sys.remove jpath;
  Sys.remove spath

(* Through the server: a pinned check keeps answering at its generation
   while guards commit newer ones, and plain checks during a streaming
   transaction are served from the last committed pin. *)
let test_server_isolation () =
  let repo = make_repo () in
  let srv = Srv.create repo in
  let rq j = Srv.handle srv j in
  let gen resp = Option.value ~default:(-1) (P.int_field "generation" resp) in
  let pin_resp = rq (P.Obj [ ("op", P.String "pin") ]) in
  let pid = Option.get (P.int_field "pin" pin_resp) in
  checki "pin at generation 0" 0 (gen pin_resp);
  let g =
    rq
      (P.Obj
         [ ("op", P.String "guard");
           ("update", P.String (XU.to_string (legal_insert ()))) ])
  in
  checks "guard applied" "applied" (Option.get (P.string_field "outcome" g));
  let live = rq (P.Obj [ ("op", P.String "check") ]) in
  checki "live check at generation 1" 1 (gen live);
  checks "live isolation" "live" (Option.get (P.string_field "isolation" live));
  let pinned = rq (P.Obj [ ("op", P.String "check"); ("pin", P.Int pid) ]) in
  checki "pinned check stays at generation 0" 0 (gen pinned);
  checks "pinned isolation" "pinned"
    (Option.get (P.string_field "isolation" pinned));
  (* while a streaming transaction holds uncommitted statements, a plain
     check is served from the last committed generation *)
  ignore (rq (P.Obj [ ("op", P.String "txn_begin") ]));
  let s =
    rq
      (P.Obj
         [ ("op", P.String "txn_stmt");
           ("update", P.String (XU.to_string (legal_insert ~title:"Mid" ~author:"Kim" ()))) ])
  in
  checks "statement applied" "applied"
    (Option.get (P.string_field "outcome" s));
  let during = rq (P.Obj [ ("op", P.String "check") ]) in
  checks "check during txn is pinned" "pinned"
    (Option.get (P.string_field "isolation" during));
  checki "check during txn sees the committed generation" 1 (gen during);
  ignore (rq (P.Obj [ ("op", P.String "txn_commit") ]));
  let after = rq (P.Obj [ ("op", P.String "check") ]) in
  checks "check after commit is live again" "live"
    (Option.get (P.string_field "isolation" after));
  checki "commit bumped the generation" 2 (gen after)

(* Time travel over retained generations: released pins stay in the
   bounded history and answer [check {as_of}] until a checkpoint prunes
   them; a still-referenced generation survives the checkpoint. *)
let test_time_travel () =
  let spath = tmp_path "tt.xics" in
  let repo = make_repo () in
  let srv =
    Srv.create
      ~config:{ Srv.default_config with snapshot_path = Some spath }
      repo
  in
  let rq j = Srv.handle srv j in
  let guard u =
    let resp =
      rq
        (P.Obj
           [ ("op", P.String "guard"); ("update", P.String (XU.to_string u)) ])
    in
    checks "guard applied" "applied"
      (Option.get (P.string_field "outcome" resp))
  in
  let pin_release () =
    let resp = rq (P.Obj [ ("op", P.String "pin") ]) in
    let pid = Option.get (P.int_field "pin" resp) in
    let g = Option.get (P.int_field "generation" resp) in
    ignore (rq (P.Obj [ ("op", P.String "unpin"); ("pin", P.Int pid) ]));
    g
  in
  let g0 = pin_release () in
  guard (legal_insert ());
  let g1 = pin_release () in
  guard (legal_insert ~title:"Two" ~author:"Kim" ());
  checki "first pin at generation 0" 0 g0;
  checki "second pin at generation 1" 1 g1;
  (* both released generations sit in the retained history *)
  let retained () =
    let hist = rq (P.Obj [ ("op", P.String "history") ]) in
    checkb "history ok" true (P.bool_field "ok" hist);
    match P.list_field "retained" hist with
    | Some rs -> List.filter_map (fun x -> P.int_field "generation" x) rs
    | None -> []
  in
  let gens = retained () in
  checkb "generation 0 retained" true (List.mem g0 gens);
  checkb "generation 1 retained" true (List.mem g1 gens);
  let asof g = rq (P.Obj [ ("op", P.String "check"); ("as_of", P.Int g) ]) in
  let r0 = asof g0 in
  checkb "as_of 0 ok" true (P.bool_field "ok" r0);
  checks "as_of isolation tag" "as_of"
    (Option.get (P.string_field "isolation" r0));
  checki "as_of echoes its generation" g0
    (Option.get (P.int_field "generation" r0));
  (* pin and as_of in one request are refused *)
  checkb "pin+as_of refused" false
    (P.bool_field "ok"
       (rq
          (P.Obj
             [ ("op", P.String "check");
               ("pin", P.Int 0);
               ("as_of", P.Int g0) ])));
  (* an explicit pin of a retained past generation reads through it *)
  let presp = rq (P.Obj [ ("op", P.String "pin"); ("generation", P.Int g1) ]) in
  checkb "pin {generation} ok" true (P.bool_field "ok" presp);
  checki "pin {generation} echoes it" g1
    (Option.get (P.int_field "generation" presp));
  let pid = Option.get (P.int_field "pin" presp) in
  let through =
    rq (P.Obj [ ("op", P.String "check"); ("pin", P.Int pid) ])
  in
  checki "read through the past pin" g1
    (Option.get (P.int_field "generation" through));
  (* checkpoint prunes the zero-ref history but not the held pin *)
  checkb "checkpoint ok" true
    (P.bool_field "ok" (rq (P.Obj [ ("op", P.String "checkpoint") ])));
  checkb "generation 0 pruned by checkpoint" false
    (P.bool_field "ok" (asof g0));
  checkb "held generation survives checkpoint" true
    (P.bool_field "ok" (asof g1));
  ignore (rq (P.Obj [ ("op", P.String "unpin"); ("pin", P.Int pid) ]));
  (try Sys.remove spath with Sys_error _ -> ())

(* ------------------------------------------------------------------ *)
(* Batched guards                                                      *)
(* ------------------------------------------------------------------ *)

let batch_updates () =
  [ legal_insert ();
    legal_insert ~title:"Second" ~author:"Kim" ();
    illegal_insert ();
    legal_insert ~title:"Third" ~author:"Uma" () ]

let outcome_tag = function
  | Repository.Applied _ -> "applied"
  | Repository.Rejected_early c -> "rejected:" ^ c
  | Repository.Rolled_back c -> "rolled_back:" ^ c

(* A statement matching no pattern is executed, checked and compensated;
   a "fallback" field (once a strategy switch) is ignored like any other
   unread field. *)
let test_unmatched_guard_ignores_fallback () =
  let srv = Srv.create (make_repo ()) in
  let guard author =
    let u =
      [ { XU.op = XU.Append;
          select = Xic_xpath.Parser.parse "/review/track[1]/rev[1]";
          content =
            [ XU.Elem
                ( "sub",
                  [],
                  [ XU.Elem ("title", [], [ XU.Text "App" ]);
                    XU.Elem ("auts", [], [ XU.Elem ("name", [], [ XU.Text author ]) ])
                  ] ) ] } ]
    in
    Srv.handle srv
      (P.Obj
         [ ("op", P.String "guard"); ("update", P.String (XU.to_string u));
           ("fallback", P.String "runtime") ])
  in
  let legal = guard "Zed" in
  checks "legal: applied" "applied" (Option.get (P.string_field "outcome" legal));
  checks "legal: by the post-check" "full_check"
    (Option.get (P.string_field "strategy" legal));
  let illegal = guard "Carl" in
  checks "illegal: compensated" "rolled_back"
    (Option.get (P.string_field "outcome" illegal))

let test_batch_serial_parity () =
  let ja = tmp_path "batch_a.j" and jb = tmp_path "batch_b.j" in
  let a = make_repo () in
  let b = make_repo () in
  let japh = J.open_ ja and jbph = J.open_ jb in
  let batched =
    Repository.guarded_batch ~journal:japh a (batch_updates ())
    |> List.map (fun r -> outcome_tag r.Repository.outcome)
  in
  let serial =
    List.map
      (fun u -> outcome_tag (Repository.guarded_update ~journal:jbph b u))
      (batch_updates ())
  in
  checksl "batched outcomes = serial outcomes" serial batched;
  checksl "same final verdict" (Repository.check_full b)
    (Repository.check_full a);
  (* the batch journals ONE transaction; serial journals one per guard *)
  let committed path =
    match J.read path with
    | { J.entries; _ } -> J.committed_payloads entries
  in
  checki "batch = one journaled txn" 1 (List.length (committed ja));
  checki "serial = one txn per applied guard" 3 (List.length (committed jb));
  (* replaying both journals converges to the same state *)
  let replay path =
    let r, rep = restart path in
    checksl "no replay errors" []
      (List.map snd rep.Repository.replay_errors);
    Repository.check_full r
  in
  checksl "replayed batch = replayed serial" (replay jb) (replay ja);
  J.close japh;
  J.close jbph;
  Sys.remove ja;
  Sys.remove jb

let test_round_batching () =
  let repo = make_repo () in
  let srv = Srv.create repo in
  let guard u =
    P.Obj [ ("op", P.String "guard"); ("update", P.String (XU.to_string u)) ]
  in
  let reqs =
    [ P.Obj [ ("op", P.String "ping") ];
      guard (legal_insert ());
      guard (illegal_insert ());
      guard (legal_insert ~title:"Tail" ~author:"Kim" ());
      P.Obj [ ("op", P.String "check") ] ]
  in
  let resps = Srv.handle_round srv reqs in
  checki "one response per request" (List.length reqs) (List.length resps);
  let nth n = List.nth resps n in
  checkb "guards in the run are marked batched" true
    (P.bool_field "batched" (nth 1)
     && P.bool_field "batched" (nth 2)
     && P.bool_field "batched" (nth 3));
  checksl "per-request verdicts inside the batch"
    [ "applied"; "rejected"; "applied" ]
    (List.filter_map (fun i -> P.string_field "outcome" (nth i)) [ 1; 2; 3 ]);
  checks "rejected statement names its constraint" "conflict"
    (Option.get (P.string_field "constraint" (nth 2)));
  (* all batched responses share the batch's commit generation *)
  let gens =
    List.filter_map (fun i -> P.int_field "generation" (nth i)) [ 1; 2; 3 ]
  in
  checkb "one shared generation" true
    (match gens with [ a; b; c ] -> a = b && b = c | _ -> false);
  (* a singleton guard is not batched *)
  let solo = Srv.handle_round srv [ guard (legal_insert ~title:"Solo" ~author:"Ann" ()) ] in
  checkb "singleton guard unbatched" true
    (match solo with [ r ] -> not (P.bool_field "batched" r) | _ -> false)

(* A journal failure inside a batched guard run is an error reply for
   every member, as it is for a single guard, and the server goes on
   answering: here the commit record's fsync fails with EIO. *)
let test_batched_journal_error () =
  let jpath = tmp_path "batch_eio.j" in
  let j = J.open_ jpath in
  let srv =
    Srv.create ~config:{ Srv.default_config with journal = Some j } (make_repo ())
  in
  let guard u =
    P.Obj [ ("op", P.String "guard"); ("update", P.String (XU.to_string u)) ]
  in
  FP.set ~action:(FP.Eio { failures = 1 }) "journal_fsync";
  let resps =
    Fun.protect ~finally:FP.clear (fun () ->
        Srv.handle_round srv
          [ guard (legal_insert ());
            guard (legal_insert ~title:"Tail" ~author:"Kim" ()) ])
  in
  checki "one reply per batched guard" 2 (List.length resps);
  List.iter
    (fun r ->
      checkb "batched guard answered with an error" false (P.bool_field "ok" r);
      checkb "the error names the journal" true
        (match P.string_field "error" r with
         | Some m -> String.length m >= 8 && String.sub m 0 8 = "journal:"
         | None -> false))
    resps;
  (match Srv.handle_round srv [ P.Obj [ ("op", P.String "ping") ] ] with
   | [ r ] -> checkb "a following ping is answered" true (P.bool_field "ok" r)
   | _ -> Alcotest.fail "one reply to one ping");
  (try J.close j with J.Journal_error _ -> ());
  Sys.remove jpath

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* A failed commit or abort record leaves nothing of its transaction in
   memory: the request is answered with an error that says the outcome
   waits for recovery, and the store, the generation and the verdict
   are those from before it.  Each case has the commit or abort
   record's fsync fail with EIO on a fresh server. *)
let test_failed_close_record_undone () =
  let update u = P.String (XU.to_string u) in
  let op name fields = P.Obj (("op", P.String name) :: fields) in
  List.iter
    (fun (what, reqs) ->
      let jpath = tmp_path "close_eio.j" in
      let j = J.open_ jpath in
      let repo = make_repo () in
      let srv = Srv.create ~config:{ Srv.default_config with journal = Some j } repo in
      let state () =
        ( Xic_datalog.Store.total_tuples (Repository.store repo),
          Repository.generation repo,
          let c = Srv.handle srv (op "check" []) in
          P.to_string
            (P.List
               [ P.Bool (P.bool_field "consistent" c);
                 Option.fold ~none:P.Null ~some:(fun l -> P.List l)
                   (P.list_field "violated" c);
                 Option.fold ~none:P.Null ~some:(fun g -> P.Int g)
                   (P.int_field "generation" c) ]) )
      in
      let facts, generation, check = state () in
      FP.set ~action:(FP.Eio { failures = 1 }) "journal_fsync";
      let replies = Fun.protect ~finally:FP.clear (fun () -> List.map (Srv.handle srv) reqs) in
      let last = List.nth replies (List.length replies - 1) in
      List.iter
        (fun r -> if r != last then checkb (what ^ ": earlier request answered") true (P.bool_field "ok" r))
        replies;
      checkb (what ^ ": error reply") false (P.bool_field "ok" last);
      let m = Option.value (P.string_field "error" last) ~default:"" in
      checkb (what ^ ": the error names the journal") true (contains m "journal:");
      checkb (what ^ ": the outcome waits for recovery") true
        (contains m "unknown until recovery");
      let facts', generation', check' = state () in
      checki (what ^ ": facts after") facts facts';
      checki (what ^ ": generation after") generation generation';
      checks (what ^ ": check after") check check';
      (try J.close j with J.Journal_error _ -> ());
      Sys.remove jpath)
    [ ("guard", [ op "guard" [ ("update", update (legal_insert ())) ] ]);
      ( "txn with abort",
        [ op "txn" [ ("updates", P.List [ update (legal_insert ()) ]); ("abort", P.Bool true) ] ] );
      ( "streaming txn",
        [ op "txn_begin" [];
          op "txn_stmt" [ ("update", update (legal_insert ())) ];
          op "txn_commit" [] ] ) ]

(* ------------------------------------------------------------------ *)
(* Graceful shutdown                                                   *)
(* ------------------------------------------------------------------ *)

let last_entry_is_abort path txn =
  match J.read path with
  | { J.entries; _ } ->
    (match List.rev entries with
     | J.Abort { txn = t } :: _ -> t = txn
     | _ -> false)

let test_shutdown_aborts_open_txn () =
  let jpath = tmp_path "shutdown.j" in
  let j = J.open_ jpath in
  let repo = make_repo () in
  let srv = Srv.create ~config:{ Srv.default_config with journal = Some j } repo in
  let t = Srv.handle srv (P.Obj [ ("op", P.String "txn_begin") ]) in
  let txn_id = Option.get (P.int_field "txn" t) in
  let s =
    Srv.handle srv
      (P.Obj
         [ ("op", P.String "txn_stmt");
           ("update", P.String (XU.to_string (legal_insert ()))) ])
  in
  checks "statement applied in txn" "applied"
    (Option.get (P.string_field "outcome" s));
  Srv.shutdown srv;
  Srv.shutdown srv (* idempotent *);
  checkb "journal's last word on the in-flight txn is an Abort" true
    (last_entry_is_abort jpath txn_id);
  (* recovery finds nothing to replay: the interrupted txn is gone *)
  let fresh, rep = restart jpath in
  checki "no committed txns to replay" 0 rep.Repository.replayed_txns;
  checki "the aborted txn is discarded (explicitly, not inferred)" 1
    rep.Repository.discarded_txns;
  checksl "recovered state is the pre-txn state" [] (Repository.check_full fresh);
  Sys.remove jpath

(* A SIGTERM-style crash *inside* the shutdown path, before the open
   transaction's abort runs: the journal is left with a dangling intent
   and recovery must discard it.  The child process arms the
   [serve_shutdown] failpoint and dies with exit code 42. *)
let test_shutdown_crash_failpoint () =
  let jpath = tmp_path "crash.j" in
  (match Unix.fork () with
   | 0 ->
     (* child: never let test-runner machinery run *)
     (try
        FP.set ~action:FP.Exit "serve_shutdown";
        let j = J.open_ jpath in
        let repo = make_repo () in
        let srv =
          Srv.create ~config:{ Srv.default_config with journal = Some j } repo
        in
        ignore (Srv.handle srv (P.Obj [ ("op", P.String "txn_begin") ]));
        ignore
          (Srv.handle srv
             (P.Obj
                [ ("op", P.String "txn_stmt");
                  ("update", P.String (XU.to_string (legal_insert ()))) ]));
        Srv.shutdown srv;
        (* unreachable: the failpoint exits first *)
        Unix._exit 99
      with _ -> Unix._exit 98)
   | pid ->
     let _, status = Unix.waitpid [] pid in
     (match status with
      | Unix.WEXITED 42 -> ()
      | Unix.WEXITED n -> Alcotest.failf "child exited %d, wanted 42" n
      | _ -> Alcotest.fail "child did not exit normally");
     (* the journal holds a dangling intent, no closing record *)
     (match J.read jpath with
      | { J.entries; _ } ->
        checkb "intent present" true
          (List.exists (function J.Intent _ -> true | _ -> false) entries);
        checkb "no commit, no abort" true
          (not
             (List.exists
                (function J.Commit _ | J.Abort _ -> true | _ -> false)
                entries)));
     let fresh, rep = restart jpath in
     checki "in-flight txn discarded" 1 rep.Repository.discarded_txns;
     checki "nothing replayed" 0 rep.Repository.replayed_txns;
     checksl "recovered to the pre-txn state" [] (Repository.check_full fresh);
     Sys.remove jpath)

(* ------------------------------------------------------------------ *)
(* Observability: trace propagation, quantiles, exposition, slow ring, *)
(* frame-cap errors                                                    *)
(* ------------------------------------------------------------------ *)

module Obs = Xic_obs.Obs
module XLog = Xic_obs.Log

let with_tracing f =
  Obs.Trace.set_enabled true;
  Obs.Trace.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Trace.set_enabled false;
      Obs.Trace.reset ())
    f

(* Client sends a trace_id -> the response echoes it, the server span
   carries it, and the Chrome export contains it. *)
let test_trace_roundtrip () =
  with_tracing @@ fun () ->
  let srv = Srv.create (make_repo ()) in
  let resp =
    Srv.handle srv
      (P.Obj
         [ ("op", P.String "check");
           ("trace_id", P.String "t-cafe01");
           ("span_id", P.String "client-7") ])
  in
  checkb "ok" true (P.bool_field "ok" resp);
  checks "trace id echoed" "t-cafe01"
    (Option.get (P.string_field "trace_id" resp));
  let span_id = Option.get (P.string_field "span_id" resp) in
  checkb "server span id assigned" true (span_id <> "");
  let roots = Srv.trace_roots srv in
  checkb "request span captured" true (roots <> []);
  let span = List.nth roots (List.length roots - 1) in
  checks "span name" "serve:check" span.Obs.Trace.name;
  let attr k = List.assoc_opt k span.Obs.Trace.attrs in
  checkb "span carries the trace id" true (attr "trace_id" = Some "t-cafe01");
  checkb "span carries the client span" true
    (attr "parent_span_id" = Some "client-7");
  checkb "span carries its own id" true (attr "span_id" = Some span_id);
  checkb "span carries the op" true (attr "op" = Some "check");
  checkb "chrome export carries the trace id" true
    (contains (Obs.Trace.to_chrome_json roots) "t-cafe01")

(* A log line emitted while handling a request carries its trace id. *)
let test_log_trace_correlation () =
  let logfile = tmp_path "srv.log" in
  (match XLog.open_path logfile with
   | Ok () -> ()
   | Error m -> Alcotest.fail m);
  XLog.set_level XLog.Debug;
  XLog.set_format XLog.Json;
  Fun.protect
    ~finally:(fun () ->
      XLog.close ();
      XLog.set_level XLog.Info;
      XLog.set_format XLog.Text;
      try Sys.remove logfile with Sys_error _ -> ())
  @@ fun () ->
  let srv = Srv.create (make_repo ()) in
  ignore
    (Srv.handle srv
       (P.Obj [ ("op", P.String "ping"); ("trace_id", P.String "t-log42") ]));
  XLog.close ();
  let ic = open_in logfile in
  let body = really_input_string ic (in_channel_length ic) in
  close_in ic;
  checkb "log line carries the trace id" true
    (contains body {|"trace":"t-log42"|});
  checkb "trace id cleared between requests" true
    (XLog.trace_id () = None)

(* The stats response surfaces per-op latency quantiles directly. *)
let test_stats_quantiles () =
  let srv = Srv.create (make_repo ()) in
  (* the serve_<op>_ms histograms are process-global, so measure the
     count as a delta across this test's own requests *)
  let check_count () =
    let resp = Srv.handle srv (P.Obj [ ("op", P.String "stats") ]) in
    match P.member "ops" resp with
    | Some (P.Obj ops) ->
      (match List.assoc_opt "check" ops with
       | Some o -> Option.value ~default:0 (P.int_field "count" o)
       | None -> 0)
    | _ -> Alcotest.fail "stats response lacks ops"
  in
  let before = check_count () in
  for _ = 1 to 5 do
    ignore (Srv.handle srv (P.Obj [ ("op", P.String "check") ]))
  done;
  let resp = Srv.handle srv (P.Obj [ ("op", P.String "stats") ]) in
  let num j k =
    match P.member k j with
    | Some (P.Float f) -> f
    | Some (P.Int i) -> float_of_int i
    | _ -> Alcotest.failf "missing %s" k
  in
  checkb "count grew by at least the five checks" true
    (check_count () >= before + 5);
  match P.member "ops" resp with
  | Some (P.Obj ops) ->
    (match List.assoc_opt "check" ops with
     | Some o ->
       let p50 = num o "p50_ms" and p99 = num o "p99_ms" in
       checkb "p50 positive" true (p50 > 0.0);
       checkb "p99 >= p50" true (p99 >= p50)
     | None -> Alcotest.fail "stats.ops lacks the check op")
  | _ -> Alcotest.fail "stats response lacks ops"

(* The metrics op returns parseable Prometheus text exposition with the
   serve gauges synced. *)
let test_metrics_exposition () =
  let srv = Srv.create (make_repo ()) in
  ignore (Srv.handle srv (P.Obj [ ("op", P.String "check") ]));
  ignore (Srv.handle srv (P.Obj [ ("op", P.String "pin") ]));
  let resp = Srv.handle srv (P.Obj [ ("op", P.String "metrics") ]) in
  checks "format" "prometheus"
    (Option.get (P.string_field "format" resp));
  let body = Option.get (P.string_field "body" resp) in
  (* line-format check: every non-empty line is a TYPE comment or
     "name[{labels}] value" with a float value *)
  List.iter
    (fun line ->
      if line <> "" then
        if String.length line >= 1 && line.[0] = '#' then begin
          if not (String.length line > 7 && String.sub line 0 7 = "# TYPE ")
          then Alcotest.failf "unexpected comment line: %s" line
        end
        else
          match String.rindex_opt line ' ' with
          | None -> Alcotest.failf "no value on line: %s" line
          | Some i ->
            let v = String.sub line (i + 1) (String.length line - i - 1) in
            (match float_of_string_opt v with
             | Some _ -> ()
             | None -> Alcotest.failf "unparseable value on line: %s" line))
    (String.split_on_char '\n' body);
  checkb "serve gauge present" true (contains body "xic_serve_open_txns 0");
  checkb "pin gauge live" true (contains body "xic_serve_pinned_generations 1");
  checkb "gauge typed as gauge" true
    (contains body "# TYPE xic_serve_pinned_generations gauge");
  checkb "latency summary quantiles" true (contains body "quantile=\"0.5\"");
  checkb "ms histograms exported in seconds" true
    (contains body "xic_serve_check_seconds")

(* The slow ring keeps the worst requests, worst-first, capped, with
   span trees when tracing is on. *)
let test_slow_ring () =
  with_tracing @@ fun () ->
  let config = { Srv.default_config with slow_capacity = 2 } in
  let srv = Srv.create ~config (make_repo ()) in
  ignore (Srv.handle srv (P.Obj [ ("op", P.String "ping") ]));
  for _ = 1 to 3 do
    ignore (Srv.handle srv (P.Obj [ ("op", P.String "check") ]))
  done;
  let resp = Srv.handle srv (P.Obj [ ("op", P.String "slow") ]) in
  checki "capacity reported" 2 (Option.get (P.int_field "capacity" resp));
  match P.list_field "slow" resp with
  | Some entries ->
    checki "ring capped" 2 (List.length entries);
    let ms e =
      match P.member "ms" e with
      | Some (P.Float f) -> f
      | Some (P.Int i) -> float_of_int i
      | _ -> Alcotest.fail "entry lacks ms"
    in
    (match entries with
     | [ a; b ] ->
       checkb "worst first" true (ms a >= ms b);
       checkb "entry names its op" true (P.string_field "op" a <> None);
       checkb "entry has a span id" true (P.string_field "span_id" a <> None);
       checkb "entry keeps the request document" true
         (P.string_field "request" a <> None);
       (match P.member "span" a with
        | Some span ->
          checkb "span tree attached" true
            (match P.string_field "name" span with
             | Some n -> contains n "serve:"
             | None -> false)
        | None -> Alcotest.fail "tracing was on: span tree expected")
     | _ -> Alcotest.fail "two entries expected")
  | None -> Alcotest.fail "slow response lacks entries"

(* Oversized and malformed frame lengths are refused with the cap and
   the offending length spelled out, on both the read and write side. *)
let test_frame_cap_errors () =
  let big = String.make (P.max_frame + 1) 'x' in
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close a;
      Unix.close b)
  @@ fun () ->
  (match P.write_frame a (P.String big) with
   | () -> Alcotest.fail "oversized write must be refused"
   | exception P.Protocol_error m ->
     checkb "write error names the cap" true (contains m "16 MiB");
     checkb "write error names the length" true
       (contains m (string_of_int (P.max_frame + 3))));
  (* a bogus header: ASCII "JUNK" decodes to a huge length *)
  ignore (Unix.write_substring a "JUNK" 0 4);
  (match P.read_frame b with
   | _ -> Alcotest.fail "bogus length must be refused"
   | exception P.Protocol_error m ->
     checkb "read error names the cap" true (contains m "16 MiB");
     checkb "read error names the length" true (contains m "1247104587"));
  let q = P.queue () in
  push_string q "\x7f\xff\xff\xff rest";
  (match scan q with
   | _ -> Alcotest.fail "scan must refuse the oversized length"
   | exception P.Protocol_error m ->
     checkb "scan error names the cap" true (contains m "16 MiB"))

(* ------------------------------------------------------------------ *)
(* A real serve loop in a child process                                *)
(* ------------------------------------------------------------------ *)

(* Fork a server on a fresh Unix socket, run [f] against its address,
   then ask it to shut down and expect exit 0. *)
let with_forked_server f =
  let sock = tmp_path "srv.sock" in
  match Unix.fork () with
  | 0 ->
    (try
       let srv = Srv.create (make_repo ()) in
       Srv.serve srv (Srv.listen (P.Unix_sock sock));
       Unix._exit 0
     with _ -> Unix._exit 3)
  | pid ->
    (* the socket file appears at bind, before listen: poll by connecting *)
    let rec await n =
      match P.connect (P.Unix_sock sock) with
      | fd -> Unix.close fd
      | exception P.Protocol_error _ when n > 0 ->
        Unix.sleepf 0.01;
        await (n - 1)
    in
    let reaped = ref false in
    Fun.protect
      ~finally:(fun () ->
        if not !reaped then begin
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid)
        end;
        try Sys.remove sock with Sys_error _ -> ())
    @@ fun () ->
    await 1000;
    let addr = P.Unix_sock sock in
    f addr;
    let fd = P.connect addr in
    ignore (P.request fd (P.Obj [ ("op", P.String "shutdown") ]));
    Unix.close fd;
    let _, status = Unix.waitpid [] pid in
    reaped := true;
    match status with
    | Unix.WEXITED 0 -> ()
    | Unix.WEXITED n -> Alcotest.failf "server exited %d" n
    | _ -> Alcotest.fail "server killed by a signal"

let ping addr =
  let fd = P.connect addr in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  P.bool_field "pong" (P.request fd (P.Obj [ ("op", P.String "ping") ]))

(* More connections than select's FD_SETSIZE: the ones past the cap are
   closed at once, and the server keeps serving. *)
let test_connection_flood () =
  with_forked_server @@ fun addr ->
  let conns = List.init 1100 (fun _ -> P.connect addr) in
  let last = List.nth conns 1099 in
  checkb "a connection past the cap is closed" true
    (match Unix.read last (Bytes.create 1) 0 1 with
     | 0 -> true
     | _ -> false
     | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> true);
  List.iter Unix.close conns;
  checkb "a fresh client is answered" true (ping addr)

(* The soft "Max open files" of this process; [max_int] when unlimited. *)
let open_files_limit () =
  let fields l = List.filter (( <> ) "") (String.split_on_char ' ' l) in
  match In_channel.with_open_text "/proc/self/limits" In_channel.input_all with
  | exception Sys_error _ -> 0
  | text ->
    String.split_on_char '\n' text
    |> List.find_map (fun l ->
           match fields l with
           | "Max" :: "open" :: "files" :: "unlimited" :: _ -> Some max_int
           | "Max" :: "open" :: "files" :: soft :: _ -> int_of_string_opt soft
           | _ -> None)
    |> Option.value ~default:0

(* Descriptors inherited from the parent push the server's connection
   numbers up: one numbered at FD_SETSIZE or more is refused like one
   past the cap, and [select] never sees it. *)
let test_inherited_descriptors () =
  if open_files_limit () < 2300 then begin
    print_endline "skipped: fewer than 2300 open files allowed";
    Alcotest.skip ()
  end;
  let held = List.init 100 (fun _ -> Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0) in
  Fun.protect ~finally:(fun () -> List.iter Unix.close held) @@ fun () ->
  with_forked_server @@ fun addr ->
  let conns = List.init 1000 (fun _ -> P.connect addr) in
  List.iter Unix.close conns;
  checkb "a fresh client is answered" true (ping addr)

let gc_field name stats =
  match P.member "gc" stats with
  | Some gc ->
    (match P.int_field name gc with
     | Some v -> v
     | None -> Alcotest.failf "gc.%s missing" name)
  | None -> Alcotest.fail "stats lacks its gc section"

(* The serve loop allocates its buffers once: a check request puts
   well under one read buffer's worth of words on the major heap. *)
let test_serve_allocation () =
  with_forked_server @@ fun addr ->
  let fd = P.connect addr in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  let stats () = P.request fd (P.Obj [ ("op", P.String "stats") ]) in
  let before = stats () in
  let n = 2000 in
  for _ = 1 to n do
    let r = P.request fd (P.Obj [ ("op", P.String "check") ]) in
    if not (P.bool_field "consistent" r) then Alcotest.fail "check failed"
  done;
  let after = stats () in
  let per_request =
    (gc_field "major_words" after - gc_field "major_words" before) / n
  in
  checkb
    (Printf.sprintf "%d major-heap words per request < 1024" per_request)
    true (per_request < 1024);
  checkb "minor collections counted" true
    (gc_field "minor_collections" after >= gc_field "minor_collections" before)

let () =
  Alcotest.run "server"
    [
      ( "protocol",
        [
          Alcotest.test_case "json round trip" `Quick test_json_roundtrip;
          Alcotest.test_case "raw embedding" `Quick test_json_raw;
          Alcotest.test_case "parse errors" `Quick test_json_errors;
          Alcotest.test_case "incremental framing" `Quick test_incremental_framing;
          Alcotest.test_case "scan split at every offset" `Quick
            test_scan_every_split;
          Alcotest.test_case "scan several frames of one read" `Quick
            test_scan_one_read;
          Alcotest.test_case "scan a max_frame payload" `Quick
            test_scan_max_frame;
        ] );
      ( "isolation",
        [
          Alcotest.test_case "pin across writer commit" `Quick
            test_pin_across_commit;
          Alcotest.test_case "pin across checkpoint" `Quick
            test_pin_across_checkpoint;
          Alcotest.test_case "time travel over retained generations" `Quick
            test_time_travel;
          Alcotest.test_case "server-level isolation" `Quick
            test_server_isolation;
        ] );
      ( "batching",
        [
          Alcotest.test_case "batch = serial verdicts" `Quick
            test_batch_serial_parity;
          Alcotest.test_case "round batching over the wire shape" `Quick
            test_round_batching;
          Alcotest.test_case "unmatched guard ignores fallback" `Quick
            test_unmatched_guard_ignores_fallback;
          Alcotest.test_case "journal error in a batched run" `Quick
            test_batched_journal_error;
          Alcotest.test_case "failed closing record is undone" `Quick
            test_failed_close_record_undone;
        ] );
      ( "shutdown",
        [
          Alcotest.test_case "graceful abort of open txn" `Quick
            test_shutdown_aborts_open_txn;
          Alcotest.test_case "crash inside shutdown (failpoint)" `Quick
            test_shutdown_crash_failpoint;
        ] );
      ( "observability",
        [
          Alcotest.test_case "trace id round trip" `Quick test_trace_roundtrip;
          Alcotest.test_case "log/trace correlation" `Quick
            test_log_trace_correlation;
          Alcotest.test_case "stats quantiles" `Quick test_stats_quantiles;
          Alcotest.test_case "prometheus exposition" `Quick
            test_metrics_exposition;
          Alcotest.test_case "slow ring" `Quick test_slow_ring;
          Alcotest.test_case "frame cap errors" `Quick test_frame_cap_errors;
        ] );
      ( "serve loop",
        [
          Alcotest.test_case "connection flood" `Quick test_connection_flood;
          Alcotest.test_case "flood over inherited descriptors" `Quick
            test_inherited_descriptors;
          Alcotest.test_case "allocation per request" `Quick
            test_serve_allocation;
        ] );
    ]
