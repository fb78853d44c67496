(* Fault-injection torture harness: run a randomized XUpdate workload
   with a crash armed at every registered failpoint site in turn,
   recover from whatever the "crash" left on disk (snapshot + journal),
   and assert the recovered state is exactly a committed prefix of the
   golden fault-free run — never a torn or half-applied document.

   XIC_TORTURE_SEEDS bounds the number of randomized workloads
   (default 2; CI and `dune build @torture` may raise it). *)

open Xic_core
module Conf = Xic_workload.Conference
module J = Xic_journal.Journal
module FP = Xic_journal.Failpoint
module AF = Xic_journal.Atomic_file
module Snap = Xic_snapshot.Snapshot

let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let seeds =
  match Option.bind (Sys.getenv_opt "XIC_TORTURE_SEEDS") int_of_string_opt with
  | Some n when n > 0 -> n
  | _ -> 2

let schema = lazy (Conf.schema ())

let pub_doc =
  {|<dblp><pub><title>Joint</title><aut><name>Carl</name></aut></pub></dblp>|}

let rev_doc =
  {|<review><track><name>DB</name><rev><name>Carl</name><sub><title>S1</title><auts><name>Ann</name></auts></sub></rev><rev><name>Rita</name><sub><title>S2</title><auts><name>Bob</name></auts></sub></rev></track></review>|}

(* Every repository here comes up as a restart does. *)
let bring_up
    ?(source = Repository.Documents (List.to_seq [ ("pub", pub_doc); ("rev", rev_doc) ]))
    journal =
  let s = Lazy.force schema in
  Repository.bring_up s source ~constraints:[ Conf.conflict s ]
    ~patterns:[ Conf.submission_pattern s ] ~journal

let base_repo () = fst (bring_up None)

let xml repo = Xic_xml.Xml_printer.to_string (Repository.doc repo)

let insert ~title ~author =
  Conf.insert_submission ~select:"/review/track[1]/rev[1]/sub[1]" ~title ~author

(* ------------------------------------------------------------------ *)
(* Deterministic workloads                                             *)
(* ------------------------------------------------------------------ *)

(* Op effects are pure functions of (seed, index), so the golden run and
   every faulted run execute byte-identical statements. *)
type op =
  | Legal of int  (** unique-author insert: must apply *)
  | Illegal  (** reviewer self-insert: must be refused, no state change *)
  | Txn of int list  (** several legal inserts as one atomic transaction *)
  | Ckpt  (** snapshot checkpoint + journal truncation: no state change *)

let gen_ops st n =
  let uid = ref 0 in
  let fresh () = incr uid; !uid in
  List.init n (fun _ ->
      match Random.State.int st 10 with
      | 0 | 1 -> Illegal
      | 2 | 3 -> Ckpt
      | 4 ->
        Txn (List.init (1 + Random.State.int st 2) (fun _ -> fresh ()))
      | _ -> Legal (fresh ()))

let legal_u seed k =
  insert ~title:(Printf.sprintf "T%d-%d" seed k)
    ~author:(Printf.sprintf "Aut%d-%d" seed k)

let illegal_u = insert ~title:"Bad" ~author:"Carl"

let apply_legal ~ctx repo journal u =
  match Repository.guarded_update ?journal repo u with
  | Repository.Applied _ -> ()
  | _ -> Alcotest.fail (ctx ^ ": legal update must apply")

(* Execute one op.  [snapshot = None] is the golden (fault-free,
   journal-free) run, where Ckpt is a no-op. *)
let exec ~ctx ~seed ~snapshot repo journal op =
  match op with
  | Legal k -> apply_legal ~ctx repo journal (legal_u seed k)
  | Illegal ->
    (match Repository.guarded_update ?journal repo illegal_u with
     | Repository.Rejected_early _ | Repository.Rolled_back _ -> ()
     | Repository.Applied _ -> Alcotest.fail (ctx ^ ": conflict must be refused"))
  | Txn ks ->
    let tx = Repository.begin_txn ?journal repo in
    List.iter
      (fun k ->
        match (Repository.txn_apply tx (legal_u seed k)).Repository.outcome with
        | Repository.Applied _ -> ()
        | _ -> Alcotest.fail (ctx ^ ": txn statement must apply"))
      ks;
    Repository.commit_txn tx
  | Ckpt ->
    (match (snapshot, journal) with
     | Some path, Some j -> ignore (Repository.checkpoint ~journal:j repo path)
     | _ -> ())

(* golden.(i) = document state after the first [i] ops, fault-free. *)
let golden_states ~seed ops =
  let repo = base_repo () in
  let states = Array.make (List.length ops + 1) (xml repo) in
  List.iteri
    (fun i op ->
      exec ~ctx:"golden" ~seed ~snapshot:None repo None op;
      states.(i + 1) <- xml repo)
    ops;
  states

(* ------------------------------------------------------------------ *)
(* Recovery = snapshot (if any) + journal suffix                       *)
(* ------------------------------------------------------------------ *)

let recover_state ~ctx jpath spath =
  (* the bring-up materializes the views *before* the replay, so the
     replay deltas must maintain them (and the recovery post-check reads
     the maintained views, not a recompute) *)
  let repo, report =
    if Sys.file_exists spath then
      bring_up ~source:(Repository.Snapshot spath) (Some jpath)
    else bring_up (Some jpath)
  in
  (match report with
   | Some r ->
     checkb (ctx ^ ": no crash point corrupts the journal") true
       (match r.Repository.tail with J.Corrupt _ -> false | _ -> true);
     Alcotest.(check (list (pair int string)))
       (ctx ^ ": replay is clean") [] r.Repository.replay_errors;
     Alcotest.(check (list string))
       (ctx ^ ": recovered state is consistent") []
       r.Repository.post_violations
   | None -> ignore (Repository.check_incremental repo : string list));
  (* no stale materialized state survives a crash: the event-maintained
     store equals a from-scratch re-shred, and the delta-maintained
     views equal a from-scratch recompute *)
  let module Store = Xic_datalog.Store in
  checkb
    (ctx ^ ": maintained store = re-shred")
    true
    (Store.equal (Repository.store repo)
       (Xic_relmap.Shred.shred
          (Schema.mapping (Repository.schema repo))
          (Repository.doc repo)));
  let maintained =
    match Repository.incr_view repo with
    | Some v -> Store.freeze v
    | None -> Alcotest.fail (ctx ^ ": incremental views were dropped")
  in
  let verdict = Repository.check_incremental repo in
  Repository.set_incremental repo false;  (* drop the views... *)
  let verdict' = Repository.check_incremental repo in  (* ...recompute *)
  Alcotest.(check (list string))
    (ctx ^ ": maintained verdict = recomputed verdict") verdict' verdict;
  (match Repository.incr_view repo with
   | Some fresh ->
     checkb
       (ctx ^ ": maintained views = recomputed views")
       true
       (Store.equal maintained fresh)
   | None -> Alcotest.fail (ctx ^ ": recompute produced no views"));
  xml repo

(* ------------------------------------------------------------------ *)
(* The crash sweep                                                     *)
(* ------------------------------------------------------------------ *)

(* Mediated write sites get a torn write (partial bytes, then the
   crash); everything else a plain in-process crash. *)
let action_for = function
  | "journal_write" | "snapshot_write" ->
    FP.Torn_write { keep = 0.5; crash = false }
  | _ -> FP.Raise

let is_crash = function
  | FP.Triggered _ | J.Journal_error _ | Snap.Snapshot_error (_, _)
  | AF.Atomic_file_error _ | Repository.Repository_error _
  | Unix.Unix_error _ -> true
  | _ -> false

let cleanup path = if Sys.file_exists path then Sys.remove path

let run_sweep seed =
  let st = Random.State.make [| 0x7041c3; seed |] in
  let ops = gen_ops st 12 in
  let golden = golden_states ~seed ops in
  let n = List.length ops in
  List.iter
    (fun site ->
      let ctx = Printf.sprintf "seed %d, crash at %s" seed site in
      let tag = Printf.sprintf "torture_%d_%s" seed site in
      let jpath = Test_tmp.file (tag ^ ".j")
      and spath = Test_tmp.file (tag ^ ".xis") in
      cleanup jpath;
      cleanup spath;
      FP.set ~action:(action_for site) ~after:(seed mod 3) site;
      let confirmed = ref 0 in
      let handle = ref None in
      (try
         let repo = base_repo () in
         let j = J.open_ jpath in
         handle := Some j;
         List.iter
           (fun op ->
             exec ~ctx ~seed ~snapshot:(Some spath) repo (Some j) op;
             incr confirmed)
           ops
       with e when is_crash e -> ());
      FP.clear ();
      (match !handle with
       | Some j -> ( try J.close j with J.Journal_error _ -> ())
       | None -> ());
      let recovered = recover_state ~ctx jpath spath in
      (* every confirmed op is durable; at most the op in flight at the
         crash may additionally have committed (its record reached the
         file before e.g. the fsync-site crash) *)
      let acceptable =
        recovered = golden.(!confirmed)
        || (!confirmed < n && recovered = golden.(!confirmed + 1))
      in
      if not acceptable then
        Alcotest.fail
          (Printf.sprintf
             "%s: recovered state matches no committed prefix (confirmed %d/%d)"
             ctx !confirmed n);
      cleanup jpath;
      cleanup spath)
    (FP.known ())

(* The registry must expose the full durability crash surface: the
   sweep is meaningless if module initialization stopped declaring. *)
let test_crash_surface_registered () =
  let known = FP.known () in
  List.iter
    (fun site ->
      checkb ("site registered: " ^ site) true (List.mem site known))
    [ "before_apply"; "after_apply"; "before_commit"; "mid_write";
      "journal_write"; "journal_fsync"; "journal_grow"; "journal_reset";
      "journal_reset_rename"; "checkpoint_truncate"; "snapshot_write";
      "snapshot_fsync"; "snapshot_rename"; "snapshot_dirsync";
      "snapshot_read" ];
  checkb "at least a dozen sites" true (List.length known >= 12)

(* ------------------------------------------------------------------ *)
(* I/O-error resilience (faults that must NOT lose the workload)       *)
(* ------------------------------------------------------------------ *)

let test_injected_eio_absorbed () =
  let seed = 9001 in
  let st = Random.State.make [| 0x7041c3; seed |] in
  let ops = gen_ops st 8 in
  let golden = golden_states ~seed ops in
  let jpath = Test_tmp.file "torture_eio.j"
  and spath = Test_tmp.file "torture_eio.xis" in
  cleanup jpath;
  cleanup spath;
  FP.set ~action:(FP.Eio { failures = 2 }) "journal_write";
  FP.set ~action:(FP.Eio { failures = 2 }) "snapshot_write";
  FP.set ~action:(FP.Delay { ms = 1.0 }) "before_commit";
  (Fun.protect ~finally:FP.clear @@ fun () ->
   let repo = base_repo () in
   let j = J.open_ jpath in
   List.iter
     (fun op -> exec ~ctx:"eio" ~seed ~snapshot:(Some spath) repo (Some j) op)
     ops;
   J.close j;
   checks "bounded retries absorb injected EIO" golden.(List.length ops)
     (xml repo));
  let recovered = recover_state ~ctx:"eio" jpath spath in
  checks "and the journal survives too" golden.(List.length ops) recovered;
  checkb "retries were actually exercised" true
    (Xic_obs.Obs.Metrics.(value (counter "io_retries")) > 0);
  cleanup jpath;
  cleanup spath

(* Exhausting the retry budget surfaces the error instead of spinning. *)
let test_eio_exhaustion_fails_cleanly () =
  let jpath = Test_tmp.file "torture_eio_exhaust.j" in
  cleanup jpath;
  let repo = base_repo () in
  let j = J.open_ jpath in
  FP.set ~action:(FP.Eio { failures = 99 }) "journal_write";
  (Fun.protect ~finally:FP.clear @@ fun () ->
   match Repository.guarded_update ~journal:j repo (legal_u 0 1) with
   | exception J.Journal_error _ -> ()
   | exception Unix.Unix_error (Unix.EIO, _, _) -> ()
   | _ -> Alcotest.fail "unbounded EIO must surface an error");
  (try J.close j with J.Journal_error _ -> ());
  (* the journal still recovers to the pre-update state *)
  let recovered =
    recover_state ~ctx:"eio-exhaust" jpath (Test_tmp.file "no_snapshot.xis")
  in
  checks "no partial state" (xml (base_repo ())) recovered;
  cleanup jpath

let () =
  let sweep =
    List.init seeds (fun s ->
        Alcotest.test_case (Printf.sprintf "seed %d" s) `Quick (fun () ->
            run_sweep s))
  in
  Alcotest.run "torture"
    [
      ( "crash surface",
        [ Alcotest.test_case "sites declared" `Quick
            test_crash_surface_registered ] );
      ("crash sweep", sweep);
      ( "io resilience",
        [
          Alcotest.test_case "injected EIO absorbed" `Quick
            test_injected_eio_absorbed;
          Alcotest.test_case "EIO exhaustion" `Quick
            test_eio_exhaustion_fails_cleanly;
        ] );
    ]
