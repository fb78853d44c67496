(* The untraced run: set up [xicheck serve] several times on the seeded
   input files, then drive it from one single-threaded client in a closed
   loop for the measured window, checking every reply, and finally
   compare the server's verdict and store with a fresh in-process replay
   of the acknowledged statements. *)

module P = Xic_server.Protocol
module R = Xic_core.Repository

type result = {
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (* name, value, unit *)
  details : string list;  (* human-readable lines *)
}

(* Server starts per run: at least [min_starts], and more until
   [min_setup_s] have passed, so that short set-ups sample the host over
   seconds rather than one burst.  [setup_s] is their median. *)
let min_starts = 15
let min_setup_s = 4.

(* The window is cut into slices of this many seconds, at round
   boundaries, and each timing metric is the figure of its fastest
   slices.  The host's speed changes from second to second, and how many
   of a run's seconds are slow changes from minute to minute; the figures
   of its fastest seconds change far less. *)
let slice_s = 1.

(* Peak memory is read once the window has served this many requests, so
   that it prices the same work in a fast run and a slow one: the server's
   resident size grows with the writes it has served. *)
let rss_after = 4000

(* A fresh repository from the base documents, the acknowledged
   statements applied in order: its fact count and full-check verdict. *)
let replay_fresh (inputs : Inputs.t) acked =
  let repo = R.create (Inputs.Conf.schema ()) in
  R.load_fused ~validate:false repo inputs.Inputs.ds.Inputs.Gen.pub_xml;
  R.load_fused ~validate:false repo inputs.Inputs.ds.Inputs.Gen.rev_xml;
  List.iter (R.add_constraint repo) (Inputs.constraints (R.schema repo));
  List.iter
    (fun s -> ignore (R.apply_unchecked repo (Xic_xupdate.Xupdate.parse_string s)))
    acked;
  (Xic_datalog.Store.total_tuples (R.store repo), R.check_full repo)

let counter name stats =
  match P.member "metrics" stats with
  | Some m ->
    (match P.member "counters" m with
     | Some c -> Option.value ~default:(-1) (P.int_field name c)
     | None -> -1)
  | None -> -1

(* Everything a server start needs: the seeded inputs and the serve
   arguments. *)
type launch = { inputs : Inputs.t; args : string list; journal : string; sock : string; log : string }

let launch ~workload ~seed ~dir =
  let inputs = Inputs.generate ~workload ~seed in
  let files = Inputs.write_files inputs dir in
  let f = Filename.concat dir in
  let sock = f "s.sock" and log = f "server.log" and journal = f "wal.j" in
  let args =
    [ "--dtd"; files.Inputs.pub_dtd ^ "=dblp"; "--dtd"; files.Inputs.rev_dtd ^ "=review";
      "--constraints"; files.Inputs.constraints; "--pattern"; files.Inputs.pattern;
      "--journal"; journal; "--doc"; files.Inputs.pub; "--doc"; files.Inputs.rev ]
  in
  { inputs; args; journal; sock; log }

(* Every start begins from the documents with an empty journal. *)
let start l =
  (try Sys.remove l.journal with Sys_error _ -> ());
  Wire.start ~args:l.args ~sock:l.sock ~log:l.log

(* The closed loop: send the script's requests one at a time until the
   deadline or [max] requests, checking each reply; [sample] gets each
   request's class and round-trip milliseconds, [round_done] the count
   after each round.  Returns the count. *)
let drive ?(max = max_int) ?(round_done = ignore) ~fd ~st ~script ~deadline sample =
  let n = ref 0 in
  while Stats.now_s () < deadline && !n < max do
    List.iter
      (fun req ->
        if Stats.now_s () < deadline && !n < max then begin
          let payload = P.to_string (Script.to_json req) in
          let reply, ms = Wire.round_trip fd payload in
          incr n;
          Script.verify st req (P.of_string reply);
          sample (Script.cls_of req) ms
        end)
      (Script.next_round script);
    round_done !n
  done;
  !n

(* After the window: the server's verdict, store and resources, checked
   against a fresh in-process replay of every acknowledged statement.
   Stops the server.  Returns the mismatches and detail lines. *)
let finish l srv st =
  let fd = Wire.conn srv in
  let verdict = Wire.request fd (Script.op "check" []) in
  let stats = Wire.request fd (Script.op "stats" []) in
  let history = Wire.request fd (Script.op "history" []) in
  let clean = Wire.stop srv in
  let acked = List.rev st.Script.acked in
  let facts, violated = replay_fresh l.inputs acked in
  let server_facts = counter "serve_store_facts" stats in
  let mismatches =
    List.filter_map Fun.id
      [ (if server_facts <> facts then
           Some (Printf.sprintf "store facts: server %d, fresh replay %d" server_facts facts)
         else None);
        (let v =
           List.map (function P.String c -> c | j -> P.to_string j)
             (Option.value ~default:[] (P.list_field "violated" verdict))
         in
         if List.sort compare v <> List.sort compare violated
            || P.bool_field "consistent" verdict <> (violated = [])
         then
           Some (Printf.sprintf "final verdict: server %s, fresh replay [%s]" (P.to_string verdict)
                   (String.concat "," violated))
         else None);
        (if clean then None else Some "server did not shut down cleanly") ]
  in
  let details =
    [ Printf.sprintf
        "history.pin_bytes=%d stats.journal_bytes=%d stats.store_facts=%d fresh_replay_facts=%d acked=%d"
        (Script.int "pin_bytes" history)
        (counter "serve_journal_bytes_since_checkpoint" stats)
        server_facts facts (List.length acked) ]
  in
  (mismatches, details)

let describe (l : launch) ~workload ~seed =
  let s = l.inputs.Inputs.ds.Inputs.Gen.stats in
  Printf.sprintf "workload %s, seed %d: %d bytes, %d submissions, %d write anchors" workload seed
    s.Inputs.Gen.bytes s.Inputs.Gen.submissions (Array.length l.inputs.Inputs.anchors)

let failed_line ~failed ~attempted st =
  Printf.sprintf "failed_frac=%.6f (%d of %d)%s" (float failed /. float (max 1 attempted)) failed
    attempted (if st.Script.wrong > 0 then "; last wrong reply: " ^ st.Script.last_error else "")

let run ~workload ~seed ~seconds ~dir ~sabotage =
  let l = launch ~workload ~seed ~dir in
  (* set-up, several times; the last server stays up for the window *)
  let setup = Stats.create () and t_setup = Stats.now_s () in
  let rec starts i =
    let srv, s, first = start l in
    Stats.add setup s;
    if i < min_starts || Stats.now_s () -. t_setup < min_setup_s then begin
      if not (Wire.stop srv) then Wire.fail "server did not stop cleanly";
      starts (i + 1)
    end
    else (srv, first)
  in
  let srv, first = starts 1 in
  let st = Script.state ~gen:(Script.int "generation" first) in
  if sabotage then st.Script.gen <- st.Script.gen + 1;
  let script = Script.create ~workload ~seed l.inputs in
  let by_cls = Hashtbl.create 8 and all = Stats.create () in
  let cls_stats c =
    match Hashtbl.find_opt by_cls c with
    | Some s -> s
    | None -> let s = Stats.create () in Hashtbl.replace by_cls c s; s
  in
  (* Per slice: its request rate, its 90th percentile request and its
     median read. *)
  let rates = Stats.create () and p90s = Stats.create () and read_p50s = Stats.create () in
  let slice_all = ref (Stats.create ()) and slice_reads = ref (Stats.create ()) in
  let rss = ref nan in
  let t0 = Stats.now_s () in
  let slice_t = ref t0 and slice_n = ref 0 in
  let close_slice now n =
    Stats.add rates (float (n - !slice_n) /. (now -. !slice_t));
    Stats.add p90s (Stats.quantile !slice_all 0.9);
    if Stats.count !slice_reads > 0 then Stats.add read_p50s (Stats.median !slice_reads);
    slice_t := now;
    slice_n := n;
    slice_all := Stats.create ();
    slice_reads := Stats.create ()
  in
  let round_done n =
    let now = Stats.now_s () in
    if now -. !slice_t >= slice_s then close_slice now n
  in
  let attempted =
    drive ~round_done ~fd:(Wire.conn srv) ~st ~script ~deadline:(t0 +. float seconds) (fun c ms ->
        Stats.add all ms;
        Stats.add (cls_stats c) ms;
        Stats.add !slice_all ms;
        if c = Script.Read then Stats.add !slice_reads ms;
        if Stats.count all = rss_after then rss := Wire.peak_rss_mb srv)
  in
  let elapsed = Stats.now_s () -. t0 in
  (* a window shorter than a slice is one slice *)
  if Stats.count rates = 0 then close_slice (Stats.now_s ()) attempted;
  if Float.is_nan !rss then rss := Wire.peak_rss_mb srv;
  let mismatches, final = finish l srv st in
  let failed = st.Script.wrong + List.length mismatches in
  let q = Stats.quantile in
  (* the figure of the fastest twentieth of the slices *)
  let fast_low s = q s 0.05 and fast_high s = q s 0.95 in
  let details =
    [ describe l ~workload ~seed
      ^ Printf.sprintf "; %d requests in %.2f s (%.2f/s overall); request p50 %.4f ms" attempted
          elapsed (float attempted /. elapsed) (q all 0.5);
      Printf.sprintf
        "samples: setup_s n=%d [%s]; %d slices of %.0f s (%d requests, %d reads); server_rss_mb after %d requests"
        (Stats.count setup)
        (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.3f") (Stats.sorted setup))))
        (Stats.count rates) slice_s (Stats.count all) (Stats.count (cls_stats Script.Read))
        (min rss_after attempted);
      Printf.sprintf
        "slice ops_per_s q25/q50/q75 %.1f/%.1f/%.1f; slice request_p90_ms q05/q25/q50/q75 %.4f/%.4f/%.4f/%.4f"
        (q rates 0.25) (q rates 0.5) (q rates 0.75) (fast_low p90s) (q p90s 0.25) (q p90s 0.5)
        (q p90s 0.75) ]
    @ List.filter_map
        (fun c ->
          match Hashtbl.find_opt by_cls c with
          | None -> None
          | Some s ->
            let pct p label =
              if Stats.supports s p then
                Printf.sprintf " %s_%s_ms=%.4f" (Script.cls_name c) label (q s p)
              else ""
            in
            Some
              (Printf.sprintf "class %s: n=%d%s%s%s" (Script.cls_name c) (Stats.count s)
                 (pct 0.5 "p50") (pct 0.9 "p90") (pct 0.99 "p99")))
        [ Script.Read; Script.Guard; Script.Fallback ]
    @ (failed_line ~failed ~attempted st :: final)
    @ mismatches
  in
  let metrics =
    [ ("setup_s", Stats.median setup, "s");
      ("ops_per_s", fast_high rates, "1/s");
      ("read_p50_ms", fast_low read_p50s, "ms");
      ("server_rss_mb", !rss, "MB") ]
  in
  { attempted; failed; metrics; details }
