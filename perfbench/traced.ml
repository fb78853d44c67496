(* The traced run.  It replays the workload's seeded script in-process
   against a twin of the server's repository and times each call into a
   layer's public function from here, as spans kept in memory: name,
   start, end, parent and request id.  Nothing inside the library is
   instrumented.

   Phases: (1) a short untraced window against the real server (ping
   round trips, the untraced request times the accounting needs); (2) the
   twin's set-up, one timed call per step; (3) the traced replay of the
   same requests; (4) probes of the layers the script does not reach
   (apply/rollback, journal appends, restart, pins, full check), so every
   per-layer metric is measured on every workload. *)

module P = Xic_server.Protocol
module R = Xic_core.Repository
module Srv = Xic_server.Server
module J = Xic_journal.Journal
module XU = Xic_xupdate.Xupdate

(* ------------------------------------------------------------------ *)
(* Spans and samples                                                   *)
(* ------------------------------------------------------------------ *)

type span = { name : string; rid : int; parent : int; start : int64; mutable stop : int64 }

let spans : span list ref = ref []  (* newest first *)
let n_spans = ref 0
let open_ids : int list ref = ref []
let rid = ref 0

let samples : (string, Stats.t) Hashtbl.t = Hashtbl.create 64

let sample name v =
  let s =
    match Hashtbl.find_opt samples name with
    | Some s -> s
    | None -> let s = Stats.create () in Hashtbl.replace samples name s; s
  in
  Stats.add s v

(* Run [f] inside a span; returns its result and duration in ns. *)
let span name f =
  let id = !n_spans in
  incr n_spans;
  let parent = match !open_ids with p :: _ -> p | [] -> -1 in
  let sp = { name; rid = !rid; parent; start = Xic_obs.Obs.Clock.now_ns (); stop = 0L } in
  spans := sp :: !spans;
  open_ids := id :: !open_ids;
  let finish () =
    sp.stop <- Xic_obs.Obs.Clock.now_ns ();
    open_ids := List.tl !open_ids
  in
  let r = Fun.protect ~finally:finish f in
  (r, Int64.to_float (Int64.sub sp.stop sp.start))

(* Nanoseconds spent in timed layer calls since the replay last reset it:
   the part of a request that some layer's span covers. *)
let covered = ref 0.

let layer name f = let r, ns = span name f in covered := !covered +. ns; (r, ns)

(* A timed layer call whose duration is also a sample of [metric]. *)
let us metric f = let r, ns = layer metric f in sample metric (ns /. 1e3); r
let ms metric f = let r, ns = layer metric f in sample metric (ns /. 1e6); r

(* ------------------------------------------------------------------ *)
(* Counters                                                            *)
(* ------------------------------------------------------------------ *)

(* Plan-cache and index hits around pre-checks. *)
let plan_hits = ref 0 and plan_total = ref 0
let index_hits = ref 0 and index_total = ref 0

let precheck repo p v =
  let ps0 = R.plan_stats repo and ix0 = R.index_stats repo in
  let ix_tot (s : Xic_xml.Index.stats) = s.hits + s.misses + s.fallbacks in
  let h0, t0 = match ix0 with Some s -> (s.hits, ix_tot s) | None -> (0, 0) in
  let r = ms "precheck.ms" (fun () -> R.try_check_optimized repo p v) in
  let ps1 = R.plan_stats repo in
  plan_hits := !plan_hits + ps1.R.plan_hits - ps0.R.plan_hits;
  plan_total :=
    !plan_total + ps1.R.plan_hits + ps1.R.plan_misses - ps0.R.plan_hits - ps0.R.plan_misses;
  (match R.index_stats repo with
   | Some s ->
     index_hits := !index_hits + s.hits - h0;
     index_total := !index_total + ix_tot s - t0
   | None -> ());
  r

(* Delta and view-maintenance work, summed over the windows counted. *)
type work = { mutable writes : int; mutable facts : int; mutable evals : int; mutable reverifies : int;
              mutable recomputes : int; mutable skips : int }

let work = { writes = 0; facts = 0; evals = 0; reverifies = 0; recomputes = 0; skips = 0 }

let count_work (a : R.delta_stats) (b : R.delta_stats) =
  work.facts <- work.facts + b.delta_facts_added - a.delta_facts_added + b.delta_facts_removed
                - a.delta_facts_removed;
  work.evals <- work.evals + b.incr_evals - a.incr_evals;
  work.reverifies <- work.reverifies + b.incr_reverifies - a.incr_reverifies;
  work.recomputes <- work.recomputes + b.incr_recomputes - a.incr_recomputes;
  work.skips <- work.skips + b.incr_skipped - a.incr_skipped

let sample_retained repo =
  sample "retained.bytes" (float (R.retained_bytes repo));
  sample "retained.generations" (float (List.length (R.retained_generations repo)))

(* ------------------------------------------------------------------ *)
(* Twin set-up                                                         *)
(* ------------------------------------------------------------------ *)

let pattern schema =
  match XU.parse_string Inputs.pattern_text with
  | [ m ] -> Xic_core.Pattern.of_modification schema ~name:"pattern" m
  | _ -> failwith "pattern file must hold one modification"

(* Constraints, pattern and incremental checking, as [xicheck serve]
   configures its repository. *)
let configure repo =
  let schema = R.schema repo in
  ms "constraints.compile_ms" (fun () ->
      List.iter (R.add_constraint repo) (Inputs.constraints schema));
  ms "simplify.register_ms" (fun () -> R.register_pattern repo (pattern schema));
  R.set_incremental repo true

let twin_of_documents (inputs : Inputs.t) =
  let repo = R.create (Inputs.Conf.schema ()) in
  ms "ingest.load_ms" (fun () ->
      R.load_fused ~validate:true repo inputs.Inputs.ds.Inputs.Gen.pub_xml;
      R.load_fused ~validate:true repo inputs.Inputs.ds.Inputs.Gen.rev_xml);
  configure repo;
  ignore (ms "views.init_ms" (fun () -> R.check_incremental repo));
  repo

let twin_of_snapshot path =
  let repo = R.create (Inputs.Conf.schema ()) in
  let meta = ms "snapshot.load_ms" (fun () -> R.load_snapshot repo path) in
  configure repo;
  (repo, meta)

let guard ?journal repo stmt =
  match R.guarded_update ?journal repo (XU.parse_string stmt) with
  | R.Applied _ -> ()
  | _ -> failwith "probe: a legal statement was refused"

(* ------------------------------------------------------------------ *)
(* Probes                                                              *)
(* ------------------------------------------------------------------ *)

(* The restart path (snapshot load, then a journal suffix replayed), and
   then the layers the workload's script may not reach, on the restarted
   repository: parse, match, pre-check, apply/rollback, journal appends,
   flush, pins, time travel and the full check. *)
let probe ~dir ~seed ~budget inputs twin =
  let f = Filename.concat dir in
  let snap = f "probe.xis" and suffix = f "probe.j" in
  ignore (R.checkpoint twin snap);
  let legal = Script.create ~workload:"guard_writes" ~seed:(seed + 2) inputs in
  let pair () =
    match Script.legal_write legal with
    | Script.Write a, Script.Write b -> (a.stmt, b.stmt)
    | _ -> assert false
  in
  (* a journal suffix past the snapshot *)
  let r2, _ = twin_of_snapshot snap in
  let j2 = J.open_ suffix in
  for _ = 1 to 4 do
    let ins, wd = pair () in
    guard ~journal:j2 r2 ins;
    guard ~journal:j2 r2 wd
  done;
  J.close j2;
  let repo, meta = twin_of_snapshot snap in
  let report =
    ms "journal.replay_ms" (fun () ->
        let rr = J.read suffix in
        R.recover ~skip:(R.recover_skip meta rr) rr repo)
  in
  if report.R.replay_errors <> [] || report.R.post_violations <> [] then
    failwith "probe: journal replay did not restore a consistent state";
  let jr = J.open_ (f "probe-writes.j") and ja = J.open_ (f "probe-append.j") in
  let t0 = Stats.now_s () in
  let i = ref 0 in
  while !i < 3 || (Stats.now_s () -. t0 < budget && !i < 12) do
    incr i;
    incr rid;
    let ins, wd = pair () in
    let u = us "xupdate.parse_us" (fun () -> XU.parse_string ins) in
    (match us "pattern.match_us" (fun () -> R.match_update repo u) with
     | Some (p, v) ->
       if fst (precheck repo p v) <> [] then failwith "probe: legal insert refused by the pre-check"
     | None -> failwith "probe: legal insert matched no pattern");
    let undo = us "xupdate.apply_us" (fun () -> R.apply_unchecked repo u) in
    us "xupdate.rollback_us" (fun () -> R.rollback repo undo);
    ignore (R.store repo);
    let txn = J.next_txn ja in
    us "journal.append_us" (fun () ->
        J.append ~defer_sync:true ja (J.Intent { txn; seq = 0; strategy = "optimized"; payload = ins }));
    ms "journal.fsync_ms" (fun () -> J.append ja (J.Commit { txn }));
    (* a real guarded write, its flush, and reads of the new generation *)
    let d0 = R.delta_stats repo and b0 = J.bytes jr in
    guard ~journal:jr repo ins;
    sample "journal.bytes_per_write" (float (J.bytes jr - b0));
    ms "mirror.flush_ms" (fun () -> ignore (R.store repo));
    count_work d0 (R.delta_stats repo);
    work.writes <- work.writes + 1;
    ignore (us "verdict.live_us" (fun () -> R.check_incremental repo));
    let p1 = R.pin repo in
    let p2 = us "pin.open_us" (fun () -> R.pin repo) in
    if ms "pinned.eval_ms" (fun () -> R.check_pinned repo p2) <> [] then
      failwith "probe: pinned verdict not consistent";
    R.unpin repo p2;
    R.unpin repo p1;
    let g = R.pin_generation p1 in
    let d1 = R.delta_stats repo in
    guard ~journal:jr repo wd;
    count_work d1 (R.delta_stats repo);
    work.writes <- work.writes + 1;
    if ms "asof.eval_ms" (fun () -> R.check_as_of repo g) <> Some [] then
      failwith "probe: as_of verdict not consistent";
    if ms "verdict.full_ms" (fun () -> R.check_full repo) <> [] then
      failwith "probe: full check not consistent";
    sample_retained repo
  done;
  J.close jr;
  J.close ja

(* ------------------------------------------------------------------ *)
(* The traced replay                                                   *)
(* ------------------------------------------------------------------ *)

(* Replay [n] requests of the script through [Server.handle] on the twin.
   Before handing a request over, the layer calls the server will make
   are timed on the same state (the "shadow" calls), so each request's
   span tree splits into layers; [server.dispatch_us] is the handle time
   of a live check minus its verdict call.  Returns, per request, the
   in-process time without the shadows (ms), the time with them, and the
   part of it the layer spans cover. *)
let replay ~journal ~n ~st ~script twin =
  let server = Srv.create ~config:{ Srv.default_config with journal = Some journal } twin in
  let inproc = Stats.create () and traced = Stats.create () and attributed = Stats.create () in
  let dirty = ref false and sent = ref 0 in
  let d0 = R.delta_stats twin in
  (* the flush a write left pending, paid by the next read: taken out of
     the handle call rather than repeated, so it counts as real work *)
  let flush () =
    if !dirty then begin
      dirty := false;
      let (), ns = layer "mirror.flush_ms" (fun () -> ignore (R.store twin)) in
      sample "mirror.flush_ms" (ns /. 1e6);
      ns
    end
    else 0.
  in
  let one req =
    incr rid;
    covered := 0.;
    let real = ref 0. in
    let real_us metric f = let r, ns = layer metric f in sample metric (ns /. 1e3); real := !real +. ns; r in
    let (), root_ns =
      span "request" @@ fun () ->
      let payload = real_us "protocol.encode_us" (fun () -> P.to_string (Script.to_json req)) in
      let decoded = real_us "protocol.decode_us" (fun () -> P.of_string payload) in
      (* shadow calls on the pre-request state *)
      let verdict_ns =
        match req with
        | Script.Check ->
          real := !real +. flush ();
          snd (layer "verdict.live_us" (fun () -> R.check_incremental twin))
        | Script.Write { stmt; _ } ->
          let u = us "xupdate.parse_us" (fun () -> XU.parse_string stmt) in
          (match us "pattern.match_us" (fun () -> R.match_update twin u) with
           | Some (p, v) -> ignore (precheck twin p v)
           | None -> ());
          0.
      in
      let b0 = J.bytes journal in
      let resp, handle_ns = span "server.handle" (fun () -> Srv.handle server decoded) in
      real := !real +. handle_ns;
      if req = Script.Check then begin
        sample "verdict.live_us" (verdict_ns /. 1e3);
        sample "server.dispatch_us" ((handle_ns -. verdict_ns) /. 1e3)
      end;
      let reply = real_us "protocol.encode_us" (fun () -> P.to_string resp) in
      let resp = real_us "protocol.decode_us" (fun () -> P.of_string reply) in
      let gen0 = st.Script.gen in
      Script.verify st req resp;
      (match req with
       | Script.Write _ ->
         let outcome = Script.str "outcome" resp in
         if st.Script.gen > gen0 then sample "journal.bytes_per_write" (float (J.bytes journal - b0));
         if outcome = "applied" || outcome = "rolled_back" then work.writes <- work.writes + 1;
         (* a pre-checked write leaves its flush to the next read; a
            fallback write flushed for its own post-check *)
         if (outcome = "applied" && Script.str "strategy" resp = "optimized")
            || outcome = "rolled_back"
         then dirty := true
       | Script.Check -> ())
    in
    Stats.add inproc (!real /. 1e6);
    Stats.add traced (root_ns /. 1e6);
    Stats.add attributed (!covered /. 1e6)
  in
  while !sent < n do
    List.iter (fun req -> if !sent < n then (incr sent; one req)) (Script.next_round script)
  done;
  count_work d0 (R.delta_stats twin);
  (inproc, traced, attributed)

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

let write_spans path =
  let oc = open_out path in
  List.iteri
    (fun i sp ->
      Printf.fprintf oc "{\"id\":%d,\"name\":%S,\"rid\":%d,\"parent\":%d,\"start_ns\":%Ld,\"end_ns\":%Ld}\n"
        i sp.name sp.rid sp.parent sp.start sp.stop)
    (List.rev !spans);
  close_out oc

(* Per span name: calls, total self time (ms), median self time (us). *)
let self_table () =
  let all = Array.of_list (List.rev !spans) in
  let dur sp = Int64.to_float (Int64.sub sp.stop sp.start) in
  let child = Array.make (Array.length all) 0. in
  Array.iter (fun sp -> if sp.parent >= 0 then child.(sp.parent) <- child.(sp.parent) +. dur sp) all;
  let by = Hashtbl.create 32 in
  Array.iteri
    (fun i sp ->
      let s = match Hashtbl.find_opt by sp.name with Some s -> s | None -> Stats.create () in
      Hashtbl.replace by sp.name s;
      Stats.add s ((dur sp -. child.(i)) /. 1e3))
    all;
  Hashtbl.fold (fun name s acc -> (name, Stats.count s, Stats.sum s /. 1e3, Stats.median s) :: acc) by []
  |> List.sort (fun (_, _, a, _) (_, _, b, _) -> compare b a)

let per_layer =
  [ ("protocol.ping_rtt_us", "us"); ("protocol.decode_us", "us"); ("protocol.encode_us", "us");
    ("server.dispatch_us", "us"); ("verdict.live_us", "us"); ("xupdate.parse_us", "us");
    ("pattern.match_us", "us"); ("precheck.ms", "ms"); ("xupdate.apply_us", "us");
    ("xupdate.rollback_us", "us"); ("journal.append_us", "us"); ("journal.fsync_ms", "ms");
    ("journal.bytes_per_write", "bytes"); ("mirror.flush_ms", "ms"); ("verdict.full_ms", "ms");
    ("pin.open_us", "us"); ("pinned.eval_ms", "ms"); ("asof.eval_ms", "ms");
    ("retained.bytes", "bytes"); ("retained.generations", "count"); ("ingest.load_ms", "ms");
    ("constraints.compile_ms", "ms"); ("simplify.register_ms", "ms"); ("views.init_ms", "ms");
    ("snapshot.load_ms", "ms"); ("journal.replay_ms", "ms") ]

let max_requests = 5000

let run ~workload ~seed ~seconds ~dir ~sabotage : Live.result =
  (* 1. the untraced reference window against the real server *)
  let l = Live.launch ~workload ~seed ~dir in
  let srv, _, first = Live.start l in
  let fd = Wire.conn srv in
  let ping = P.to_string (Script.op "ping" []) in
  for _ = 1 to 500 do
    sample "protocol.ping_rtt_us" (snd (Wire.round_trip fd ping) *. 1e3)
  done;
  let st = Script.state ~gen:(Script.int "generation" first) in
  if sabotage then st.Script.gen <- st.Script.gen + 1;
  let untraced = Stats.create () in
  let window = Float.max 1. (float seconds /. 3.) in
  let n =
    Live.drive ~max:max_requests ~fd ~st ~script:(Script.create ~workload ~seed l.Live.inputs)
      ~deadline:(Stats.now_s () +. window) (fun _ ms -> Stats.add untraced ms)
  in
  let mismatches, final = Live.finish l srv st in
  (* 2. the twin, set up one timed layer call at a time *)
  let twin = twin_of_documents l.Live.inputs in
  (* 3. the traced replay of the same requests *)
  let st' = Script.state ~gen:(R.generation twin) in
  if sabotage then st'.Script.gen <- st'.Script.gen + 1;
  let journal = J.open_ (Filename.concat dir "twin.j") in
  let inproc, traced, attributed =
    replay ~journal ~n ~st:st' ~script:(Script.create ~workload ~seed l.Live.inputs) twin
  in
  let view_rows = (R.delta_stats twin).R.incr_view_rows in
  (* 4. probes *)
  probe ~dir ~seed ~budget:(float seconds /. 4.) l.Live.inputs twin;
  J.close journal;
  (* accounting *)
  let med name =
    match Hashtbl.find_opt samples name with
    | Some s when Stats.count s > 0 -> Stats.median s
    | _ -> failwith ("no samples of " ^ name)
  in
  let ratio a b = if b = 0 then failwith "ratio over no events" else float a /. float b in
  let ping_ms = med "protocol.ping_rtt_us" /. 1e3 in
  let u = Stats.median untraced in
  (* Shares of the total untraced request time, not of a median: the
     mix's classes differ by orders of magnitude, and medians of a
     mixture do not add up.  Both runs send the same [n] requests; each
     is charged the mean ping round trip, tail included as in [untraced]. *)
  let pings = Hashtbl.find samples "protocol.ping_rtt_us" in
  let ping_mean_ms = Stats.sum pings /. float (Stats.count pings) /. 1e3 in
  let share_of_untraced s = (Stats.sum s +. (float n *. ping_mean_ms)) /. Stats.sum untraced in
  let per_write x = ratio x work.writes in
  let metrics =
    List.map (fun (name, unit) -> (name, med name, unit)) per_layer
    @ [ ("precheck.plan_hit_ratio", ratio !plan_hits !plan_total, "ratio");
        ("index.hit_ratio", ratio !index_hits !index_total, "ratio");
        ("delta.facts_per_write", per_write work.facts, "count");
        ("incr.evals_per_write", per_write work.evals, "count");
        ("incr.reverifies_per_write", per_write work.reverifies, "count");
        ("incr.recomputes_per_write", per_write work.recomputes, "count");
        ("incr.skips_per_write", per_write work.skips, "count");
        ("incr.recompute_share", ratio work.recomputes (work.evals + work.recomputes + work.skips), "ratio");
        ("incr.view_rows", float view_rows, "count");
        ("trace.unattributed_share", 1. -. share_of_untraced attributed, "ratio");
        ("trace.overhead_pct", 100. *. (share_of_untraced traced -. 1.), "%") ]
  in
  let traces = Filename.concat (Filename.dirname dir) "traces" in
  if not (Sys.file_exists traces) then Sys.mkdir traces 0o755;
  let trace_file = Filename.concat traces (Printf.sprintf "%s-seed%d.jsonl" workload seed) in
  write_spans trace_file;
  let attempted = 2 * n and failed = st.Script.wrong + st'.Script.wrong + List.length mismatches in
  let details =
    [ Live.describe l ~workload ~seed
      ^ Printf.sprintf "; %d requests untraced over the socket, then replayed in-process" n;
      Printf.sprintf
        "request p50: untraced %.4f ms, in-process %.4f ms, traced %.4f ms; ping %.1f us; totals: untraced %.1f ms, traced %.1f ms, covered by layer spans %.1f ms"
        u (Stats.median inproc) (Stats.median traced) (ping_ms *. 1e3) (Stats.sum untraced)
        (Stats.sum traced) (Stats.sum attributed);
      Printf.sprintf "%d spans written to %s" !n_spans trace_file;
      Printf.sprintf "%-28s %8s %12s %14s" "span" "calls" "self_ms" "self_p50_us" ]
    @ List.map
        (fun (name, calls, total, p50) -> Printf.sprintf "%-28s %8d %12.3f %14.2f" name calls total p50)
        (self_table ())
    @ (Live.failed_line ~failed ~attempted st :: final)
    @ mismatches
  in
  { Live.attempted; failed; metrics; details }
