(* The repository benchmark.

     xibench --workload NAME --seed N --seconds S --trace 0|1

   With --trace 0 it drives a real [xicheck serve] over a Unix socket and
   reports the end-to-end metrics; with --trace 1 it replays the same
   seeded script in-process and reports the per-layer metrics.  Either
   way every reply is checked; the last line of standard output is one
   JSON object {correct, attempted, failed, metrics}, and the exit code is
   non-zero when any reply or the final state was wrong.  Workloads and
   metrics are described in perfbench/README.md. *)

let workload = ref ""
let seed = ref 1
let seconds = ref 10
let trace = ref 0
let sabotage = ref false

let spec =
  [ ("--workload", Arg.Set_string workload, "NAME live_reads | guard_writes");
    ("--seed", Arg.Set_int seed, "N seed of the generated inputs and request script");
    ("--seconds", Arg.Set_int seconds, "S length of the measured window");
    ("--trace", Arg.Set_int trace, "0|1 end-to-end run (0) or traced per-layer run (1)");
    ( "--wrong-expectation",
      Arg.Set sabotage,
      " self-test: expect a wrong generation, so the run must fail" ) ]

let usage = "xibench --workload NAME --seed N --seconds S --trace 0|1"

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let json_number x =
  if Float.is_finite x then Printf.sprintf "%.17g" x else failwith "metric is not a finite number"

let () =
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if not (List.mem !workload Script.workloads) then (prerr_endline usage; exit 2);
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then (prerr_endline usage; exit 2);
  if not (Sys.file_exists Wire.xicheck) then (prerr_endline ("xibench: missing " ^ Wire.xicheck); exit 2);
  let root = ".perfbench_run" in
  if not (Sys.file_exists root) then Sys.mkdir root 0o755;
  let dir = Filename.concat root (Printf.sprintf "%s-%d-%d" !workload !seed (Unix.getpid ())) in
  Sys.mkdir dir 0o755;
  let outcome =
    match
      if !trace = 0 then
        Live.run ~workload:!workload ~seed:!seed ~seconds:!seconds ~dir ~sabotage:!sabotage
      else Traced.run ~workload:!workload ~seed:!seed ~seconds:!seconds ~dir ~sabotage:!sabotage
    with
    | r -> Ok r
    | exception e -> Error (Printexc.to_string e)
  in
  Wire.kill_all ();
  match outcome with
  | Error m ->
    prerr_endline (Printf.sprintf "xibench: %s (inputs and server log kept in %s)" m dir);
    exit 1
  | Ok r ->
    rm_rf dir;
    List.iter (fun l -> print_endline ("# " ^ l)) r.Live.details;
    let metrics =
      List.map
        (fun (name, v, unit) ->
          Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
        r.Live.metrics
    in
    Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
      (r.Live.failed = 0) r.Live.attempted r.Live.failed (String.concat ", " metrics);
    if r.Live.failed > 0 then exit 1
