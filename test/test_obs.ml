(* Observability layer: histogram bucketing, span-tree nesting and its
   bounded root list, export shape. *)

module Obs = Xic_obs.Obs
module Trace = Obs.Trace
module Metrics = Obs.Metrics

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* Each test that enables tracing restores the globals on exit so the
   suite stays order-independent. *)
let with_tracing f =
  Trace.set_enabled true;
  Trace.reset ();
  Fun.protect
    ~finally:(fun () ->
      Trace.set_enabled false;
      Trace.reset ())
    f

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)
(* ------------------------------------------------------------------ *)

let test_bucket_of_ns () =
  checki "ns<=0 -> 0" 0 (Metrics.bucket_of_ns 0);
  checki "negative -> 0" 0 (Metrics.bucket_of_ns (-5));
  checki "1ns" 1 (Metrics.bucket_of_ns 1);
  checki "2ns" 2 (Metrics.bucket_of_ns 2);
  checki "3ns" 2 (Metrics.bucket_of_ns 3);
  checki "4ns" 3 (Metrics.bucket_of_ns 4);
  checki "1023ns" 10 (Metrics.bucket_of_ns 1023);
  checki "1024ns" 11 (Metrics.bucket_of_ns 1024);
  (* max_int is 2^62 - 1, so its bucket is 1 + 61; the 63 cap only
     guards hypothetical larger inputs *)
  checki "max_int" 62 (Metrics.bucket_of_ns max_int);
  (* buckets are monotone in ns *)
  let prev = ref 0 in
  for e = 0 to 40 do
    let b = Metrics.bucket_of_ns (1 lsl e) in
    checkb "monotone" true (b >= !prev);
    prev := b
  done

let test_histogram_observe () =
  let h = Metrics.histogram "test_histogram_observe" in
  Metrics.observe_ns h 1;
  Metrics.observe_ns h 3;
  Metrics.observe_ns h 1024;
  let s = Metrics.hsnap h in
  checki "count" 3 s.Metrics.count;
  checki "sum" 1028 s.Metrics.sum_ns;
  checki "bucket(1)" 1 s.Metrics.buckets.(1);
  checki "bucket(3)" 1 s.Metrics.buckets.(2);
  checki "bucket(1024)" 1 s.Metrics.buckets.(11);
  checki "total bucketed = count" s.Metrics.count
    (Array.fold_left ( + ) 0 s.Metrics.buckets)

let test_histogram_quantile () =
  let h = Metrics.histogram "test_histogram_quantile" in
  (* 9 fast observations, 1 slow: p50 sits in the fast bucket, p99 in
     the slow one.  Quantiles report the bucket's upper edge in ms. *)
  for _ = 1 to 9 do
    Metrics.observe_ns h 1000 (* bucket 10, upper edge 1024ns *)
  done;
  Metrics.observe_ns h 1_000_000 (* bucket 20, upper edge ~1.05ms *);
  let s = Metrics.hsnap h in
  Alcotest.(check (float 1e-9)) "p50 = fast bucket edge"
    (float_of_int (1 lsl 10) /. 1e6)
    (Metrics.hsnap_quantile s 0.50);
  Alcotest.(check (float 1e-9)) "p99 = slow bucket edge"
    (float_of_int (1 lsl 20) /. 1e6)
    (Metrics.hsnap_quantile s 0.99);
  let empty = { Metrics.count = 0; sum_ns = 0; buckets = Array.make 64 0 } in
  Alcotest.(check (float 0.0)) "empty -> 0" 0.0 (Metrics.hsnap_quantile empty 0.5)

let test_counters () =
  let c = Metrics.counter "test_counter" in
  checkb "interned handle is stable" true (c == Metrics.counter "test_counter");
  Metrics.incr c;
  Metrics.add c 4;
  checki "value" 5 (Metrics.value c);
  let cs, _ = Metrics.snapshot () in
  checki "snapshot sees it" 5
    (Option.value ~default:(-1) (List.assoc_opt "test_counter" cs));
  (* snapshot is name-sorted *)
  checkb "sorted" true (List.sort compare cs = cs)

(* ------------------------------------------------------------------ *)
(* Span trees                                                          *)
(* ------------------------------------------------------------------ *)

let test_span_nesting () =
  with_tracing @@ fun () ->
  let v =
    Trace.with_span "outer" (fun () ->
        Trace.with_span "a" (fun () -> Trace.event "tick");
        Trace.with_span ~attrs:[ ("k", "v") ] "b" (fun () -> ());
        42)
  in
  checki "value passes through" 42 v;
  match Trace.roots () with
  | [ root ] ->
    checks "root name" "outer" root.Trace.name;
    (match List.rev root.Trace.children with
     | [ a; b ] ->
       checks "first child" "a" a.Trace.name;
       checks "second child" "b" b.Trace.name;
       checkb "attr recorded" true (List.mem_assoc "k" b.Trace.attrs);
       (match a.Trace.children with
        | [ ev ] ->
          checks "event nested under a" "tick" ev.Trace.name;
          checkb "event has zero duration" true
            (ev.Trace.start_ns = ev.Trace.stop_ns)
        | _ -> Alcotest.fail "expected one event under a")
     | _ -> Alcotest.fail "expected two children in order")
  | rs -> Alcotest.failf "expected one root, got %d" (List.length rs)

let test_span_exception_unwinds () =
  with_tracing @@ fun () ->
  (match
     Trace.with_span "outer" (fun () ->
         Trace.with_span "inner" (fun () -> failwith "boom"))
   with
   | exception Failure _ -> ()
   | _ -> Alcotest.fail "exception must propagate");
  (* both spans are closed and attached despite the exception *)
  match Trace.roots () with
  | [ root ] ->
    checks "root closed" "outer" root.Trace.name;
    checkb "root has a stop time" true
      (Int64.compare root.Trace.stop_ns root.Trace.start_ns >= 0);
    (match root.Trace.children with
     | [ inner ] -> checks "inner attached" "inner" inner.Trace.name
     | _ -> Alcotest.fail "inner span must be attached to outer");
    (* the stack is clean: a new span becomes a fresh root *)
    Trace.with_span "next" (fun () -> ());
    checki "fresh root" 2 (List.length (Trace.roots ()))
  | rs -> Alcotest.failf "expected one root, got %d" (List.length rs)

(* A long-lived process completes one root per request: the list keeps
   the newest [max_roots], oldest first. *)
let test_roots_bounded () =
  with_tracing @@ fun () ->
  let n = Trace.max_roots + 100 in
  for i = 0 to n - 1 do
    Trace.with_span (Printf.sprintf "r%d" i) (fun () -> ())
  done;
  (match Trace.last_root () with
   | Some sp -> checks "newest root" (Printf.sprintf "r%d" (n - 1)) sp.Trace.name
   | None -> Alcotest.fail "no newest root");
  let roots = Trace.roots () in
  checki "capped" Trace.max_roots (List.length roots);
  checks "oldest kept is the 101st" "r100" (List.hd roots).Trace.name;
  checks "newest last" (Printf.sprintf "r%d" (n - 1))
    (List.nth roots (Trace.max_roots - 1)).Trace.name

let test_disabled_is_transparent () =
  Trace.set_enabled false;
  Trace.reset ();
  let v = Trace.with_span "ghost" (fun () -> 7) in
  Trace.event "ghost-event";
  Trace.add_attr "k" "v";
  checki "value passes through" 7 v;
  checki "nothing recorded" 0 (List.length (Trace.roots ()))

(* ------------------------------------------------------------------ *)
(* Export                                                              *)
(* ------------------------------------------------------------------ *)

let contains haystack needle =
  let n = String.length needle and m = String.length haystack in
  let rec go i =
    i + n <= m && (String.sub haystack i n = needle || go (i + 1))
  in
  go 0

let test_chrome_json_shape () =
  with_tracing @@ fun () ->
  Trace.with_span "outer" (fun () ->
      Trace.with_span ~attrs:[ ("quote", {|a"b|}) ] "inner" (fun () -> ()));
  let json = Trace.to_chrome_json (Trace.roots ()) in
  checkb "traceEvents array" true (contains json {|{"traceEvents":[|});
  checkb "outer emitted" true (contains json {|"name":"outer"|});
  checkb "complete events" true (contains json {|"ph":"X"|});
  checkb "attr escaped" true (contains json {|"quote":"a\"b"|});
  (* braces and brackets balance *)
  let bal =
    String.fold_left
      (fun (b, k) -> function
        | '{' -> (b + 1, k)
        | '}' -> (b - 1, k)
        | '[' -> (b, k + 1)
        | ']' -> (b, k - 1)
        | _ -> (b, k))
      (0, 0) json
  in
  checkb "balanced" true (bal = (0, 0))

let test_text_tree_shape () =
  with_tracing @@ fun () ->
  Trace.with_span "outer" (fun () ->
      Trace.with_span ~attrs:[ ("k", "v") ] "inner" (fun () -> ()));
  let txt = Trace.to_text (Trace.roots ()) in
  checkb "outer at column 0" true
    (String.length txt > 5 && String.sub txt 0 5 = "outer");
  checkb "inner indented with attr" true (contains txt "\n  inner");
  checkb "attr rendered" true (contains txt " k=v")

let test_json_escape () =
  checks "plain" "abc" (Trace.json_escape "abc");
  checks "quote" {|a\"b|} (Trace.json_escape {|a"b|});
  checks "backslash" {|a\\b|} (Trace.json_escape {|a\b|});
  checks "newline" {|a\nb|} (Trace.json_escape "a\nb");
  checks "control" {|a\u0001b|} (Trace.json_escape "a\001b")

(* ------------------------------------------------------------------ *)
(* Prometheus exposition and the structured logger                     *)
(* ------------------------------------------------------------------ *)

module Log = Xic_obs.Log

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_prometheus_exposition () =
  let c = Metrics.counter "test_prom_counter" in
  Metrics.add c 7;
  let g = Metrics.gauge "test_prom_gauge" in
  Metrics.set g 3;
  let h = Metrics.histogram "test_prom_lat_ms" in
  Metrics.observe_ns h 1_000_000;
  let body = Metrics.to_prometheus () in
  checkb "counter typed" true
    (contains body "# TYPE xic_test_prom_counter counter");
  checkb "counter value" true (contains body "xic_test_prom_counter 7");
  checkb "gauge typed" true (contains body "# TYPE xic_test_prom_gauge gauge");
  checkb "gauge value" true (contains body "xic_test_prom_gauge 3");
  (* _ms histograms export as summaries in seconds *)
  checkb "summary typed" true
    (contains body "# TYPE xic_test_prom_lat_seconds summary");
  checkb "median label" true
    (contains body "xic_test_prom_lat_seconds{quantile=\"0.5\"}");
  checkb "sum in seconds" true (contains body "xic_test_prom_lat_seconds_sum");
  checkb "count" true (contains body "xic_test_prom_lat_seconds_count 1");
  (* every line parses: TYPE comment or name/value with a float value *)
  List.iter
    (fun line ->
      if line <> "" then
        if line.[0] = '#' then
          checkb "only TYPE comments" true
            (String.length line > 7 && String.sub line 0 7 = "# TYPE ")
        else
          match String.rindex_opt line ' ' with
          | None -> Alcotest.failf "no value: %s" line
          | Some i ->
            checkb "float value" true
              (float_of_string_opt
                 (String.sub line (i + 1) (String.length line - i - 1))
               <> None))
    (String.split_on_char '\n' body)

let read_all path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let with_log ?(level = Log.Debug) ?(format = Log.Text) f =
  let path =
    Filename.temp_file
      (Printf.sprintf "xic_obs_log_%d" (Unix.getpid ()))
      ".log"
  in
  (match Log.open_path path with
   | Ok () -> ()
   | Error m -> Alcotest.fail m);
  Log.set_level level;
  Log.set_format format;
  Fun.protect
    ~finally:(fun () ->
      Log.close ();
      Log.set_level Log.Info;
      Log.set_format Log.Text;
      Log.set_trace_id None;
      try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  f path

let test_log_levels () =
  with_log ~level:Log.Warn @@ fun path ->
  let before = Log.lines_emitted () in
  checkb "warn enabled" true (Log.enabled Log.Warn);
  checkb "info filtered" false (Log.enabled Log.Info);
  (* a filtered level never renders the message *)
  let rendered = ref false in
  Log.debug (fun m ->
      rendered := true;
      m "never");
  checkb "closure not run when filtered" false !rendered;
  Log.warn ~src:"test" (fun m -> m "kept %d" 1);
  Log.error ~src:"test" (fun m -> m "also kept");
  Log.close ();
  checki "two lines reached the sink" 2 (Log.lines_emitted () - before);
  let body = read_all path in
  checkb "warn line present" true (contains body "kept 1");
  checkb "level rendered" true (contains body "level=warn")

let test_log_json_format () =
  with_log ~format:Log.Json @@ fun path ->
  Log.set_trace_id (Some "t-42");
  Log.info ~src:"test.src"
    ~fields:[ ("k", "v with \"quotes\"") ]
    (fun m -> m "hello %s" "world");
  Log.set_trace_id None;
  Log.close ();
  let body = read_all path in
  checkb "one json object per line" true
    (String.length body > 0 && body.[0] = '{');
  checkb "message" true (contains body {|"msg":"hello world"|});
  checkb "source" true (contains body {|"src":"test.src"|});
  checkb "trace id" true (contains body {|"trace":"t-42"|});
  checkb "field escaped" true (contains body {|"k":"v with \"quotes\""|});
  checkb "level" true (contains body {|"level":"info"|});
  checkb "timestamp" true (contains body {|"ts_ms":|})

let test_log_text_quoting () =
  with_log @@ fun path ->
  Log.info (fun m -> m "plain");
  Log.info ~fields:[ ("key", "has space") ] (fun m -> m "with=equals");
  Log.close ();
  let body = read_all path in
  checkb "bare value unquoted" true (contains body "msg=plain");
  checkb "spacey value quoted" true (contains body {|key="has space"|});
  checkb "equals forces quoting" true (contains body {|msg="with=equals"|})

let test_log_disabled_without_sink () =
  (* no sink installed: logging is a no-op and the closure never runs *)
  Log.close ();
  let rendered = ref false in
  Log.error (fun m ->
      rendered := true;
      m "dropped");
  checkb "no sink, no render" false !rendered;
  checkb "disabled" false (Log.enabled Log.Error)

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "log2 bucketing" `Quick test_bucket_of_ns;
          Alcotest.test_case "observe" `Quick test_histogram_observe;
          Alcotest.test_case "quantiles" `Quick test_histogram_quantile;
          Alcotest.test_case "counters" `Quick test_counters;
        ] );
      ( "spans",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "exception unwinds" `Quick
            test_span_exception_unwinds;
          Alcotest.test_case "completed roots are bounded" `Quick
            test_roots_bounded;
          Alcotest.test_case "disabled is transparent" `Quick
            test_disabled_is_transparent;
        ] );
      ( "export",
        [
          Alcotest.test_case "chrome json" `Quick test_chrome_json_shape;
          Alcotest.test_case "text tree" `Quick test_text_tree_shape;
          Alcotest.test_case "json escape" `Quick test_json_escape;
          Alcotest.test_case "prometheus exposition" `Quick
            test_prometheus_exposition;
        ] );
      ( "log",
        [
          Alcotest.test_case "level filtering" `Quick test_log_levels;
          Alcotest.test_case "json lines" `Quick test_log_json_format;
          Alcotest.test_case "text quoting" `Quick test_log_text_quoting;
          Alcotest.test_case "no sink, no cost" `Quick
            test_log_disabled_without_sink;
        ] );
    ]
