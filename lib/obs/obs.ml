(* Zero-dependency observability: spans and metrics.

   Tracing is the one switch.  When it is off (the common case), the
   cost of a span site must be a single load-and-branch — no
   allocation, no closure, no clock read.  [Trace.with_span] therefore
   takes the thunk last and checks the static [enabled] flag before
   touching anything else.  The metrics registry has no switch: a
   counter bump is one add and a histogram observation a bucket
   increment, cheap enough to be always on.

   The checker runs on one domain, so there is one span context and no
   synchronisation. *)

module Clock = struct
  external now_ns : unit -> (int64[@unboxed])
    = "xic_obs_clock_ns" "xic_obs_clock_ns_unboxed"
  [@@noalloc]
end

(* ------------------------------------------------------------------ *)
(* Tracing                                                            *)
(* ------------------------------------------------------------------ *)

module Trace = struct
  type span = {
    name : string;
    mutable attrs : (string * string) list;
    start_ns : int64;
    mutable stop_ns : int64;
    mutable children : span list; (* newest-first while building *)
  }

  let enabled = ref false
  let set_enabled b = enabled := b
  let is_enabled () = !enabled

  (* [stack] holds open spans innermost first; [roots_rev] holds completed
     top-level spans newest-first, [roots_n] of them.  A long-lived
     process (the check server) completes one root per request, so the
     list keeps the newest [max_roots]: trimmed back only after a 2x
     overshoot, which keeps the cut amortized O(1) per root. *)
  let stack : span list ref = ref []
  let roots_rev : span list ref = ref []
  let roots_n = ref 0
  let max_roots = 4096

  let trim_roots () =
    if !roots_n > max_roots then begin
      roots_rev := List.filteri (fun i _ -> i < max_roots) !roots_rev;
      roots_n := max_roots
    end

  (* --- span lifecycle ------------------------------------------- *)

  let attach sp =
    match !stack with
    | parent :: _ -> parent.children <- sp :: parent.children
    | [] ->
      roots_rev := sp :: !roots_rev;
      incr roots_n;
      if !roots_n > 2 * max_roots then trim_roots ()

  let finish sp =
    sp.stop_ns <- Clock.now_ns ();
    (match !stack with
     | top :: rest when top == sp -> stack := rest
     | _ ->
       (* an exception tore through nested spans; drop to our frame *)
       let rec unwind = function
         | top :: rest when top == sp -> rest
         | _ :: rest -> unwind rest
         | [] -> []
       in
       stack := unwind !stack);
    attach sp

  let with_span ?(attrs = []) name f =
    if not !enabled then f ()
    else begin
      let sp =
        { name; attrs; start_ns = Clock.now_ns (); stop_ns = 0L; children = [] }
      in
      stack := sp :: !stack;
      Fun.protect ~finally:(fun () -> finish sp) f
    end

  let event ?(attrs = []) name =
    if !enabled then begin
      let now = Clock.now_ns () in
      attach { name; attrs; start_ns = now; stop_ns = now; children = [] }
    end

  let add_attr k v =
    if !enabled then
      match !stack with
      | sp :: _ -> sp.attrs <- (k, v) :: sp.attrs
      | [] -> ()

  let reset () =
    stack := [];
    roots_rev := [];
    roots_n := 0

  (* The newest [max_roots] completed roots, oldest first. *)
  let roots () =
    trim_roots ();
    List.rev !roots_rev

  let last_root () = match !roots_rev with sp :: _ -> Some sp | [] -> None

  (* --- export ---------------------------------------------------- *)

  let json_escape s =
    let b = Buffer.create (String.length s + 2) in
    String.iter
      (fun ch ->
        match ch with
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | '\n' -> Buffer.add_string b "\\n"
        | '\t' -> Buffer.add_string b "\\t"
        | '\r' -> Buffer.add_string b "\\r"
        | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b

  let duration_ms sp = Int64.to_float (Int64.sub sp.stop_ns sp.start_ns) /. 1e6

  (* Chrome trace_event "complete" events: one object per span, with
     microsecond [ts]/[dur] relative to the earliest span so the viewer
     timeline starts at zero.  Everything runs on one thread: [tid] is 0. *)
  let to_chrome_json spans =
    let base =
      List.fold_left
        (fun acc sp -> if Int64.compare sp.start_ns acc < 0 then sp.start_ns else acc)
        (match spans with [] -> 0L | sp :: _ -> sp.start_ns)
        spans
    in
    let b = Buffer.create 4096 in
    Buffer.add_string b "{\"traceEvents\":[";
    let first = ref true in
    let us_of ns = Int64.to_float (Int64.sub ns base) /. 1e3 in
    let rec emit sp =
      if !first then first := false else Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":%.3f,\"dur\":%.3f"
           (json_escape sp.name) (us_of sp.start_ns)
           (Int64.to_float (Int64.sub sp.stop_ns sp.start_ns) /. 1e3));
      (match sp.attrs with
       | [] -> ()
       | attrs ->
         Buffer.add_string b ",\"args\":{";
         List.iteri
           (fun i (k, v) ->
             if i > 0 then Buffer.add_char b ',';
             Buffer.add_string b
               (Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v)))
           (List.rev attrs);
         Buffer.add_char b '}');
      Buffer.add_char b '}';
      List.iter emit (List.rev sp.children)
    in
    List.iter emit spans;
    Buffer.add_string b "]}";
    Buffer.contents b

  let to_text spans =
    let b = Buffer.create 1024 in
    let rec emit depth sp =
      Buffer.add_string b (String.make (2 * depth) ' ');
      Buffer.add_string b sp.name;
      if Int64.compare sp.stop_ns sp.start_ns > 0 then
        Buffer.add_string b (Printf.sprintf " %.3fms" (duration_ms sp));
      List.iter
        (fun (k, v) -> Buffer.add_string b (Printf.sprintf " %s=%s" k v))
        (List.rev sp.attrs);
      Buffer.add_char b '\n';
      List.iter (emit (depth + 1)) (List.rev sp.children)
    in
    List.iter (emit 0) spans;
    Buffer.contents b
end

(* ------------------------------------------------------------------ *)
(* Metrics                                                            *)
(* ------------------------------------------------------------------ *)

module Metrics = struct
  (* Counters are [int ref] handles interned by name: call sites hold
     the handle, so the hot path is one add with no hashtable lookup.  Histograms bucket by floor(log2 ns), which gives ~2x
     resolution over nine decades in 64 buckets and makes snapshots
     mergeable by pointwise sum. *)

  type counter = int ref

  type histogram = {
    mutable h_count : int;
    mutable h_sum_ns : int;
    h_buckets : int array; (* index = bucket_of_ns *)
  }

  let n_buckets = 64
  let counters : (string, counter) Hashtbl.t = Hashtbl.create 32
  let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 16

  (* Names registered via [gauge]: same cells as counters, but the
     Prometheus exposition types them [gauge] (their value may go
     down — open transactions, pinned generations, …). *)
  let gauge_names : (string, unit) Hashtbl.t = Hashtbl.create 16

  let counter name =
    match Hashtbl.find_opt counters name with
    | Some c -> c
    | None ->
      let c = ref 0 in
      Hashtbl.add counters name c;
      c

  let incr c = Stdlib.incr c
  let add c n = c := !c + n
  let set c n = c := n
  let value c = !c

  let gauge name =
    Hashtbl.replace gauge_names name ();
    counter name

  let histogram name =
    match Hashtbl.find_opt histograms name with
    | Some h -> h
    | None ->
      let h =
        { h_count = 0; h_sum_ns = 0; h_buckets = Array.make n_buckets 0 }
      in
      Hashtbl.add histograms name h;
      h

  let bucket_of_ns ns =
    if ns <= 0 then 0
    else begin
      let rec log2 acc n = if n <= 1 then acc else log2 (acc + 1) (n lsr 1) in
      min (n_buckets - 1) (1 + log2 0 ns)
    end

  let observe_ns h ns =
    h.h_count <- h.h_count + 1;
    h.h_sum_ns <- h.h_sum_ns + ns;
    let i = bucket_of_ns ns in
    h.h_buckets.(i) <- h.h_buckets.(i) + 1

  type hsnap = { count : int; sum_ns : int; buckets : int array }

  let hsnap h =
    { count = h.h_count; sum_ns = h.h_sum_ns; buckets = Array.copy h.h_buckets }

  (* Upper bound (in ms) of the bucket containing quantile [q]. *)
  let hsnap_quantile s q =
    if s.count = 0 then 0.0
    else begin
      let rank = int_of_float (ceil (q *. float_of_int s.count)) in
      let rank = max 1 (min s.count rank) in
      let rec go i seen =
        if i >= n_buckets then float_of_int (1 lsl (n_buckets - 1)) /. 1e6
        else
          let seen = seen + s.buckets.(i) in
          if seen >= rank then
            (* bucket i covers (2^(i-1), 2^i] ns; report its upper edge *)
            (if i = 0 then 0.0 else float_of_int (1 lsl i) /. 1e6)
          else go (i + 1) seen
      in
      go 0 0
    end

  let snapshot () =
    let cs = Hashtbl.fold (fun k c acc -> (k, !c) :: acc) counters [] in
    let hs = Hashtbl.fold (fun k h acc -> (k, hsnap h) :: acc) histograms [] in
    ( List.sort (fun (a, _) (b, _) -> compare a b) cs,
      List.sort (fun (a, _) (b, _) -> compare a b) hs )

  let to_json ?(extra = []) () =
    let cs, hs = snapshot () in
    let b = Buffer.create 1024 in
    Buffer.add_string b "{\"counters\":{";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b (Printf.sprintf "\"%s\":%d" (Trace.json_escape k) v))
      cs;
    Buffer.add_string b "},\"histograms\":{";
    List.iteri
      (fun i (k, s) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b
          (Printf.sprintf
             "\"%s\":{\"count\":%d,\"sum_ms\":%.3f,\"p50_ms\":%.4f,\"p90_ms\":%.4f,\"p99_ms\":%.4f}"
             (Trace.json_escape k) s.count
             (float_of_int s.sum_ns /. 1e6)
             (hsnap_quantile s 0.50) (hsnap_quantile s 0.90)
             (hsnap_quantile s 0.99)))
      hs;
    Buffer.add_char b '}';
    List.iter
      (fun (k, v) ->
        Buffer.add_string b (Printf.sprintf ",\"%s\":%s" (Trace.json_escape k) v))
      extra;
    Buffer.add_char b '}';
    Buffer.contents b

  (* Prometheus text exposition (format version 0.0.4).  Counters and
     gauges export as [xic_<name>]; latency histograms export as
     summaries in seconds — [xic_<base>_seconds{quantile="…"}] plus
     [_sum]/[_count] — with the registry's [_ms] suffix rewritten, so
     scrapers see base units. *)
  let to_prometheus () =
    let cs, hs = snapshot () in
    let sanitize name =
      String.map
        (fun c ->
          match c with
          | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
          | _ -> '_')
        name
    in
    let b = Buffer.create 2048 in
    List.iter
      (fun (name, v) ->
        let n = "xic_" ^ sanitize name in
        let ty = if Hashtbl.mem gauge_names name then "gauge" else "counter" in
        Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" n ty);
        Buffer.add_string b (Printf.sprintf "%s %d\n" n v))
      cs;
    List.iter
      (fun (name, s) ->
        let base =
          let n = sanitize name in
          if Filename.check_suffix n "_ms" then
            String.sub n 0 (String.length n - 3) ^ "_seconds"
          else n ^ "_seconds"
        in
        let n = "xic_" ^ base in
        Buffer.add_string b (Printf.sprintf "# TYPE %s summary\n" n);
        List.iter
          (fun q ->
            Buffer.add_string b
              (Printf.sprintf "%s{quantile=\"%g\"} %.9g\n" n q
                 (hsnap_quantile s q /. 1e3)))
          [ 0.5; 0.9; 0.99 ];
        Buffer.add_string b
          (Printf.sprintf "%s_sum %.9g\n" n (float_of_int s.sum_ns /. 1e9));
        Buffer.add_string b (Printf.sprintf "%s_count %d\n" n s.count))
      hs;
    Buffer.contents b

  let reset () =
    Hashtbl.iter (fun _ c -> c := 0) counters;
    Hashtbl.iter
      (fun _ h ->
        h.h_count <- 0;
        h.h_sum_ns <- 0;
        Array.fill h.h_buckets 0 n_buckets 0)
      histograms
end
