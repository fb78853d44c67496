(* regress — compare two BENCH_*.json files and fail when a headline
   series regresses beyond tolerance.

     regress BASELINE.json CURRENT.json [--tolerance PCT]

   Each headline series names one number (or one number per document
   size, for the array-shaped sections); a series is a regression when
   the current value is worse than the baseline by more than the
   tolerance in the series' bad direction (throughput falling,
   latencies rising).  Improvements of any magnitude pass.  A series
   absent from either file is skipped with a warning — older baselines
   predate some sections — so a gate against an old baseline checks
   exactly the series both runs measured.  Exit status: 0 clean,
   1 regression, 2 usage/parse error. *)

module P = Xic_server.Protocol

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("regress: " ^ s);
      exit 2)
    fmt

let read_json path =
  let s =
    match open_in_bin path with
    | ic ->
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s
    | exception Sys_error m -> die "%s" m
  in
  match P.of_string s with
  | j -> j
  | exception P.Protocol_error m -> die "%s: %s" path m

let num = function
  | Some (P.Int i) -> Some (float_of_int i)
  | Some (P.Float f) -> Some f
  | _ -> None

type dir = Higher_better | Lower_better

(* A series extracts (instance-key, value) pairs from a report; the
   instance key is the document size for array-shaped sections, 0 for
   scalars.  Only keys present in both files are compared. *)
type series = {
  name : string;
  dir : dir;
  extract : P.json -> (int * float) list;
}

let scalar section field j =
  match P.member section j with
  | Some obj -> (match num (P.member field obj) with
                 | Some v -> [ (0, v) ]
                 | None -> [])
  | None -> []

(* One value per row of an array section, keyed by its "bytes" field;
   [filter] restricts the rows (e.g. single-statement transactions). *)
let per_size section ?(filter = fun _ -> true) field j =
  match P.member section j with
  | Some (P.List rows) ->
    List.filter_map
      (fun row ->
        match (P.int_field "bytes" row, num (P.member field row)) with
        | Some b, Some v when filter row -> Some (b, v)
        | _ -> None)
      rows
  | _ -> []

(* The row of the largest document only: a flatness claim is about the
   far end of the size range. *)
let at_largest section field j =
  match per_size section field j with
  | [] -> []
  | first :: rest ->
    [ List.fold_left (fun a b -> if fst b > fst a then b else a) first rest ]

let headline =
  [ { name = "fig1a.optimized_median_ms";
      dir = Lower_better;
      extract = at_largest "fig1a" "optimized_median_ms" };
    { name = "fig1a.optimized_after_write_median_ms";
      dir = Lower_better;
      extract = at_largest "fig1a" "optimized_after_write_median_ms" };
    { name = "server.server_checks_per_sec";
      dir = Higher_better;
      extract = scalar "server" "server_checks_per_sec" };
    { name = "incremental[stmts=1].incremental_median_ms";
      dir = Lower_better;
      extract =
        per_size "incremental"
          ~filter:(fun row -> P.int_field "stmts" row = Some 1)
          "incremental_median_ms" };
    { name = "coldstart.snapshot_median_ms";
      dir = Lower_better;
      extract = per_size "coldstart" "snapshot_median_ms" };
    { name = "coldstart.fused_validated_median_ms";
      dir = Lower_better;
      extract = per_size "coldstart" "fused_validated_median_ms" };
    { name = "coldstart.views_init_median_ms";
      dir = Lower_better;
      extract = per_size "coldstart" "views_init_median_ms" };
    { name = "pins.pin_open_us";
      dir = Lower_better;
      extract = per_size "pins" "pin_open_us" };
    { name = "server_pins.mixed_checks_per_sec";
      dir = Higher_better;
      extract = per_size "server_pins" "mixed_checks_per_sec" };
    { name = "server_pins.read_under_pin_p50_ms";
      dir = Lower_better;
      extract = per_size "server_pins" "read_under_pin_p50_ms" };
    { name = "memory.store_bytes_per_tuple";
      dir = Lower_better;
      extract = per_size "memory" "store_bytes_per_tuple" } ]

let () =
  let tolerance = ref 15.0 in
  let files = ref [] in
  let rec parse = function
    | [] -> ()
    | "--tolerance" :: pct :: rest ->
      (match float_of_string_opt pct with
       | Some t when t >= 0.0 -> tolerance := t
       | _ -> die "--tolerance expects a non-negative percentage, got %S" pct);
      parse rest
    | f :: rest ->
      files := f :: !files;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let baseline_path, current_path =
    match List.rev !files with
    | [ b; c ] -> (b, c)
    | _ -> die "usage: regress BASELINE.json CURRENT.json [--tolerance PCT]"
  in
  let baseline = read_json baseline_path in
  let current = read_json current_path in
  let tol = !tolerance in
  Printf.printf "regress: %s -> %s (tolerance %.0f%%)\n" baseline_path
    current_path tol;
  let regressions = ref 0 and compared = ref 0 in
  List.iter
    (fun s ->
      let base = s.extract baseline and cur = s.extract current in
      let skip side =
        Printf.printf "  SKIP  %-45s (absent from %s)\n" s.name side
      in
      if base = [] then skip baseline_path
      else if cur = [] then skip current_path
      else
        List.iter
          (fun (key, bv) ->
            match List.assoc_opt key cur with
            | None -> ()
            | Some cv ->
              incr compared;
              let delta = (cv -. bv) /. bv *. 100.0 in
              let bad =
                match s.dir with
                | Higher_better -> delta < -.tol
                | Lower_better -> delta > tol
              in
              let label =
                if key = 0 then s.name
                else Printf.sprintf "%s @%db" s.name key
              in
              Printf.printf "  %s  %-45s %12.4f -> %12.4f  %+6.1f%%\n"
                (if bad then "FAIL" else " ok ")
                label bv cv delta;
              if bad then incr regressions)
          base)
    headline;
  if !compared = 0 then
    print_endline "regress: no comparable series (all skipped)";
  if !regressions > 0 then begin
    Printf.printf "regress: %d series regressed beyond %.0f%%\n" !regressions
      tol;
    exit 1
  end
  else print_endline "regress: no regressions"
