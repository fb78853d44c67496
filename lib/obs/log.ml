(* Structured leveled logging over one shared sink.

   Design constraints, in order: (1) a disabled call site must cost a
   load and a branch — the msgf closure is never entered; (2) no
   dependencies beyond the stdlib and the monotonic clock stub already
   in this library; (3) every line carries the ambient trace id so the
   server's log can be joined against its span tree. *)

type level = Debug | Info | Warn | Error

let severity = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

let level_to_string = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_string s =
  match String.lowercase_ascii s with
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" | "warning" -> Some Warn
  | "error" -> Some Error
  | _ -> None

type format = Text | Json

(* Sink state.  No lock: everything runs on one domain, and the
   SIGINT/SIGTERM handlers only set the server's stop flag. *)
let sink : out_channel option ref = ref None
let sink_owned = ref false (* opened by [open_path]: close on replace *)
let min_level = ref Info
let fmt = ref Text
let base_ns = Obs.Clock.now_ns ()
let emitted = ref 0

let current_trace : string option ref = ref None

let set_trace_id t = current_trace := t
let trace_id () = !current_trace
let set_level l = min_level := l
let level () = !min_level
let set_format f = fmt := f

let drop_sink () =
  (match !sink with
   | Some oc when !sink_owned -> (try close_out oc with Sys_error _ -> ())
   | Some oc -> (try flush oc with Sys_error _ -> ())
   | None -> ());
  sink := None;
  sink_owned := false

let open_path path =
  drop_sink ();
  if path = "-" then begin
    sink := Some stderr;
    Ok ()
  end
  else
    match open_out path with
    | oc ->
      sink := Some oc;
      sink_owned := true;
      Ok ()
    | exception Sys_error m -> Error m

let close () = drop_sink ()

let enabled lvl = !sink <> None && severity lvl >= severity !min_level

let ts_ms () =
  Int64.to_float (Int64.sub (Obs.Clock.now_ns ()) base_ns) /. 1e6

(* Text field values are quoted only when they need it, so grep-able
   keys stay grep-able and messages with spaces stay one field. *)
let needs_quotes s =
  s = ""
  || String.exists
       (fun c -> c = ' ' || c = '"' || c = '=' || Char.code c < 0x20)
       s

let add_text_value b s =
  if needs_quotes s then begin
    Buffer.add_char b '"';
    Buffer.add_string b (Obs.Trace.json_escape s);
    Buffer.add_char b '"'
  end
  else Buffer.add_string b s

let render lvl src fields message =
  let b = Buffer.create 160 in
  let trace = !current_trace in
  (match !fmt with
   | Text ->
     Buffer.add_string b (Printf.sprintf "ts=%.3f" (ts_ms ()));
     Buffer.add_string b (" level=" ^ level_to_string lvl);
     (match src with
      | Some s ->
        Buffer.add_string b " src=";
        add_text_value b s
      | None -> ());
     (match trace with
      | Some t ->
        Buffer.add_string b " trace=";
        add_text_value b t
      | None -> ());
     Buffer.add_string b " msg=";
     add_text_value b message;
     List.iter
       (fun (k, v) ->
         Buffer.add_char b ' ';
         Buffer.add_string b k;
         Buffer.add_char b '=';
         add_text_value b v)
       fields
   | Json ->
     let field k v =
       Printf.sprintf "\"%s\":\"%s\"" (Obs.Trace.json_escape k)
         (Obs.Trace.json_escape v)
     in
     Buffer.add_string b (Printf.sprintf "{\"ts_ms\":%.3f" (ts_ms ()));
     Buffer.add_string b (",\"level\":\"" ^ level_to_string lvl ^ "\"");
     (match src with
      | Some s -> Buffer.add_string b ("," ^ field "src" s)
      | None -> ());
     (match trace with
      | Some t -> Buffer.add_string b ("," ^ field "trace" t)
      | None -> ());
     Buffer.add_string b ("," ^ field "msg" message);
     List.iter (fun (k, v) -> Buffer.add_string b ("," ^ field k v)) fields;
     Buffer.add_char b '}');
  Buffer.contents b

let emit lvl src fields message =
  match !sink with
  | None -> ()
  | Some oc ->
    (try
       output_string oc (render lvl src fields message);
       output_char oc '\n';
       flush oc;
       incr emitted
     with Sys_error _ ->
       (* a dead sink (closed pipe, full disk) must never take the
          serving path down with it *)
       drop_sink ())

type 'a msgf = (('a, unit, string, unit) format4 -> 'a) -> unit

let msg lvl ?src ?(fields = []) (f : _ msgf) =
  if enabled lvl then
    f (fun fmt -> Printf.ksprintf (fun s -> emit lvl src fields s) fmt)

let debug ?src ?fields f = msg Debug ?src ?fields f
let info ?src ?fields f = msg Info ?src ?fields f
let warn ?src ?fields f = msg Warn ?src ?fields f
let error ?src ?fields f = msg Error ?src ?fields f

let lines_emitted () = !emitted
