type action =
  | Exit
  | Raise
  | Torn_write of { keep : float; crash : bool }
  | Short_read of { keep : float }
  | Eio of { failures : int }
  | Delay of { ms : float }

exception Triggered of string

let exit_code = 42

(* Multi-armed registry: each site can be armed independently, with an
   optional number of hits to skip before firing. *)
type armed = {
  action : action;
  mutable skip : int;      (* hits to let through before firing *)
  mutable eio_left : int;  (* remaining injected EIO failures *)
}

let table : (string, armed) Hashtbl.t = Hashtbl.create 8

(* Every site that ever consults the registry self-registers here, plus
   the explicit [declare] calls at module-init of the durability layers,
   so the torture harness can enumerate the crash surface. *)
let sites : (string, unit) Hashtbl.t = Hashtbl.create 32
let declare name = if not (Hashtbl.mem sites name) then Hashtbl.replace sites name ()
let known () = Hashtbl.fold (fun k () acc -> k :: acc) sites [] |> List.sort compare

let set ?(action = Exit) ?(after = 0) name =
  Hashtbl.replace table name
    { action;
      skip = after;
      eio_left = (match action with Eio { failures } -> failures | _ -> 0) }

let clear () = Hashtbl.reset table

(* XIC_FAILPOINT=spec[,spec...] with spec = NAME[@SKIP][=ACTION] and
   ACTION one of exit, raise, torn[:KEEP], torn-raise[:KEEP],
   short[:KEEP], eio[:N], delay:MS; parsed once at startup. *)
let parse_action name = function
  | "exit" -> Exit
  | "raise" -> Raise
  | s ->
    let kind, param =
      match String.index_opt s ':' with
      | None -> (s, None)
      | Some i ->
        (String.sub s 0 i, Some (String.sub s (i + 1) (String.length s - i - 1)))
    in
    let float_param default =
      match param with
      | None -> default
      | Some p ->
        (match float_of_string_opt p with
         | Some f -> f
         | None -> invalid_arg (Printf.sprintf "XIC_FAILPOINT %s: bad number %S" name p))
    in
    (match kind with
     | "torn" -> Torn_write { keep = float_param 0.5; crash = true }
     | "torn-raise" -> Torn_write { keep = float_param 0.5; crash = false }
     | "short" -> Short_read { keep = float_param 0.5 }
     | "eio" -> Eio { failures = int_of_float (float_param 1.0) }
     | "delay" -> Delay { ms = float_param 1.0 }
     | other ->
       invalid_arg
         (Printf.sprintf
            "XIC_FAILPOINT: unknown action %S (expected exit, raise, torn[:KEEP], \
             torn-raise[:KEEP], short[:KEEP], eio[:N] or delay:MS)"
            other))

let parse_spec spec =
  let name, action_s =
    match String.index_opt spec '=' with
    | None -> (spec, None)
    | Some i ->
      (String.sub spec 0 i, Some (String.sub spec (i + 1) (String.length spec - i - 1)))
  in
  let name, after =
    match String.index_opt name '@' with
    | None -> (name, 0)
    | Some i ->
      let n = String.sub name (i + 1) (String.length name - i - 1) in
      (match int_of_string_opt n with
       | Some k -> (String.sub name 0 i, k)
       | None -> invalid_arg (Printf.sprintf "XIC_FAILPOINT: bad skip count %S" n))
  in
  let action =
    match action_s with None -> Exit | Some s -> parse_action name s
  in
  set ~action ~after name

let () =
  match Sys.getenv_opt "XIC_FAILPOINT" with
  | None | Some "" -> ()
  | Some specs ->
    List.iter
      (fun spec -> if spec <> "" then parse_spec spec)
      (String.split_on_char ',' specs)

let c_failpoints = Xic_obs.Obs.Metrics.counter "failpoints_hit"

let fired name =
  (* record before acting: with [Exit] the process is gone after *)
  Xic_obs.Obs.Metrics.incr c_failpoints;
  Xic_obs.Obs.Trace.event ("failpoint:" ^ name)

(* Find the armed entry due to fire at this hit, consuming one skip
   tick otherwise. *)
let lookup name =
  declare name;
  match Hashtbl.find_opt table name with
  | None -> None
  | Some a ->
    if a.skip > 0 then begin
      a.skip <- a.skip - 1;
      None
    end
    else Some a

let crash () =
  (* simulate a crash: no flushing, no at_exit handlers *)
  Unix._exit exit_code

(* The actions meaningful at any site.  [Torn_write] and [Short_read]
   only make sense at mediated I/O sites and are inert here. *)
let fire name a =
  match a.action with
  | Exit ->
    fired name;
    crash ()
  | Raise ->
    fired name;
    raise (Triggered name)
  | Delay { ms } ->
    fired name;
    Unix.sleepf (ms /. 1000.0)
  | Eio _ ->
    if a.eio_left > 0 then begin
      a.eio_left <- a.eio_left - 1;
      fired name;
      raise (Unix.Unix_error (Unix.EIO, "xic_failpoint", name))
    end
  | Torn_write _ | Short_read _ -> ()

let hit name =
  match lookup name with
  | None -> ()
  | Some a -> fire name a

let keep_of keep len =
  let k = int_of_float (float_of_int len *. keep) in
  max 0 (min (len - 1) k)

let write_fault name ~len =
  match lookup name with
  | None -> None
  | Some a ->
    (match a.action with
     | Torn_write { keep; _ } ->
       fired name;
       Some (keep_of keep len)
     | _ ->
       fire name a;
       None)

(* After the torn prefix is on disk: crash, or raise for in-process
   tests.  Disarm on raise so recovery code paths run clean. *)
let torn_crash name =
  match Hashtbl.find_opt table name with
  | Some { action = Torn_write { crash = true; _ }; _ } -> crash ()
  | _ ->
    Hashtbl.remove table name;
    raise (Triggered name)

let read_fault name ~len =
  match lookup name with
  | None -> len
  | Some a ->
    (match a.action with
     | Short_read { keep } ->
       fired name;
       (* one short read per arming, or loops never terminate *)
       Hashtbl.remove table name;
       keep_of keep len
     | _ ->
       fire name a;
       len)
