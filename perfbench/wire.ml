(* Driving a real [xicheck serve] process over its Unix socket: spawning
   it on the input files, timing its set-up, a single-threaded closed-loop
   client on one connection, and reading its peak memory from /proc. *)

module P = Xic_server.Protocol

let xicheck = "_build/default/bin/xicheck.exe"

exception Wire_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Wire_error s)) fmt

type server = { pid : int; out : Unix.file_descr; sock : string; mutable conn : Unix.file_descr option }

(* Servers still running, killed on any exit path. *)
let live : server list ref = ref []

let rec write_all fd b off len =
  if len > 0 then
    let n = Unix.write fd b off len in
    write_all fd b (off + n) (len - n)

let rec read_exact fd b off len =
  if len > 0 then
    match Unix.read fd b off len with
    | 0 -> fail "server closed the connection"
    | n -> read_exact fd b (off + n) (len - n)

let send fd payload =
  let n = String.length payload in
  let b = Bytes.create (4 + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string payload 0 b 4 n;
  write_all fd b 0 (4 + n)

let recv fd =
  let h = Bytes.create 4 in
  read_exact fd h 0 4;
  let n = Int32.to_int (Bytes.get_int32_be h 0) in
  let b = Bytes.create n in
  read_exact fd b 0 n;
  Bytes.unsafe_to_string b

(* One round trip; the time runs from the request's write to the reply's
   read, encoding and decoding excluded. *)
let round_trip fd payload =
  let t0 = Xic_obs.Obs.Clock.now_ns () in
  send fd payload;
  let reply = recv fd in
  let dt = Int64.sub (Xic_obs.Obs.Clock.now_ns ()) t0 in
  (reply, Int64.to_float dt /. 1e6)

let request fd json = P.of_string (fst (round_trip fd (P.to_string json)))

(* Block until the server prints a full line on stdout ("serving on ..."),
   which it does right after binding its socket: no connect polling. *)
let await_line srv ~timeout =
  let deadline = Unix.gettimeofday () +. timeout in
  let buf = Buffer.create 128 and b = Bytes.create 1 in
  let rec go () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0. then fail "server did not come up within %.0f s" timeout;
    match Unix.select [ srv.out ] [] [] left with
    | [], _, _ -> go ()
    | _ ->
      (match Unix.read srv.out b 0 1 with
       | 0 -> fail "server exited during start-up (see its log)"
       | _ when Bytes.get b 0 = '\n' -> Buffer.contents buf
       | _ -> Buffer.add_char buf (Bytes.get b 0); go ())
  in
  go ()

let conn srv = match srv.conn with Some fd -> fd | None -> fail "not connected"

(* Spawn [xicheck serve ARGS --socket SOCK], wait for it to listen,
   connect, and answer the first check: returns the server, the seconds
   that took, and the first check's reply. *)
let start ~args ~sock ~log =
  (try Sys.remove sock with Sys_error _ -> ());
  let r, w = Unix.pipe ~cloexec:true () in
  let err = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let t0 = Stats.now_s () in
  let argv = Array.of_list ((xicheck :: "serve" :: args) @ [ "--socket"; sock ]) in
  let pid = Unix.create_process xicheck argv null w err in
  List.iter Unix.close [ w; err; null ];
  let srv = { pid; out = r; sock; conn = None } in
  live := srv :: !live;
  let line = await_line srv ~timeout:120. in
  if not (String.length line >= 7 && String.sub line 0 7 = "serving") then
    fail "unexpected server banner %S" line;
  let fd = P.connect (P.Unix_sock sock) in
  (* a stuck server fails the run instead of hanging it *)
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.;
  srv.conn <- Some fd;
  let first = request fd (Script.op "check" []) in
  (srv, Stats.now_s () -. t0, first)

let rec wait_exit pid ~deadline =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ when Unix.gettimeofday () < deadline ->
    ignore (Unix.select [] [] [] 0.01);
    wait_exit pid ~deadline
  | 0, _ ->
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid);
    false
  | _, Unix.WEXITED 0 -> true
  | _ -> false
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_exit pid ~deadline

(* Graceful stop: a [shutdown] request, then wait for the exit. *)
let stop srv =
  live := List.filter (fun s -> s.pid <> srv.pid) !live;
  let clean =
    match srv.conn with
    | Some fd ->
      (try ignore (request fd (Script.op "shutdown" [])) with _ -> ());
      Unix.close fd;
      wait_exit srv.pid ~deadline:(Unix.gettimeofday () +. 30.)
    | None -> wait_exit srv.pid ~deadline:(Unix.gettimeofday ())
  in
  Unix.close srv.out;
  (try Sys.remove srv.sock with Sys_error _ -> ());
  clean

let kill_all () =
  List.iter
    (fun s ->
      (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] s.pid) with Unix.Unix_error _ -> ()))
    !live;
  live := []

(* Peak resident memory (VmHWM) of the server, read from outside. *)
let peak_rss_mb srv =
  let ic = open_in (Printf.sprintf "/proc/%d/status" srv.pid) in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go () =
    match input_line ic with
    | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb -> float kb /. 1024.)
    | _ -> go ()
    | exception End_of_file -> nan
  in
  go ()
