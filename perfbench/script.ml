(* The seeded request script of each workload and the oracle that checks
   every reply against the outcome the generator's construction
   guarantees.  The same script drives the server over its socket and
   the in-process replay of the traced run. *)

module P = Xic_server.Protocol

(* Latency classes of the end-to-end report. *)
type cls = Read | Guard | Fallback

let cls_name = function Read -> "read" | Guard -> "guard" | Fallback -> "fallback"

type expect =
  | Applied of string  (* the strategy the server must report *)
  | Rejected of string list  (* refused before execution, naming one of these *)
  | Rolled_back of string list  (* executed, found violating, compensated *)

type req =
  | Check
  | Write of { stmt : string; cls : cls; expect : expect }

let cls_of = function Check -> Read | Write { cls; _ } -> cls

(* ------------------------------------------------------------------ *)
(* Rounds                                                              *)
(* ------------------------------------------------------------------ *)

let workloads = [ "live_reads"; "guard_writes" ]

(* One round in eight is illegal; which one, and which illegal statement,
   is drawn from the seed.  The mix is stratified so every run sends the
   same share of illegal statements. *)
let illegal_every = 8

type t = { workload : string; inputs : Inputs.t; rng : Random.State.t; mutable round : int;
           mutable illegal_slot : int }

let create ~workload ~seed inputs =
  let rng = Random.State.make [| seed; 0x5eed |] in
  { workload; inputs; rng; round = 0; illegal_slot = Random.State.int rng illegal_every }

let legal_write t =
  let a = t.inputs.Inputs.anchors.(Random.State.int t.rng (Array.length t.inputs.Inputs.anchors)) in
  let stmt =
    Inputs.insert ~select:(Inputs.anchor_select a)
      ~title:(Printf.sprintf "Bench Paper %d" t.round)
      ~authors:[ Printf.sprintf "%s %d" t.inputs.Inputs.ds.Inputs.Gen.legal_author t.round ]
  in
  ( Write { stmt; cls = Guard; expect = Applied "optimized" },
    (* the withdrawal: an xupdate:remove matches no pattern *)
    Write { stmt = Inputs.remove (Inputs.inserted_select a); cls = Fallback;
            expect = Applied "full_check" } )

let illegal_write t =
  let ill = t.inputs.Inputs.illegal in
  let i = ill.(Random.State.int t.rng (Array.length ill)) in
  Write
    { stmt = i.Inputs.stmt; cls = (if i.Inputs.matched then Guard else Fallback);
      expect = (if i.Inputs.matched then Rejected i.Inputs.blame else Rolled_back i.Inputs.blame) }

let next_round t =
  let r = t.round in
  let illegal = r mod illegal_every = t.illegal_slot in
  if r mod illegal_every = illegal_every - 1 then
    t.illegal_slot <- Random.State.int t.rng illegal_every;
  t.round <- r + 1;
  match t.workload with
  | "live_reads" -> [ Check ]
  | "guard_writes" ->
    if illegal then [ illegal_write t; Check ]
    else
      let ins, withdraw = legal_write t in
      [ ins; Check; withdraw ]
  | w -> invalid_arg ("unknown workload " ^ w)

(* ------------------------------------------------------------------ *)
(* Oracle                                                              *)
(* ------------------------------------------------------------------ *)

type state = {
  mutable gen : int;  (* committed generation the server must be at *)
  mutable acked : string list;  (* applied statements, newest first *)
  mutable wrong : int;
  mutable last_error : string;
}

let state ~gen = { gen; acked = []; wrong = 0; last_error = "" }

let op name fields = P.Obj (("op", P.String name) :: fields)

let to_json = function
  | Check -> op "check" []
  | Write { stmt; _ } -> op "guard" [ ("update", P.String stmt) ]

let str f r = Option.value ~default:"" (P.string_field f r)
let int f r = Option.value ~default:min_int (P.int_field f r)

(* Check one reply; a wrong one is counted and remembered, never raised,
   so the run goes on and reports it. *)
let verify st req resp =
  let fail why =
    st.wrong <- st.wrong + 1;
    st.last_error <- Printf.sprintf "%s -> %s: %s" (P.to_string (to_json req)) (P.to_string resp) why
  in
  if not (P.bool_field "ok" resp) then fail "error reply"
  else
    match req with
    | Check ->
      if not (P.bool_field "consistent" resp && str "isolation" resp = "live"
              && int "generation" resp = st.gen)
      then fail "live verdict"
    | Write { stmt; expect; _ } ->
      let outcome = str "outcome" resp in
      (match expect with
       | Applied strategy ->
         if outcome = "applied" && str "strategy" resp = strategy
            && int "generation" resp = st.gen + 1
         then begin
           st.gen <- st.gen + 1;
           st.acked <- stmt :: st.acked
         end
         else fail "legal statement not applied"
       | Rejected blame ->
         if not (outcome = "rejected" && List.mem (str "constraint" resp) blame) then
           fail "illegal statement not rejected early"
       | Rolled_back blame ->
         if not (outcome = "rolled_back" && List.mem (str "constraint" resp) blame) then
           fail "illegal statement not rolled back")
