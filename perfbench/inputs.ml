(* Benchmark inputs: the seeded conference dataset, the files that
   [xicheck serve] receives, and the write anchors and illegal statements
   derived from the generated document, so every workload stays legal and
   deterministic for any seed. *)

module Gen = Xic_workload.Generator
module Conf = Xic_workload.Conference
module XU = Xic_xupdate.Xupdate
module Doc = Xic_xml.Doc

(* A [sub] after which one more submission keeps every constraint
   satisfied: its reviewer has slack under Example 7 (fewer than four
   submissions in this track) and under Example 2 (at most three tracks,
   or at most nine submissions overall). *)
type anchor = { track : int; rev : int }

(* An illegal statement, the route it must take and the constraints
   that may name it. *)
type illegal = { stmt : string; matched : bool; blame : string list }

type t = {
  ds : Gen.dataset;
  anchors : anchor array;
  illegal : illegal array;
}

let doc_bytes = function "live_reads" -> 1_024_000 | _ -> 64_000

let anchor_select a = Printf.sprintf "/review/track[%d]/rev[%d]/sub[1]" a.track a.rev

(* The submission an insert after [anchor_select a] creates. *)
let inserted_select a = Printf.sprintf "/review/track[%d]/rev[%d]/sub[2]" a.track a.rev

let elem name children = XU.Elem (name, [], children)

let sub_content ~title ~authors =
  elem "sub"
    (elem "title" [ XU.Text title ]
    :: List.map (fun a -> elem "auts" [ elem "name" [ XU.Text a ] ]) authors)

let insert ~select ~title ~authors =
  XU.to_string
    [ { XU.op = XU.Insert_after; select = Xic_xpath.Parser.parse select;
        content = [ sub_content ~title ~authors ] } ]

let remove select =
  XU.to_string
    [ { XU.op = XU.Remove; select = Xic_xpath.Parser.parse select; content = [] } ]

(* Walk rev.xml: per (track, rev) position, the reviewer and how many
   submissions the rev holds. *)
let revs rev_xml =
  let doc = (Xic_xml.Xml_parser.parse_string rev_xml).Xic_xml.Xml_parser.doc in
  let named n tag = List.filter (fun c -> Doc.name doc c = tag) (Doc.element_children doc n) in
  List.concat
    (List.mapi
       (fun ti track ->
         List.mapi
           (fun ri rev ->
             let reviewer =
               match named rev "name" with
               | n :: _ -> Doc.text_content doc n
               | [] -> ""
             in
             (ti + 1, ri + 1, reviewer, List.length (named rev "sub")))
           (named track "rev"))
       (named (Doc.root doc) "track"))

let derive_anchors rev_xml =
  let revs = revs rev_xml in
  let tracks = Hashtbl.create 64 and subs = Hashtbl.create 64 in
  List.iter
    (fun (t, _, r, n) ->
      Hashtbl.replace tracks r (t :: Option.value ~default:[] (Hashtbl.find_opt tracks r));
      Hashtbl.replace subs r (n + Option.value ~default:0 (Hashtbl.find_opt subs r)))
    revs;
  List.filter_map
    (fun (track, rev, reviewer, n) ->
      let n_tracks = List.length (List.sort_uniq compare (Hashtbl.find tracks reviewer)) in
      if n < 4 && (n_tracks <= 3 || Hashtbl.find subs reviewer < 10) then Some { track; rev }
      else None)
    revs
  |> Array.of_list

(* Illegal statements from the generator's hooks: pattern-matched inserts
   the pre-check must reject, and two-author inserts (no pattern matches)
   the full check must roll back. *)
let derive_illegal (ds : Gen.dataset) =
  let busy = [ "workload"; "track_load" ] and conflict = [ "conflict" ] in
  let fresh = ds.Gen.legal_author in
  [| { stmt = insert ~select:ds.Gen.conflict_select ~title:"Conflicted"
                ~authors:[ ds.Gen.conflict_coauthor ];
       matched = true; blame = conflict };
     { stmt = insert ~select:ds.Gen.busy_select ~title:"Overload" ~authors:[ fresh ];
       matched = true; blame = busy };
     { stmt = insert ~select:ds.Gen.conflict_select ~title:"Conflicted Pair"
                ~authors:[ fresh; ds.Gen.conflict_coauthor ];
       matched = false; blame = conflict };
     { stmt = insert ~select:ds.Gen.busy_select ~title:"Overload Pair"
                ~authors:[ fresh ^ " A"; fresh ^ " B" ];
       matched = false; blame = busy } |]

let generate ~workload ~seed =
  let ds = Gen.generate ~seed ~target_bytes:(doc_bytes workload) () in
  let anchors = derive_anchors ds.Gen.rev_xml in
  if Array.length anchors = 0 then failwith "no reviewer with slack in the generated document";
  { ds; anchors; illegal = derive_illegal ds }

(* ------------------------------------------------------------------ *)
(* Files                                                               *)
(* ------------------------------------------------------------------ *)

let constraints_text =
  String.concat "\n"
    [ "conflict: " ^ Conf.conflict_source; "workload: " ^ Conf.workload_source;
      "track_load: " ^ Conf.track_load_source; "" ]

let pattern_text =
  {|<xupdate:modifications version="1.0" xmlns:xupdate="http://www.xmldb.org/xupdate">
  <xupdate:insert-after select="//sub">
    <xupdate:element name="sub"><title>%t</title><auts><name>%n</name></auts></xupdate:element>
  </xupdate:insert-after>
</xupdate:modifications>
|}

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

type files = { pub : string; rev : string; constraints : string; pattern : string;
               pub_dtd : string; rev_dtd : string }

let write_files t dir =
  let f name = Filename.concat dir name in
  let files =
    { pub = f "pub.xml"; rev = f "rev.xml"; constraints = f "constraints.xpl";
      pattern = f "pattern.xml"; pub_dtd = f "pub.dtd"; rev_dtd = f "rev.dtd" }
  in
  write_file files.pub t.ds.Gen.pub_xml;
  write_file files.rev t.ds.Gen.rev_xml;
  write_file files.constraints constraints_text;
  write_file files.pattern pattern_text;
  write_file files.pub_dtd Conf.pub_dtd;
  write_file files.rev_dtd Conf.rev_dtd;
  files

(* The constraints the file above declares, for in-process repositories. *)
let constraints schema = [ Conf.conflict schema; Conf.workload schema; Conf.track_load schema ]
