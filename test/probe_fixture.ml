(* A schema whose relational mapping has every column kind a value probe
   reads, with random documents and XUpdates over it.  [name], [note]
   and [title] are embedded [(#PCDATA)] children ([note] optional),
   [kw] occurs many times under [sub] and so keeps its own relation with
   a text column, and [track]/[rev]/[sub] carry attributes ([id]
   required, [area] and [lang] optional).  The root [review] has no
   relation. *)

open Xic_core
module Doc = Xic_xml.Doc
module Prng = Xic_workload.Prng
module XU = Xic_xupdate.Xupdate
module XE = Xic_xpath.Eval
module XA = Xic_xpath.Ast
module XP = Xic_xpath.Parser

let dtd =
  {|<!ELEMENT review (track)+>
<!ELEMENT track (name, rev*)>
<!ATTLIST track id CDATA #REQUIRED>
<!ELEMENT name (#PCDATA)>
<!ELEMENT rev (name, note?, sub*)>
<!ATTLIST rev area CDATA #IMPLIED>
<!ELEMENT note (#PCDATA)>
<!ELEMENT sub (title, kw*, auts+)>
<!ATTLIST sub lang CDATA #IMPLIED>
<!ELEMENT title (#PCDATA)>
<!ELEMENT kw (#PCDATA)>
<!ELEMENT auts (name)>|}

let schema = lazy (Schema.create [ (dtd, "review") ])

let repo_of xml =
  let repo = Repository.create (Lazy.force schema) in
  Repository.load_fused repo xml;
  repo

(* The relative path [s] as an access path. *)
let path s =
  match XP.parse s with
  | XA.Path (XA.Rel, steps) -> Option.get (XE.access_path steps)
  | _ -> invalid_arg s

(* The prober's answer for [//tag] candidates, roots dropped and sorted,
   as the evaluator's [probe] sees it. *)
let probe repo ~tag p key =
  (Repository.index repo).XE.probe ~tag:(Xic_symbol.Symbol.intern tag) (path p) key
  |> Option.map (fun ids ->
         List.filter (fun id -> Doc.parent (Repository.doc repo) id <> Doc.no_node) ids
         |> List.sort_uniq compare)

(* The scan interpreter's [//tag[p = "key"]], sorted. *)
let scan repo ~tag p key =
  match
    XE.eval (Repository.doc repo)
      (XP.parse (Printf.sprintf "//%s[%s = \"%s\"]" tag p key))
  with
  | XE.Nodes ns -> List.sort compare ns
  | _ -> invalid_arg "scan"

(* ------------------------------------------------------------------ *)
(* Random documents and updates                                        *)
(* ------------------------------------------------------------------ *)

(* Few values, so probes hit; the empty one is the mapping's stand-in
   for an absent child or attribute. *)
let values = [| "A"; "B"; "AB"; "db"; "" |]

let value r = Prng.pick r values

let attr r name =
  if Prng.int r 3 = 0 then "" else Printf.sprintf " %s=\"%s\"" name (value r)

(* An empty value is an element with no text child.  A value is
   sometimes written in two pieces around a CDATA section or a comment,
   which the parser joins into one text node. *)
let leaf b r tag =
  let v = value r in
  let text =
    match Prng.int r 4 with
    | 0 ->
      let i = Prng.int r (String.length v + 1) in
      Printf.sprintf "%s<![CDATA[%s]]>" (String.sub v 0 i)
        (String.sub v i (String.length v - i))
    | 1 ->
      let i = Prng.int r (String.length v + 1) in
      Printf.sprintf "%s<!--c-->%s" (String.sub v 0 i) (String.sub v i (String.length v - i))
    | _ -> v
  in
  Buffer.add_string b (Printf.sprintf "<%s>%s</%s>" tag text tag)

let gen_sub r b =
  Buffer.add_string b (Printf.sprintf "<sub%s>" (attr r "lang"));
  leaf b r "title";
  for _ = 1 to Prng.int r 3 do
    leaf b r "kw"
  done;
  for _ = 0 to Prng.int r 2 do
    Buffer.add_string b "<auts>";
    leaf b r "name";
    Buffer.add_string b "</auts>"
  done;
  Buffer.add_string b "</sub>"

let gen_doc r =
  let b = Buffer.create 512 in
  Buffer.add_string b "<review>";
  for t = 1 to 1 + Prng.int r 2 do
    Buffer.add_string b (Printf.sprintf "<track id=\"t%d\">" t);
    leaf b r "name";
    for _ = 1 to Prng.int r 3 do
      Buffer.add_string b (Printf.sprintf "<rev%s>" (attr r "area"));
      leaf b r "name";
      if Prng.bool r then leaf b r "note";
      for _ = 1 to Prng.int r 3 do
        gen_sub r b
      done;
      Buffer.add_string b "</rev>"
    done;
    Buffer.add_string b "</track>"
  done;
  Buffer.add_string b "</review>";
  Buffer.contents b

let nodes repo q =
  match XE.eval (Repository.doc repo) (XP.parse q) with
  | XE.Nodes ns -> ns
  | _ -> []

(* The absolute position path of an element, for an XUpdate select. *)
let select_of repo id = Xic_relmap.Shred.path_to_node (Repository.doc repo) id

let random_element r repo q =
  match nodes repo q with
  | [] -> None
  | ns -> Some (select_of repo (List.nth ns (Prng.int r (List.length ns))))

let stmt op select content = [ { XU.op; select = XP.parse select; content } ]

let sub_content r =
  let attrs = if Prng.bool r then [ ("lang", value r) ] else [] in
  XU.Elem
    ( "sub",
      attrs,
      [ XU.Elem ("title", [], [ XU.Text (value r) ]);
        XU.Elem ("kw", [], [ XU.Text (value r) ]);
        XU.Elem ("auts", [], [ XU.Elem ("name", [], [ XU.Text (value r) ]) ]) ] )

(* Texts appended to (#PCDATA) elements (which merge with the text
   there), submissions and keywords added and removed, a note given to
   or taken from a reviewer, and, unchecked against the DTD, a second
   name or note for a reviewer, a second title for a submission, or an
   element inside a keyword: contents whose values the relation's one
   column cannot hold. *)
let random_update r repo =
  match Prng.int r 8 with
  | 6 ->
    let tag = Prng.pick r [| "name"; "note" |] in
    Option.map
      (fun s -> stmt XU.Append s [ XU.Elem (tag, [], [ XU.Text (value r) ]) ])
      (random_element r repo "//rev")
  | 7 ->
    let parent, tag = Prng.pick r [| ("//sub", "title"); ("//kw", "title") |] in
    Option.map
      (fun s -> stmt XU.Append s [ XU.Elem (tag, [], [ XU.Text (value r) ]) ])
      (random_element r repo parent)
  | 0 ->
    Option.map
      (fun s -> stmt XU.Append s [ XU.Text (value r) ])
      (random_element r repo "//name | //title | //note | //kw")
  | 1 ->
    Option.map (fun s -> stmt XU.Append s [ sub_content r ]) (random_element r repo "//rev")
  | 2 -> Option.map (fun s -> stmt XU.Remove s []) (random_element r repo "//sub")
  | 3 ->
    Option.map
      (fun s -> stmt XU.Insert_after s [ XU.Elem ("kw", [], [ XU.Text (value r) ]) ])
      (random_element r repo "//sub/title")
  | 4 ->
    Option.map
      (fun s -> stmt XU.Insert_after s [ XU.Elem ("note", [], [ XU.Text (value r) ]) ])
      (random_element r repo "//rev[not(note)]/name")
  | _ -> Option.map (fun s -> stmt XU.Remove s []) (random_element r repo "//note | //kw")

(* Every access-path shape a probe reads: embedded children one, two and
   three hops down (the optional [note] included), a text column of the
   candidate itself and one hop down, attributes (optional ones
   included), a chain that ends on the root (never a result), and a
   path no column holds ([name] is always embedded). *)
let probes =
  [ ("rev", "name/text()"); ("rev", "note/text()"); ("rev", "sub/title/text()");
    ("rev", "sub/auts/name/text()"); ("track", "rev/note/text()");
    ("kw", "text()"); ("sub", "kw/text()"); ("rev", "sub/kw/text()");
    ("rev", "@area"); ("sub", "@lang"); ("track", "@id"); ("rev", "sub/@lang");
    ("review", "track/name/text()"); ("name", "text()"); ("auts", "name/text()") ]

(* Whether every element holds no more than its relation's columns:
   one child of each embedded type ([name], [note], [title]), and that
   child, like a [kw], nothing but one text.  The prober answers only
   then. *)
let fits repo =
  let doc = Repository.doc repo in
  let single_text e =
    match Doc.children doc e with [] -> true | [ c ] -> Doc.is_text doc c | _ -> false
  in
  let embedded = function
    | "track" | "auts" -> [ "name" ]
    | "rev" -> [ "name"; "note" ]
    | "sub" -> [ "title" ]
    | _ -> []
  in
  List.for_all
    (fun e ->
      let name = Doc.name doc e in
      (name <> "kw" || single_text e)
      && List.for_all
           (fun ch ->
             match
               List.filter
                 (fun c -> Doc.is_element doc c && Doc.name doc c = ch)
                 (Doc.children doc e)
             with
             | [] -> true
             | [ c ] -> single_text c
             | _ -> false)
           (embedded name))
    (nodes repo "//*")
