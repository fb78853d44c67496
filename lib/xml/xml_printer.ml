let escape buf ~quot s =
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string buf "&amp;"
      | '<' -> Buffer.add_string buf "&lt;"
      | '>' -> Buffer.add_string buf "&gt;"
      | '"' when quot -> Buffer.add_string buf "&quot;"
      | c -> Buffer.add_char buf c)
    s

let escape_to_string ~quot s =
  let b = Buffer.create (String.length s + 8) in
  escape b ~quot s;
  Buffer.contents b

let escape_text = escape_to_string ~quot:false
let escape_attr = escape_to_string ~quot:true

let to_buffer ?(indent = false) buf doc id =
  let pad depth =
    if indent then begin
      Buffer.add_char buf '\n';
      for _ = 1 to depth do
        Buffer.add_string buf "  "
      done
    end
  in
  let rec go depth id =
    match Doc.kind doc id with
    | Doc.Text s -> escape buf ~quot:false s
    | Doc.Element sym ->
      let tag = Doc.Symbol.name sym in
      Buffer.add_char buf '<';
      Buffer.add_string buf tag;
      List.iter
        (fun (k, v) ->
          Buffer.add_char buf ' ';
          Buffer.add_string buf k;
          Buffer.add_string buf "=\"";
          escape buf ~quot:true v;
          Buffer.add_char buf '"')
        (Doc.attrs doc id);
      let kids = Doc.children doc id in
      if kids = [] then Buffer.add_string buf "/>"
      else begin
        Buffer.add_char buf '>';
        let element_only = List.for_all (Doc.is_element doc) kids in
        List.iter
          (fun k ->
            if element_only then pad (depth + 1);
            go (depth + 1) k)
          kids;
        if element_only then pad depth;
        Buffer.add_string buf "</";
        Buffer.add_string buf tag;
        Buffer.add_char buf '>'
      end
  in
  go 0 id

let node_to_string ?indent doc id =
  let b = Buffer.create 256 in
  to_buffer ?indent b doc id;
  Buffer.contents b

let to_string ?indent doc = node_to_string ?indent doc (Doc.root doc)
