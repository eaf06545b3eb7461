(* Minimal JSON: the store's journal, the serve protocol, lint
   diagnostics and the bench results file.  The writer renders one
   line; the parser accepts full nesting and RFC 8259 whitespace, so a
   pretty-printed file parses too. *)

type value =
  | S of string
  | N of float
  | B of bool
  | Null
  | O of (string * value) list
  | A of value list

let escape buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

(* %.17g round-trips every finite double, so reloaded MFLOPS compare
   bit-identically with freshly computed ones. *)
let number f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let rec add_value buf = function
  | S s ->
    Buffer.add_char buf '"';
    escape buf s;
    Buffer.add_char buf '"'
  | N f -> Buffer.add_string buf (number f)
  | B b -> Buffer.add_string buf (if b then "true" else "false")
  | Null -> Buffer.add_string buf "null"
  | O fields -> add_object buf fields
  | A items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        add_value buf v)
      items;
    Buffer.add_char buf ']'

and add_object buf fields =
  Buffer.add_char buf '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_char buf '"';
      escape buf k;
      Buffer.add_string buf "\":";
      add_value buf v)
    fields;
  Buffer.add_char buf '}'

let render fields =
  let buf = Buffer.create 128 in
  add_object buf fields;
  Buffer.contents buf

let render_value v =
  let buf = Buffer.create 128 in
  add_value buf v;
  Buffer.contents buf

exception Bad

(* RFC 8259 whitespace *)
let is_ws = function ' ' | '\t' | '\n' | '\r' -> true | _ -> false

(* Parser for the subset [render]/[render_value] produce, plus
   whitespace.  Any deviation raises [Bad]; the journal loader
   maps that to "corrupt", the protocol maps it to an error reply. *)
let parse_value_at line pos =
  let n = String.length line in
  let peek () = if !pos >= n then raise Bad else line.[!pos] in
  let next () =
    let c = peek () in
    incr pos;
    c
  in
  let skip_ws () =
    while !pos < n && is_ws line.[!pos] do
      incr pos
    done
  in
  let expect c = if next () <> c then raise Bad in
  let literal word =
    let l = String.length word in
    if n - !pos >= l && String.sub line !pos l = word then pos := !pos + l else raise Bad
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 32 in
    let rec go () =
      match next () with
      | '"' -> Buffer.contents buf
      | '\\' ->
        (match next () with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'u' ->
          let hex = Bytes.create 4 in
          for i = 0 to 3 do
            Bytes.set hex i (next ())
          done;
          let code = try int_of_string ("0x" ^ Bytes.to_string hex) with _ -> raise Bad in
          if code < 0x80 then Buffer.add_char buf (Char.chr code)
          else raise Bad (* the writer only escapes control chars *)
        | _ -> raise Bad);
        go ()
      | c -> Buffer.add_char buf c; go ()
    in
    go ()
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | '"' -> S (parse_string ())
    | 't' -> literal "true"; B true
    | 'f' -> literal "false"; B false
    | 'n' -> literal "null"; Null
    | '{' -> O (parse_object ())
    | '[' ->
      ignore (next ());
      skip_ws ();
      if peek () = ']' then (ignore (next ()); A [])
      else begin
        let items = ref [] in
        let rec elements () =
          items := parse_value () :: !items;
          skip_ws ();
          match next () with
          | ',' -> elements ()
          | ']' -> ()
          | _ -> raise Bad
        in
        elements ();
        A (List.rev !items)
      end
    | _ ->
      let start = !pos in
      while
        !pos < n
        && match line.[!pos] with
           | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
           | _ -> false
      do
        incr pos
      done;
      if !pos = start then raise Bad;
      (try N (float_of_string (String.sub line start (!pos - start)))
       with _ -> raise Bad)
  and parse_object () =
    skip_ws ();
    expect '{';
    skip_ws ();
    if peek () = '}' then (ignore (next ()); [])
    else begin
      let fields = ref [] in
      let rec members () =
        skip_ws ();
        let k = parse_string () in
        skip_ws ();
        expect ':';
        let v = parse_value () in
        fields := (k, v) :: !fields;
        skip_ws ();
        match next () with
        | ',' -> members ()
        | '}' -> ()
        | _ -> raise Bad
      in
      members ();
      List.rev !fields
    end
  in
  parse_value ()

let parse line =
  let pos = ref 0 in
  let v = match parse_value_at line pos with O fields -> fields | _ -> raise Bad in
  let n = String.length line in
  while !pos < n && is_ws line.[!pos] do
    incr pos
  done;
  if !pos <> n then raise Bad;
  v

let str fields k = match List.assoc_opt k fields with Some (S s) -> Some s | _ -> None
let num fields k = match List.assoc_opt k fields with Some (N f) -> Some f | _ -> None
let bool fields k = match List.assoc_opt k fields with Some (B b) -> Some b | _ -> None
