(* Minimal hand-rolled JSON emission. The observability sinks write
   objects of strings and ints, the bench files add bools, fixed-decimal
   floats and arrays, so a full JSON library would be dead weight; what
   matters is that string escaping is correct and the output is
   byte-for-byte stable. *)

let escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let str s = "\"" ^ escape s ^ "\""

type field = string * string
(* name, already-serialized value *)

let int_field name n : field = (name, string_of_int n)

let str_field name s : field = (name, str s)

let bool_field name b : field = (name, string_of_bool b)

(* At least one decimal, so the value parses back as a [Float], never an
   [Int]; JSON has no spelling for a non-finite number. *)
let float_field name ~decimals x : field =
  if decimals < 1 || not (Float.is_finite x) then
    invalid_arg (Printf.sprintf "Json.float_field %s: %g at %d decimals" name x decimals);
  (name, Printf.sprintf "%.*f" decimals x)

let arr values = "[" ^ String.concat "," values ^ "]"

let obj (fields : field list) =
  "{" ^ String.concat "," (List.map (fun (k, v) -> str k ^ ":" ^ v) fields) ^ "}"

(* Parsing — for flight-dump reading ([mjvm report --flight]) and the
   bench files: a recursive-descent parser over the same subset we emit,
   kept strict enough to reject garbage but with no dependency beyond
   stdlib. *)

type value =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of value list
  | Obj of (string * value) list

exception Parse_error of string

let member name = function
  | Obj fields -> List.assoc_opt name fields
  | _ -> None

let to_int = function Int n -> Some n | _ -> None

let to_str = function Str s -> Some s | _ -> None

type cursor = { src : string; mutable pos : int }

let fail c msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg c.pos))

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let skip_ws c =
  while
    match peek c with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance c;
        true
    | _ -> false
  do
    ()
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | _ -> fail c (Printf.sprintf "expected '%c'" ch)

let parse_literal c word v =
  if
    c.pos + String.length word <= String.length c.src
    && String.sub c.src c.pos (String.length word) = word
  then begin
    c.pos <- c.pos + String.length word;
    v
  end
  else fail c (Printf.sprintf "expected %s" word)

let parse_string_body c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec loop () =
    match peek c with
    | None -> fail c "unterminated string"
    | Some '"' -> advance c
    | Some '\\' -> (
        advance c;
        match peek c with
        | Some '"' ->
            advance c;
            Buffer.add_char buf '"';
            loop ()
        | Some '\\' ->
            advance c;
            Buffer.add_char buf '\\';
            loop ()
        | Some '/' ->
            advance c;
            Buffer.add_char buf '/';
            loop ()
        | Some 'n' ->
            advance c;
            Buffer.add_char buf '\n';
            loop ()
        | Some 'r' ->
            advance c;
            Buffer.add_char buf '\r';
            loop ()
        | Some 't' ->
            advance c;
            Buffer.add_char buf '\t';
            loop ()
        | Some 'b' ->
            advance c;
            Buffer.add_char buf '\b';
            loop ()
        | Some 'u' ->
            advance c;
            if c.pos + 4 > String.length c.src then fail c "truncated \\u escape";
            let hex = String.sub c.src c.pos 4 in
            let code =
              try int_of_string ("0x" ^ hex) with _ -> fail c "bad \\u escape"
            in
            c.pos <- c.pos + 4;
            (* We only emit \u00xx for control chars; decode the latin-1
               range directly and pass anything else through as '?'. *)
            Buffer.add_char buf (if code < 0x100 then Char.chr code else '?');
            loop ()
        | _ -> fail c "bad escape")
    | Some ch ->
        advance c;
        Buffer.add_char buf ch;
        loop ()
  in
  loop ();
  Buffer.contents buf

(* JSON's number grammar, -?d+(.d+)?([eE][+-]?d+)?; a number without
   fraction or exponent is an [Int]. A value OCaml cannot represent raises
   [Parse_error], as every other malformed input does. *)
let parse_number c =
  let start = c.pos in
  let skip chars =
    match peek c with
    | Some ch when String.contains chars ch ->
        advance c;
        true
    | _ -> false
  in
  let digits () =
    let from = c.pos in
    while skip "0123456789" do
      ()
    done;
    if c.pos = from then fail c "expected digit"
  in
  ignore (skip "-");
  digits ();
  let fractional = skip "." in
  if fractional then digits ();
  let exponent = skip "eE" in
  if exponent then begin
    ignore (skip "+-");
    digits ()
  end;
  let lexeme = String.sub c.src start (c.pos - start) in
  if fractional || exponent then
    match float_of_string_opt lexeme with
    | Some x when Float.is_finite x -> Float x
    | _ -> fail c "number out of range"
  else match int_of_string_opt lexeme with Some n -> Int n | None -> fail c "integer out of range"

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail c "unexpected end of input"
  | Some '"' -> Str (parse_string_body c)
  | Some '{' -> parse_obj c
  | Some '[' -> parse_list c
  | Some 't' -> parse_literal c "true" (Bool true)
  | Some 'f' -> parse_literal c "false" (Bool false)
  | Some 'n' -> parse_literal c "null" Null
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ch -> fail c (Printf.sprintf "unexpected '%c'" ch)

and parse_obj c =
  expect c '{';
  skip_ws c;
  if peek c = Some '}' then begin
    advance c;
    Obj []
  end
  else begin
    let fields = ref [] in
    let rec loop () =
      skip_ws c;
      let name = parse_string_body c in
      skip_ws c;
      expect c ':';
      let v = parse_value c in
      fields := (name, v) :: !fields;
      skip_ws c;
      match peek c with
      | Some ',' ->
          advance c;
          loop ()
      | Some '}' -> advance c
      | _ -> fail c "expected ',' or '}'"
    in
    loop ();
    Obj (List.rev !fields)
  end

and parse_list c =
  expect c '[';
  skip_ws c;
  if peek c = Some ']' then begin
    advance c;
    List []
  end
  else begin
    let items = ref [] in
    let rec loop () =
      let v = parse_value c in
      items := v :: !items;
      skip_ws c;
      match peek c with
      | Some ',' ->
          advance c;
          loop ()
      | Some ']' -> advance c
      | _ -> fail c "expected ',' or ']'"
    in
    loop ();
    List (List.rev !items)
  end

let parse s =
  let c = { src = s; pos = 0 } in
  let v = parse_value c in
  skip_ws c;
  if c.pos <> String.length s then fail c "trailing garbage";
  v
