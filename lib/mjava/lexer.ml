type token =
  | INT_LIT of int
  | IDENT of string
  | KW of string
  | PUNCT of string
  | EOF

type loc_token = {
  tok : token;
  tpos : Ast.pos;
}

exception Lex_error of string * Ast.pos

let keywords =
  [
    "class"; "extends"; "static"; "synchronized"; "int"; "boolean"; "void";
    "if"; "else"; "while"; "for"; "return"; "new"; "null"; "true"; "false";
    "this"; "instanceof"; "print"; "throw"; "try"; "catch";
  ]

let string_of_token = function
  | INT_LIT n -> string_of_int n
  | IDENT s -> s
  | KW s -> s
  | PUNCT s -> s
  | EOF -> "<eof>"

(* The lexer reads the source string in place: no per-character
   options, no per-token formatting, and punctuation and keyword tokens
   come from static tables, so a token costs its record, its position and
   (for identifiers and literals) its text. *)

(* Must list exactly [keywords]; a test checks the two agree. *)
let is_keyword = function
  | "class" | "extends" | "static" | "synchronized" | "int" | "boolean" | "void" | "if" | "else"
  | "while" | "for" | "return" | "new" | "null" | "true" | "false" | "this" | "instanceof"
  | "print" | "throw" | "try" | "catch" ->
      true
  | _ -> false

(* Two-character punctuation. *)
let multi_punct a b =
  match (a, b) with
  | '=', '=' -> Some "=="
  | '!', '=' -> Some "!="
  | '<', '=' -> Some "<="
  | '>', '=' -> Some ">="
  | '&', '&' -> Some "&&"
  | '|', '|' -> Some "||"
  | '+', '=' -> Some "+="
  | '-', '=' -> Some "-="
  | '*', '=' -> Some "*="
  | '/', '=' -> Some "/="
  | '%', '=' -> Some "%="
  | '+', '+' -> Some "++"
  | '-', '-' -> Some "--"
  | _ -> None

let single_punct = function
  | '+' -> Some "+"
  | '-' -> Some "-"
  | '*' -> Some "*"
  | '/' -> Some "/"
  | '%' -> Some "%"
  | '<' -> Some "<"
  | '>' -> Some ">"
  | '=' -> Some "="
  | '!' -> Some "!"
  | '(' -> Some "("
  | ')' -> Some ")"
  | '{' -> Some "{"
  | '}' -> Some "}"
  | '[' -> Some "["
  | ']' -> Some "]"
  | ';' -> Some ";"
  | ',' -> Some ","
  | '.' -> Some "."
  | _ -> None

let is_digit ch = ch >= '0' && ch <= '9'

let is_ident_start ch = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') || ch = '_'

let is_ident_char ch = is_ident_start ch || is_digit ch

let tokenize src =
  let len = String.length src in
  let pos = ref 0 and line = ref 1 and bol = ref 0 in
  let here () : Ast.pos = { line = !line; col = !pos - !bol + 1 } in
  let newline_at i =
    incr line;
    bol := i + 1
  in
  (* whitespace and comments; a lone '/' is left for punctuation *)
  let rec skip_trivia () =
    if !pos < len then
      match String.unsafe_get src !pos with
      | ' ' | '\t' | '\r' ->
          incr pos;
          skip_trivia ()
      | '\n' ->
          newline_at !pos;
          incr pos;
          skip_trivia ()
      | '/' when !pos + 1 < len && String.unsafe_get src (!pos + 1) = '/' ->
          while !pos < len && String.unsafe_get src !pos <> '\n' do
            incr pos
          done;
          skip_trivia ()
      | '/' when !pos + 1 < len && String.unsafe_get src (!pos + 1) = '*' ->
          let start = here () in
          pos := !pos + 2;
          let rec close () =
            if !pos >= len then raise (Lex_error ("unterminated block comment", start))
            else if String.unsafe_get src !pos = '*' && !pos + 1 < len
                    && String.unsafe_get src (!pos + 1) = '/'
            then pos := !pos + 2
            else begin
              if String.unsafe_get src !pos = '\n' then newline_at !pos;
              incr pos;
              close ()
            end
          in
          close ();
          skip_trivia ()
      | _ -> ()
  in
  let rec span p = if !pos < len && p (String.unsafe_get src !pos) then (incr pos; span p) in
  let rec loop acc =
    skip_trivia ();
    if !pos >= len then List.rev ({ tok = EOF; tpos = here () } :: acc)
    else
      let tpos = here () in
      let start = !pos in
      let ch = String.unsafe_get src start in
      let tok =
        if is_digit ch then begin
          span is_digit;
          let text = String.sub src start (!pos - start) in
          match int_of_string_opt text with
          | Some n -> INT_LIT n
          | None -> raise (Lex_error ("integer literal out of range: " ^ text, tpos))
        end
        else if is_ident_start ch then begin
          span is_ident_char;
          let text = String.sub src start (!pos - start) in
          if is_keyword text then KW text else IDENT text
        end
        else
          let next = if start + 1 < len then String.unsafe_get src (start + 1) else ' ' in
          match multi_punct ch next with
          | Some p ->
              pos := start + 2;
              PUNCT p
          | None -> (
              match single_punct ch with
              | Some p ->
                  incr pos;
                  PUNCT p
              | None -> raise (Lex_error (Printf.sprintf "unexpected character %C" ch, tpos)))
      in
      loop ({ tok; tpos } :: acc)
  in
  loop []
