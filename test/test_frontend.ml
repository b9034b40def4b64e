(* Lexer, parser and typechecker tests. *)

open Pea_mjava

let parse src = Parser.parse_program src

let check_ok ?(require_main = true) src =
  ignore (Typecheck.check_program ~require_main (parse src))

let check_fails ?(require_main = true) src =
  match Typecheck.check_program ~require_main (parse src) with
  | exception Typecheck.Type_error _ -> ()
  | _ -> Alcotest.fail "expected a type error"

let parse_fails src =
  match parse src with
  | exception Parser.Parse_error _ -> ()
  | exception Lexer.Lex_error _ -> ()
  | _ -> Alcotest.fail "expected a parse error"

(* ------------------------------------------------------------------ *)
(* Lexer                                                               *)
(* ------------------------------------------------------------------ *)

let token_strings src =
  Lexer.tokenize src |> List.map (fun t -> Lexer.string_of_token t.Lexer.tok)

let test_lexer_basic () =
  Alcotest.(check (list string))
    "tokens"
    [ "class"; "A"; "{"; "}"; "<eof>" ]
    (token_strings "class A { }")

let test_lexer_operators () =
  Alcotest.(check (list string))
    "multi-char ops"
    [ "a"; "=="; "b"; "&&"; "c"; "<="; "d"; "!="; "e"; "||"; "f"; ">="; "g"; "<eof>" ]
    (token_strings "a == b && c <= d != e || f >= g")

let test_lexer_comments () =
  Alcotest.(check (list string))
    "comments skipped"
    [ "x"; "="; "1"; ";"; "<eof>" ]
    (token_strings "x = /* block \n comment */ 1; // line comment")

let test_lexer_positions () =
  let toks = Lexer.tokenize "a\n  b" in
  match toks with
  | [ a; b; _eof ] ->
      Alcotest.(check int) "a line" 1 a.Lexer.tpos.Ast.line;
      Alcotest.(check int) "a col" 1 a.Lexer.tpos.Ast.col;
      Alcotest.(check int) "b line" 2 b.Lexer.tpos.Ast.line;
      Alcotest.(check int) "b col" 3 b.Lexer.tpos.Ast.col
  | _ -> Alcotest.fail "unexpected token count"

let test_lexer_bad_char () =
  match Lexer.tokenize "a # b" with
  | exception Lexer.Lex_error _ -> ()
  | _ -> Alcotest.fail "expected lex error"

let test_lexer_unterminated_comment () =
  match Lexer.tokenize "/* never closed" with
  | exception Lexer.Lex_error _ -> ()
  | _ -> Alcotest.fail "expected lex error"

(* Every reserved word, and only those, lexes as a keyword. *)
let test_lexer_keywords () =
  List.iter
    (fun k ->
      (match Lexer.tokenize k with
      | [ { Lexer.tok = Lexer.KW k'; _ }; _ ] -> Alcotest.(check string) "keyword" k k'
      | _ -> Alcotest.failf "%S did not lex as one keyword" k);
      List.iter
        (fun near ->
          match Lexer.tokenize near with
          | [ { Lexer.tok = Lexer.IDENT s; _ }; _ ] -> Alcotest.(check string) "identifier" near s
          | _ -> Alcotest.failf "%S did not lex as one identifier" near)
        [ k ^ "_"; "_" ^ k; k ^ "1"; String.capitalize_ascii k ])
    Lexer.keywords

let all_punct =
  [ "=="; "!="; "<="; ">="; "&&"; "||"; "+="; "-="; "*="; "/="; "%="; "++"; "--"; "+"; "-"; "*";
    "/"; "%"; "<"; ">"; "="; "!"; "("; ")"; "{"; "}"; "["; "]"; ";"; ","; "." ]

let test_lexer_punctuation () =
  List.iter
    (fun p ->
      match Lexer.tokenize (" " ^ p ^ " ") with
      | [ { Lexer.tok = Lexer.PUNCT p'; tpos }; _ ] ->
          Alcotest.(check string) "punctuation" p p';
          Alcotest.(check int) "column" 2 tpos.Ast.col
      | _ -> Alcotest.failf "%S did not lex as one punctuation token" p)
    all_punct;
  (* longest match first, no backtracking: "<==" is "<=" then "=" *)
  Alcotest.(check (list string)) "maximal munch" [ "<="; "="; "++"; "="; "<eof>" ]
    (token_strings "<==++=")

let test_lexer_errors_and_positions () =
  (match Lexer.tokenize "a\n  /* open\n" with
  | exception Lexer.Lex_error (msg, pos) ->
      Alcotest.(check string) "message" "unterminated block comment" msg;
      Alcotest.(check (pair int int)) "at the comment start" (2, 3) (pos.Ast.line, pos.Ast.col)
  | _ -> Alcotest.fail "expected lex error");
  (match Lexer.tokenize "x\n y = 99999999999999999999999;" with
  | exception Lexer.Lex_error (msg, pos) ->
      Alcotest.(check string) "message" "integer literal out of range: 99999999999999999999999" msg;
      Alcotest.(check (pair int int)) "at the literal" (2, 6) (pos.Ast.line, pos.Ast.col)
  | _ -> Alcotest.fail "expected lex error");
  match Lexer.tokenize "/* a\n b */ // c\n\t@" with
  | exception Lexer.Lex_error (msg, pos) ->
      Alcotest.(check string) "message" "unexpected character '@'" msg;
      Alcotest.(check (pair int int)) "after comments" (3, 2) (pos.Ast.line, pos.Ast.col)
  | _ -> Alcotest.fail "expected lex error"

(* Random token sequences, joined by random whitespace and comments,
   lex back to themselves; a separator is always present where two
   tokens would otherwise run together. *)
let prop_lexer_roundtrip =
  let open QCheck2 in
  let word = Gen.oneofl ([ "x"; "abc"; "_t1"; "Main" ] @ Lexer.keywords) in
  let number = Gen.map string_of_int (Gen.int_bound 100000) in
  let token = Gen.oneof [ word; number; Gen.oneofl all_punct ] in
  let sep = Gen.oneofl [ " "; "\n"; "\t "; " /* c */ "; " // c\n"; "\r\n  " ] in
  Test.make ~name:"tokens round-trip through the lexer" ~count:300
    Gen.(list_size (int_bound 40) (pair token sep))
    (fun toks ->
      let src = String.concat "" (List.map (fun (t, s) -> t ^ s) toks) in
      token_strings src = List.map fst toks @ [ "<eof>" ])

(* ------------------------------------------------------------------ *)
(* Parser                                                              *)
(* ------------------------------------------------------------------ *)

let test_parse_class_structure () =
  let prog = parse "class A extends B { int x; static boolean f; int get() { return x; } }" in
  match prog with
  | [ c ] ->
      Alcotest.(check string) "name" "A" c.Ast.c_name;
      Alcotest.(check (option string)) "super" (Some "B") c.Ast.c_super;
      Alcotest.(check int) "fields" 2 (List.length c.Ast.c_fields);
      Alcotest.(check int) "methods" 1 (List.length c.Ast.c_methods)
  | _ -> Alcotest.fail "expected one class"

let test_parse_constructor () =
  let prog = parse "class A { int x; A(int x) { this.x = x; } }" in
  match prog with
  | [ c ] -> (
      match c.Ast.c_methods with
      | [ m ] ->
          Alcotest.(check string) "ctor name" Ast.ctor_name m.Ast.m_name;
          Alcotest.(check int) "params" 1 (List.length m.Ast.m_params)
      | _ -> Alcotest.fail "expected one method")
  | _ -> Alcotest.fail "expected one class"

let test_parse_precedence () =
  (* 1 + 2 * 3 parses as 1 + (2 * 3) *)
  let e = Parser.parse_expr ~class_names:[] "1 + 2 * 3" in
  match e.Ast.ex with
  | Ast.Binary (Ast.Add, { ex = Ast.Int 1; _ }, { ex = Ast.Binary (Ast.Mul, _, _); _ }) -> ()
  | _ -> Alcotest.fail "wrong precedence"

let test_parse_and_or_precedence () =
  (* a || b && c parses as a || (b && c) *)
  let e = Parser.parse_expr ~class_names:[] "a || b && c" in
  match e.Ast.ex with
  | Ast.Or (_, { ex = Ast.And (_, _); _ }) -> ()
  | _ -> Alcotest.fail "wrong && / || precedence"

let test_parse_cast_vs_paren () =
  (* with C a known class, (C) x is a cast *)
  let e = Parser.parse_expr ~class_names:[ "C" ] "(C) x" in
  (match e.Ast.ex with
  | Ast.Cast ("C", { ex = Ast.Name "x"; _ }) -> ()
  | _ -> Alcotest.fail "expected a cast");
  (* with no class named y, (y) is a parenthesized name *)
  let e2 = Parser.parse_expr ~class_names:[] "(y)" in
  match e2.Ast.ex with
  | Ast.Name "y" -> ()
  | _ -> Alcotest.fail "expected a name"

let test_parse_static_ref () =
  let e = Parser.parse_expr ~class_names:[ "C" ] "C.f" in
  (match e.Ast.ex with
  | Ast.Static_field ("C", "f") -> ()
  | _ -> Alcotest.fail "expected static field");
  let e2 = Parser.parse_expr ~class_names:[ "C" ] "C.m(1, 2)" in
  match e2.Ast.ex with
  | Ast.Static_call ("C", "m", [ _; _ ]) -> ()
  | _ -> Alcotest.fail "expected static call"

let test_parse_instanceof () =
  let e = Parser.parse_expr ~class_names:[ "C" ] "x instanceof C" in
  match e.Ast.ex with
  | Ast.Instance_of ({ ex = Ast.Name "x"; _ }, "C") -> ()
  | _ -> Alcotest.fail "expected instanceof"

let test_parse_new_array () =
  let e = Parser.parse_expr ~class_names:[ "C" ] "new int[10]" in
  (match e.Ast.ex with
  | Ast.New_array (Ast.Tint, { ex = Ast.Int 10; _ }) -> ()
  | _ -> Alcotest.fail "expected new int[]");
  let e2 = Parser.parse_expr ~class_names:[ "C" ] "new C[n]" in
  match e2.Ast.ex with
  | Ast.New_array (Ast.Tclass "C", _) -> ()
  | _ -> Alcotest.fail "expected new C[]"

let test_parse_errors () =
  parse_fails "class { }";
  parse_fails "class A { int }";
  parse_fails "class A { void f() { if } }";
  parse_fails "class A { void f() { x = ; } }";
  parse_fails "class A { void f() { 1 = x; } }"

let test_parse_synchronized () =
  let prog = parse "class A { synchronized int f() { return 1; } void g() { synchronized (this) { } } }" in
  match prog with
  | [ c ] -> (
      match c.Ast.c_methods with
      | [ f; g ] ->
          Alcotest.(check bool) "f is sync" true f.Ast.m_sync;
          Alcotest.(check bool) "g not sync" false g.Ast.m_sync;
          (match g.Ast.m_body with
          | [ { st = Ast.Sync (_, _); _ } ] -> ()
          | _ -> Alcotest.fail "expected sync statement")
      | _ -> Alcotest.fail "expected two methods")
  | _ -> Alcotest.fail "expected one class"

(* ------------------------------------------------------------------ *)
(* Typechecker                                                         *)
(* ------------------------------------------------------------------ *)

let main_wrap body = Printf.sprintf "class Main { static int main() { %s } }" body

let test_tc_minimal () = check_ok (main_wrap "return 0;")

let test_tc_requires_main () =
  check_fails "class A { }";
  check_ok ~require_main:false "class A { }"

let test_tc_unknown_variable () = check_fails (main_wrap "return x;")

let test_tc_arith_types () =
  check_fails (main_wrap "return 1 + true;");
  check_fails (main_wrap "boolean b = 1; return 0;");
  check_ok (main_wrap "int x = 1 + 2 * 3; return x;")

let test_tc_duplicate_local () = check_fails (main_wrap "int x = 1; int x = 2; return x;")

let test_tc_block_scoping () =
  check_ok (main_wrap "{ int x = 1; } { int x = 2; } return 0;");
  check_fails (main_wrap "{ int x = 1; } return x;")

let test_tc_field_resolution () =
  check_ok
    "class P { int v; }\n\
     class Main { static int main() { P p = new P(); p.v = 3; return p.v; } }";
  check_fails
    "class P { int v; }\n\
     class Main { static int main() { P p = new P(); return p.w; } }"

let test_tc_inheritance () =
  check_ok
    "class A { int x; }\n\
     class B extends A { int y; }\n\
     class Main { static int main() { B b = new B(); b.x = 1; b.y = 2; return b.x + b.y; } }";
  (* field shadowing is rejected *)
  check_fails ~require_main:false "class A { int x; } class B extends A { int x; }";
  (* cyclic inheritance is rejected *)
  check_fails ~require_main:false "class A extends B { } class B extends A { }"

let test_tc_override_signatures () =
  check_ok ~require_main:false
    "class A { int f(int x) { return x; } } class B extends A { int f(int x) { return x + 1; } }";
  check_fails ~require_main:false
    "class A { int f(int x) { return x; } } class B extends A { boolean f(int x) { return true; } }"

let test_tc_assignability () =
  check_ok
    "class A { }\n\
     class B extends A { }\n\
     class Main { static int main() { A a = new B(); return 0; } }";
  check_fails
    "class A { }\n\
     class B extends A { }\n\
     class Main { static int main() { B b = new A(); return 0; } }";
  (* null is assignable to references only *)
  check_ok (main_wrap "Object o = null; return 0;");
  check_fails (main_wrap "int x = null; return 0;")

let test_tc_definite_return () =
  check_fails "class Main { static int main() { int x = 1; } }";
  check_fails "class Main { static int main() { if (true) return 1; } }";
  check_ok "class Main { static int main() { if (true) return 1; else return 2; } }";
  (* while(true) counts as non-falling-through *)
  check_ok "class Main { static int main() { while (true) { return 1; } } }"

let test_tc_void_and_ctor () =
  check_fails ~require_main:false "class A { void f() { return 1; } }";
  check_fails ~require_main:false "class A { A() { return 1; } }";
  check_ok ~require_main:false "class A { int x; A(int v) { x = v; } void f() { return; } }"

let test_tc_static_instance_mix () =
  check_fails ~require_main:false "class A { int x; static int f() { return x; } }";
  check_fails ~require_main:false "class A { static int f() { return this.g(); } int g() { return 1; } }";
  check_ok ~require_main:false "class A { int x; int f() { return x; } }"

let test_tc_ref_equality () =
  check_ok
    "class A { }\n\
     class Main { static int main() { A a = new A(); if (a == null) return 0; return 1; } }";
  (* incompatible reference comparison *)
  check_fails
    "class A { }\n\
     class B { }\n\
     class Main { static int main() { A a = new A(); B b = new B(); if (a == b) return 0; return 1; } }"

let test_tc_arrays () =
  check_ok (main_wrap "int[] a = new int[3]; a[0] = 5; return a[0] + a.length;");
  check_fails (main_wrap "int[] a = new int[3]; a[true] = 5; return 0;");
  check_fails (main_wrap "int x = 1; return x[0];");
  check_ok (main_wrap "int[][] m = new int[2][]; return m.length;")

let test_tc_print () =
  check_ok (main_wrap "print(42); print(true); return 0;");
  check_fails (main_wrap "print(null); return 0;")

let test_tc_instanceof_cast () =
  check_ok
    "class A { }\n\
     class B extends A { }\n\
     class Main { static int main() { A a = new B(); if (a instanceof B) { B b = (B) a; } return 0; } }";
  check_fails (main_wrap "int x = 1; if (x instanceof Object) return 1; return 0;")

let test_tc_sync_requires_object () =
  check_fails (main_wrap "synchronized (1) { } return 0;");
  check_ok
    "class A { }\n\
     class Main { static int main() { A a = new A(); synchronized (a) { } return 0; } }"


(* ------------------------------------------------------------------ *)
(* Pretty-printer roundtrips                                           *)
(* ------------------------------------------------------------------ *)

(* print -> parse -> print must be a fixpoint, and the reparse must
   typecheck to the same judgement as the original *)
let roundtrip src =
  let ast1 = parse src in
  let printed1 = Pretty.program ast1 in
  let ast2 =
    try parse printed1
    with e -> Alcotest.failf "reparse failed: %s\noutput was:\n%s" (Printexc.to_string e) printed1
  in
  let printed2 = Pretty.program ast2 in
  Alcotest.(check string) "print is a fixpoint" printed1 printed2

let test_pretty_roundtrip_cases () =
  List.iter roundtrip
    [
      "class A { }";
      "class A extends B { int x; static boolean b; } class B { }";
      "class A { int f(int x, boolean b) { if (b) return x; else return 0 - x; } }";
      "class A { A(int v) { } void g() { A a = new A(5); synchronized (a) { print(1); } } }";
      "class A { int[] f() { int[][] m = new int[3][]; return new int[7]; } }";
      "class A { boolean f(A p, A q) { return p == q && p != null || 1 < 2; } }";
      "class A { int f(Object o) { if (o instanceof A) { A a = (A) o; return 1; } return 0; } }";
      "class A { int f() { int acc = 0; int i = 0; while (i < 5) { acc = acc + i * 2 - 1; i = i + 1; } return acc; } }";
    ]

(* the roundtripped program behaves identically *)
let test_pretty_preserves_semantics () =
  let src =
    "class P { int v; P(int v0) { v = v0; } }\n\
     class Main { static int main() {\n\
    \  int acc = 0; int i = 0;\n\
    \  while (i < 10) { P p = new P(i * 3); acc = acc + p.v; print(acc); i = i + 1; }\n\
    \  return acc; } }"
  in
  let r1 = Pea_rt.Run.run_source src in
  let printed = Pretty.program (parse src) in
  let r2 = Pea_rt.Run.run_source printed in
  Alcotest.(check (list string)) "prints equal"
    (List.map Pea_rt.Value.string_of_value r1.Pea_rt.Run.printed)
    (List.map Pea_rt.Value.string_of_value r2.Pea_rt.Run.printed);
  match r1.Pea_rt.Run.return_value, r2.Pea_rt.Run.return_value with
  | Some a, Some b ->
      Alcotest.(check string) "results equal" (Pea_rt.Value.string_of_value a)
        (Pea_rt.Value.string_of_value b)
  | _ -> Alcotest.fail "missing results"

let prop_pretty_roundtrip =
  QCheck2.Test.make ~name:"pretty-print roundtrip on random programs" ~count:120
    ~print:(fun s -> s) Program_gen.gen_program
    (fun src ->
      let ast1 = Pea_mjava.Parser.parse_program src in
      let printed1 = Pea_mjava.Pretty.program ast1 in
      let ast2 = Pea_mjava.Parser.parse_program printed1 in
      let printed2 = Pea_mjava.Pretty.program ast2 in
      (* fixpoint, and the printed program behaves like the original *)
      printed1 = printed2
      &&
      let r1 = Pea_rt.Run.run_source src in
      let r2 = Pea_rt.Run.run_source printed1 in
      r1.Pea_rt.Run.return_value = r2.Pea_rt.Run.return_value
      && List.map Pea_rt.Value.string_of_value r1.Pea_rt.Run.printed
         = List.map Pea_rt.Value.string_of_value r2.Pea_rt.Run.printed)

let () =
  Alcotest.run "frontend"
    [
      ( "lexer",
        [
          Alcotest.test_case "basic" `Quick test_lexer_basic;
          Alcotest.test_case "operators" `Quick test_lexer_operators;
          Alcotest.test_case "comments" `Quick test_lexer_comments;
          Alcotest.test_case "positions" `Quick test_lexer_positions;
          Alcotest.test_case "bad char" `Quick test_lexer_bad_char;
          Alcotest.test_case "unterminated comment" `Quick test_lexer_unterminated_comment;
          Alcotest.test_case "keywords" `Quick test_lexer_keywords;
          Alcotest.test_case "punctuation" `Quick test_lexer_punctuation;
          Alcotest.test_case "error positions" `Quick test_lexer_errors_and_positions;
          QCheck_alcotest.to_alcotest prop_lexer_roundtrip;
        ] );
      ( "parser",
        [
          Alcotest.test_case "class structure" `Quick test_parse_class_structure;
          Alcotest.test_case "constructor" `Quick test_parse_constructor;
          Alcotest.test_case "precedence" `Quick test_parse_precedence;
          Alcotest.test_case "&&/|| precedence" `Quick test_parse_and_or_precedence;
          Alcotest.test_case "cast vs paren" `Quick test_parse_cast_vs_paren;
          Alcotest.test_case "static refs" `Quick test_parse_static_ref;
          Alcotest.test_case "instanceof" `Quick test_parse_instanceof;
          Alcotest.test_case "new array" `Quick test_parse_new_array;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "synchronized" `Quick test_parse_synchronized;
        ] );
      ( "pretty",
        [
          Alcotest.test_case "roundtrips" `Quick test_pretty_roundtrip_cases;
          Alcotest.test_case "semantics preserved" `Quick test_pretty_preserves_semantics;
          QCheck_alcotest.to_alcotest prop_pretty_roundtrip;
        ] );
      ( "typecheck",
        [
          Alcotest.test_case "minimal" `Quick test_tc_minimal;
          Alcotest.test_case "requires main" `Quick test_tc_requires_main;
          Alcotest.test_case "unknown variable" `Quick test_tc_unknown_variable;
          Alcotest.test_case "arith types" `Quick test_tc_arith_types;
          Alcotest.test_case "duplicate local" `Quick test_tc_duplicate_local;
          Alcotest.test_case "block scoping" `Quick test_tc_block_scoping;
          Alcotest.test_case "field resolution" `Quick test_tc_field_resolution;
          Alcotest.test_case "inheritance" `Quick test_tc_inheritance;
          Alcotest.test_case "override signatures" `Quick test_tc_override_signatures;
          Alcotest.test_case "assignability" `Quick test_tc_assignability;
          Alcotest.test_case "definite return" `Quick test_tc_definite_return;
          Alcotest.test_case "void and ctor" `Quick test_tc_void_and_ctor;
          Alcotest.test_case "static/instance mix" `Quick test_tc_static_instance_mix;
          Alcotest.test_case "ref equality" `Quick test_tc_ref_equality;
          Alcotest.test_case "arrays" `Quick test_tc_arrays;
          Alcotest.test_case "print" `Quick test_tc_print;
          Alcotest.test_case "instanceof/cast" `Quick test_tc_instanceof_cast;
          Alcotest.test_case "sync requires object" `Quick test_tc_sync_requires_object;
        ] );
    ]
