(* The front end, called stage by stage so a traced run can time each
   stage. [compile_source] makes exactly the calls [Link.compile_source]
   makes. *)

open Pea_bytecode

let compile_source tr ~op ?require_main src =
  let ast = Span.with_span tr "mjava.parse" ~op (fun () -> Pea_mjava.Parser.parse_program src) in
  let typed =
    Span.with_span tr "mjava.typecheck" ~op (fun () ->
        Pea_mjava.Typecheck.check_program ?require_main ast)
  in
  Span.with_span tr "bytecode.link" ~op (fun () -> Link.link_program typed)

(* The two stages no other call exposes on its own: the lexer (the
   parser lexes internally) and the bytecode verifier ([Vm.create] runs
   it). Traced runs time them as extra work outside the operation. *)
let lex_and_verify tr ~op src program =
  let tokens = Span.with_span tr "mjava.lex" ~op (fun () -> Pea_mjava.Lexer.tokenize src) in
  Span.count tr "mjava.tokens" ~op (float_of_int (List.length tokens));
  Span.with_span tr "bytecode.verify" ~op (fun () -> Verify.verify_program program)

(* All five stages as extra work, for sources the operation itself
   compiles out of reach of the benchmark (inside [Server.create]). *)
let trace_all tr ~op ?require_main src =
  let program = compile_source tr ~op ?require_main src in
  lex_and_verify tr ~op src program;
  program
