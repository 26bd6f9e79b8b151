(* Tests for the mini-C front end: lexer, parser, semantic checks, and
   the shapes of the lowered IR (they must match what the machine
   grammar's patterns expect). *)

open Gg_ir
open Gg_frontc
module T = Tree

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let value = Alcotest.testable Interp.pp_value Interp.value_equal

(* -- lexer ------------------------------------------------------------------ *)

let test_lexer_tokens () =
  let lx = Lexer.create "int x = 0x1f + 2.5; // comment\nif(x){}" in
  let rec drain acc =
    match Lexer.next lx with
    | Lexer.EOF -> List.rev acc
    | t -> drain (t :: acc)
  in
  match drain [] with
  | Lexer.KW "int" :: Lexer.IDENT "x" :: Lexer.PUNCT "=" :: Lexer.INT 31L
    :: Lexer.PUNCT "+" :: Lexer.FLOAT 2.5 :: Lexer.PUNCT ";" :: Lexer.KW "if"
    :: _ ->
    ()
  | ts -> Alcotest.failf "unexpected tokens: %a" Fmt.(list ~sep:sp Lexer.pp_token) ts

let lex src =
  let lx = Lexer.create src in
  let rec drain acc =
    match Lexer.next lx with Lexer.EOF -> List.rev acc | t -> drain (t :: acc)
  in
  drain []

let tokens = Alcotest.testable Lexer.pp_token ( = )

let all_puncts =
  [
    "<<="; ">>="; "=="; "!="; "<="; ">="; "&&"; "||"; "++"; "--"; "+="; "-=";
    "*="; "/="; "%="; "&="; "|="; "^="; "<<"; ">>"; "+"; "-"; "*"; "/"; "%";
    "&"; "|"; "^"; "~"; "!"; "<"; ">"; "="; "("; ")"; "{"; "}"; "["; "]";
    ";"; ","; "?"; ":";
  ]

let all_keywords =
  [
    "char"; "short"; "int"; "long"; "unsigned"; "float"; "double"; "void";
    "if"; "else"; "while"; "do"; "for"; "return"; "break"; "continue";
    "register";
  ]

let test_lexer_longest_match () =
  let lx = Lexer.create "a <<= b << c <= d" in
  let rec puncts acc =
    match Lexer.next lx with
    | Lexer.EOF -> List.rev acc
    | Lexer.PUNCT p -> puncts (p :: acc)
    | _ -> puncts acc
  in
  Alcotest.(check (list string)) "operators" [ "<<="; "<<"; "<=" ] (puncts []);
  let id s = Lexer.IDENT s and p s = Lexer.PUNCT s in
  List.iter
    (fun (src, expected) ->
      Alcotest.(check (list tokens)) src expected (lex src))
    [
      ("a<<=b", [ id "a"; p "<<="; id "b" ]);
      ("a>>=b", [ id "a"; p ">>="; id "b" ]);
      ("a+++b", [ id "a"; p "++"; p "+"; id "b" ]);
      ("a---b", [ id "a"; p "--"; p "-"; id "b" ]);
      ("a&&&b", [ id "a"; p "&&"; p "&"; id "b" ]);
      ("a|||b", [ id "a"; p "||"; p "|"; id "b" ]);
      ("a<<<b", [ id "a"; p "<<"; p "<"; id "b" ]);
      ("a===b", [ id "a"; p "=="; p "="; id "b" ]);
      ("a!==b", [ id "a"; p "!="; p "="; id "b" ]);
      ("a=!b", [ id "a"; p "="; p "!"; id "b" ]);
      ("a=-1", [ id "a"; p "="; p "-"; Lexer.INT 1L ]);
      ("x[i]+=*p;", [ id "x"; p "["; id "i"; p "]"; p "+="; p "*"; id "p"; p ";" ]);
      ("a/ /*c*/b", [ id "a"; p "/"; id "b" ]);
      ("a</", [ id "a"; p "<"; p "/" ]);
      ("<", [ p "<" ]);
    ]

let test_lexer_error () =
  (match Lexer.create "int @" with
  | exception Lexer.Lex_error (1, _) -> ()
  | lx -> (
    match Lexer.next lx with
    | exception Lexer.Lex_error (1, _) -> ()
    | _ -> (
      match Lexer.next lx with
      | exception Lexer.Lex_error (1, _) -> ()
      | _ -> Alcotest.fail "@ accepted")));
  List.iter
    (fun (src, expected) ->
      match lex src with
      | exception Lexer.Lex_error (line, msg) ->
        Alcotest.(check (pair int string)) src expected (line, msg)
      | ts ->
        Alcotest.failf "%S lexed as %a" src Fmt.(list ~sep:sp Lexer.pp_token) ts)
    [
      ("int @", (1, "unexpected character @"));
      ("a\n\nb $ c", (3, "unexpected character $"));
      ("a # b", (1, "unexpected character #"));
      ("x /* never\nclosed", (2, "unterminated comment"));
      ("0x", (1, "bad hex literal"));
      ("a\n0xg", (2, "bad hex literal"));
    ]

let test_lexer_every_token () =
  Alcotest.(check (list tokens))
    "every punctuator, space-separated"
    (List.map (fun p -> Lexer.PUNCT p) all_puncts)
    (lex (String.concat " " all_puncts));
  Alcotest.(check (list tokens))
    "every keyword"
    (List.map (fun k -> Lexer.KW k) all_keywords)
    (lex (String.concat "\n" all_keywords));
  Alcotest.(check (list tokens))
    "keyword prefixes and extensions are identifiers"
    [ Lexer.IDENT "in"; Lexer.IDENT "integer"; Lexer.IDENT "if_"; Lexer.IDENT "Int" ]
    (lex "in integer if_ Int")

(* -- parser ----------------------------------------------------------------- *)

let test_parser_precedence () =
  match Parser.parse_expr "1 + 2 * 3" with
  | Ast.Ebin (Ast.Badd, Ast.Eint 1L, Ast.Ebin (Ast.Bmul, Ast.Eint 2L, Ast.Eint 3L)) ->
    ()
  | _ -> Alcotest.fail "precedence wrong"

let test_parser_assoc_right_assign () =
  match Parser.parse_expr "a = b = 1" with
  | Ast.Eassign (Ast.Evar "a", Ast.Eassign (Ast.Evar "b", Ast.Eint 1L)) -> ()
  | _ -> Alcotest.fail "assignment associativity wrong"

let test_parser_ternary_and_logic () =
  match Parser.parse_expr "a && b ? !c : d || e" with
  | Ast.Econd (Ast.Ebin (Ast.Bland, _, _), Ast.Eun (Ast.Unot, _),
               Ast.Ebin (Ast.Blor, _, _)) ->
    ()
  | _ -> Alcotest.fail "ternary shape wrong"

let test_parser_postfix_chain () =
  match Parser.parse_expr "a[i]++" with
  | Ast.Epostincr (true, Ast.Eindex (Ast.Evar "a", Ast.Evar "i")) -> ()
  | _ -> Alcotest.fail "postfix chain wrong"

let test_parser_cast () =
  match Parser.parse_expr "(double) x" with
  | Ast.Ecast (Ast.Tdouble, Ast.Evar "x") -> ()
  | _ -> Alcotest.fail "cast not parsed"

let test_parser_program_shapes () =
  let p =
    Parser.parse_program
      "int g; char buf[10];\nint f(int a, double d) { int x; x = a; return x; }"
  in
  match p with
  | [ Ast.Dglobal ("g", Ast.Tint);
      Ast.Dglobal ("buf", Ast.Tarray (Ast.Tchar, 10));
      Ast.Dfunc f ] ->
    check_int "params" 2 (List.length f.Ast.params);
    check_int "locals" 1 (List.length f.Ast.locals);
    (* the parser interleaves Sline provenance markers with the
       statements proper: both statements sit on source line 2 *)
    let marks, stmts =
      List.partition (function Ast.Sline _ -> true | _ -> false) f.Ast.body
    in
    check_int "stmts" 2 (List.length stmts);
    List.iter
      (function Ast.Sline n -> check_int "line mark" 2 n | _ -> ())
      marks
  | _ -> Alcotest.fail "program shape wrong"

let test_parser_error_reports_line () =
  match Parser.parse_program "int f() {\n  return 1 +;\n}" with
  | exception Parser.Parse_error (2, _) -> ()
  | exception Parser.Parse_error (n, _) -> Alcotest.failf "wrong line %d" n
  | _ -> Alcotest.fail "junk accepted"

(* -- sema / lowering ---------------------------------------------------------- *)

let lower src = Sema.compile src

let main_body src =
  let p = lower src in
  (List.find (fun (f : T.func) -> f.T.fname = "main") p.T.funcs).T.body

let test_sema_local_addressing () =
  (* locals must lower to Indir (Plus Const Dreg-fp), the Appendix shape *)
  let body = main_body "int main() { int x; x = 5; return x; }" in
  check_bool "fp-relative store" true
    (List.exists
       (function
         | T.Stree
             (T.Assign
                (_, T.Indir (_, T.Binop (Op.Plus, _, T.Const _, T.Dreg (_, 13))),
                 _)) ->
           true
         | _ -> false)
       body)

let test_sema_param_addressing () =
  let p = lower "int f(int a) { return a; }" in
  let f = List.hd p.T.funcs in
  check_bool "ap-relative load" true
    (List.exists
       (function
         | T.Stree
             (T.Assign
                (_, T.Dreg _,
                 T.Indir (_, T.Binop (Op.Plus, _, T.Const (_, 4L), T.Dreg (_, 12))))) ->
           true
         | _ -> false)
       f.T.body)

let test_sema_array_shape () =
  (* global array indexing must produce the symindex pattern shape:
     Plus (Addr Name) (Mul Const idx) *)
  let body = main_body "int arr[8]; int main() { int i; i = 2; return arr[i]; }" in
  check_bool "symbolic index shape" true
    (List.exists
       (function
         | T.Stree
             (T.Assign
                (_, T.Dreg _,
                 T.Indir
                   (_, T.Binop (Op.Plus, _, T.Addr (T.Name _),
                                T.Binop (Op.Mul, _, T.Const (_, 4L), _))))) ->
           true
         | _ -> false)
       body)

let test_sema_char_promotion () =
  (* char arithmetic promotes to long with conversions *)
  let body = main_body "char c; int main() { return c + 1; }" in
  check_bool "conversion inserted" true
    (List.exists
       (function
         | T.Stree t ->
           T.fold
             (fun acc n ->
               acc
               || match n with T.Conv (Dtype.Long, Dtype.Byte, _) -> true | _ -> false)
             false t
         | _ -> false)
       body)

let test_sema_unsigned_ops () =
  let body = main_body "unsigned u; int main() { u = u / 3; return 0; }" in
  check_bool "unsigned division operator" true
    (List.exists
       (function
         | T.Stree t ->
           T.fold
             (fun acc n ->
               acc || match n with T.Binop (Op.Udiv, _, _, _) -> true | _ -> false)
             false t
         | _ -> false)
       body)

let test_sema_errors () =
  let expect_error src =
    match lower src with
    | exception Sema.Semantic_error _ -> ()
    | _ -> Alcotest.failf "accepted: %s" src
  in
  expect_error "int main() { return x; }";
  expect_error "int main() { return f(1); }";
  expect_error "int a; int main() { return *a; }";
  expect_error "int main() { 1 = 2; return 0; }";
  expect_error "int arr[4]; int main() { arr = 0; return 0; }";
  expect_error "int main() { break; return 0; }"

(* -- end-to-end under the interpreter ------------------------------------------ *)

let run_main ?(args = []) src = Interp.run (lower src) ~entry:"main" args

let test_exec_controlflow () =
  let out =
    run_main
      {|
int main() {
  int i; int s; s = 0;
  for (i = 0; i < 10; i++) { if (i % 2 == 0) continue; s += i; }
  do { s++; } while (s < 26);
  while (s > 20) { s -= 2; if (s == 22) break; }
  return s;
}
|}
  in
  (* sum of odds < 10 = 25; do-loop to 26; while: 24, 22 break *)
  Alcotest.check value "control flow" (Interp.VInt 22L) out.Interp.return_value

let test_exec_short_circuit_effects () =
  let out =
    run_main
      {|
int calls;
int bump() { calls++; return 1; }
int main() {
  calls = 0;
  if (0 && bump()) calls += 100;
  if (1 || bump()) calls += 10;
  if (1 && bump()) calls += 1;
  return calls;
}
|}
  in
  (* bump called once: 10 + 1 + 1 = 12 *)
  Alcotest.check value "short circuit" (Interp.VInt 12L) out.Interp.return_value

let test_exec_pointers () =
  let out =
    run_main
      {|
int a[4];
int main() {
  int *p; int s; int i;
  for (i = 0; i < 4; i++) a[i] = i + 1;
  p = &a[1];
  s = *p + p[1] + *(p + 2);
  return s;
}
|}
  in
  Alcotest.check value "pointer arithmetic" (Interp.VInt 9L) out.Interp.return_value

let test_exec_float_mix () =
  let out =
    run_main
      {|
double d; float f;
int main() {
  int i;
  f = 0.5;
  d = 0.0;
  for (i = 0; i < 4; i++) d = d + f * i;
  return (int) (d * 2.0);
}
|}
  in
  (* d = 0.5*(0+1+2+3) = 3.0; return 6 *)
  Alcotest.check value "float mix" (Interp.VInt 6L) out.Interp.return_value

let test_exec_postincr_value () =
  let out =
    run_main
      {|
int main() {
  int i; int a; int b;
  i = 5;
  a = i++;
  b = ++i;
  return a * 100 + b * 10 + i;
}
|}
  in
  (* a=5, b=7, i=7 *)
  Alcotest.check value "incr values" (Interp.VInt 577L) out.Interp.return_value

let test_exec_compound_assign () =
  let out =
    run_main
      {|
int main() {
  int x;
  x = 10;
  x += 5; x -= 3; x *= 2; x /= 4; x %= 4; x <<= 3; x |= 1; x ^= 2; x &= 30;
  x >>= 1;
  return x;
}
|}
  in
  (* 10+5=15-3=12*2=24/4=6%4=2<<3=16|1=17^2=19&30=18>>1=9 *)
  Alcotest.check value "compound ops" (Interp.VInt 9L) out.Interp.return_value

let test_exec_args () =
  let out =
    run_main ~args:[ Interp.VInt 6L; Interp.VInt 7L ]
      "int main(int a, int b) { return a * b; }"
  in
  Alcotest.check value "6*7" (Interp.VInt 42L) out.Interp.return_value

let test_register_variable_lowering () =
  let p = lower "int main() { register int r; r = 5; return r + 1; }" in
  let f = List.hd p.T.funcs in
  check_bool "Dreg leaf appears" true
    (List.exists
       (function
         | T.Stree t ->
           T.fold
             (fun acc n ->
               acc || match n with T.Dreg (_, 11) -> true | _ -> false)
             false t
         | _ -> false)
       f.T.body);
  (* register is only a hint: doubles fall back to the frame *)
  let p2 = lower "int main() { register double d; d = 1.0; return (int) d; }" in
  let f2 = List.hd p2.T.funcs in
  check_bool "double register var falls back to memory" true
    (f2.T.locals_size >= 8)

let test_register_autoincrement_lowering () =
  let body =
    main_body
      "int a[4]; int main() { register int *p; int s; p = &a[0]; s = *p++; \
       return s; }"
  in
  check_bool "Autoinc node generated" true
    (List.exists
       (function
         | T.Stree t ->
           T.fold
             (fun acc n -> acc || match n with T.Autoinc _ -> true | _ -> false)
             false t
         | _ -> false)
       body)

let test_address_of_register_rejected () =
  match lower "int main() { register int r; return (int) &r; }" with
  | exception Sema.Semantic_error _ -> ()
  | _ -> Alcotest.fail "address of register variable accepted"

let test_corpus_generation_deterministic () =
  let p1 = Corpus.program ~seed:3 ~functions:2 ~stmts_per_function:8 in
  let p2 = Corpus.program ~seed:3 ~functions:2 ~stmts_per_function:8 in
  check_bool "same program for same seed" true (p1 = p2);
  let p3 = Corpus.program ~seed:4 ~functions:2 ~stmts_per_function:8 in
  check_bool "different seed differs" true (p1 <> p3)

let test_corpus_programs_terminate () =
  for seed = 200 to 210 do
    let prog =
      Sema.lower_program (Corpus.program ~seed ~functions:2 ~stmts_per_function:8)
    in
    match Interp.run ~max_steps:2_000_000 prog ~entry:"main" [] with
    | _ -> ()
    | exception Interp.Runtime_error m ->
      Alcotest.failf "seed %d: %s" seed m
  done

let suite =
  [
    Alcotest.test_case "lexer tokens" `Quick test_lexer_tokens;
    Alcotest.test_case "lexer longest match" `Quick test_lexer_longest_match;
    Alcotest.test_case "lexer error" `Quick test_lexer_error;
    Alcotest.test_case "lexer every token" `Quick test_lexer_every_token;
    Alcotest.test_case "parser precedence" `Quick test_parser_precedence;
    Alcotest.test_case "assignment right-assoc" `Quick
      test_parser_assoc_right_assign;
    Alcotest.test_case "ternary and logic" `Quick test_parser_ternary_and_logic;
    Alcotest.test_case "postfix chain" `Quick test_parser_postfix_chain;
    Alcotest.test_case "cast" `Quick test_parser_cast;
    Alcotest.test_case "program shapes" `Quick test_parser_program_shapes;
    Alcotest.test_case "parse error line" `Quick test_parser_error_reports_line;
    Alcotest.test_case "local addressing shape" `Quick
      test_sema_local_addressing;
    Alcotest.test_case "param addressing shape" `Quick
      test_sema_param_addressing;
    Alcotest.test_case "array indexing shape" `Quick test_sema_array_shape;
    Alcotest.test_case "char promotion" `Quick test_sema_char_promotion;
    Alcotest.test_case "unsigned operators" `Quick test_sema_unsigned_ops;
    Alcotest.test_case "semantic errors" `Quick test_sema_errors;
    Alcotest.test_case "control flow" `Quick test_exec_controlflow;
    Alcotest.test_case "short-circuit side effects" `Quick
      test_exec_short_circuit_effects;
    Alcotest.test_case "pointers" `Quick test_exec_pointers;
    Alcotest.test_case "float arithmetic" `Quick test_exec_float_mix;
    Alcotest.test_case "post/pre increment values" `Quick
      test_exec_postincr_value;
    Alcotest.test_case "compound assignment" `Quick test_exec_compound_assign;
    Alcotest.test_case "main with arguments" `Quick test_exec_args;
    Alcotest.test_case "register variable lowering" `Quick
      test_register_variable_lowering;
    Alcotest.test_case "register autoincrement lowering" `Quick
      test_register_autoincrement_lowering;
    Alcotest.test_case "address of register rejected" `Quick
      test_address_of_register_rejected;
    Alcotest.test_case "corpus deterministic" `Quick
      test_corpus_generation_deterministic;
    Alcotest.test_case "corpus terminates" `Quick
      test_corpus_programs_terminate;
  ]
