type token =
  | INT of int64
  | FLOAT of float
  | IDENT of string
  | KW of string
  | PUNCT of string
  | EOF

exception Lex_error of int * string

let is_keyword = function
  | "char" | "short" | "int" | "long" | "unsigned" | "float" | "double"
  | "void" | "if" | "else" | "while" | "do" | "for" | "return" | "break"
  | "continue" | "register" ->
    true
  | _ -> false

type t = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable tok : token;
  mutable tok_line : int;
}

let error t fmt = Fmt.kstr (fun s -> raise (Lex_error (t.line, s))) fmt

let is_digit c = c >= '0' && c <= '9'
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let rec skip_ws t =
  if t.pos < String.length t.src then
    match t.src.[t.pos] with
    | ' ' | '\t' | '\r' ->
      t.pos <- t.pos + 1;
      skip_ws t
    | '\n' ->
      t.pos <- t.pos + 1;
      t.line <- t.line + 1;
      skip_ws t
    | '/' when t.pos + 1 < String.length t.src && t.src.[t.pos + 1] = '*' ->
      let rec close i =
        if i + 1 >= String.length t.src then error t "unterminated comment"
        else if t.src.[i] = '*' && t.src.[i + 1] = '/' then i + 2
        else begin
          if t.src.[i] = '\n' then t.line <- t.line + 1;
          close (i + 1)
        end
      in
      t.pos <- close (t.pos + 2);
      skip_ws t
    | '/' when t.pos + 1 < String.length t.src && t.src.[t.pos + 1] = '/' ->
      while t.pos < String.length t.src && t.src.[t.pos] <> '\n' do
        t.pos <- t.pos + 1
      done;
      skip_ws t
    | _ -> ()

(* the character [k] places ahead, NUL past the end *)
let ahead t k =
  if t.pos + k < String.length t.src then t.src.[t.pos + k] else '\000'

(* The longest operator or punctuator at the current position, and its
   length, read in place.  The cases are tried in order, so each longer
   form precedes its prefixes.  Every result is a constant: nothing is
   allocated. *)
let punct t =
  match (ahead t 0, ahead t 1, ahead t 2) with
  | '<', '<', '=' -> (3, PUNCT "<<=")
  | '>', '>', '=' -> (3, PUNCT ">>=")
  | '=', '=', _ -> (2, PUNCT "==")
  | '!', '=', _ -> (2, PUNCT "!=")
  | '<', '=', _ -> (2, PUNCT "<=")
  | '>', '=', _ -> (2, PUNCT ">=")
  | '&', '&', _ -> (2, PUNCT "&&")
  | '|', '|', _ -> (2, PUNCT "||")
  | '+', '+', _ -> (2, PUNCT "++")
  | '-', '-', _ -> (2, PUNCT "--")
  | '+', '=', _ -> (2, PUNCT "+=")
  | '-', '=', _ -> (2, PUNCT "-=")
  | '*', '=', _ -> (2, PUNCT "*=")
  | '/', '=', _ -> (2, PUNCT "/=")
  | '%', '=', _ -> (2, PUNCT "%=")
  | '&', '=', _ -> (2, PUNCT "&=")
  | '|', '=', _ -> (2, PUNCT "|=")
  | '^', '=', _ -> (2, PUNCT "^=")
  | '<', '<', _ -> (2, PUNCT "<<")
  | '>', '>', _ -> (2, PUNCT ">>")
  | '+', _, _ -> (1, PUNCT "+")
  | '-', _, _ -> (1, PUNCT "-")
  | '*', _, _ -> (1, PUNCT "*")
  | '/', _, _ -> (1, PUNCT "/")
  | '%', _, _ -> (1, PUNCT "%")
  | '&', _, _ -> (1, PUNCT "&")
  | '|', _, _ -> (1, PUNCT "|")
  | '^', _, _ -> (1, PUNCT "^")
  | '~', _, _ -> (1, PUNCT "~")
  | '!', _, _ -> (1, PUNCT "!")
  | '<', _, _ -> (1, PUNCT "<")
  | '>', _, _ -> (1, PUNCT ">")
  | '=', _, _ -> (1, PUNCT "=")
  | '(', _, _ -> (1, PUNCT "(")
  | ')', _, _ -> (1, PUNCT ")")
  | '{', _, _ -> (1, PUNCT "{")
  | '}', _, _ -> (1, PUNCT "}")
  | '[', _, _ -> (1, PUNCT "[")
  | ']', _, _ -> (1, PUNCT "]")
  | ';', _, _ -> (1, PUNCT ";")
  | ',', _, _ -> (1, PUNCT ",")
  | '?', _, _ -> (1, PUNCT "?")
  | ':', _, _ -> (1, PUNCT ":")
  | c, _, _ -> error t "unexpected character %c" c

let scan t =
  skip_ws t;
  t.tok_line <- t.line;
  if t.pos >= String.length t.src then EOF
  else
    let c = t.src.[t.pos] in
    if is_digit c then begin
      let start = t.pos in
      while t.pos < String.length t.src && is_digit t.src.[t.pos] do
        t.pos <- t.pos + 1
      done;
      (* hexadecimal *)
      if
        t.pos < String.length t.src
        && (t.src.[t.pos] = 'x' || t.src.[t.pos] = 'X')
        && t.pos = start + 1
        && t.src.[start] = '0'
      then begin
        t.pos <- t.pos + 1;
        let hstart = t.pos in
        while
          t.pos < String.length t.src
          && (is_digit t.src.[t.pos]
             || (Char.lowercase_ascii t.src.[t.pos] >= 'a'
                && Char.lowercase_ascii t.src.[t.pos] <= 'f'))
        do
          t.pos <- t.pos + 1
        done;
        if hstart = t.pos then error t "bad hex literal";
        INT (Int64.of_string ("0x" ^ String.sub t.src hstart (t.pos - hstart)))
      end
      else if t.pos < String.length t.src && t.src.[t.pos] = '.' then begin
        t.pos <- t.pos + 1;
        while t.pos < String.length t.src && is_digit t.src.[t.pos] do
          t.pos <- t.pos + 1
        done;
        FLOAT (float_of_string (String.sub t.src start (t.pos - start)))
      end
      else INT (Int64.of_string (String.sub t.src start (t.pos - start)))
    end
    else if is_alpha c then begin
      let start = t.pos in
      while
        t.pos < String.length t.src
        && (is_alpha t.src.[t.pos] || is_digit t.src.[t.pos])
      do
        t.pos <- t.pos + 1
      done;
      let word = String.sub t.src start (t.pos - start) in
      if is_keyword word then KW word else IDENT word
    end
    else
      let len, tok = punct t in
      t.pos <- t.pos + len;
      tok

let create src =
  let t = { src; pos = 0; line = 1; tok = EOF; tok_line = 1 } in
  t.tok <- scan t;
  t

let peek t = t.tok

let next t =
  let tok = t.tok in
  t.tok <- scan t;
  tok

let line t = t.tok_line

let pp_token ppf = function
  | INT n -> Fmt.pf ppf "%Ld" n
  | FLOAT f -> Fmt.pf ppf "%g" f
  | IDENT s -> Fmt.string ppf s
  | KW s -> Fmt.string ppf s
  | PUNCT s -> Fmt.pf ppf "'%s'" s
  | EOF -> Fmt.string ppf "<eof>"
