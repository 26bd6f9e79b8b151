(* Seeded inputs for the four workloads.

   Everything the compiler sees is generated here from the run's seed,
   as mini-C source text: the same seed gives byte-identical inputs.
   [scale] doubles the dimension each workload varies (statements for
   corpus, nesting depth for deep, statements per function for cli and
   serve); the traced run compiles the scale-2 inputs to measure how
   Phase 1 grows. *)

module Backend = Gg_codegen.Backend
module Driver = Gg_codegen.Driver
module Corpus = Gg_frontc.Corpus

type input = {
  name : string;
  source : string;
  target : Backend.target;
  regalloc : Driver.regalloc;
}

(* splitmix64: a seed-stable stream independent of Corpus's generator *)
type rng = { mutable state : int64 }

let rng seed = { state = Int64.(add (of_int seed) 0x9e3779b97f4a7c15L) }

let next r =
  r.state <- Int64.add r.state 0x9e3779b97f4a7c15L;
  let z = r.state in
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL) in
  Int64.(to_int (logand (logxor z (shift_right_logical z 31)) 0x3fffffffL))

let pick r a = a.(next r mod Array.length a)

(* -- corpus: the T-TIME program ---------------------------------------- *)

let corpus_stmts = 2000

let corpus ~seed ~scale =
  [
    {
      name = Printf.sprintf "corpus-%d" seed;
      source =
        Corpus.render
          (Corpus.large_program ~seed ~target_stmts:(corpus_stmts * scale));
      target = Backend.Vax;
      regalloc = Driver.Stack;
    };
  ]

(* -- deep: expressions nested to depth D and 2D ------------------------- *)

let deep_depth = 300

let leaves = [| "a"; "b"; "x"; "y"; "g0"; "g1"; "3"; "5"; "7"; "9" |]
let ops = [| "+"; "-"; "*"; "&"; "|"; "^" |]

(* A chain of [depth] binary operators; at each level the deeper operand
   goes left or right at random, so Phase 1c's reordering sees both
   shapes.  Division is left out: every program must run trap-free. *)
let nested r depth =
  let b = Buffer.create (depth * 8) in
  let rec go d =
    if d = 0 then Buffer.add_string b (pick r leaves)
    else begin
      let leaf = pick r leaves and op = pick r ops in
      Buffer.add_char b '(';
      if next r land 1 = 0 then begin
        go (d - 1);
        Printf.bprintf b " %s %s" op leaf
      end
      else begin
        Printf.bprintf b "%s %s " leaf op;
        go (d - 1)
      end;
      Buffer.add_char b ')'
    end
  in
  go depth;
  Buffer.contents b

let deep_source ~seed ~depths =
  let r = rng seed in
  let b = Buffer.create 4096 in
  Buffer.add_string b "int g0;\nint g1;\n\nint deep(int a, int b) {\n";
  Buffer.add_string b "  int x;\n  int y;\n  x = a;\n  y = b;\n";
  List.iteri
    (fun i d ->
      Printf.bprintf b "  %s = %s;\n" (if i land 1 = 0 then "x" else "y")
        (nested r d))
    depths;
  Buffer.add_string b "  g1 = x ^ y;\n  return x + y;\n}\n\n";
  Buffer.add_string b
    "int main() {\n  int t;\n  g0 = 13;\n  g1 = 17;\n  t = deep(7, 11);\n\
    \  print(t);\n  print(g1);\n  return t & 255;\n}\n";
  Buffer.contents b

let deep ~seed ~scale =
  let d = deep_depth * scale in
  [
    {
      name = Printf.sprintf "deep-%d" seed;
      source = deep_source ~seed ~depths:[ d; 2 * d; d; 2 * d ];
      target = Backend.Vax;
      regalloc = Driver.Stack;
    };
  ]

(* -- cli and serve: examples/c plus seeded random sources -------------- *)

(* (functions, statements per function) of the random sources.  cli
   compiles single small files, about 0.6 to 2.5 KB, so a process is
   mostly start-up; serve requests span about 0.6 to 10 KB, log-spaced.
   Four rounds of each shape keep the size mix, and so the latency
   quantiles, nearly the same from one seed to the next. *)
let cli_shapes = [| (1, 1); (1, 2); (1, 4); (2, 3); (2, 6) |]

let serve_shapes =
  [| (1, 1); (1, 3); (1, 6); (2, 4); (2, 8); (3, 8); (4, 10); (6, 10);
     (8, 12); (10, 14) |]

let rounds = 4

let random_sources shapes ~seed ~scale =
  List.concat_map
    (fun round ->
      Array.to_list
        (Array.mapi
           (fun i (functions, stmts) ->
             let s = (seed * 7919) + (round * 101) + i in
             ( Printf.sprintf "rand-%d-%d" round i,
               Corpus.random_source ~seed:s ~functions
                 ~stmts_per_function:(stmts * scale) ))
           shapes))
    (List.init rounds Fun.id)

let read_file path =
  In_channel.with_open_bin path In_channel.input_all

(* the examples directory of the checkout, in name order *)
let examples dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".c")
  |> List.sort compare
  |> List.map (fun f -> (Filename.chop_suffix f ".c", read_file (Filename.concat dir f)))

let targets = [| Backend.Vax; Backend.Risc |]

(* Every source twice for -t vax and once for -t risc.  A RISC process
   is a few milliseconds faster (smaller tables), so an even split
   would put the median on the boundary between the two targets'
   modes, where it jumps from run to run; at two to one it falls inside
   the VAX mode. *)
let cli ~seed ~examples ~scale =
  List.concat_map
    (fun (name, source) ->
      List.map
        (fun target -> { name; source; target; regalloc = Driver.Stack })
        [ Backend.Vax; Backend.Vax; Backend.Risc ])
    (examples @ random_sources cli_shapes ~seed ~scale)

(* every source under each target and allocator *)
let serve ~seed ~examples ~scale =
  List.concat_map
    (fun (name, source) ->
      List.concat_map
        (fun target ->
          List.map
            (fun regalloc -> { name; source; target; regalloc })
            [ Driver.Stack; Driver.Color ])
        (Array.to_list targets))
    (examples @ random_sources serve_shapes ~seed ~scale)

let for_workload workload ~seed ~examples ~scale =
  match workload with
  | "corpus" -> corpus ~seed ~scale
  | "deep" -> deep ~seed ~scale
  | "cli" -> cli ~seed ~examples ~scale
  | "serve" -> serve ~seed ~examples ~scale
  | w -> invalid_arg ("unknown workload " ^ w)
