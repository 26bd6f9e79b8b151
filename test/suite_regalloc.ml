(* The graph-coloring register allocator: def/use and liveness units on
   hand-built instruction streams, interference and move handling,
   coalescing and self-move deletion, spilling under pressure, and
   stack-vs-color differential properties (QCheck) on both targets. *)

open Gg_ir
module Backend = Gg_codegen.Backend
module Liveness = Gg_codegen.Liveness
module Interference = Gg_codegen.Interference
module Color = Gg_codegen.Color
module Regmgr = Gg_codegen.Regmgr
module Frame = Gg_codegen.Frame
module Driver = Gg_codegen.Driver
module Targets = Gg_targets.Targets
module Oracle = Gg_fuzz.Oracle
module Treegen = Gg_ir.Treegen
module Sema = Gg_frontc.Sema

let vax_ra = Backend.vax.Backend.regalloc
let vbase = 64
let v k = vbase + k
let sorted = List.sort compare

let du insn =
  let d, u = Liveness.insn_def_use vax_ra insn in
  (sorted d, sorted u)

let il = Alcotest.(list int)

(* -- def/use classification ------------------------------------------------ *)

let test_def_use () =
  Alcotest.(check (pair il il))
    "movl writes its destination"
    ([ 2 ], [ 1 ])
    (du (Insn.Insn ("movl", [ Mode.Reg 1; Mode.Reg 2 ])));
  Alcotest.(check (pair il il))
    "addl2 reads and writes its destination"
    ([ 2 ], [ 1; 2 ])
    (du (Insn.Insn ("addl2", [ Mode.Reg 1; Mode.Reg 2 ])));
  Alcotest.(check (pair il il))
    "cmpl defines nothing"
    ([], [ 1; 2 ])
    (du (Insn.Insn ("cmpl", [ Mode.Reg 1; Mode.Reg 2 ])));
  Alcotest.(check (pair il il))
    "incl reads and writes"
    ([ 3 ], [ 3 ])
    (du (Insn.Insn ("incl", [ Mode.Reg 3 ])));
  Alcotest.(check (pair il il))
    "memory base and index registers are uses"
    ([ 2 ], [ 1; 3 ])
    (du
       (Insn.Insn
          ("movl", [ Mode.with_index (Mode.mem_disp 4L 1) 3; Mode.Reg 2 ])));
  Alcotest.(check (pair il il))
    "autoincrement base is also a def"
    ([ 1; 2 ], [ 1 ])
    (du (Insn.Insn ("movl", [ Mode.autoinc 1; Mode.Reg 2 ])));
  Alcotest.(check (pair il il))
    "call defines the result registers"
    ([ 0; 1 ], [])
    (du (Insn.Call ("f", 0)));
  Alcotest.(check (pair il il))
    "ret reads r0"
    ([], [ 0 ])
    (du Insn.Ret)

(* -- liveness and interference on hand-built streams ----------------------- *)

let analyze ?(nvregs = 2) insns =
  Liveness.analyze ~ra:vax_ra
    ~is_jump:(String.equal "jbr")
    ~vbase ~nvregs (Array.of_list insns)

let build ?(nvregs = 2) insns =
  Interference.build ~move_mnemonics:[ "movl" ] ~heat:[] ~prov:[||]
    (analyze ~nvregs insns)

let test_liveness_straight_line () =
  let lv =
    analyze
      [
        Insn.Insn ("movl", [ Mode.imm 1L; Mode.Reg (v 0) ]);
        Insn.Insn ("movl", [ Mode.imm 2L; Mode.Reg (v 1) ]);
        Insn.Insn ("addl2", [ Mode.Reg (v 0); Mode.Reg (v 1) ]);
        Insn.Insn ("movl", [ Mode.Reg (v 1); Mode.Reg 0 ]);
        Insn.Ret;
      ]
  in
  Alcotest.(check int) "one basic block" 1 (Array.length lv.Liveness.blocks);
  Alcotest.(check bool)
    "nothing live out of the exit block" false
    (Liveness.Bits.get lv.Liveness.live_out.(0) (Liveness.node_of lv (v 0)))

let test_interference_edges () =
  let g =
    build
      [
        Insn.Insn ("movl", [ Mode.imm 1L; Mode.Reg (v 0) ]);
        Insn.Insn ("movl", [ Mode.imm 2L; Mode.Reg (v 1) ]);
        Insn.Insn ("addl2", [ Mode.Reg (v 0); Mode.Reg (v 1) ]);
        Insn.Insn ("movl", [ Mode.Reg (v 1); Mode.Reg 0 ]);
        Insn.Ret;
      ]
  in
  Alcotest.(check bool)
    "simultaneously live vregs interfere" true
    (Interference.interferes g 0 1);
  Alcotest.(check int)
    "the copy to r0 is the only move" 1
    (List.length g.Interference.moves)

let test_move_does_not_interfere () =
  let g =
    build
      [
        Insn.Insn ("movl", [ Mode.imm 1L; Mode.Reg (v 0) ]);
        Insn.Insn ("movl", [ Mode.Reg (v 0); Mode.Reg (v 1) ]);
        Insn.Insn ("movl", [ Mode.Reg (v 1); Mode.Reg 0 ]);
        Insn.Ret;
      ]
  in
  Alcotest.(check bool)
    "a move's ends do not interfere" false
    (Interference.interferes g 0 1);
  Alcotest.(check int) "both moves recorded" 2 (List.length g.Interference.moves)

let test_loop_depth () =
  let l = Label.fresh (Label.gen ()) in
  let lv =
    analyze ~nvregs:1
      [
        Insn.Insn ("movl", [ Mode.imm 0L; Mode.Reg (v 0) ]);
        Insn.Lab l;
        Insn.Insn ("addl2", [ Mode.imm 1L; Mode.Reg (v 0) ]);
        Insn.Branch ("jneq", l);
        Insn.Insn ("movl", [ Mode.Reg (v 0); Mode.Reg 0 ]);
        Insn.Ret;
      ]
  in
  Alcotest.(check int) "preheader is outside the loop" 0 (Liveness.depth_at lv 0);
  Alcotest.(check int) "loop body has depth 1" 1 (Liveness.depth_at lv 2);
  Alcotest.(check int) "loop exit is outside again" 0 (Liveness.depth_at lv 4)

(* -- the colorer on hand-built streams ------------------------------------- *)

let vinfo n =
  {
    Regmgr.vs_base = vbase;
    vs_types = Array.make n Dtype.Long;
    vs_kinds = Array.make n Regmgr.Vsingle;
    vs_prov = Array.make n (0, []);
  }

let color ?(nvregs = 2) insns =
  Color.run ~backend:Backend.vax ~bank:Backend.vax.Backend.alloc_regs
    ~frame:(Frame.create ~locals_size:0 ~temps:[])
    ~vinfo:(vinfo nvregs) ~heat:[] ~prov:[] insns

let no_virtuals insns =
  List.for_all
    (fun i ->
      match i with
      | Insn.Insn (_, ops) ->
        List.for_all
          (fun o -> List.for_all (fun r -> r < vbase) (Mode.registers o))
          ops
      | _ -> true)
    insns

let test_coalesce_deletes_move_chain () =
  let out, _, st =
    color
      [
        Insn.Insn ("movl", [ Mode.imm 1L; Mode.Reg (v 0) ]);
        Insn.Insn ("movl", [ Mode.Reg (v 0); Mode.Reg (v 1) ]);
        Insn.Insn ("movl", [ Mode.Reg (v 1); Mode.Reg 0 ]);
        Insn.Ret;
      ]
  in
  Alcotest.(check bool) "no virtual register survives" true (no_virtuals out);
  Alcotest.(check int)
    "the whole copy chain collapses into r0" 2 st.Color.self_moves_deleted;
  Alcotest.(check int) "nothing spilled" 0 st.Color.spilled_ranges;
  Alcotest.(check int)
    "only the constant load and the return remain" 2 (List.length out)

let test_cc_protected_move_survives () =
  (* the self-move's condition codes feed the conditional branch, so
     deleting it would change the branch decision *)
  let l = Label.fresh (Label.gen ()) in
  let out, _, _ =
    color
      [
        Insn.Insn ("movl", [ Mode.imm 1L; Mode.Reg (v 0) ]);
        Insn.Insn ("movl", [ Mode.Reg (v 0); Mode.Reg (v 1) ]);
        Insn.Branch ("jneq", l);
        Insn.Lab l;
        Insn.Insn ("movl", [ Mode.Reg (v 1); Mode.Reg 0 ]);
        Insn.Ret;
      ]
  in
  let moves_left =
    List.length
      (List.filter
         (function Insn.Insn ("movl", [ Mode.Reg _; Mode.Reg _ ]) -> true | _ -> false)
         out)
  in
  Alcotest.(check bool) "the cc-setting move is kept" true (moves_left >= 1)

let test_spill_under_pressure () =
  (* eight simultaneously live longs against a six-register bank *)
  let n = 8 in
  let defs =
    List.init n (fun k ->
        Insn.Insn ("movl", [ Mode.imm (Int64.of_int k); Mode.Reg (v k) ]))
  in
  let uses =
    List.init (n - 1) (fun k ->
        Insn.Insn ("addl2", [ Mode.Reg (v k); Mode.Reg (v (n - 1)) ]))
  in
  let out, _, st =
    color ~nvregs:n
      (defs @ uses
      @ [ Insn.Insn ("movl", [ Mode.Reg (v (n - 1)); Mode.Reg 0 ]); Insn.Ret ])
  in
  Alcotest.(check bool) "no virtual register survives" true (no_virtuals out);
  Alcotest.(check bool)
    "pressure forces at least one spilled range" true
    (st.Color.spilled_ranges >= 1);
  Alcotest.(check bool)
    "spilling takes extra rounds" true (st.Color.rounds >= 2)

let test_spill_provenance_marks () =
  (* twelve live longs against the RISC's ten-register bank: the
     colorer must emit reloads/stores, and each one must carry the
     spilled value's provenance plus a "reload"/"spill" marker *)
  let n = 12 in
  let vi =
    {
      Regmgr.vs_base = vbase;
      vs_types = Array.make n Dtype.Long;
      vs_kinds = Array.make n Regmgr.Vsingle;
      vs_prov = Array.init n (fun k -> (100 + k, [ k ]));
    }
  in
  let defs =
    List.init n (fun k ->
        Insn.Insn ("lil", [ Mode.imm (Int64.of_int k); Mode.Reg (v k) ]))
  in
  let uses =
    List.init (n - 1) (fun k ->
        Insn.Insn
          ( "addl",
            [ Mode.Reg (v k); Mode.Reg (v (n - 1)); Mode.Reg (v (n - 1)) ] ))
  in
  let insns =
    defs @ uses
    @ [ Insn.Insn ("mvl", [ Mode.Reg (v (n - 1)); Mode.Reg 0 ]); Insn.Ret ]
  in
  let prov = List.mapi (fun i _ -> (i + 1, [ 0 ], "")) insns in
  let out, outp, st =
    Color.run ~backend:Gg_risc.Target.backend
      ~bank:Gg_risc.Target.backend.Backend.alloc_regs
      ~frame:(Frame.create ~locals_size:0 ~temps:[])
      ~vinfo:vi ~heat:[] ~prov insns
  in
  Alcotest.(check int)
    "provenance tracks the rewritten stream" (List.length out)
    (List.length outp);
  Alcotest.(check bool)
    "pressure emits reloads" true
    (st.Color.spill_reloads > 0);
  let marked m = List.filter (fun (_, _, mk) -> mk = m) outp in
  Alcotest.(check bool)
    "every reload carries the spilled value's line and productions" true
    (List.for_all
       (fun (line, pids, _) -> line >= 100 && pids <> [])
       (marked "reload"));
  Alcotest.(check int)
    "one marked instruction per counted reload" st.Color.spill_reloads
    (List.length (marked "reload"));
  Alcotest.(check int)
    "one marked instruction per counted spill store" st.Color.spill_stores
    (List.length (marked "spill"))

(* -- heat-file parsing ------------------------------------------------------ *)

let test_parse_heat () =
  let module Heat = Gg_specialize.Heat in
  let heat =
    Heat.parse
      "{\n  \"total\": 42,\n  \"productions\": [\n    {\"id\": 3, \"count\": \
       41},\n    {\"id\": 7, \"count\": 1}\n  ]\n}"
  in
  Alcotest.(check (list (pair int int)))
    "mdgtool heat --json round-trips" [ (3, 41); (7, 1) ] heat.Heat.counts;
  Alcotest.(check (list (pair int int)))
    "rendered and parsed again" heat.Heat.counts
    (Heat.parse (Heat.to_json_string heat)).Heat.counts;
  List.iter
    (fun bad ->
      match Heat.parse bad with
      | exception Failure _ -> ()
      | _ -> Alcotest.failf "malformed heat profile %S accepted" bad)
    [ ""; "garbage"; "{\"productions\": [{\"id\": 3}]}" ]

(* -- whole-compiler differential checks ------------------------------------ *)

(* a spill-heavy source: a deep double expression under a register
   loop counter (the stack allocator spills this on the VAX) *)
let pressure_src =
  "double a; double b; double c; double d;\n\
   double e; double f; double g; double h; double r;\n\
   int main() {\n\
  \  register int i;\n\
  \  int n;\n\
  \  n = 0;\n\
  \  a = 1.5; b = 2.5; c = 3.25; d = 0.5;\n\
  \  e = 1.25; f = 2.0; g = 0.75; h = 1.0;\n\
  \  for (i = 0; i < 10; i = i + 1) {\n\
  \    r = (a * b + c * d) * (e * f + g * h) + (a * c - b * d) * (e * g - f \
   * h);\n\
  \    n = n + (int) r;\n\
  \  }\n\
  \  return n;\n\
   }\n"

let compile_and_run ~target ~regalloc ~jobs prog =
  let tables = Targets.default_tables target in
  let options = { Driver.default_options with Driver.regalloc } in
  let out = Driver.compile_program ~options ~tables ~jobs prog in
  let sim =
    Targets.run_text ~target out.Driver.assembly
      ~global_types:prog.Tree.globals ~entry:"main" []
  in
  (out.Driver.assembly, sim)

let test_pressure_program_agrees () =
  let prog = Sema.compile pressure_src in
  List.iter
    (fun target ->
      let _, stack =
        compile_and_run ~target ~regalloc:Driver.Stack ~jobs:1 prog
      in
      let _, colored =
        compile_and_run ~target ~regalloc:Driver.Color ~jobs:1 prog
      in
      Alcotest.(check bool)
        (Targets.name target ^ ": same return value")
        true
        (Interp.value_equal stack.Simout.return_value
           colored.Simout.return_value);
      Alcotest.(check bool)
        (Targets.name target ^ ": color is never slower")
        true
        (colored.Simout.cycles <= stack.Simout.cycles))
    Targets.all

let test_byte_determinism_across_jobs () =
  let prog =
    Treegen.control_program ~seed:7
      { Treegen.default_config with Treegen.functions = 3 }
  in
  List.iter
    (fun target ->
      let asm1, _ = compile_and_run ~target ~regalloc:Driver.Color ~jobs:1 prog
      and asm4, _ =
        compile_and_run ~target ~regalloc:Driver.Color ~jobs:4 prog
      in
      Alcotest.(check string)
        (Targets.name target ^ ": -j4 output byte-identical to -j1")
        asm1 asm4)
    Targets.all

let test_spill_metrics_exact_across_jobs () =
  let prog = Sema.compile pressure_src in
  let spills_at jobs =
    Gg_profile.Metrics.enabled := true;
    Gg_profile.Metrics.reset ();
    ignore
      (Driver.compile_program
         ~options:{ Driver.default_options with Driver.regalloc = Driver.Color }
         ~tables:(Targets.default_tables Backend.Vax)
         ~jobs prog);
    let counters = Gg_profile.Metrics.named_counters () in
    Gg_profile.Metrics.reset ();
    Gg_profile.Metrics.enabled := false;
    Option.value (List.assoc_opt "codegen.spills_total" counters) ~default:0
  in
  let s1 = spills_at 1 in
  Alcotest.(check bool) "the pressure program spills on the VAX" true (s1 > 0);
  Alcotest.(check int) "spill counter exact under -j4" s1 (spills_at 4)

(* one stack and one color engine per target: any observable
   disagreement between the allocators fails through the shared
   interpreter reference *)
let engines =
  lazy
    (List.concat_map
       (fun t -> [ Oracle.packed_engine_for t; Oracle.color_engine_for t ])
       Targets.all)

let prop_stack_color_parity =
  QCheck.Test.make ~name:"stack and color agree on all observables (QCheck)"
    ~count:25
    QCheck.(make QCheck.Gen.(int_bound 1_000_000))
    (fun seed ->
      let prog = Treegen.control_program ~seed Treegen.default_config in
      match Oracle.check ~pcc:false ~engines:(Lazy.force engines) prog with
      | Ok _ -> true
      | Error f ->
        QCheck.Test.fail_reportf "seed %d: %a" seed Oracle.pp_failure f
      | exception Oracle.Invalid _ -> QCheck.assume_fail ())

let suite =
  [
    Alcotest.test_case "def/use: VAX operand classification" `Quick test_def_use;
    Alcotest.test_case "liveness: straight-line block structure" `Quick
      test_liveness_straight_line;
    Alcotest.test_case "interference: live ranges conflict" `Quick
      test_interference_edges;
    Alcotest.test_case "interference: moves do not conflict" `Quick
      test_move_does_not_interfere;
    Alcotest.test_case "liveness: natural-loop depths" `Quick test_loop_depth;
    Alcotest.test_case "color: coalescing deletes the copy chain" `Quick
      test_coalesce_deletes_move_chain;
    Alcotest.test_case "color: cc-feeding self-move survives" `Quick
      test_cc_protected_move_survives;
    Alcotest.test_case "color: spills under register pressure" `Quick
      test_spill_under_pressure;
    Alcotest.test_case "color: spill code carries provenance marks" `Quick
      test_spill_provenance_marks;
    Alcotest.test_case "heat: JSON parser" `Quick test_parse_heat;
    Alcotest.test_case "e2e: spill-heavy program agrees, color not slower"
      `Quick test_pressure_program_agrees;
    Alcotest.test_case "e2e: colored output byte-identical under -j" `Quick
      test_byte_determinism_across_jobs;
    Alcotest.test_case "metrics: spill counters exact under -j" `Quick
      test_spill_metrics_exact_across_jobs;
    QCheck_alcotest.to_alcotest ~long:false prop_stack_color_parity;
  ]
