(* Correctness of every output the benchmark receives.

   An in-process reference compile is trusted only after its assembly
   has run under the target's simulator and left the same observables
   (return value, globals, print output) as the IR interpreter on the
   same program.  Every spawned or served compile must then reproduce
   the reference byte for byte. *)

module Interp = Gg_ir.Interp
module Tree = Gg_ir.Tree
module Targets = Gg_targets.Targets
module Protocol = Gg_server.Protocol

let interp (prog : Tree.program) =
  Interp.run ~max_steps:50_000_000 prog ~entry:"main" []

(* [Ok cycles] when [asm] behaves like the interpreter's run
   [reference] of [prog]; [Error why] otherwise. *)
let against_interp ~target ~reference (prog : Tree.program) asm =
  match
    Targets.run_text ~target ~max_steps:200_000_000
      ~global_types:prog.Tree.globals asm ~entry:"main" []
  with
  | out -> (
    match Gg_fuzz.Oracle.compare_observations ~reference out with
    | Ok () -> Ok out.Gg_ir.Simout.cycles
    | Error why -> Error why)
  | exception Targets.Sim_error m -> Error ("simulator: " ^ m)
  | exception Targets.Parse_error (line, m) ->
    Error (Printf.sprintf "assembly line %d: %s" line m)

let same_bytes ~reference asm = String.equal reference asm

let response_ok ~reference = function
  | Protocol.Asm asm -> same_bytes ~reference asm
  | Protocol.Error _ | Protocol.Retry_after _ | Protocol.Timeout -> false
