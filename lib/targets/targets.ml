module Backend = Gg_codegen.Backend
module Driver = Gg_codegen.Driver
module Interp = Gg_ir.Interp
module Dtype = Gg_ir.Dtype
module Simout = Gg_ir.Simout

let backend_of = function
  | Backend.Vax -> Backend.vax
  | Backend.Risc -> Gg_risc.Target.backend

let of_string s = Backend.target_of_string s
let name = Backend.target_name
let all = Backend.all_targets

(* one set of default tables per target, built on first use *)
let default_vax_tables = Driver.default_tables

let default_risc_tables =
  lazy
    (Driver.build_tables ~backend:Gg_risc.Target.backend
       Gg_risc.Grammar_def.default)

let default_tables = function
  | Backend.Vax -> Lazy.force default_vax_tables
  | Backend.Risc -> Lazy.force default_risc_tables

let build_tables ?profile target gopts =
  Driver.build_tables ~backend:(backend_of target) ?profile gopts

let cached_tables ?dir ?profile target gopts =
  Driver.cached_tables ?dir ~backend:(backend_of target) ?profile gopts

(* The auto heat profile is the firing heat of the fixed mini-C corpus
   compiled with this target's own tables — each grammar numbers its
   productions differently, so a profile is grammar-specific and must
   be collected per target. *)
let heat_profile target =
  let tables = default_tables target in
  let (), counts =
    Gg_profile.Telemetry.counting_productions (fun () ->
        List.iter
          (fun (_, src) ->
            ignore
              (Driver.compile_program ~tables (Gg_frontc.Sema.compile src)
                : Driver.output))
          Gg_frontc.Corpus.fixed_programs)
  in
  Gg_tablegen.Heat.of_counts counts

let grammar target gopts =
  let b = backend_of target in
  if gopts = Gg_vax.Grammar_def.default then
    Lazy.force b.Backend.default_grammar
  else b.Backend.grammar_of gopts

(* the (target name, grammar) pairs a cache eviction must keep *)
let live_cache_entries gopts =
  List.map (fun t -> (Backend.target_name t, grammar t gopts)) all

exception Sim_error of string
exception Parse_error of int * string

let run_text ~target ?max_steps ?global_types ?ret_type assembly ~entry args :
    Simout.t =
  match target with
  | Backend.Vax -> (
    try
      Gg_vaxsim.Machine.run_text ?max_steps ?global_types ?ret_type assembly
        ~entry args
    with
    | Gg_vaxsim.Machine.Sim_error m -> raise (Sim_error m)
    | Gg_vaxsim.Asmparse.Parse_error (l, m) -> raise (Parse_error (l, m)))
  | Backend.Risc -> (
    try
      Gg_riscsim.Machine.run_text ?max_steps ?global_types ?ret_type assembly
        ~entry args
    with
    | Gg_riscsim.Machine.Sim_error m -> raise (Sim_error m)
    | Gg_riscsim.Asmparse.Parse_error (l, m) -> raise (Parse_error (l, m)))
