(* Short aliases for modules used throughout this library. *)
module Dtype = Gg_ir.Dtype
module Op = Gg_ir.Op
module Tree = Gg_ir.Tree
module Label = Gg_ir.Label
module Regconv = Gg_ir.Regconv
module Termname = Gg_ir.Termname
module Grammar = Gg_grammar.Grammar
module Symtab = Gg_grammar.Symtab
module Action = Gg_grammar.Action
module Tables = Gg_tablegen.Tables
module Matcher = Gg_matcher.Matcher
module Telemetry = Gg_profile.Telemetry
module Mode = Gg_ir.Mode
module Insn = Gg_ir.Insn
module Insn_table = Gg_vax.Insn_table
module Grammar_def = Gg_vax.Grammar_def
module Transform = Gg_transform.Transform
