(* Short aliases for modules used throughout this library. *)
module Tree = Gg_ir.Tree
module Grammar = Gg_grammar.Grammar
module Driver = Gg_codegen.Driver
module Backend = Gg_codegen.Backend
module Parallel = Gg_codegen.Parallel
module Sema = Gg_frontc.Sema
module Lexer = Gg_frontc.Lexer
module Parser = Gg_frontc.Parser
module Pcc = Gg_pcc.Pcc
module Matcher = Gg_matcher.Matcher
module Telemetry = Gg_profile.Telemetry
module Json = Gg_profile.Json
