(* Short aliases for modules used throughout this library. *)
module Grammar = Gg_grammar.Grammar
module Symtab = Gg_grammar.Symtab
module Action = Gg_grammar.Action
module Json = Gg_profile.Json
