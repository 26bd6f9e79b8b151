(* The test oracle for the matcher: the pre-optimisation shift/reduce
   loop — a (state, value) list stack and a symtab lookup per action —
   driven straight off the dense [Tables.t] the constructor produced.
   Every packed-table test compares the one production matcher
   ({!Gg_matcher.Matcher.run_engine}) with this loop, so the dense form
   stays the end-to-end reference.  Behaviourally identical to the
   production loop (same values, traces and rejects), with one caveat:
   the loop backstop here budgets every action where the production
   loop budgets reductions only, so on a runaway chain-rule loop both
   reject with token ["<looping>"] but may report a different [state]. *)

open Gg_matcher.Matcher
module Grammar = Gg_grammar.Grammar
module Symtab = Gg_grammar.Symtab
module Tables = Gg_tablegen.Tables
module Telemetry = Gg_profile.Telemetry
module Termname = Gg_ir.Termname

let run_with_reference ?(trace = false) ~(g : Grammar.t) ~eof
    ~(action : int -> int -> Tables.action) ~(goto : int -> int -> int)
    ~(expected : int -> int list) cb tokens =
  let ctrs = Telemetry.counters () in
  let tokens = Array.of_list tokens in
  let n = Array.length tokens in
  let stack = ref [] in
  let state = ref 0 in
  let steps = ref [] in
  let record s = if trace then steps := s :: !steps in
  let term_id i =
    if i >= n then eof
    else
      let name = tokens.(i).Termname.term in
      match Symtab.find g.symtab name with
      | Some (Symtab.T a) -> a
      | Some (Symtab.N _) | None ->
        raise (Reject { at = i; token = name; state = !state; expected = [] })
  in
  let expected_names s =
    List.map
      (fun a -> if a = eof then "<eof>" else Symtab.term_name g.symtab a)
      (expected s)
  in
  let reject i a =
    ctrs.Telemetry.rejects <- ctrs.Telemetry.rejects + 1;
    raise
      (Reject
         {
           at = i;
           token = (if a = eof then "<eof>" else Symtab.term_name g.symtab a);
           state = !state;
           expected = expected_names !state;
         })
  in
  let budget = ref ((64 * n) + 1024) in
  let rec loop i =
    decr budget;
    if !budget < 0 then
      raise
        (Reject
           {
             at = min i (n - 1) |> max 0;
             token = "<looping>";
             state = !state;
             expected = expected_names !state;
           });
    let a = term_id i in
    match action !state a with
    | Tables.Shift s' ->
      ctrs.Telemetry.shifts <- ctrs.Telemetry.shifts + 1;
      record (Sshift tokens.(i).Termname.term);
      stack := (!state, cb.on_shift tokens.(i)) :: !stack;
      state := s';
      loop (i + 1)
    | Tables.Reduce candidates ->
      ctrs.Telemetry.reduces <- ctrs.Telemetry.reduces + 1;
      let pop_args len =
        let rec go k acc st =
          if k = 0 then (acc, st)
          else
            match st with
            | (s, v) :: rest -> go (k - 1) ((s, v) :: acc) rest
            | [] -> assert false
        in
        let popped, rest = go len [] !stack in
        (Array.of_list (List.map snd popped), popped, rest)
      in
      let pid =
        if Array.length candidates = 1 then candidates.(0)
        else begin
          ctrs.Telemetry.semantic_choices <- ctrs.Telemetry.semantic_choices + 1;
          let prods = Array.map (Grammar.production g) candidates in
          let len = Array.length prods.(0).rhs in
          Array.iter
            (fun (p : Grammar.production) ->
              if Array.length p.rhs <> len then
                Fmt.failwith
                  "matcher: semantic tie in state %d mixes rhs lengths \
                   (corrupt tables?): %a vs %a"
                  !state (Grammar.pp_production g) prods.(0)
                  (Grammar.pp_production g) p)
            prods;
          let args, _, _ = pop_args len in
          let idx = cb.choose prods [ args ] in
          if idx < 0 || idx >= Array.length candidates then
            Fmt.failwith
              "matcher: choose returned %d for %d candidates" idx
              (Array.length candidates);
          candidates.(idx)
        end
      in
      Telemetry.count_production ctrs pid;
      let p = Grammar.production g pid in
      let len = Array.length p.rhs in
      let args, popped, rest = pop_args len in
      let exposed =
        match popped with (s, _) :: _ -> s | [] -> assert false
      in
      record (Sreduce pid);
      let v = cb.on_reduce p args in
      let target = goto exposed p.Grammar.lhs in
      if target < 0 then reject i a;
      stack := (exposed, v) :: rest;
      state := target;
      loop i
    | Tables.Accept -> (
      record Saccept;
      match !stack with
      | [ (_, v) ] -> v
      | _ -> assert false)
    | Tables.Error -> reject i a
  in
  ctrs.Telemetry.matcher_runs <- ctrs.Telemetry.matcher_runs + 1;
  let value = loop 0 in
  { value; trace = List.rev !steps }

let run ?trace (tables : Tables.t) cb tokens =
  run_with_reference ?trace ~g:(Tables.grammar tables) ~eof:(Tables.eof tables)
    ~action:(fun s a -> tables.Tables.action.(s).(a))
    ~goto:(fun s n -> tables.Tables.goto_.(s).(n))
    ~expected:(Tables.expected tables) cb tokens

let run_tree ?trace ?special_constants tables cb tree =
  run ?trace tables cb (Termname.linearize ?special_constants tree)
