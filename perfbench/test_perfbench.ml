(* The benchmark's own checks: seeded inputs are reproducible, the
   correctness check rejects wrong output, and ledgers add up. *)

open Perfbench
module Driver = Gg_codegen.Driver
module Protocol = Gg_server.Protocol

let fail fmt = Printf.ksprintf failwith fmt

let examples = [ ("tiny", "int main() { print(7); return 7; }\n") ]

let same_seed_same_bytes () =
  List.iter
    (fun w ->
      let gen seed = Gen.for_workload w ~seed ~examples ~scale:1 in
      let sources l = List.map (fun (i : Gen.input) -> i.Gen.source) l in
      if sources (gen 5) <> sources (gen 5) then fail "%s: seed 5 differs" w;
      if sources (gen 5) = sources (gen 6) then fail "%s: seeds 5 and 6 agree" w)
    [ "corpus"; "deep"; "cli"; "serve" ]

let program =
  "int g;\n\
   int f(int a) { return a * 3 + 1; }\n\
   int main() { g = f(4) + 2; print(g); return g; }\n"

(* flip the first literal of the multiply: the program still runs, but
   computes something else *)
let corrupt asm =
  let i = String.index asm '$' in
  let d = asm.[i + 1] in
  let d' = if d = '9' then '8' else Char.chr (Char.code d + 1) in
  String.mapi (fun j c -> if j = i + 1 then d' else c) asm

let corrupted_output_fails () =
  let prog = Gg_frontc.Sema.compile program in
  let asm = (Driver.compile_program prog).Driver.assembly in
  let reference = Check.interp prog in
  let check a = Check.against_interp ~target:Gg_codegen.Backend.Vax ~reference prog a in
  (match check asm with Ok _ -> () | Error why -> fail "correct asm rejected: %s" why);
  (match check (corrupt asm) with
  | Ok _ -> fail "corrupted assembly passed the simulator check"
  | Error _ -> ());
  if not (Check.response_ok ~reference:asm (Protocol.Asm asm)) then
    fail "identical response rejected";
  List.iter
    (fun resp ->
      if Check.response_ok ~reference:asm resp then fail "corrupted response accepted")
    [ Protocol.Asm (corrupt asm); Protocol.Asm (asm ^ "\n"); Protocol.Timeout;
      Protocol.Retry_after 5; Protocol.Error (Protocol.Internal, "boom") ]

let ledger_sums () =
  let s name parent t0 t1 = { Spans.name; parent; t0; t1 } in
  let spans =
    [ s "op" (-1) 0. 0.010; s "a" 0 0.001 0.003; s "b" 0 0.004 0.008;
      s "c" 2 0.005 0.006; s "op" (-1) 0.020 0.025; s "a" 4 0.021 0.022 ]
  in
  let self = Spans.self_times spans in
  let close a b = Float.abs (a -. b) < 1e-9 in
  if not (close self.(0) 4. && close self.(2) 3. && close self.(3) 1.) then
    fail "self times wrong";
  let roots = List.filter (fun (s : Spans.span) -> s.Spans.parent < 0) spans in
  let total = Stats.sum (List.map Spans.duration_ms roots) in
  if not (close (Array.fold_left ( +. ) 0. self) total) then
    fail "self times do not sum to the roots' durations";
  let rows = [ ("x", 1.5); ("y", 2.25) ] in
  let l = Spans.ledger ~total:7. rows in
  if not (close (Stats.sum (List.map snd l)) 7.) then fail "ledger does not sum";
  if not (close (List.assoc "unattributed" l) 3.25) then fail "unattributed wrong";
  (* an operation's own ledger: its children, and its self time as the
     unattributed row *)
  let l = Spans.ledger_of spans 0 in
  if List.map fst l <> [ "a"; "b"; "unattributed" ] then fail "ledger_of rows wrong";
  if not (close (Stats.sum (List.map snd l)) 10. && close (List.assoc "unattributed" l) 4.)
  then fail "ledger_of does not sum to the operation";
  let l = Spans.split l "b" [ ("b1", 1.); ("b2", 3.) ] in
  if List.map fst l <> [ "a"; "b1"; "b2"; "unattributed" ] then fail "split rows wrong";
  if not (close (List.assoc "b1" l) 1. && close (Stats.sum (List.map snd l)) 10.) then
    fail "split does not keep the total"

let quantiles () =
  let xs = [ 4.; 1.; 3.; 2.; 5. ] in
  if Stats.median xs <> 3. || Stats.quantile xs 0.25 <> 2. || Stats.quantile xs 1. <> 5.
  then fail "quantiles wrong"

let () =
  List.iter
    (fun (name, f) ->
      f ();
      Printf.printf "perfbench %s: ok\n" name)
    [ ("same seed, same inputs", same_seed_same_bytes);
      ("corrupted output counts as failed", corrupted_output_fails);
      ("ledger rows sum to the whole", ledger_sums); ("quantiles", quantiles) ]
