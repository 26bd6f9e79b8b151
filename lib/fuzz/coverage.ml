open Import

module Iset = Set.Make (Int)

let with_fired f =
  let result, counts = Telemetry.counting_productions f in
  (result, List.map fst counts)

type report = { total : int; fired : int list; never_fired : int list }

let report (g : Grammar.t) ~fired =
  let total = Grammar.n_productions g in
  let fired_set = Iset.of_list fired in
  let never =
    List.filter
      (fun pid -> not (Iset.mem pid fired_set))
      (List.init total (fun i -> i))
  in
  { total; fired = Iset.elements fired_set; never_fired = never }

let baseline (tables : Driver.tables) =
  let compile prog = ignore (Driver.compile_program ~tables prog) in
  let (), fired =
    with_fired (fun () ->
        List.iter
          (fun (_, src) -> compile (Gg_frontc.Sema.compile src))
          Gg_frontc.Corpus.fixed_programs;
        for seed = 1 to 8 do
          compile (Treegen.program ~seed ~stmts:12)
        done)
  in
  fired

let pp_report ?baseline ?(verbose = false) (g : Grammar.t) ppf (r : report) =
  Fmt.pf ppf "production coverage: %d/%d fired (%.1f%%), %d never fired@."
    (List.length r.fired) r.total
    (100. *. float_of_int (List.length r.fired) /. float_of_int (max 1 r.total))
    (List.length r.never_fired);
  (match baseline with
  | Some base ->
    let base_set = Iset.of_list base in
    let extra =
      List.filter (fun pid -> not (Iset.mem pid base_set)) r.fired
    in
    Fmt.pf ppf
      "baseline (fixed corpus + straight-line trees): %d fired; fuzz adds %d \
       productions the baseline never fires@."
      (Iset.cardinal base_set) (List.length extra)
  | None -> ());
  if verbose && r.never_fired <> [] then begin
    Fmt.pf ppf "never fired:@.";
    List.iter
      (fun pid ->
        Fmt.pf ppf "  %a@." (Grammar.pp_production g) (Grammar.production g pid))
      r.never_fired
  end
