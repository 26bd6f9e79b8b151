(* Tests for the Phase 1 tree transformations (paper section 5.1):
   explicit control flow, operator expansion / commutativity ordering,
   evaluation ordering, and semantic preservation of each phase under
   the reference interpreter. *)

open Gg_ir
open Gg_transform
module T = Tree

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let lconst n = T.Const (Dtype.Long, n)
let name s = T.Name (Dtype.Long, s)

let func_of body =
  {
    T.fname = "t";
    formals = [];
    ret_type = Dtype.Long;
    locals_size = 0;
    body;
  }

let run_phase1a body =
  let f = func_of body in
  let ctx = Context.create f in
  Phase1a.run ctx body

(* -- Phase 1a: structure --------------------------------------------------- *)

let assert_clean_after_1a body =
  List.iter
    (fun s ->
      match s with
      | T.Stree t -> (
        match T.check ~after_phase1:true t with
        | Ok () -> ()
        | Error m -> Alcotest.failf "dirty tree after 1a: %s (%a)" m T.pp t)
      | _ -> ())
    body

let test_1a_extracts_embedded_call () =
  let tree =
    T.Assign
      ( Dtype.Long,
        name "x",
        T.Binop (Op.Plus, Dtype.Long, name "y",
                 T.Call (Dtype.Long, "f", [ lconst 1L ])) )
  in
  let out = run_phase1a [ T.Stree tree ] in
  assert_clean_after_1a out;
  check_bool "has an Scall" true
    (List.exists (function T.Scall ("f", 1, _) -> true | _ -> false) out);
  check_bool "has an Arg push" true
    (List.exists
       (function T.Stree (T.Arg (Dtype.Long, _)) -> true | _ -> false)
       out)

let test_1a_call_statement () =
  let out = run_phase1a [ T.Stree (T.Call (Dtype.Long, "f", [ lconst 7L ])) ] in
  assert_clean_after_1a out;
  (* result discarded: no temp assignment from r0 *)
  check_bool "no r0 copy" true
    (not
       (List.exists
          (function
            | T.Stree (T.Assign (_, T.Temp _, T.Dreg _)) -> true
            | _ -> false)
          out))

let test_1a_args_pushed_right_to_left () =
  let out =
    run_phase1a
      [ T.Stree (T.Call (Dtype.Long, "f", [ lconst 1L; lconst 2L ])) ]
  in
  let args =
    List.filter_map
      (function
        | T.Stree (T.Arg (_, T.Const (_, n))) -> Some n
        | _ -> None)
      out
  in
  Alcotest.(check (list int64)) "second argument pushed first" [ 2L; 1L ] args

let test_1a_relval_becomes_branches () =
  let tree =
    T.Assign
      (Dtype.Long, name "x",
       T.Relval (Op.Lt, Dtype.Signed, Dtype.Long, name "a", name "b"))
  in
  let out = run_phase1a [ T.Stree tree ] in
  assert_clean_after_1a out;
  check_bool "has a conditional branch" true
    (List.exists
       (function T.Stree (T.Cbranch _) -> true | _ -> false)
       out);
  check_bool "has labels" true
    (List.exists (function T.Slabel _ -> true | _ -> false) out)

let test_1a_land_shortcircuit_structure () =
  (* if (a && b) goto L: the second test must be reachable only when the
     first succeeds *)
  let tree =
    T.Cbranch
      (Op.Ne, Dtype.Signed, Dtype.Long,
       T.Land (name "a", name "b"), lconst 0L, 99)
  in
  let out = run_phase1a [ T.Stree tree ] in
  let branches =
    List.filter_map
      (function T.Stree (T.Cbranch (r, _, _, _, _, l)) -> Some (r, l) | _ -> None)
      out
  in
  check_int "two branches" 2 (List.length branches);
  (* the a-test skips past the b-test on failure, so its target is not
     the && target *)
  (match branches with
  | [ (r1, l1); (r2, l2) ] ->
    check_bool "first test inverted" true (r1 = Op.Eq);
    check_bool "second targets 99" true (r2 = Op.Ne && l2 = 99);
    check_bool "first skips" true (l1 <> 99)
  | _ -> Alcotest.fail "unexpected branch shape")

let test_1a_nested_assign_extracted () =
  (* x = (y = 5) + 1 *)
  let tree =
    T.Assign
      (Dtype.Long, name "x",
       T.Binop (Op.Plus, Dtype.Long,
                T.Assign (Dtype.Long, name "y", lconst 5L), lconst 1L))
  in
  let out = run_phase1a [ T.Stree tree ] in
  assert_clean_after_1a out;
  check_int "three statements" 3 (List.length out)

(* -- Phase 1a: semantics (interpreter agreement) --------------------------- *)

let globals = [ ("a", Dtype.Long, 4); ("b", Dtype.Long, 4); ("x", Dtype.Long, 4);
                ("y", Dtype.Long, 4) ]

let run_with_body body =
  let prog =
    { T.globals; funcs = [ { (func_of body) with T.fname = "main" } ] }
  in
  Interp.run prog ~entry:"main" []

let seed_globals =
  [
    T.Stree (T.Assign (Dtype.Long, name "a", lconst 6L));
    T.Stree (T.Assign (Dtype.Long, name "b", lconst 2L));
  ]

let test_phase_semantics_preserved () =
  (* a selection of trees with rich control flow, run before and after
     each transformation pipeline *)
  let exprs =
    [
      T.Land (name "a", name "b");
      T.Lor (T.Lnot (name "a"), name "b");
      T.Select (Dtype.Long, T.Relval (Op.Gt, Dtype.Signed, Dtype.Long, name "a", name "b"),
                T.Binop (Op.Mul, Dtype.Long, name "a", lconst 3L),
                T.Binop (Op.Plus, Dtype.Long, name "b", lconst 1L));
      T.Binop (Op.Minus, Dtype.Long, name "a", lconst 5L);
      T.Binop (Op.Lsh, Dtype.Long, name "a", lconst 3L);
      T.Binop (Op.Plus, Dtype.Long, name "a",
               T.Binop (Op.Mul, Dtype.Long, name "b",
                        T.Binop (Op.Plus, Dtype.Long, name "a", name "b")));
    ]
  in
  List.iter
    (fun e ->
      let body =
        seed_globals
        @ [
            T.Stree (T.Assign (Dtype.Long, name "x", e));
            T.Stree (T.Assign (Dtype.Long, T.Dreg (Dtype.Long, Regconv.r0), name "x"));
            T.Sret;
          ]
      in
      let before = run_with_body body in
      let f = func_of body in
      let tr = Transform.run f in
      let after = run_with_body tr.Transform.func.T.body in
      Alcotest.check
        (Alcotest.testable Interp.pp_value Interp.value_equal)
        (Fmt.str "%a" T.pp e) before.Interp.return_value
        after.Interp.return_value)
    exprs

(* -- Phase 1b -------------------------------------------------------------- *)

let test_1b_shift_to_multiply () =
  let t = T.Binop (Op.Lsh, Dtype.Long, name "a", lconst 3L) in
  match Phase1b.rewrite_tree t with
  | T.Binop (Op.Mul, _, T.Const (_, 8L), T.Name _) -> ()
  | other -> Alcotest.failf "got %a" T.pp other

let test_1b_sub_const_to_add () =
  let t = T.Binop (Op.Minus, Dtype.Long, name "a", lconst 5L) in
  match Phase1b.rewrite_tree t with
  | T.Binop (Op.Plus, _, T.Const (_, -5L), T.Name _) -> ()
  | other -> Alcotest.failf "got %a" T.pp other

let test_1b_const_to_left () =
  let t = T.Binop (Op.Plus, Dtype.Long, name "a", lconst 7L) in
  match Phase1b.rewrite_tree t with
  | T.Binop (Op.Plus, _, T.Const (_, 7L), T.Name _) -> ()
  | other -> Alcotest.failf "got %a" T.pp other

let test_1b_addr_name_to_left () =
  let t =
    T.Binop (Op.Plus, Dtype.Long, name "i", T.Addr (T.Name (Dtype.Long, "arr")))
  in
  match Phase1b.rewrite_tree t with
  | T.Binop (Op.Plus, _, T.Addr _, T.Name _) -> ()
  | other -> Alcotest.failf "got %a" T.pp other

let test_1b_addr_indir_collapses () =
  let t = T.Addr (T.Indir (Dtype.Long, name "p")) in
  match Phase1b.rewrite_tree t with
  | T.Name (Dtype.Long, "p") -> ()
  | other -> Alcotest.failf "got %a" T.pp other

let test_1b_identities () =
  let z = T.Binop (Op.Plus, Dtype.Long, name "a", lconst 0L) in
  (match Phase1b.rewrite_tree z with
  | T.Name _ -> ()
  | other -> Alcotest.failf "plus zero: %a" T.pp other);
  let one = T.Binop (Op.Mul, Dtype.Long, lconst 1L, name "a") in
  match Phase1b.rewrite_tree one with
  | T.Name _ -> ()
  | other -> Alcotest.failf "times one: %a" T.pp other

let test_1b_semantics_preserved_random () =
  (* random integer trees: 1b rewriting never changes the value *)
  let gen =
    let open QCheck.Gen in
    let leaf =
      oneof
        [
          map (fun n -> lconst (Int64.of_int (n mod 50))) int;
          return (name "a");
          return (name "b");
        ]
    in
    let node self n =
      if n = 0 then leaf
      else
        oneof
          [
            leaf;
            map2
              (fun op (a, b) -> T.Binop (op, Dtype.Long, a, b))
              (oneofl [ Op.Plus; Op.Minus; Op.Mul; Op.Lsh; Op.And; Op.Xor ])
              (pair (self (n / 2)) (self (n / 2)));
          ]
    in
    sized_size (QCheck.Gen.int_range 0 20) (fix node)
  in
  QCheck.Test.check_exn
    (QCheck.Test.make ~name:"1b preserves value" ~count:300 (QCheck.make gen)
       (fun e ->
         let run e =
           let body =
             seed_globals
             @ [
                 T.Stree (T.Assign (Dtype.Long, T.Dreg (Dtype.Long, Regconv.r0), e));
                 T.Sret;
               ]
           in
           (run_with_body body).Interp.return_value
         in
         Interp.value_equal (run e) (run (Phase1b.rewrite_tree e))))

(* -- Phase 1c -------------------------------------------------------------- *)

let test_1c_swaps_heavier_right () =
  (* left is itself a computation (not a leaf) but lighter than right *)
  let light = T.Binop (Op.Mul, Dtype.Long, name "a", name "b") in
  let heavy =
    T.Binop (Op.Mul, Dtype.Long,
             T.Binop (Op.Plus, Dtype.Long, name "a", name "b"),
             T.Binop (Op.Plus, Dtype.Long, name "b", name "a"))
  in
  let t = T.Binop (Op.Plus, Dtype.Long, light, heavy) in
  let stats = Phase1c.fresh_stats () in
  let f = func_of [ T.Stree (T.Assign (Dtype.Long, name "x", t)) ] in
  let ctx = Context.create f in
  let out = Phase1c.run ~stats ctx f.T.body in
  check_int "one commutative swap" 1 stats.Phase1c.swapped_commutative;
  match out with
  | [ T.Stree (T.Assign (_, _, T.Binop (Op.Plus, _, T.Binop (Op.Mul, _, T.Binop _, _), _))) ] ->
    ()
  | _ -> Alcotest.fail "operands not swapped"

let test_1c_leaf_left_not_swapped () =
  (* a leaf left operand is already free: no swap *)
  let heavy = T.Binop (Op.Mul, Dtype.Long, name "a", name "b") in
  let t = T.Binop (Op.Plus, Dtype.Long, name "a", heavy) in
  let stats = Phase1c.fresh_stats () in
  let f = func_of [ T.Stree (T.Assign (Dtype.Long, name "x", t)) ] in
  let ctx = Context.create f in
  let _ = Phase1c.run ~stats ctx f.T.body in
  check_int "no swaps" 0 stats.Phase1c.swapped_commutative

let test_1c_reverse_operator_introduced () =
  let heavy =
    T.Binop (Op.Plus, Dtype.Long, T.Binop (Op.Plus, Dtype.Long, name "a", name "b"), name "a")
  in
  let t = T.Binop (Op.Minus, Dtype.Long,
                   T.Binop (Op.Plus, Dtype.Long, name "a", name "b"), heavy) in
  let stats = Phase1c.fresh_stats () in
  let f = func_of [ T.Stree (T.Assign (Dtype.Long, name "x", t)) ] in
  let ctx = Context.create f in
  let out = Phase1c.run ~stats ctx f.T.body in
  check_int "one reverse swap" 1 stats.Phase1c.swapped_reverse;
  match out with
  | [ T.Stree (T.Assign (_, _, T.Binop (Op.Rminus, _, _, _))) ] -> ()
  | _ -> Alcotest.fail "Rminus not introduced"

let test_1c_no_reverse_when_disabled () =
  let heavy =
    T.Binop (Op.Plus, Dtype.Long, T.Binop (Op.Plus, Dtype.Long, name "a", name "b"), name "a")
  in
  let t = T.Binop (Op.Minus, Dtype.Long,
                   T.Binop (Op.Plus, Dtype.Long, name "a", name "b"), heavy) in
  let stats = Phase1c.fresh_stats () in
  let f = func_of [ T.Stree (T.Assign (Dtype.Long, name "x", t)) ] in
  let ctx = Context.create f in
  let _ = Phase1c.run ~reverse_ops:false ~stats ctx f.T.body in
  check_int "no reverse swaps" 0 stats.Phase1c.swapped_reverse

let test_1c_leaves_address_shapes () =
  (* Plus (Const, big) must not swap: the displacement patterns need the
     constant on the left *)
  let t =
    T.Binop (Op.Plus, Dtype.Long, lconst 4L,
             T.Binop (Op.Mul, Dtype.Long, name "a", name "b"))
  in
  let stats = Phase1c.fresh_stats () in
  let f = func_of [ T.Stree (T.Assign (Dtype.Long, name "x", t)) ] in
  let ctx = Context.create f in
  let out = Phase1c.run ~stats ctx f.T.body in
  match out with
  | [ T.Stree (T.Assign (_, _, T.Binop (Op.Plus, _, T.Const (_, 4L), _))) ] ->
    ()
  | _ -> Alcotest.fail "constant moved off the left"

let test_1c_register_need () =
  check_int "leaf" 0 (Phase1c.register_need (name "a"));
  check_int "binop of leaves" 1
    (Phase1c.register_need (T.Binop (Op.Plus, Dtype.Long, name "a", name "b")));
  let balanced d =
    let rec go n =
      if n = 0 then name "a"
      else T.Binop (Op.Plus, Dtype.Long, go (n - 1), go (n - 1))
    in
    go d
  in
  check_int "balanced depth 3" 3 (Phase1c.register_need (balanced 3))

let test_1c_spill_guard_splits () =
  let stats = Phase1c.fresh_stats () in
  let rec balanced n =
    if n = 0 then T.Binop (Op.Div, Dtype.Long, name "a", name "b")
    else T.Binop (Op.Plus, Dtype.Long, balanced (n - 1), balanced (n - 1))
  in
  let t = T.Assign (Dtype.Long, name "x", balanced 6) in
  let f = func_of [ T.Stree t ] in
  let ctx = Context.create f in
  let out = Phase1c.run ~stats ctx [ T.Stree t ] in
  check_bool "splits happened" true (stats.Phase1c.spill_splits > 0);
  List.iter
    (fun s ->
      match s with
      | T.Stree tr ->
        check_bool "all trees within register budget" true
          (Phase1c.register_need tr <= 5)
      | _ -> ())
    out

(* -- Phase 1c: parity with the quadratic oracle, and linear growth -------- *)

let ops = [| Op.Plus; Op.Minus; Op.Mul; Op.And; Op.Or; Op.Xor |]

let leaf rs =
  match Random.State.int rs 6 with
  | 0 -> lconst (Int64.of_int (Random.State.int rs 10))
  | k -> name [| "a"; "b"; "x"; "y"; "g" |].(k - 1)

let binop rs a b =
  T.Binop (ops.(Random.State.int rs (Array.length ops)), Dtype.Long, a, b)

(* [depth] operators, each with a leaf on a random side *)
let chain ~seed depth =
  let rs = Random.State.make [| seed |] in
  let rec go d acc =
    if d = 0 then acc
    else
      let l = leaf rs in
      go (d - 1) (if Random.State.bool rs then binop rs acc l else binop rs l acc)
  in
  go depth (leaf rs)

(* a right spine whose every rung is a small computation, so ordering
   swaps (or reverses) the operands at every level *)
let ladder ~seed depth =
  let rs = Random.State.make [| seed |] in
  let rec go d acc =
    if d = 0 then acc
    else
      let rung = binop rs (leaf rs) (leaf rs) in
      go (d - 1) (binop rs rung acc)
  in
  go depth (leaf rs)

(* a left spine of balanced depth-6 blocks: each block needs six
   registers, so the spill guard extracts at least one temporary per
   block *)
let spill_chain ~seed blocks =
  let rs = Random.State.make [| seed |] in
  let rec block d = if d = 0 then leaf rs else binop rs (block (d - 1)) (block (d - 1)) in
  let rec go k acc = if k = 0 then acc else go (k - 1) (binop rs acc (block 6)) in
  go (blocks - 1) (block 6)

let assign_x t = T.Stree (T.Assign (Dtype.Long, name "x", t))

(* the production Phase 1c and the oracle on the same body; returns
   what differs, if anything *)
let phase1c_mismatch ~reverse_ops ~leaf_need ~spill_limit body =
  let go run =
    let ctx = Context.create (func_of body) in
    let stats = Phase1c.fresh_stats () in
    let out = run ~stats ctx in
    (out, stats, Context.temp_types ctx)
  in
  let out, stats, temps =
    go (fun ~stats ctx ->
        Phase1c.run ~reverse_ops ~spill_limit ~leaf_need ~stats ctx body)
  in
  let out', stats', temps' =
    go (fun ~stats ctx ->
        Reference_phase1c.run ~reverse_ops ~spill_limit ~leaf_need ~stats ctx
          body)
  in
  let stmt_equal a b =
    match (a, b) with T.Stree x, T.Stree y -> T.equal x y | _ -> a = b
  in
  if not (List.length out = List.length out' && List.for_all2 stmt_equal out out')
  then Some "statements differ"
  else if stats <> stats' then Some "stats differ"
  else if temps <> temps' then Some "temps differ"
  else None

let check_phase1c_parity ?(weights = [ (0, [ 0; 1; 2; 3; 5 ]); (1, [ 2; 3; 5 ]) ])
    label body =
  List.iter
    (fun (leaf_need, limits) ->
      List.iter
        (fun spill_limit ->
          List.iter
            (fun reverse_ops ->
              match phase1c_mismatch ~reverse_ops ~leaf_need ~spill_limit body with
              | None -> ()
              | Some what ->
                Alcotest.failf "%s: %s (leaf_need %d, limit %d, reverse_ops %b)"
                  label what leaf_need spill_limit reverse_ops)
            [ true; false ])
        limits)
    weights

let test_1c_parity_shapes () =
  List.iter
    (fun seed ->
      check_phase1c_parity "chain" [ assign_x (chain ~seed 300) ];
      check_phase1c_parity "ladder" [ assign_x (ladder ~seed 200) ];
      check_phase1c_parity "spill chain" [ assign_x (spill_chain ~seed 12) ];
      check_phase1c_parity "mixed"
        [
          assign_x (spill_chain ~seed 3);
          T.Stree (T.Assign (Dtype.Long, name "y", ladder ~seed 20));
          assign_x (chain ~seed 40);
        ])
    [ 1; 2; 3 ]

(* The spill guard replaces the first top-down subtree structurally equal
   to the one it extracted, which is not always the extracted one: an
   [Addr] or a short-circuit node needs a fixed number of registers
   whatever it contains, so a lighter earlier operand can hold a copy of
   a heavier later one.  Phase 1 never leaves such nodes around a
   computation, but the rule holds for any tree. *)
let test_1c_parity_first_equal_occurrence () =
  let rec heavy d =
    if d = 0 then name "a"
    else T.Binop (Op.Plus, Dtype.Long, heavy (d - 1), heavy (d - 1))
  in
  let plus a b = T.Binop (Op.Plus, Dtype.Long, a, b) in
  let weights = [ (0, [ 2; 3; 5 ]) ] in
  check_phase1c_parity ~weights "copy under Addr"
    [ assign_x (plus (T.Addr (T.Indir (Dtype.Long, heavy 6))) (heavy 6)) ];
  check_phase1c_parity ~weights "copy under Land"
    [ assign_x (plus (T.Land (heavy 7, name "y")) (heavy 7)) ];
  check_phase1c_parity ~weights "copy in the destination"
    [
      T.Stree
        (T.Assign
           ( Dtype.Long,
             T.Indir (Dtype.Long, T.Addr (T.Indir (Dtype.Long, heavy 6))),
             heavy 6 ));
    ]

(* random typed programs, both as generated and after Phases 1a and 1b,
   the form Phase 1c really sees.  The generated form keeps calls and
   short-circuit and selection nodes, whose need is a constant: under
   the load/store weighting ([leaf_need] 1) the spill guard, the
   oracle's included, would extract temporaries from them forever, so
   that form is checked under the VAX weighting only *)
let test_1c_parity_treegen =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"1c matches the oracle on Treegen trees"
       ~count:60
       QCheck.(pair small_nat bool)
       (fun (seed, control) ->
         let cfg = { Treegen.default_config with Treegen.depth = 7 } in
         let p =
           if control then Treegen.control_program ~seed cfg
           else Treegen.program ~seed ~stmts:12
         in
         List.iter
           (fun (f : T.func) ->
             let raw = f.T.body in
             let ctx = Context.create f in
             let lowered = Phase1b.run (Phase1a.run ctx raw) in
             List.iter
               (fun spill_limit ->
                 List.iter
                   (fun reverse_ops ->
                     let check leaf_need body =
                       match
                         phase1c_mismatch ~reverse_ops ~leaf_need ~spill_limit
                           body
                       with
                       | None -> ()
                       | Some what ->
                         QCheck.Test.fail_reportf
                           "seed %d: %s (leaf_need %d, limit %d, reverse_ops %b)"
                           seed what leaf_need spill_limit reverse_ops
                     in
                     check 0 raw;
                     check 0 lowered;
                     check 1 lowered)
                   [ true; false ])
               [ 2; 3; 5 ])
           p.T.funcs;
         true))

let phase1 t = ignore (Transform.run (func_of [ assign_x t ]))

(* Phase 1 time at size n and 2n, interleaved, the fastest of seven
   samples each: the minimum discards samples slowed by other work, and
   interleaving gives both sizes the same share of any change in the
   host's speed.  A sample is [reps] back-to-back runs, so that it lasts
   milliseconds rather than fractions of one.  The minor heap is made
   large enough (64 MB) that no minor collection falls inside a sample;
   otherwise the ratio would jump by a one-off step wherever the larger
   input's allocation first overflows the default minor heap (chain
   depth 4000 sits right at that edge), which is not growth. *)
let growth_ratio ~reps make n =
  let small = make n and large = make (2 * n) in
  let time t =
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      phase1 t
    done;
    Unix.gettimeofday () -. t0
  in
  let gc = Gc.get () in
  Gc.set { gc with Gc.minor_heap_size = 8 lsl 20 };
  Fun.protect ~finally:(fun () -> Gc.set gc) @@ fun () ->
  let best_small = ref infinity and best_large = ref infinity in
  for _ = 1 to 7 do
    best_small := Float.min !best_small (time small);
    best_large := Float.min !best_large (time large)
  done;
  !best_large /. !best_small

let check_linear ~reps label make n =
  let r = growth_ratio ~reps make n in
  if r > 2.5 then
    Alcotest.failf "%s: Phase 1 time(2n)/time(n) = %.2f, above 2.5" label r

let test_1c_linear_chain () =
  check_linear ~reps:5 "chain" (chain ~seed:7) 4000

(* a ladder level has four nodes to a chain level's two: depth 2000
   gives the chain's node count *)
let test_1c_linear_ladder () =
  check_linear ~reps:5 "ladder" (ladder ~seed:7) 2000

let test_1c_linear_spill_chain () =
  check_linear ~reps:1 "spill chain" (spill_chain ~seed:7) 500

let test_1c_very_deep_chain () =
  let s = assign_x (chain ~seed:5 100_000) in
  let tr = Transform.run (func_of [ s ]) in
  match (tr.Transform.func.T.body, Phase1b.run [ s ]) with
  | [ T.Stree t ], [ T.Stree t1b ] ->
    check_int "every node kept" (T.size t1b) (T.size t)
  | body, _ -> Alcotest.failf "expected one statement, got %d" (List.length body)

let suite =
  [
    Alcotest.test_case "1a extracts embedded calls" `Quick
      test_1a_extracts_embedded_call;
    Alcotest.test_case "1a bare call statement" `Quick test_1a_call_statement;
    Alcotest.test_case "1a pushes args right to left" `Quick
      test_1a_args_pushed_right_to_left;
    Alcotest.test_case "1a lowers comparison values" `Quick
      test_1a_relval_becomes_branches;
    Alcotest.test_case "1a short-circuit branch structure" `Quick
      test_1a_land_shortcircuit_structure;
    Alcotest.test_case "1a extracts nested assignment" `Quick
      test_1a_nested_assign_extracted;
    Alcotest.test_case "transforms preserve semantics" `Quick
      test_phase_semantics_preserved;
    Alcotest.test_case "1b shift to multiply" `Quick test_1b_shift_to_multiply;
    Alcotest.test_case "1b subtract-const to add" `Quick
      test_1b_sub_const_to_add;
    Alcotest.test_case "1b constant to left" `Quick test_1b_const_to_left;
    Alcotest.test_case "1b symbol address to left" `Quick
      test_1b_addr_name_to_left;
    Alcotest.test_case "1b Addr/Indir collapse" `Quick
      test_1b_addr_indir_collapses;
    Alcotest.test_case "1b identities" `Quick test_1b_identities;
    Alcotest.test_case "1b preserves value (random)" `Quick
      test_1b_semantics_preserved_random;
    Alcotest.test_case "1c swaps heavier right operand" `Quick
      test_1c_swaps_heavier_right;
    Alcotest.test_case "1c leaf left not swapped" `Quick
      test_1c_leaf_left_not_swapped;
    Alcotest.test_case "1c introduces reverse operators" `Quick
      test_1c_reverse_operator_introduced;
    Alcotest.test_case "1c respects reverse_ops:false" `Quick
      test_1c_no_reverse_when_disabled;
    Alcotest.test_case "1c keeps address shapes" `Quick
      test_1c_leaves_address_shapes;
    Alcotest.test_case "1c register need" `Quick test_1c_register_need;
    Alcotest.test_case "1c spill guard splits" `Quick
      test_1c_spill_guard_splits;
    Alcotest.test_case "1c matches the oracle on deep shapes" `Quick
      test_1c_parity_shapes;
    Alcotest.test_case "1c replaces the first equal occurrence" `Quick
      test_1c_parity_first_equal_occurrence;
    test_1c_parity_treegen;
    Alcotest.test_case "phase 1 linear: chain" `Quick test_1c_linear_chain;
    Alcotest.test_case "phase 1 linear: ladder" `Quick test_1c_linear_ladder;
    Alcotest.test_case "phase 1 linear: spill chain" `Quick
      test_1c_linear_spill_chain;
    Alcotest.test_case "phase 1 on a depth-100000 chain" `Quick
      test_1c_very_deep_chain;
  ]
