(* The test oracle for Phase 1c: the pre-optimisation operand ordering
   and spill guard, kept verbatim.  [swap_heavier] calls [Tree.size] at
   every node and [split_spills] recomputes the register need at every
   level, so both are quadratic in tree depth; the production
   {!Gg_transform.Phase1c.run} annotates each node once and must give
   the same trees, statistics and temporaries. *)

open Gg_ir
open Gg_transform
open Phase1c

(* Sethi–Ullman labelling adapted to our selector.  [leaf_need] is the
   target's weight for a leaf operand: on the VAX leaves and memory
   operands can be instruction operands directly (0 registers held
   across the sibling); on a load/store machine every leaf is
   materialised into a register first (1).  An operator always needs a
   register for its result. *)
let rec need ~leaf_need (t : Tree.t) =
  match t with
  | Tree.Const _ | Tree.Fconst _ | Tree.Name _ | Tree.Temp _ | Tree.Dreg _
  | Tree.Autoinc _ | Tree.Autodec _ ->
    leaf_need
  | Tree.Indir (_, addr) -> max leaf_need (need ~leaf_need addr)
  | Tree.Addr _ -> 1
  | Tree.Unop (_, _, e) | Tree.Conv (_, _, e) | Tree.Arg (_, e) ->
    max 1 (need ~leaf_need e)
  | Tree.Binop (_, _, a, b)
  | Tree.Assign (_, a, b)
  | Tree.Rassign (_, a, b)
  | Tree.Cbranch (_, _, _, a, b, _) ->
    let na = need ~leaf_need a in
    let nb = need ~leaf_need b in
    if na = nb then na + 1 else max na nb
  | Tree.Call _ | Tree.Land _ | Tree.Lor _ | Tree.Lnot _ | Tree.Select _
  | Tree.Relval _ ->
    (* these never survive Phase 1a *)
    6

let register_need t = need ~leaf_need:0 t

let swap_heavier ~reverse_ops stats t =
  let go (t : Tree.t) =
    match t with
    | Tree.Binop (op, ty, a, b)
      when Tree.size b > Tree.size a
           && Tree.size a > 1
           (* leaves are instruction operands, not computations: moving
              them right saves nothing and can destroy the canonical
              address shapes of Phase 1b *)
           && not (Phase1b.address_shaped a) -> (
      if Op.binop_commutative op then begin
        stats.swapped_commutative <- stats.swapped_commutative + 1;
        Tree.Binop (op, ty, b, a)
      end
      else
        match if reverse_ops then Op.reverse_binop op else None with
        | Some rop ->
          stats.swapped_reverse <- stats.swapped_reverse + 1;
          Tree.Binop (rop, ty, b, a)
        | None -> t)
    | Tree.Assign (ty, dst, src)
      when reverse_ops
           && Tree.size dst > 1
           && Tree.size src > Tree.size dst ->
      stats.reversed_assigns <- stats.reversed_assigns + 1;
      Tree.Rassign (ty, src, dst)
    | other -> other
  in
  Tree.map_bottom_up go t

(* Factor register-hungry subtrees into temporaries so the stack-
   discipline register manager cannot run dry (paper: "the code
   selector will never run out of registers").  The limit shrinks when
   register variables occupy part of the allocatable bank. *)
let default_spill_limit = 5

let rec split_spills ~limit ~leaf_need ctx stats (t : Tree.t) :
    Tree.stmt list * Tree.t =
  let register_need t = need ~leaf_need t in
  if register_need t <= limit then ([], t)
  else begin
    (* extract the heaviest subtree in a *value* position into a
       temporary; an assignment's destination is a location, not a
       value, so only the address inside it is a candidate *)
    let candidates =
      match t with
      | Tree.Assign (_, dst, src) -> (
        match dst with
        | Tree.Indir (_, addr) -> [ addr; src ]
        | _ -> [ src ])
      | Tree.Rassign (_, src, dst) -> (
        match dst with
        | Tree.Indir (_, addr) -> [ src; addr ]
        | _ -> [ src ])
      | _ -> Tree.children t
    in
    match candidates with
    | [] -> ([], t)
    | _ ->
      let heaviest =
        List.fold_left
          (fun best c ->
            match best with
            | None -> Some c
            | Some b ->
              if register_need c > register_need b then Some c else Some b)
          None candidates
        |> Option.get
      in
      if register_need heaviest = 0 then ([], t)
        (* nothing extractable reduces the pressure; leave it to the
           register manager's dynamic spilling *)
      else
      let pre_inner, heaviest' =
        split_spills ~limit ~leaf_need ctx stats heaviest
      in
      let ty = Tree.dtype heaviest' in
      let tmp = Context.fresh_temp ctx ty in
      stats.spill_splits <- stats.spill_splits + 1;
      (* replace exactly one occurrence (the first, top-down) of the
         chosen subtree by the temporary *)
      let replaced = ref false in
      let rec replace node =
        if (not !replaced) && Tree.equal node heaviest then begin
          replaced := true;
          tmp
        end
        else
          match (node : Tree.t) with
          | Const _ | Fconst _ | Name _ | Temp _ | Dreg _ | Autoinc _
          | Autodec _ ->
            node
          | Indir (ty, e) -> Indir (ty, replace e)
          | Addr e -> Addr (replace e)
          | Unop (op, ty, e) -> Unop (op, ty, replace e)
          | Binop (op, ty, a, b) ->
            let a = replace a in
            Binop (op, ty, a, replace b)
          | Conv (to_, from, e) -> Conv (to_, from, replace e)
          | Assign (ty, a, b) ->
            let a = replace a in
            Assign (ty, a, replace b)
          | Rassign (ty, a, b) ->
            let a = replace a in
            Rassign (ty, a, replace b)
          | Cbranch (r, sg, ty, a, b, l) ->
            let a = replace a in
            Cbranch (r, sg, ty, a, replace b, l)
          | Arg (ty, e) -> Arg (ty, replace e)
          | Call (ty, f, args) -> Call (ty, f, List.map replace args)
          | Land (a, b) ->
            let a = replace a in
            Land (a, replace b)
          | Lor (a, b) ->
            let a = replace a in
            Lor (a, replace b)
          | Lnot e -> Lnot (replace e)
          | Select (ty, c, a, b) ->
            let c = replace c in
            let a = replace a in
            Select (ty, c, a, replace b)
          | Relval (r, sg, ty, a, b) ->
            let a = replace a in
            Relval (r, sg, ty, a, replace b)
      in
      let t' = replace t in
      assert !replaced;
      let pre_rest, t'' = split_spills ~limit ~leaf_need ctx stats t' in
      ( pre_inner
        @ [ Tree.Stree (Tree.Assign (ty, tmp, heaviest')) ]
        @ pre_rest,
        t'' )
  end

let run ?(reverse_ops = true) ?(spill_guard = true)
    ?(spill_limit = default_spill_limit) ?(leaf_need = 0) ?stats ctx body =
  let stats = match stats with Some s -> s | None -> fresh_stats () in
  List.concat_map
    (fun s ->
      match s with
      | Tree.Stree t ->
        let t = swap_heavier ~reverse_ops stats t in
        if spill_guard then begin
          let pre, t' =
            split_spills ~limit:spill_limit ~leaf_need ctx stats t
          in
          pre @ [ Tree.Stree t' ]
        end
        else [ Tree.Stree t ]
      | Tree.Slabel _ | Tree.Sjump _ | Tree.Sret | Tree.Scall _
      | Tree.Scomment _ | Tree.Sline _ ->
        [ s ])
    body
