open Import

type stats = {
  mutable swapped_commutative : int;
  mutable swapped_reverse : int;
  mutable reversed_assigns : int;
  mutable spill_splits : int;
}

let fresh_stats () =
  {
    swapped_commutative = 0;
    swapped_reverse = 0;
    reversed_assigns = 0;
    spill_splits = 0;
  }

(* Sethi–Ullman labelling adapted to our selector.  [leaf_need] is the
   target's weight for a leaf operand: on the VAX leaves and memory
   operands can be instruction operands directly (0 registers held
   across the sibling); on a load/store machine every leaf is
   materialised into a register first (1).  An operator always needs a
   register for its result.  [na] and [nb] are the needs of the node's
   first and second operands (ignored where it has none). *)
let[@inline] node_need ~leaf_need (t : Tree.t) na nb =
  match t with
  | Tree.Const _ | Tree.Fconst _ | Tree.Name _ | Tree.Temp _ | Tree.Dreg _
  | Tree.Autoinc _ | Tree.Autodec _ ->
    leaf_need
  | Tree.Indir _ -> max leaf_need na
  | Tree.Addr _ -> 1
  | Tree.Unop _ | Tree.Conv _ | Tree.Arg _ -> max 1 na
  | Tree.Binop _ | Tree.Assign _ | Tree.Rassign _ | Tree.Cbranch _ ->
    if na = nb then na + 1 else max na nb
  | Tree.Call _ | Tree.Land _ | Tree.Lor _ | Tree.Lnot _ | Tree.Select _
  | Tree.Relval _ ->
    (* these never survive Phase 1a *)
    6

let rec need ~leaf_need (t : Tree.t) =
  match t with
  | Tree.Indir (_, e) | Tree.Unop (_, _, e) | Tree.Conv (_, _, e)
  | Tree.Arg (_, e) ->
    node_need ~leaf_need t (need ~leaf_need e) 0
  | Tree.Binop (_, _, a, b)
  | Tree.Assign (_, a, b)
  | Tree.Rassign (_, a, b)
  | Tree.Cbranch (_, _, _, a, b, _) ->
    node_need ~leaf_need t (need ~leaf_need a) (need ~leaf_need b)
  | _ -> node_need ~leaf_need t 0 0

let register_need t = need ~leaf_need:0 t

(* [t] with its children, in [Tree.children] order, replaced by [c] *)
let with_children (t : Tree.t) c : Tree.t =
  match t with
  | Const _ | Fconst _ | Name _ | Temp _ | Dreg _ | Autoinc _ | Autodec _ -> t
  | Indir (ty, _) -> Indir (ty, c.(0))
  | Addr _ -> Addr c.(0)
  | Unop (op, ty, _) -> Unop (op, ty, c.(0))
  | Binop (op, ty, _, _) -> Binop (op, ty, c.(0), c.(1))
  | Conv (to_, from, _) -> Conv (to_, from, c.(0))
  | Assign (ty, _, _) -> Assign (ty, c.(0), c.(1))
  | Rassign (ty, _, _) -> Rassign (ty, c.(0), c.(1))
  | Cbranch (r, sg, ty, _, _, l) -> Cbranch (r, sg, ty, c.(0), c.(1), l)
  | Call (ty, f, _) -> Call (ty, f, Array.to_list c)
  | Arg (ty, _) -> Arg (ty, c.(0))
  | Land _ -> Land (c.(0), c.(1))
  | Lor _ -> Lor (c.(0), c.(1))
  | Lnot _ -> Lnot c.(0)
  | Select (ty, _, _, _) -> Select (ty, c.(0), c.(1), c.(2))
  | Relval (r, sg, ty, _, _) -> Relval (r, sg, ty, c.(0), c.(1))

(* Operand ordering in one bottom-up pass that returns each rewritten
   subtree with its size.  A swap or a reversal never changes a
   subtree's size, so each node's size is its children's plus one. *)
let rec swap_heavier ~reverse_ops stats (t : Tree.t) =
  match t with
  | Binop (op, ty, a, b) -> (
    let a, sa = swap_heavier ~reverse_ops stats a in
    let b, sb = swap_heavier ~reverse_ops stats b in
    let size = 1 + sa + sb in
    if
      sb > sa && sa > 1
      (* leaves are instruction operands, not computations: moving
         them right saves nothing and can destroy the canonical
         address shapes of Phase 1b *)
      && not (Phase1b.address_shaped a)
    then
      if Op.binop_commutative op then begin
        stats.swapped_commutative <- stats.swapped_commutative + 1;
        (Binop (op, ty, b, a), size)
      end
      else
        match if reverse_ops then Op.reverse_binop op else None with
        | Some rop ->
          stats.swapped_reverse <- stats.swapped_reverse + 1;
          (Binop (rop, ty, b, a), size)
        | None -> (Binop (op, ty, a, b), size)
    else (Binop (op, ty, a, b), size))
  | Assign (ty, dst, src) ->
    let dst, sd = swap_heavier ~reverse_ops stats dst in
    let src, ss = swap_heavier ~reverse_ops stats src in
    if reverse_ops && sd > 1 && ss > sd then begin
      stats.reversed_assigns <- stats.reversed_assigns + 1;
      (Rassign (ty, src, dst), 1 + sd + ss)
    end
    else (Assign (ty, dst, src), 1 + sd + ss)
  | _ ->
    let kids = List.map (swap_heavier ~reverse_ops stats) (Tree.children t) in
    ( with_children t (Array.of_list (List.map fst kids)),
      List.fold_left (fun size (_, s) -> size + s) 1 kids )

(* The tree annotated bottom-up once, for the spill guard: every node
   carries its size and register need, so neither is recomputed by
   walking a subtree again.  [kids] mirror [Tree.children tree], in
   order.  Nodes are never mutated: a replacement copies the path above
   it and nothing else. *)
type node = { tree : Tree.t; size : int; need : int; kids : node array }

let mk ~leaf_need tree kids =
  let size = ref 1 in
  for i = 0 to Array.length kids - 1 do
    size := !size + kids.(i).size
  done;
  let need i = if i < Array.length kids then kids.(i).need else 0 in
  { tree; size = !size; need = node_need ~leaf_need tree (need 0) (need 1); kids }

let rec annotate ~leaf_need (t : Tree.t) =
  let go = annotate ~leaf_need in
  mk ~leaf_need t
    (match t with
    | Const _ | Fconst _ | Name _ | Temp _ | Dreg _ | Autoinc _ | Autodec _ ->
      [||]
    | Indir (_, e) | Addr e | Unop (_, _, e) | Conv (_, _, e) | Arg (_, e)
    | Lnot e ->
      [| go e |]
    | Binop (_, _, a, b)
    | Assign (_, a, b)
    | Rassign (_, a, b)
    | Cbranch (_, _, _, a, b, _)
    | Land (a, b)
    | Lor (a, b)
    | Relval (_, _, _, a, b) ->
      [| go a; go b |]
    | Select (_, c, a, b) -> [| go c; go a; go b |]
    | Call (_, _, args) -> Array.of_list (List.map go args))

(* [root] with the first top-down occurrence of a subtree structurally
   equal to [c] replaced by [leaf].  Equal trees have equal sizes and
   needs, so only same-sized nodes are compared and smaller subtrees
   are not entered. *)
let replace_first ~leaf_need root c leaf =
  let rec go n =
    if n.size < c.size then None
    else if
      n.size = c.size && n.need = c.need
      && (n.tree == c.tree || Tree.equal n.tree c.tree)
    then Some leaf
    else
      let rec kid i =
        if i = Array.length n.kids then None
        else
          match go n.kids.(i) with
          | Some k ->
            let kids = Array.copy n.kids in
            kids.(i) <- k;
            let tree = with_children n.tree (Array.map (fun k -> k.tree) kids) in
            Some (mk ~leaf_need tree kids)
          | None -> kid (i + 1)
      in
      kid 0
  in
  Option.get (go root)

(* Factor register-hungry subtrees into temporaries so the stack-
   discipline register manager cannot run dry (paper: "the code
   selector will never run out of registers").  The limit shrinks when
   register variables occupy part of the allocatable bank. *)
let default_spill_limit = 5

(* While [n] needs more than [limit] registers, extract its heaviest
   subtree in a *value* position into a temporary (after splitting that
   subtree the same way).  An assignment's destination is a location,
   not a value, so only the address inside it is a candidate.  The
   statements computing the temporaries go to [emit] in evaluation
   order. *)
let rec split_spills ~limit ~leaf_need ctx stats emit n =
  if n.need <= limit then n
  else
    let candidates =
      match n.tree with
      | Tree.Assign (_, Tree.Indir _, _) -> [ n.kids.(0).kids.(0); n.kids.(1) ]
      | Tree.Assign _ -> [ n.kids.(1) ]
      | Tree.Rassign (_, _, Tree.Indir _) -> [ n.kids.(0); n.kids.(1).kids.(0) ]
      | Tree.Rassign _ -> [ n.kids.(0) ]
      | _ -> Array.to_list n.kids
    in
    match candidates with
    | [] -> n
    | first :: rest ->
      let heaviest =
        List.fold_left (fun b c -> if c.need > b.need then c else b) first rest
      in
      if heaviest.need = 0 then n
        (* nothing extractable reduces the pressure; leave it to the
           register manager's dynamic spilling *)
      else begin
        let inner = split_spills ~limit ~leaf_need ctx stats emit heaviest in
        let ty = Tree.dtype inner.tree in
        let tmp = Context.fresh_temp ctx ty in
        stats.spill_splits <- stats.spill_splits + 1;
        emit (Tree.Stree (Tree.Assign (ty, tmp, inner.tree)));
        let leaf = mk ~leaf_need tmp [||] in
        split_spills ~limit ~leaf_need ctx stats emit
          (replace_first ~leaf_need n heaviest leaf)
      end

let run ?(reverse_ops = true) ?(spill_guard = true)
    ?(spill_limit = default_spill_limit) ?(leaf_need = 0) ?stats ctx body =
  let stats = match stats with Some s -> s | None -> fresh_stats () in
  let out = ref [] in
  let emit s = out := s :: !out in
  List.iter
    (fun s ->
      match s with
      | Tree.Stree t ->
        let t, _ = swap_heavier ~reverse_ops stats t in
        (* only a statement over the limit is annotated for splitting;
           most fit *)
        if spill_guard && need ~leaf_need t > spill_limit then
          let n =
            split_spills ~limit:spill_limit ~leaf_need ctx stats emit
              (annotate ~leaf_need t)
          in
          emit (Tree.Stree n.tree)
        else emit (Tree.Stree t)
      | Tree.Slabel _ | Tree.Sjump _ | Tree.Sret | Tree.Scall _
      | Tree.Scomment _ | Tree.Sline _ ->
        emit s)
    body;
  List.rev !out
