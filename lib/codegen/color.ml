open Import

(* Chaitin/Briggs graph-coloring register allocation over the emitted
   instruction stream of one function.

   The stream arrives referencing virtual registers (allocated by
   {!Regmgr} in virtual mode, numbered from [vinfo.vs_base]).  Each
   round: solve liveness, build the interference graph, coalesce
   register-to-register moves (Briggs conservative test), simplify and
   select against the backend's register bank, and either assign colors
   or rewrite the spilled live ranges through {!Frame} temporaries and
   try again.  Everything is deterministic — arrays, stream order,
   lowest-index tie-breaks — so colored output is byte-identical under
   any [-j]. *)

type stats = {
  rounds : int;
  coalesced : int;
  self_moves_deleted : int;
  spilled_ranges : int;
  spill_stores : int;
  spill_reloads : int;
}

(* -- backend probing ----------------------------------------------------- *)

(* the mover's register-to-register spellings, one per data type *)
let probe_move_mnemonics move =
  List.filter_map
    (fun ty ->
      match move ty ~src:(Mode.Reg 0) ~dst:(Mode.Reg 1) with
      | [ Insn.Insn (m, [ _; _ ]) ] -> Some m
      | _ -> None)
    Dtype.all
  |> List.sort_uniq compare

(* the unconditional-branch mnemonic, from the backend's jump builder *)
let is_jump_fn (backend : Backend.t) =
  let g = Label.gen () in
  match backend.Backend.jump (Label.fresh g) with
  | Insn.Branch (m, _) -> fun m' -> String.equal m' m
  | _ -> fun _ -> false

(* -- the allocator ------------------------------------------------------- *)

let max_rounds = 16

let run ~(backend : Backend.t) ~(bank : int list) ~(frame : Frame.t)
    ~(vinfo : Regmgr.vreg_summary) ~(heat : (int * int) list)
    ~(prov : (int * int list * string) list) (insns0 : Insn.t list) =
  let ra = backend.Backend.regalloc in
  let move = Option.value backend.Backend.move ~default:Regmgr.default_move in
  let move_mnemonics = probe_move_mnemonics move in
  let is_jump = is_jump_fn backend in
  let vbase = vinfo.Regmgr.vs_base in
  let have_prov = prov <> [] in
  (* growable per-vreg metadata (spill rewriting mints fresh temps) *)
  let types = ref vinfo.Regmgr.vs_types in
  let kinds = ref vinfo.Regmgr.vs_kinds in
  let provs = ref vinfo.Regmgr.vs_prov in
  let nospill = ref (Array.make (Array.length vinfo.Regmgr.vs_types) false) in
  let add_vreg ty p =
    let v = vbase + Array.length !types in
    types := Array.append !types [| ty |];
    kinds := Array.append !kinds [| Regmgr.Vsingle |];
    provs := Array.append !provs [| p |];
    nospill := Array.append !nospill [| true |];
    v
  in
  let insns = ref (Array.of_list insns0) in
  let prov_a = ref (Array.of_list prov) in
  let st_coalesced = ref 0 in
  let st_self_moves = ref 0 in
  let st_spilled = ref 0 in
  let st_stores = ref 0 in
  let st_reloads = ref 0 in
  let result = ref None in
  let round = ref 0 in
  while !result = None do
    incr round;
    if !round > max_rounds then
      failwith "register allocator: coloring failed to converge";
    let nv = Array.length !types in
    let lv =
      Liveness.analyze ~ra ~is_jump ~vbase ~nvregs:nv !insns
    in
    let g = Interference.build ~move_mnemonics ~heat ~prov:!prov_a lv in
    (* -- coalescing: union-find over virtual-register nodes ------------- *)
    let parent = Array.init nv (fun i -> i) in
    let rec find i =
      if parent.(i) = i then i
      else begin
        let r = find parent.(i) in
        parent.(i) <- r;
        r
      end
    in
    let members = Array.init nv (fun i -> [ i ]) in
    (* neighbour sets per class representative, over original node ids *)
    let nbr =
      Array.init nv (fun i ->
          let b = Liveness.Bits.make nv in
          List.iter (fun j -> Liveness.Bits.set b j) g.Interference.adj.(i);
          b)
    in
    let interferes_cls a b =
      List.exists (fun m -> Liveness.Bits.get nbr.(a) m) members.(b)
    in
    let width r = if (!kinds).(r) = Regmgr.Vpair_base then 2 else 1 in
    let forbid_cls r =
      List.fold_left (fun acc m -> acc lor g.Interference.forbid.(m)) 0 members.(r)
    in
    (* classes coalesced into a physical register (a register variable
       or a call-result register): colored up front, never simplified,
       never spilled.  Their colors sit outside [bank] — the bank
       registers never appear in a virtual-mode stream — so they do not
       shrink anyone's palette, only pin the move ends together. *)
    let pre = Array.make nv (-1) in
    let bank_mask = List.fold_left (fun a p -> a lor (1 lsl p)) 0 bank in
    let color_bits r p =
      (1 lsl p)
      lor (if (!kinds).(r) = Regmgr.Vpair_base then 1 lsl (p + 1) else 0)
    in
    let class_color_bits c = if pre.(c) < 0 then 0 else color_bits c pre.(c) in
    let scratch = Array.make nv false in
    let neighbor_classes r =
      let out = ref [] in
      Liveness.Bits.iter
        (fun j ->
          let c = find j in
          if c <> r && not scratch.(c) then begin
            scratch.(c) <- true;
            out := c :: !out
          end)
        nbr.(r);
      List.iter (fun c -> scratch.(c) <- false) !out;
      List.rev !out
    in
    (* forbidden physical registers, including precolored neighbours *)
    let eff_forbid r =
      List.fold_left
        (fun acc c -> acc lor class_color_bits c)
        (forbid_cls r) (neighbor_classes r)
    in
    (* usable colors under a forbid mask: singles count free bank regs,
       pairs count disjoint usable rn/rn+1 pairs (so one neighbour color
       of width w kills at most w of them) *)
    let avail_colors r =
      let forbid = forbid_cls r in
      let free p = List.mem p bank && forbid land (1 lsl p) = 0 in
      if (!kinds).(r) = Regmgr.Vpair_base then begin
        let k = ref 0 in
        let prev = ref (-2) in
        List.iter
          (fun p ->
            if p > !prev + 1 && free p && free (p + 1) && List.mem (p + 1) bank
            then begin
              incr k;
              prev := p
            end)
          (List.sort compare bank);
        !k
      end
      else List.length (List.filter free bank)
    in
    let deg_of r =
      (* precolored neighbours hold colors outside the bank: they pin
         registers but never shrink a node's palette *)
      List.fold_left
        (fun a c -> if pre.(c) >= 0 then a else a + width c)
        0 (neighbor_classes r)
    in
    let briggs_ok a b =
      let k =
        (* conservative: colors available to the merged class *)
        min (avail_colors a) (avail_colors b)
      in
      let combined =
        let na = neighbor_classes a and nb = neighbor_classes b in
        List.sort_uniq compare (na @ nb)
      in
      let significant =
        List.fold_left
          (fun acc c ->
            if c = a || c = b || pre.(c) >= 0 then acc
            else if deg_of c >= avail_colors c then acc + width c
            else acc)
          0 combined
      in
      significant + width a - 1 < k
    in
    let merge a b =
      let keep = min a b and lose = max a b in
      parent.(lose) <- keep;
      members.(keep) <- members.(keep) @ members.(lose);
      Liveness.Bits.union_into ~src:nbr.(lose) ~dst:nbr.(keep);
      pre.(keep) <- max pre.(keep) pre.(lose)
    in
    (* precoloring class [v] to physical [p] is safe when they do not
       interfere; when [p] lies inside the bank (it never does today)
       the George test additionally protects v's neighbours *)
    let precolor_ok v pm =
      eff_forbid v land pm = 0
      && (pm land bank_mask = 0
          || List.for_all
               (fun c ->
                 pre.(c) >= 0
                 || forbid_cls c land pm <> 0
                 || deg_of c < avail_colors c)
               (neighbor_classes v))
    in
    List.iter
      (fun (_, ns, nd) ->
        let virt n = n >= Liveness.nphys in
        match (virt ns, virt nd) with
        | true, true ->
          let a = find (ns - Liveness.nphys)
          and b = find (nd - Liveness.nphys) in
          let pre_compat =
            if pre.(a) >= 0 && pre.(b) >= 0 then pre.(a) = pre.(b)
            else if pre.(a) >= 0 then eff_forbid b land color_bits a pre.(a) = 0
            else if pre.(b) >= 0 then eff_forbid a land color_bits b pre.(b) = 0
            else true
          in
          if
            a <> b
            && (!kinds).(a) = (!kinds).(b)
            && pre_compat
            && not (interferes_cls a b)
            && briggs_ok a b
          then begin
            merge a b;
            incr st_coalesced
          end
        | true, false | false, true ->
          let v = find ((if virt ns then ns else nd) - Liveness.nphys) in
          let p = if virt ns then nd else ns in
          let pm = color_bits v p in
          if
            pre.(v) < 0
            && ((!kinds).(v) <> Regmgr.Vpair_base || p + 1 < Liveness.nphys)
            && precolor_ok v pm
          then begin
            pre.(v) <- p;
            incr st_coalesced
          end
        | false, false -> ())
      g.Interference.moves;
    (* -- simplify ------------------------------------------------------- *)
    let reps =
      List.filter
        (fun i ->
          find i = i && (!kinds).(i) <> Regmgr.Vpair_second && pre.(i) < 0)
        (List.init nv Fun.id)
    in
    let removed = Array.make nv false in
    let active_deg r =
      (* precolored neighbours, like removed ones, never take a bank
         register away from [r] *)
      List.fold_left
        (fun a c -> if removed.(c) || pre.(c) >= 0 then a else a + width c)
        0 (neighbor_classes r)
    in
    let weight_cls r =
      if List.exists (fun m -> (!nospill).(m)) members.(r) then infinity
      else List.fold_left (fun a m -> a +. g.Interference.weight.(m)) 0.0 members.(r)
    in
    let stack = ref [] in
    let remaining = ref (List.length reps) in
    while !remaining > 0 do
      match
        List.find_opt
          (fun r -> (not removed.(r)) && active_deg r < avail_colors r)
          reps
      with
      | Some r ->
        removed.(r) <- true;
        stack := r :: !stack;
        decr remaining
      | None ->
        (* potential spill: cheapest cost per unit of pressure relieved *)
        let best =
          List.fold_left
            (fun best r ->
              if removed.(r) then best
              else
                let p = weight_cls r /. float_of_int (1 + active_deg r) in
                match best with
                | Some (_, bp) when bp <= p -> best
                | _ -> Some (r, p))
            None reps
        in
        let r, _ = Option.get best in
        removed.(r) <- true;
        stack := r :: !stack;
        decr remaining
    done;
    (* -- select --------------------------------------------------------- *)
    let color = Array.make nv (-1) in
    Array.iteri
      (fun i p -> if p >= 0 && find i = i then color.(i) <- p)
      pre;
    let spills = ref [] in
    List.iter
      (fun r ->
        let used = ref (forbid_cls r) in
        List.iter
          (fun c ->
            if color.(c) >= 0 then begin
              used := !used lor (1 lsl color.(c));
              if (!kinds).(c) = Regmgr.Vpair_base then
                used := !used lor (1 lsl (color.(c) + 1))
            end)
          (neighbor_classes r);
        let free p = !used land (1 lsl p) = 0 in
        let pick =
          if (!kinds).(r) = Regmgr.Vpair_base then
            List.find_opt (fun p -> List.mem (p + 1) bank && free p && free (p + 1)) bank
          else List.find_opt free bank
        in
        match pick with
        | Some p -> color.(r) <- p
        | None -> spills := r :: !spills)
      !stack;
    let spills = List.sort compare !spills in
    if spills = [] then begin
      (* -- assign and clean up ------------------------------------------ *)
      let map_reg r =
        if r >= vbase then begin
          let p = color.(find (r - vbase)) in
          assert (p >= 0);
          p
        end
        else r
      in
      let map_mode = function
        | Mode.Reg r -> Mode.Reg (map_reg r)
        | Mode.Mem m ->
          Mode.Mem
            {
              m with
              Mode.base = Option.map map_reg m.Mode.base;
              index = Option.map map_reg m.Mode.index;
            }
        | (Mode.Imm _ | Mode.Fimm _) as o -> o
      in
      let move_at = Array.make (Array.length !insns) false in
      List.iter (fun (i, _, _) -> move_at.(i) <- true) g.Interference.moves;
      (* deleting a now-redundant register self-move is unsafe only if
         the next instruction is a conditional branch reading the
         condition codes the move would have set *)
      let cc_needed i =
        let n = Array.length !insns in
        let rec next j =
          if j >= n then false
          else
            match (!insns).(j) with
            | Insn.Comment _ -> next (j + 1)
            | Insn.Branch (m, _) -> not (is_jump m)
            | _ -> false
        in
        next (i + 1)
      in
      let out = ref [] and outp = ref [] in
      Array.iteri
        (fun i insn ->
          let keep insn' =
            out := insn' :: !out;
            if have_prov then outp := (!prov_a).(i) :: !outp
          in
          match insn with
          | Insn.Insn (m, ops) ->
            let ops' = List.map map_mode ops in
            let self_move =
              move_at.(i)
              &&
              match ops' with
              | [ Mode.Reg a; Mode.Reg b ] -> a = b
              | _ -> false
            in
            if self_move && not (cc_needed i) then incr st_self_moves
            else keep (Insn.Insn (m, ops'))
          | _ -> keep insn)
        !insns;
      (* no virtual register survives assignment *)
      List.iter
        (fun insn ->
          match insn with
          | Insn.Insn (_, ops) ->
            List.iter
              (fun o ->
                List.iter (fun r -> assert (r < vbase)) (Mode.registers o))
              ops
          | _ -> ())
        !out;
      result := Some (List.rev !out, List.rev !outp)
    end
    else begin
      (* -- spill rewrite ------------------------------------------------ *)
      st_spilled := !st_spilled + List.length spills;
      let slot_of = Hashtbl.create 8 in
      List.iter
        (fun r ->
          let ty =
            List.fold_left
              (fun acc m ->
                if Dtype.size (!types).(m) > Dtype.size acc then (!types).(m)
                else acc)
              (!types).(List.hd members.(r))
              members.(r)
          in
          Hashtbl.replace slot_of r (Frame.alloc_virtual frame ty, ty))
        spills;
      let spilled r =
        if r >= vbase then Hashtbl.find_opt slot_of (find (r - vbase)) |> Option.map (fun s -> (find (r - vbase), s))
        else None
      in
      let out = ref [] and outp = ref [] in
      let push ?p insn =
        out := insn :: !out;
        if have_prov then
          outp :=
            (match p with Some e -> e | None -> (0, [], "")) :: !outp
      in
      Array.iteri
        (fun i insn ->
          let orig_p = if have_prov then (!prov_a).(i) else (0, [], "") in
          match insn with
          | Insn.Insn (m, ops) ->
            let n = List.length ops in
            let kind = if n = 0 then Backend.Dst_none else ra.Backend.ra_dst m in
            (* fresh temps for this instruction, one per spilled class *)
            let rmap = ref [] in
            let mark_of rep suffix =
              let line, pids = (!provs).(rep) in
              (line, pids, suffix)
            in
            let reload rep (slot, ty) =
              match List.assoc_opt rep !rmap with
              | Some v -> v
              | None ->
                let v = add_vreg ty (!provs).(rep) in
                incr st_reloads;
                List.iter
                  (fun mi -> push ~p:(mark_of rep "reload") mi)
                  (move ty ~src:slot ~dst:(Mode.Reg v));
                rmap := (rep, v) :: !rmap;
                v
            in
            let stores = ref [] in
            let store_after rep (slot, ty) v =
              stores := (rep, slot, ty, v) :: !stores
            in
            let in_place = ra.Backend.ra_spill_in_place in
            let ops' =
              List.mapi
                (fun idx o ->
                  let is_dst = idx = n - 1 && kind <> Backend.Dst_none in
                  match o with
                  | Mode.Reg r -> (
                    match spilled r with
                    | None -> o
                    | Some (rep, (slot, ty)) ->
                      if in_place then slot
                      else if is_dst && kind = Backend.Dst_write then begin
                        (* rename the definition, store it afterwards *)
                        let v = add_vreg ty (!provs).(rep) in
                        store_after rep (slot, ty) v;
                        Mode.Reg v
                      end
                      else Mode.Reg (reload rep (slot, ty)))
                  | Mode.Mem mm ->
                    (* address registers must be reloaded on any target *)
                    let sub part =
                      match part with
                      | Some r -> (
                        match spilled r with
                        | None -> part
                        | Some (rep, s) -> Some (reload rep s))
                      | None -> None
                    in
                    let base' = sub mm.Mode.base in
                    (match (mm.Mode.auto, mm.Mode.base, base') with
                    | Some _, Some b, Some b' when b <> b' ->
                      (* side-effecting base: write the bumped value back *)
                      (match spilled b with
                      | Some (rep, (slot, ty)) -> store_after rep (slot, ty) b'
                      | None -> ())
                    | _ -> ());
                    Mode.Mem { mm with Mode.base = base'; index = sub mm.Mode.index }
                  | Mode.Imm _ | Mode.Fimm _ -> o)
                ops
            in
            push ~p:orig_p (Insn.Insn (m, ops'));
            List.iter
              (fun (rep, slot, ty, v) ->
                incr st_stores;
                List.iter
                  (fun mi -> push ~p:(mark_of rep "spill") mi)
                  (move ty ~src:(Mode.Reg v) ~dst:slot))
              (List.rev !stores)
          | _ -> push ~p:orig_p insn)
        !insns;
      insns := Array.of_list (List.rev !out);
      prov_a := Array.of_list (List.rev !outp)
    end
  done;
  let insns', prov' = Option.get !result in
  if !Metrics.enabled then begin
    if !st_spilled > 0 then
      Metrics.incr ~by:!st_spilled "codegen.spills_total";
    if !st_reloads > 0 then
      Metrics.incr ~by:!st_reloads "codegen.reloads_total"
  end;
  ( insns',
    prov',
    {
      rounds = !round;
      coalesced = !st_coalesced;
      self_moves_deleted = !st_self_moves;
      spilled_ranges = !st_spilled;
      spill_stores = !st_stores;
      spill_reloads = !st_reloads;
    } )
