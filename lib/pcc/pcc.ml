open Import

type compiled_func = {
  cf_name : string;
  cf_insns : Insn.t list;
  cf_frame_size : int;
}

type output = {
  assembly : string;
  funcs : compiled_func list;
  program : Tree.program;
}

(* -- generator state ------------------------------------------------------- *)

type state = {
  mutable out_rev : Insn.t list;
  mutable free : int list;
  frame : Frame.t;
}

type operand = { mode : Mode.t; owned : int list }

let emit st i = st.out_rev <- i :: st.out_rev

let sfx = Dtype.suffix

(* When no register (or adjacent pair, for doubles) is free, results go
   to a frame temporary instead — the historical PCC stored into
   temporaries under pressure.  Memory results are legal operands for
   every instruction this backend emits except addresses, and addresses
   are always Long (single registers). *)
let alloc st ty =
  let needs_pair = Dtype.size ty = 8 in
  let memory_fallback () =
    { mode = Frame.alloc_virtual st.frame ty; owned = [] }
  in
  if needs_pair then begin
    let rec find = function
      | r :: _ when List.mem (r + 1) st.free && List.mem (r + 1) Regconv.allocatable ->
        Some r
      | _ :: rest -> find rest
      | [] -> None
    in
    match find (List.sort Int.compare st.free) with
    | Some r ->
      st.free <- List.filter (fun x -> x <> r && x <> r + 1) st.free;
      { mode = Mode.Reg r; owned = [ r; r + 1 ] }
    | None -> memory_fallback ()
  end
  else
    match st.free with
    | r :: rest ->
      st.free <- rest;
      { mode = Mode.Reg r; owned = [ r ] }
    | [] -> memory_fallback ()

let release st (o : operand) =
  List.iter
    (fun r -> if not (List.mem r st.free) then st.free <- r :: st.free)
    o.owned

let imm0 (o : operand) = Mode.immediate o.mode = Some 0L
let imm1 (o : operand) = Mode.immediate o.mode = Some 1L

(* evaluate the register-hungrier subtree first, like PCC's pass-two
   ordering; returns operands in (left, right) order regardless *)
let ordered f a b =
  if Phase1c.register_need b > Phase1c.register_need a then begin
    let ob = f b in
    let oa = f a in
    (oa, ob)
  end
  else begin
    let oa = f a in
    let ob = f b in
    (oa, ob)
  end

let vax3 op ty = Fmt.str "%s%s3" op (sfx ty)

let direct_binop (op : Op.binop) ty =
  match (op, Dtype.is_float ty) with
  | Op.Plus, _ -> Some "add"
  | Op.Minus, _ -> Some "sub"
  | Op.Mul, _ -> Some "mul"
  | Op.Div, _ -> Some "div"
  | Op.Or, false -> Some "bis"
  | Op.Xor, false -> Some "xor"
  | _ -> None

(* VAX operand order: sub3/div3 take (subtrahend, minuend, dif) *)
let emit3 st op ty (a : Mode.t) (b : Mode.t) (dst : Mode.t) =
  match op with
  | "sub" | "div" -> emit st (Insn.insn (vax3 op ty) [ b; a; dst ])
  | _ -> emit st (Insn.insn (vax3 op ty) [ a; b; dst ])

let jcc rel sg ty =
  if Dtype.is_float ty then "j" ^ Op.relop_vax rel
  else
    match sg with
    | Dtype.Signed -> "j" ^ Op.relop_vax rel
    | Dtype.Unsigned -> "j" ^ Op.relop_vax_unsigned rel

(* -- expression generation -------------------------------------------------- *)

let rec gen_operand st (t : Tree.t) : operand =
  match t with
  | Tree.Const (_, n) -> { mode = Mode.Imm n; owned = [] }
  | Tree.Fconst (_, f) -> { mode = Mode.Fimm f; owned = [] }
  | Tree.Name (_, s) -> { mode = Mode.mem_sym s; owned = [] }
  | Tree.Temp (ty, i) -> { mode = Frame.temp_mode st.frame i ty; owned = [] }
  | Tree.Dreg (_, r) -> { mode = Mode.Reg r; owned = [] }
  | Tree.Autoinc (_, r) -> { mode = Mode.autoinc r; owned = [] }
  | Tree.Autodec (_, r) -> { mode = Mode.autodec r; owned = [] }
  | Tree.Indir (_, addr) -> gen_address st addr
  | _ -> gen_into_reg st t

(* the hand-coded addressing cases: d(rn), (rn), symbols, temporaries *)
and gen_address st (addr : Tree.t) : operand =
  match addr with
  | Tree.Addr (Tree.Name (_, s)) -> { mode = Mode.mem_sym s; owned = [] }
  | Tree.Addr (Tree.Temp (ty, i)) ->
    { mode = Frame.temp_mode st.frame i ty; owned = [] }
  | Tree.Binop (Op.Plus, _, Tree.Const (_, d), Tree.Dreg (_, r)) ->
    { mode = Mode.mem_disp d r; owned = [] }
  | Tree.Binop (Op.Plus, _, Tree.Const (_, d), rest) ->
    let base = force_register st (gen_into_reg st rest) in
    (match base.mode with
    | Mode.Reg r -> { mode = Mode.mem_disp d r; owned = base.owned }
    | _ -> assert false)
  | e ->
    let base = force_register st (gen_into_reg st e) in
    (match base.mode with
    | Mode.Reg r -> { mode = Mode.mem_deferred r; owned = base.owned }
    | _ -> assert false)

(* an address base must really be a register; reload a memory-temp
   result if the allocator fell back under pressure *)
and force_register st (o : operand) : operand =
  match o.mode with
  | Mode.Reg _ -> o
  | _ -> (
    release st o;
    match st.free with
    | r :: rest ->
      st.free <- rest;
      emit st (Insn.insn "movl" [ o.mode; Mode.Reg r ]);
      { mode = Mode.Reg r; owned = [ r ] }
    | [] -> failwith "pcc: no register available for an address base")

and gen_into_reg st (t : Tree.t) : operand =
  match t with
  | Tree.Dreg (_, r) -> { mode = Mode.Reg r; owned = [] }
  | Tree.Binop (op, ty, a, b) -> gen_binop st op ty a b
  | Tree.Unop (op, ty, e) ->
    let src = gen_operand st e in
    release st src;
    let dst = alloc st ty in
    let m = match op with Op.Neg -> "mneg" | Op.Com -> "mcom" in
    emit st (Insn.insn (m ^ sfx ty) [ src.mode; dst.mode ]);
    dst
  | Tree.Conv (to_, from, e) ->
    let src = gen_operand st e in
    release st src;
    let dst = alloc st to_ in
    emit st (Insn.insn ("cvt" ^ sfx from ^ sfx to_) [ src.mode; dst.mode ]);
    dst
  | Tree.Addr (Tree.Name (ty, s)) ->
    let dst = alloc st Dtype.Long in
    emit st (Insn.insn ("mova" ^ sfx ty) [ Mode.mem_sym s; dst.mode ]);
    dst
  | Tree.Addr (Tree.Temp (ty, i)) ->
    let dst = alloc st Dtype.Long in
    emit st
      (Insn.insn ("mova" ^ sfx ty) [ Frame.temp_mode st.frame i ty; dst.mode ]);
    dst
  | Tree.Addr (Tree.Indir (_, e)) -> gen_into_reg st e
  | other ->
    let src = gen_operand st other in
    (match src.mode with
    | Mode.Reg _ -> src
    | _ ->
      release st src;
      let ty = Tree.dtype other in
      let dst = alloc st ty in
      emit st (Insn.insn ("mov" ^ sfx ty) [ src.mode; dst.mode ]);
      dst)

and gen_binop st (op : Op.binop) ty a b : operand =
  (* reverse operators never reach this backend (it orders operands
     itself), but handle them for robustness *)
  let op = Op.unreverse op in
  match direct_binop op ty with
  | Some name ->
    let oa, ob = ordered (gen_operand st) a b in
    release st oa;
    release st ob;
    let dst = alloc st ty in
    emit3 st name ty oa.mode ob.mode dst.mode;
    dst
  | None -> gen_pseudo st op ty a b

and gen_pseudo st (op : Op.binop) ty a b : operand =
  let s = sfx ty in
  match op with
  | Op.Mod ->
    let oa, ob = ordered (gen_operand st) a b in
    let q = alloc st ty in
    emit st (Insn.insn ("div" ^ s ^ "3") [ ob.mode; oa.mode; q.mode ]);
    emit st (Insn.insn ("mul" ^ s ^ "2") [ ob.mode; q.mode ]);
    release st ob;
    release st q;
    release st oa;
    let dst = alloc st ty in
    emit st (Insn.insn ("sub" ^ s ^ "3") [ q.mode; oa.mode; dst.mode ]);
    dst
  | Op.And ->
    let oa, ob = ordered (gen_operand st) a b in
    (match Mode.immediate ob.mode with
    | Some k ->
      release st oa;
      release st ob;
      let dst = alloc st ty in
      emit st
        (Insn.insn ("bic" ^ s ^ "3")
           [ Mode.Imm (Tree.wrap ty (Int64.lognot k)); oa.mode; dst.mode ]);
      dst
    | None ->
      let m = alloc st ty in
      emit st (Insn.insn ("mcom" ^ s) [ ob.mode; m.mode ]);
      release st ob;
      release st m;
      release st oa;
      let dst = alloc st ty in
      emit st (Insn.insn ("bic" ^ s ^ "3") [ m.mode; oa.mode; dst.mode ]);
      dst)
  | Op.Lsh ->
    let oa, ob = ordered (gen_operand st) a b in
    release st oa;
    release st ob;
    let dst = alloc st Dtype.Long in
    emit st (Insn.insn "ashl" [ ob.mode; oa.mode; dst.mode ]);
    dst
  | Op.Rsh -> (
    let oa, ob = ordered (gen_operand st) a b in
    match Mode.immediate ob.mode with
    | Some k ->
      release st oa;
      release st ob;
      let dst = alloc st Dtype.Long in
      emit st (Insn.insn "ashl" [ Mode.Imm (Int64.neg k); oa.mode; dst.mode ]);
      dst
    | None ->
      let neg = alloc st Dtype.Long in
      emit st (Insn.insn "mnegl" [ ob.mode; neg.mode ]);
      release st ob;
      release st neg;
      release st oa;
      let dst = alloc st Dtype.Long in
      emit st (Insn.insn "ashl" [ neg.mode; oa.mode; dst.mode ]);
      dst)
  | Op.Udiv | Op.Umod ->
    let oa, ob = ordered (gen_operand st) a b in
    emit st (Insn.insn "pushl" [ ob.mode ]);
    emit st (Insn.insn "pushl" [ oa.mode ]);
    emit st
      (Insn.Call ((if op = Op.Udiv then "__udivl" else "__umodl"), 2));
    release st oa;
    release st ob;
    let dst = alloc st ty in
    emit st (Insn.insn "movl" [ Mode.Reg Regconv.r0; dst.mode ]);
    dst
  | _ ->
    Fmt.failwith "pcc: operator %s not implemented" (Op.binop_name op)

(* -- statements -------------------------------------------------------------- *)

let lval_operand st (dst : Tree.t) : operand =
  match dst with
  | Tree.Name (_, s) -> { mode = Mode.mem_sym s; owned = [] }
  | Tree.Temp (ty, i) -> { mode = Frame.temp_mode st.frame i ty; owned = [] }
  | Tree.Dreg (_, r) -> { mode = Mode.Reg r; owned = [] }
  | Tree.Indir (_, addr) -> gen_address st addr
  | Tree.Autoinc (_, r) -> { mode = Mode.autoinc r; owned = [] }
  | Tree.Autodec (_, r) -> { mode = Mode.autodec r; owned = [] }
  | _ -> failwith "pcc: unsupported assignment destination"

let gen_assign st ty (dst : Tree.t) (src : Tree.t) =
  let d = lval_operand st dst in
  (match src with
  | Tree.Binop (op, bty, a, b) when direct_binop (Op.unreverse op) bty <> None
    ->
    let op = Op.unreverse op in
    let name = Option.get (direct_binop op bty) in
    let oa, ob = ordered (gen_operand st) a b in
    (* the PCC specials: a = a + 1 / a = a - 1 / a = 0 *)
    if
      op = Op.Plus && Dtype.is_integer bty
      && ((imm1 oa && Mode.equal ob.mode d.mode)
         || (imm1 ob && Mode.equal oa.mode d.mode))
    then emit st (Insn.insn ("inc" ^ sfx bty) [ d.mode ])
    else if
      op = Op.Minus && Dtype.is_integer bty && imm1 ob
      && Mode.equal oa.mode d.mode
    then emit st (Insn.insn ("dec" ^ sfx bty) [ d.mode ])
    else emit3 st name bty oa.mode ob.mode d.mode;
    release st oa;
    release st ob
  | Tree.Conv (to_, from, e) ->
    let src = gen_operand st e in
    emit st (Insn.insn ("cvt" ^ sfx from ^ sfx to_) [ src.mode; d.mode ]);
    release st src
  | _ ->
    let s = gen_operand st src in
    if imm0 s && Dtype.is_integer ty then
      emit st (Insn.insn ("clr" ^ sfx ty) [ d.mode ])
    else emit st (Insn.insn ("mov" ^ sfx ty) [ s.mode; d.mode ]);
    release st s);
  release st d

let gen_stmt st (s : Tree.stmt) =
  match s with
  | Tree.Slabel l -> emit st (Insn.Lab l)
  | Tree.Sjump l -> emit st (Insn.Branch ("jbr", l))
  | Tree.Sret -> emit st Insn.Ret
  | Tree.Scall (f, n, _) -> emit st (Insn.Call (f, n))
  | Tree.Scomment c -> emit st (Insn.Comment c)
  | Tree.Sline _ -> ()
  | Tree.Stree (Tree.Assign (ty, dst, src)) -> gen_assign st ty dst src
  | Tree.Stree (Tree.Rassign (ty, src, dst)) -> gen_assign st ty dst src
  | Tree.Stree (Tree.Cbranch (rel, sg, ty, a, b, l)) ->
    let oa, ob = ordered (gen_operand st) a b in
    if imm0 ob && Dtype.is_integer ty then
      emit st (Insn.insn ("tst" ^ sfx ty) [ oa.mode ])
    else emit st (Insn.insn ("cmp" ^ sfx ty) [ oa.mode; ob.mode ]);
    release st oa;
    release st ob;
    emit st (Insn.Branch (jcc rel sg ty, l))
  | Tree.Stree (Tree.Arg (ty, e)) -> (
    let o = gen_operand st e in
    match ty with
    | Dtype.Dbl ->
      emit st (Insn.insn "movd" [ o.mode; Mode.autodec Regconv.sp ]);
      release st o
    | _ ->
      emit st (Insn.insn "pushl" [ o.mode ]);
      release st o)
  | Tree.Stree t ->
    let o = gen_operand st t in
    release st o

(* -- functions and programs --------------------------------------------------- *)

let transform_options =
  (* Phase 1a is PCC pass one's job too; the spill guard substitutes for
     PCC's pass-two store insertion.  No reverse operators: this backend
     orders operands while generating. *)
  { Transform.reverse_ops = false; reorder = true; spill_guard = true }

(* register variables occupy allocatable registers: withhold them *)
let reserved_registers (f : Tree.func) =
  List.fold_left
    (fun acc s ->
      match s with
      | Tree.Stree t ->
        Tree.fold
          (fun acc node ->
            match node with
            | Tree.Dreg (_, r) | Tree.Autoinc (_, r) | Tree.Autodec (_, r)
              when List.mem r Regconv.allocatable && not (List.mem r acc) ->
              r :: acc
            | _ -> acc)
          acc t
      | _ -> acc)
    [] f.Tree.body

let compile_func ?(peephole = false) (f : Tree.func) =
  let reserved = reserved_registers f in
  let pool_size =
    List.length Regconv.allocatable - List.length reserved
  in
  (* this backend cannot spill dynamically and doubles need register
     pairs, so its budget is tighter than the table-driven backend's *)
  let tr =
    Gg_profile.Telemetry.span "phase1.transform" (fun () ->
        Transform.run ~options:transform_options
          ~spill_limit:(max 2 (pool_size - 3))
          f)
  in
  let frame =
    Frame.create ~locals_size:f.Tree.locals_size ~temps:tr.Transform.temps
  in
  let pool =
    List.filter (fun r -> not (List.mem r reserved)) Regconv.allocatable
  in
  let st = { out_rev = []; free = pool; frame } in
  Gg_profile.Telemetry.span "pcc.select" (fun () ->
      List.iter (gen_stmt st) tr.Transform.func.Tree.body);
  if List.length st.free <> List.length pool then
    failwith "pcc: register leak";
  let insns = List.rev st.out_rev in
  let insns =
    if peephole then
      Gg_profile.Telemetry.span "peephole" (fun () ->
          fst (Gg_codegen.Peephole.optimize insns))
    else insns
  in
  {
    cf_name = f.Tree.fname;
    cf_insns = insns;
    cf_frame_size = Frame.size frame;
  }

let render_func buf (cf : compiled_func) =
  Buffer.add_string buf (Fmt.str "\t.globl\t%s\n" cf.cf_name);
  Buffer.add_string buf (cf.cf_name ^ ":\n");
  if cf.cf_frame_size > 0 then
    Buffer.add_string buf (Fmt.str "\tsubl2\t$%d,sp\n" cf.cf_frame_size);
  List.iter (fun i -> Buffer.add_string buf (Insn.assembly i ^ "\n")) cf.cf_insns;
  Buffer.add_string buf "\tret\n"

let compile_program ?peephole (p : Tree.program) =
  let funcs = List.map (compile_func ?peephole) p.Tree.funcs in
  let buf = Buffer.create 4096 in
  List.iter
    (fun (name, _, size) ->
      Buffer.add_string buf (Fmt.str "\t.comm\t%s,%d\n" name size))
    p.Tree.globals;
  List.iter (render_func buf) funcs;
  { assembly = Buffer.contents buf; funcs; program = p }

let compile_tree tree =
  let f =
    {
      Tree.fname = "snippet";
      formals = [];
      ret_type = Dtype.Long;
      locals_size = 0;
      body = [ Tree.Stree tree ];
    }
  in
  (compile_func f).cf_insns

let total_cycles out =
  List.fold_left
    (fun acc cf -> acc + Insn.total_cycles cf.cf_insns + 2)
    0 out.funcs

let total_lines out =
  List.fold_left
    (fun acc cf -> acc + Insn.count_lines cf.cf_insns + 3)
    0 out.funcs
  + List.length out.program.Tree.globals
