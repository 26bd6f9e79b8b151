open Import

type t = {
  regs : Regmgr.t;
  frame : Frame.t;
  mutable out_rev : Insn.t list;
  idioms : bool;
  explain : bool;
  mutable line : int;
  mutable prov_last : int;
  mutable prov_pending : int list;
  mutable prov_override : ((int * int list) * string) option;
  mutable prov_rev : (int * int list * string) list;
}

let current_prov t =
  if not t.explain then (0, [])
  else
    let pids =
      match t.prov_pending with
      | [] -> if t.prov_last >= 0 then [ t.prov_last ] else []
      | ps -> List.rev ps
    in
    (t.line, pids)

(* Spill stores and reloads describe a value allocated earlier, not the
   production being reduced right now; the register manager replays the
   value's own provenance (plus a marker) around their emission. *)
let with_mark t ~mark ~prov f =
  if not t.explain then f ()
  else begin
    t.prov_override <- Some (prov, mark);
    Fun.protect ~finally:(fun () -> t.prov_override <- None) f
  end

let emit t i =
  t.out_rev <- i :: t.out_rev;
  if t.explain then begin
    (* instructions emitted between reductions (register-manager
       spills, cluster tails) inherit the production that triggered
       the most recent reduction *)
    let entry =
      match t.prov_override with
      | Some ((line, pids), mark) -> (line, pids, mark)
      | None ->
        let line, pids = current_prov t in
        (line, pids, "")
    in
    t.prov_rev <- entry :: t.prov_rev
  end

let create ?(idioms = true) ?(explain = false) ?reserved ?allocatable ?move
    ?vreg_base frame =
  let rec t =
    lazy
      {
        regs =
          Regmgr.create ?reserved ?allocatable ?move ?vreg_base
            ~prov_of:(fun () -> current_prov (Lazy.force t))
            ~marked:(fun ~mark ~prov f -> with_mark (Lazy.force t) ~mark ~prov f)
            ~emit:(fun i -> emit (Lazy.force t) i)
            frame;
        frame;
        out_rev = [];
        idioms;
        explain;
        line = 0;
        prov_last = -1;
        prov_pending = [];
        prov_override = None;
        prov_rev = [];
      }
  in
  Lazy.force t

let output t = List.rev t.out_rev
let regmgr t = t.regs
let frame t = t.frame
let idioms_enabled t = t.idioms
let set_line t n = t.line <- n

let end_tree t =
  t.prov_pending <- [];
  t.prov_last <- -1

let provenance t = List.rev t.prov_rev

let sfx ty = Dtype.suffix ty

(* -- small helpers ------------------------------------------------------- *)

let lhs_type g (p : Grammar.production) =
  let name = Symtab.nonterm_name g.Grammar.symtab p.lhs in
  match String.rindex_opt name '.' with
  | None -> None
  | Some i ->
    Dtype.of_suffix (String.sub name (i + 1) (String.length name - i - 1))

let has_auto (m : Mode.t) =
  match m with Mode.Mem { auto = Some _; _ } -> true | _ -> false

(* Descriptors whose operands carry autoincrement side effects must not
   be referenced twice (paper section 6.1); materialise them before a
   multi-use expansion. *)
let stable t (d : Desc.t) =
  if has_auto d.Desc.operand then Regmgr.as_register t.regs d else d

let immediate_value (d : Desc.t) = Mode.immediate d.Desc.operand

(* -- idiom-driven cluster emission (paper Fig. 3, section 5.3.2) -------- *)

(* VAX spells "dif = min - sub" as [sub3 sub,min,dif] and division
   likewise, so the two sources swap in the assembly for those
   clusters. *)
let vax_swapped mnemonic =
  String.length mnemonic >= 3
  &&
  match String.sub mnemonic 0 3 with "sub" | "div" -> true | _ -> false

(* Walk the cluster rows applying binding and range idioms, then emit.
   [sources] has one entry fewer than the first row's operand count
   (the destination is separate). *)
(* type suffix of a mnemonic like "addl2" or "movb" *)
let suffix_of mnemonic =
  let n = String.length mnemonic in
  let c = if n > 0 && (mnemonic.[n - 1] = '2' || mnemonic.[n - 1] = '3')
          then mnemonic.[n - 2] else mnemonic.[n - 1] in
  String.make 1 c

let apply_cluster t (cluster : Insn_table.cluster) ~(dst : Mode.t)
    (sources : Mode.t list) =
  let rec go rows sources =
    match (rows, sources) with
    | [], _ -> ()
    | [ row ], _ -> emit_row row sources
    | row :: rest, [ s1; s2 ] when row.Insn_table.nops = 3 ->
      if
        t.idioms && row.Insn_table.binding && Mode.equal s1 dst
        && not (has_auto s1)
      then go rest [ s2 ]
      else if
        t.idioms && row.Insn_table.binding && row.Insn_table.commutes
        && Mode.equal s2 dst
        && not (has_auto s2)
      then go rest [ s1 ]
      else emit_row row sources
    | row :: _, [ s ] -> (
      match row.Insn_table.range with
      | Some key when t.idioms -> (
        (* the range idiom function picks the final instruction *)
        match Insn_table.range_apply key (suffix_of row.Insn_table.print) s with
        | Some replacement -> emit t (Insn.insn replacement [ dst ])
        | None -> emit_row row sources)
      | Some _ | None -> emit_row row sources)
    | row :: _, _ -> emit_row row sources
  and emit_row (row : Insn_table.entry) sources =
    let operands =
      match (row.Insn_table.nops, sources) with
      | 3, [ s1; s2 ] ->
        if vax_swapped row.Insn_table.print then [ s2; s1; dst ]
        else [ s1; s2; dst ]
      | 2, [ s ] -> [ s; dst ]
      | 1, [] -> [ dst ]
      | _, _ ->
        Fmt.failwith "instruction table: row %s expects %d operands"
          row.Insn_table.print row.Insn_table.nops
    in
    emit t (Insn.insn row.Insn_table.print operands)
  in
  go cluster sources

(* -- pseudo-instruction expansion (paper section 5.3.2) ------------------ *)

(* [expand_pseudo] emits the multi-instruction sequences for operators
   the VAX lacks.  It owns the release discipline for its sources. *)
let expand_pseudo t mnemonic ty ~alloc_dst (s1 : Desc.t) (s2 : Desc.t) :
    Mode.t =
  let s = sfx ty in
  match mnemonic with
  | _ when String.length mnemonic >= 4 && String.sub mnemonic 0 4 = "_and" -> (
    (* x & y: bic with a complemented mask *)
    match (immediate_value s1, immediate_value s2) with
    | _, Some k ->
      Regmgr.release t.regs s1;
      Regmgr.release t.regs s2;
      let dst = alloc_dst () in
      emit t
        (Insn.insn ("bic" ^ s ^ "3")
           [ Mode.Imm (Tree.wrap ty (Int64.lognot k)); s1.Desc.operand; dst ]);
      dst
    | Some k, _ ->
      Regmgr.release t.regs s1;
      Regmgr.release t.regs s2;
      let dst = alloc_dst () in
      emit t
        (Insn.insn ("bic" ^ s ^ "3")
           [ Mode.Imm (Tree.wrap ty (Int64.lognot k)); s2.Desc.operand; dst ]);
      dst
    | None, None ->
      let s1 = stable t s1 in
      let rt = Regmgr.alloc t.regs ty in
      emit t (Insn.insn ("mcom" ^ s) [ s2.Desc.operand; rt.Desc.operand ]);
      Regmgr.release t.regs s2;
      Regmgr.release t.regs s1;
      Regmgr.release t.regs rt;
      let dst = alloc_dst () in
      emit t
        (Insn.insn ("bic" ^ s ^ "3")
           [ rt.Desc.operand; s1.Desc.operand; dst ]);
      dst)
  | _ when String.length mnemonic >= 4 && String.sub mnemonic 0 4 = "_mod" ->
    (* signed modulus "requires a register to hold an intermediate
       result": q = s1 / s2; q *= s2; dst = s1 - q *)
    let s1 = stable t s1 in
    let s2 = stable t s2 in
    let rt = Regmgr.alloc t.regs ty in
    emit t
      (Insn.insn ("div" ^ s ^ "3")
         [ s2.Desc.operand; s1.Desc.operand; rt.Desc.operand ]);
    emit t (Insn.insn ("mul" ^ s ^ "2") [ s2.Desc.operand; rt.Desc.operand ]);
    Regmgr.release t.regs s2;
    Regmgr.release t.regs s1;
    Regmgr.release t.regs rt;
    let dst = alloc_dst () in
    emit t
      (Insn.insn ("sub" ^ s ^ "3") [ rt.Desc.operand; s1.Desc.operand; dst ]);
    dst
  | "_udivl" | "_umodl" ->
    (* unsigned division "requires a call to a library function that is
       known not to modify any registers" *)
    let fn = if mnemonic = "_udivl" then "__udivl" else "__umodl" in
    emit t (Insn.insn "pushl" [ s2.Desc.operand ]);
    emit t (Insn.insn "pushl" [ s1.Desc.operand ]);
    emit t (Insn.Call (fn, 2));
    Regmgr.release t.regs s1;
    Regmgr.release t.regs s2;
    let dst = alloc_dst () in
    emit t (Insn.insn "movl" [ Mode.Reg Regconv.r0; dst ]);
    dst
  | "_lshl" ->
    Regmgr.release t.regs s1;
    Regmgr.release t.regs s2;
    let dst = alloc_dst () in
    emit t (Insn.insn "ashl" [ s2.Desc.operand; s1.Desc.operand; dst ]);
    dst
  | "_rshl" -> (
    match immediate_value s2 with
    | Some k ->
      Regmgr.release t.regs s1;
      Regmgr.release t.regs s2;
      let dst = alloc_dst () in
      emit t
        (Insn.insn "ashl" [ Mode.Imm (Int64.neg k); s1.Desc.operand; dst ]);
      dst
    | None ->
      let s1 = stable t s1 in
      let rt = Regmgr.alloc t.regs Dtype.Long in
      emit t (Insn.insn "mnegl" [ s2.Desc.operand; rt.Desc.operand ]);
      Regmgr.release t.regs s2;
      Regmgr.release t.regs s1;
      Regmgr.release t.regs rt;
      let dst = alloc_dst () in
      emit t (Insn.insn "ashl" [ rt.Desc.operand; s1.Desc.operand; dst ]);
      dst)
  | _ -> Fmt.failwith "unknown pseudo-instruction %s" mnemonic

(* -- mode builders (paper phase 2 encapsulation) ------------------------- *)

let compose_mem t ~owned ty operand =
  Regmgr.compose t.regs (Desc.make ~owned ty operand)

let build_mode t g name (p : Grammar.production) (args : Desc.sval array) :
    Desc.sval =
  let ty () =
    match lhs_type g p with
    | Some ty -> ty
    | None -> Fmt.failwith "mode %s on untyped non-terminal" name
  in
  let as_reg i =
    let d = Regmgr.as_register t.regs (Desc.desc args.(i)) in
    match d.Desc.operand with
    | Mode.Reg r -> (r, d)
    | _ -> assert false
  in
  match (name, args) with
  | "imm", [| Node (Tree.Const (cty, n)) |] ->
    Desc.D (Desc.make cty (Mode.Imm n))
  | "fimm", [| Node (Tree.Fconst (fty, f)) |] ->
    Desc.D (Desc.make fty (Mode.Fimm f))
  | "name", [| Node (Tree.Name (nty, s)) |] ->
    Desc.D (Desc.make nty (Mode.mem_sym s))
  | "temp", [| Node (Tree.Temp (tty, i)) |] ->
    Desc.D (Desc.make tty (Frame.temp_mode t.frame i tty))
  | "dreg", [| Node (Tree.Dreg (rty, r)) |] ->
    Desc.D (Desc.make rty (Mode.Reg r))
  | "autoinc", [| Node (Tree.Autoinc (aty, r)) |] ->
    Desc.D (Desc.make aty (Mode.autoinc r))
  | "autodec", [| Node (Tree.Autodec (aty, r)) |] ->
    Desc.D (Desc.make aty (Mode.autodec r))
  | "indir", [| Node (Tree.Indir (ity, _)); D ea |] ->
    Desc.D (compose_mem t ~owned:ea.Desc.owned ity ea.Desc.operand)
  | "deferred", [| D _ |] ->
    let r, d = as_reg 0 in
    Desc.D (compose_mem t ~owned:d.Desc.owned (ty ()) (Mode.mem_deferred r))
  | "absolute", [| Node (Tree.Const (_, n)) |] ->
    Desc.D
      (Desc.make (ty ())
         (Mode.Mem
            { base = None; sym = None; disp = n; index = None; auto = None }))
  | "disp", [| Node _; Node (Tree.Const (_, d)); D _ |] ->
    let r, rd = as_reg 2 in
    Desc.D
      (compose_mem t ~owned:rd.Desc.owned (ty ()) (Mode.mem_disp d r))
  | "symdisp", [| Node _; Node _; Node (Tree.Name (_, s)); D _ |] ->
    let r, rd = as_reg 3 in
    Desc.D
      (compose_mem t ~owned:rd.Desc.owned (ty ()) (Mode.mem_disp ~sym:s 0L r))
  | "index", [| Node _; D _; Node _; Node _; D _ |] ->
    let rb, db = as_reg 1 in
    let rx, dx = as_reg 4 in
    Desc.D
      (compose_mem t
         ~owned:(db.Desc.owned @ dx.Desc.owned)
         (ty ())
         (Mode.with_index (Mode.mem_deferred rb) rx))
  | "index", [| Node _; D _; D _ |] ->
    let rb, db = as_reg 1 in
    let rx, dx = as_reg 2 in
    Desc.D
      (compose_mem t
         ~owned:(db.Desc.owned @ dx.Desc.owned)
         (ty ())
         (Mode.with_index (Mode.mem_deferred rb) rx))
  | "dispindex", [| Node _; Node (Tree.Const (_, d)); Node _; D _; Node _; Node _; D _ |]
    ->
    let rb, db = as_reg 3 in
    let rx, dx = as_reg 6 in
    Desc.D
      (compose_mem t
         ~owned:(db.Desc.owned @ dx.Desc.owned)
         (ty ())
         (Mode.with_index (Mode.mem_disp d rb) rx))
  | "dispindex", [| Node _; Node (Tree.Const (_, d)); Node _; D _; D _ |] ->
    let rb, db = as_reg 3 in
    let rx, dx = as_reg 4 in
    Desc.D
      (compose_mem t
         ~owned:(db.Desc.owned @ dx.Desc.owned)
         (ty ())
         (Mode.with_index (Mode.mem_disp d rb) rx))
  | "symindex", [| Node _; Node _; Node (Tree.Name (_, s)); Node _; Node _; D _ |]
    ->
    let rx, dx = as_reg 5 in
    Desc.D
      (compose_mem t ~owned:dx.Desc.owned (ty ())
         (Mode.with_index (Mode.mem_sym s) rx))
  | _, _ ->
    Fmt.failwith "mode builder %s: unexpected production %s <- ... (%d args)"
      name
      (Symtab.nonterm_name g.Grammar.symtab p.lhs)
      (Array.length args)

(* -- branches ------------------------------------------------------------ *)

let branch_of_node (node : Tree.t) =
  match node with
  | Tree.Cbranch (rel, sg, ty, _, _, label) -> (rel, sg, ty, label)
  | _ -> invalid_arg "branch pattern without a Cbranch node"

let jcc rel sg ty =
  if Dtype.is_float ty then "j" ^ Op.relop_vax rel
  else
    match sg with
    | Dtype.Signed -> "j" ^ Op.relop_vax rel
    | Dtype.Unsigned -> "j" ^ Op.relop_vax_unsigned rel

(* -- the Emit dispatcher -------------------------------------------------- *)

let parse_key key =
  match String.rindex_opt key '.' with
  | None -> (key, None)
  | Some i ->
    ( String.sub key 0 i,
      Some (String.sub key (i + 1) (String.length key - i - 1)) )

let cluster_for_op op suffix =
  let base =
    match Op.unreverse op with
    | Op.Plus -> "add"
    | Op.Minus -> "sub"
    | Op.Mul -> "mul"
    | Op.Div -> "div"
    | Op.Mod -> "mod"
    | Op.And -> "and"
    | Op.Or -> "or"
    | Op.Xor -> "xor"
    | Op.Lsh -> "lsh"
    | Op.Rsh -> "rsh"
    | Op.Udiv -> "udiv"
    | Op.Umod -> "umod"
    | _ -> assert false
  in
  base ^ "." ^ suffix

(* Emit a binary operation.  [dst] is [`Alloc] for register-destination
   productions or [`Into of Desc.t] for memory destinations. *)
let emit_binop t key op ty (a : Desc.t) (b : Desc.t) dst : Desc.sval =
  (* reverse operators carry their operands in evaluation order: the
     first evaluated child is the original right operand *)
  let s1, s2 = if Op.is_reverse op then (b, a) else (a, b) in
  let cluster = Insn_table.find_exn key in
  let first_row = List.hd cluster in
  let is_pseudo =
    String.length first_row.Insn_table.print > 0
    && first_row.Insn_table.print.[0] = '_'
  in
  if is_pseudo then begin
    match dst with
    | `Alloc ->
      let result = ref None in
      let alloc_dst () =
        let d = Regmgr.alloc t.regs ty in
        result := Some d;
        d.Desc.operand
      in
      ignore (expand_pseudo t first_row.Insn_table.print ty ~alloc_dst s1 s2);
      Desc.D (Option.get !result)
    | `Into d ->
      let alloc_dst () = d.Desc.operand in
      ignore (expand_pseudo t first_row.Insn_table.print ty ~alloc_dst s1 s2);
      Regmgr.release t.regs d;
      Desc.Done
  end
  else begin
    match dst with
    | `Alloc ->
      Regmgr.release t.regs s1;
      Regmgr.release t.regs s2;
      let d = Regmgr.alloc t.regs ty in
      apply_cluster t cluster ~dst:d.Desc.operand
        [ s1.Desc.operand; s2.Desc.operand ];
      Desc.D d
    | `Into d ->
      apply_cluster t cluster ~dst:d.Desc.operand
        [ s1.Desc.operand; s2.Desc.operand ];
      Regmgr.release t.regs s1;
      Regmgr.release t.regs s2;
      Regmgr.release t.regs d;
      Desc.Done
  end

let binop_of_node (node : Tree.t) =
  match node with
  | Tree.Binop (op, _, _, _) -> op
  | _ -> invalid_arg "operator pattern without a Binop node"

let emit_insn t g key (p : Grammar.production) (args : Desc.sval array) :
    Desc.sval =
  let base, suffix = parse_key key in
  let ty_of_suffix () =
    match suffix with
    | Some s -> (
      match Dtype.of_suffix s with
      | Some ty -> ty
      | None -> Fmt.failwith "emit key %s: bad type suffix" key)
    | None -> Fmt.failwith "emit key %s: missing type suffix" key
  in
  match (base, args) with
  (* ---- bridges: multi-instruction address repairs (section 6.2.2) ---- *)
  | "bridge_ixmul", [| Node _; D base_d; Node _; D a; D b |] ->
    let a = stable t a and b = stable t b in
    let rbase = Regmgr.as_register t.regs base_d in
    let rt = Regmgr.alloc t.regs Dtype.Long in
    emit t
      (Insn.insn "mull3" [ a.Desc.operand; b.Desc.operand; rt.Desc.operand ]);
    Regmgr.release t.regs a;
    Regmgr.release t.regs b;
    emit t (Insn.insn "addl2" [ rbase.Desc.operand; rt.Desc.operand ]);
    Regmgr.release t.regs rbase;
    Desc.D
      (compose_mem t ~owned:rt.Desc.owned
         (Option.value (lhs_type g p) ~default:Dtype.Long)
         (Mode.mem_deferred
            (match rt.Desc.operand with Mode.Reg r -> r | _ -> assert false)))
  | "bridge_dxmul", [| Node _; Node (Tree.Const (_, d)); Node _; D base_d; Node _; D a; D b |]
    ->
    let a = stable t a and b = stable t b in
    let rbase = Regmgr.as_register t.regs base_d in
    let rt = Regmgr.alloc t.regs Dtype.Long in
    emit t
      (Insn.insn "mull3" [ a.Desc.operand; b.Desc.operand; rt.Desc.operand ]);
    Regmgr.release t.regs a;
    Regmgr.release t.regs b;
    emit t (Insn.insn "addl2" [ rbase.Desc.operand; rt.Desc.operand ]);
    Regmgr.release t.regs rbase;
    let r = match rt.Desc.operand with Mode.Reg r -> r | _ -> assert false in
    Desc.D
      (compose_mem t ~owned:rt.Desc.owned
         (Option.value (lhs_type g p) ~default:Dtype.Long)
         (Mode.mem_disp d r))
  | "bridge_symmul", [| Node _; Node _; Node (Tree.Name (_, s)); Node _; D a; D b |]
    ->
    let a = stable t a and b = stable t b in
    let rt = Regmgr.alloc t.regs Dtype.Long in
    emit t
      (Insn.insn "mull3" [ a.Desc.operand; b.Desc.operand; rt.Desc.operand ]);
    Regmgr.release t.regs a;
    Regmgr.release t.regs b;
    let r = match rt.Desc.operand with Mode.Reg r -> r | _ -> assert false in
    Desc.D
      (compose_mem t ~owned:rt.Desc.owned
         (Option.value (lhs_type g p) ~default:Dtype.Long)
         (Mode.mem_disp ~sym:s 0L r))
  (* ---- branches (section 6.1) ---- *)
  | "cmpbr", [| Node cb; Node _; D a; D b; Node _ |] ->
    let rel, sg, bty, label = branch_of_node cb in
    let cluster = Insn_table.find_exn key in
    (match cluster with
    | [ cmp_row; tst_row ] ->
      let replaced =
        if not t.idioms then None
        else
          match cmp_row.Insn_table.range with
          | Some k ->
            Insn_table.range_apply k (suffix_of cmp_row.Insn_table.print)
              b.Desc.operand
          | None -> None
      in
      (match replaced with
      | Some tst ->
        ignore tst_row;
        emit t (Insn.insn tst [ a.Desc.operand ])
      | None ->
        emit t
          (Insn.insn cmp_row.Insn_table.print
             [ a.Desc.operand; b.Desc.operand ]))
    | _ -> assert false);
    Regmgr.release t.regs a;
    Regmgr.release t.regs b;
    emit t (Insn.Branch (jcc rel sg bty, label));
    Desc.Done
  | "tstbr", [| Node cb; Node _; D a; Node _; Node _ |] ->
    let rel, sg, bty, label = branch_of_node cb in
    emit t (Insn.insn ("tst" ^ sfx (ty_of_suffix ())) [ a.Desc.operand ]);
    Regmgr.release t.regs a;
    emit t (Insn.Branch (jcc rel sg bty, label));
    Desc.Done
  | "tstbr_reg", [| Node cb; Node _; Node (Tree.Dreg (_, r)); Node _; Node _ |]
    ->
    let rel, sg, bty, label = branch_of_node cb in
    emit t (Insn.insn ("tst" ^ sfx (ty_of_suffix ())) [ Mode.Reg r ]);
    emit t (Insn.Branch (jcc rel sg bty, label));
    Desc.Done
  | "ccbr", [| Node cb; Node _; D a; Node _; Node _ |] ->
    (* the instruction that computed [a] into a register has just been
       emitted and set the condition codes: no test needed *)
    let rel, sg, bty, label = branch_of_node cb in
    Regmgr.release t.regs a;
    emit t (Insn.Branch (jcc rel sg bty, label));
    Desc.Done
  (* ---- pushes and address-of ---- *)
  | "push", [| Node _; D v |] -> (
    match ty_of_suffix () with
    | Dtype.Long ->
      emit t (Insn.insn "pushl" [ v.Desc.operand ]);
      Regmgr.release t.regs v;
      Desc.Done
    | Dtype.Dbl ->
      emit t (Insn.insn "movd" [ v.Desc.operand; Mode.autodec Regconv.sp ]);
      Regmgr.release t.regs v;
      Desc.Done
    | _ -> Fmt.failwith "push of unexpected type")
  | "mova", [| Node _; Node leaf |] ->
    let operand =
      match leaf with
      | Tree.Name (_, s) -> Mode.mem_sym s
      | Tree.Temp (tty, i) -> Frame.temp_mode t.frame i tty
      | _ -> Fmt.failwith "mova of unexpected leaf"
    in
    let d = Regmgr.alloc t.regs Dtype.Long in
    emit t
      (Insn.insn ("mova" ^ sfx (ty_of_suffix ())) [ operand; d.Desc.operand ]);
    Desc.D d
  | "mova", [| Node _; Node _; D ea |] ->
    Regmgr.release t.regs ea;
    let d = Regmgr.alloc t.regs Dtype.Long in
    emit t
      (Insn.insn ("mova" ^ sfx (ty_of_suffix ()))
         [ ea.Desc.operand; d.Desc.operand ]);
    Desc.D d
  (* ---- moves (including conversions) ---- *)
  | "mov", [| D src |] ->
    (* load into a register *)
    Regmgr.release t.regs src;
    let d = Regmgr.alloc t.regs (ty_of_suffix ()) in
    apply_cluster t (Insn_table.find_exn key) ~dst:d.Desc.operand
      [ src.Desc.operand ];
    Desc.D d
  | "cvt", [| Node _; D src |] ->
    (* reg.t <- Cvt rval *)
    Regmgr.release t.regs src;
    let to_ty =
      match suffix with
      | Some s when String.length s = 2 ->
        Option.get (Dtype.of_suffix (String.make 1 s.[1]))
      | _ -> Fmt.failwith "cvt key %s" key
    in
    let d = Regmgr.alloc t.regs to_ty in
    apply_cluster t (Insn_table.find_exn key) ~dst:d.Desc.operand
      [ src.Desc.operand ];
    Desc.D d
  | "mov", [| Node _; D dst; D src |] ->
    (* stmt <- Assign lval rval *)
    apply_cluster t (Insn_table.find_exn key) ~dst:dst.Desc.operand
      [ src.Desc.operand ];
    Regmgr.release t.regs src;
    Regmgr.release t.regs dst;
    Desc.Done
  | "mov_r", [| Node _; D src; D dst |] ->
    apply_cluster t (Insn_table.find_exn ("mov." ^ Option.get suffix))
      ~dst:dst.Desc.operand [ src.Desc.operand ];
    Regmgr.release t.regs src;
    Regmgr.release t.regs dst;
    Desc.Done
  | "cvt", [| Node _; D dst; Node _; D src |] ->
    (* stmt <- Assign lval Cvt rval *)
    apply_cluster t (Insn_table.find_exn key) ~dst:dst.Desc.operand
      [ src.Desc.operand ];
    Regmgr.release t.regs src;
    Regmgr.release t.regs dst;
    Desc.Done
  (* ---- unary operators ---- *)
  | ("neg" | "com"), [| Node _; D src |] ->
    Regmgr.release t.regs src;
    let d = Regmgr.alloc t.regs (ty_of_suffix ()) in
    apply_cluster t (Insn_table.find_exn key) ~dst:d.Desc.operand
      [ src.Desc.operand ];
    Desc.D d
  | ("neg" | "com"), [| Node _; D dst; Node _; D src |] ->
    apply_cluster t (Insn_table.find_exn key) ~dst:dst.Desc.operand
      [ src.Desc.operand ];
    Regmgr.release t.regs src;
    Regmgr.release t.regs dst;
    Desc.Done
  (* ---- binary operators ---- *)
  | _, [| Node opnode; D a; D b |] ->
    (* reg.t <- OP rval rval *)
    let op = binop_of_node opnode in
    let ty = ty_of_suffix () in
    let key =
      if base = "class" then cluster_for_op op (Option.get suffix) else key
    in
    emit_binop t key op ty a b `Alloc
  | _, [| Node _; D dst; Node opnode; D a; D b |] ->
    (* stmt <- Assign lval OP rval rval *)
    let op = binop_of_node opnode in
    let ty = ty_of_suffix () in
    let key =
      if base = "class" then cluster_for_op op (Option.get suffix) else key
    in
    emit_binop t key op ty a b (`Into dst)
  | _, [| Node _; Node opnode; D a; D b; D dst |] ->
    (* stmt <- Rassign OP rval rval lval *)
    let op = binop_of_node opnode in
    let ty = ty_of_suffix () in
    emit_binop t key op ty a b (`Into dst)
  | _, _ ->
    Fmt.failwith "emit %s: unexpected production shape %s" key
      (Fmt.str "%a" (Grammar.pp_production g) p)

(* -- matcher callbacks ---------------------------------------------------- *)

let action_rank = function
  | Action.Mode _ -> 0
  | Action.Chain -> 1
  | Action.Emit _ -> 2
  | Action.Start -> 3

(* The callback skeleton is target-independent: shift wraps the node,
   reduce dispatches on the production's action and keeps the
   provenance bookkeeping, choose ranks equal-length candidates.  Only
   the [mode] and [emit] dispatchers differ per target. *)
let make_callbacks t ~mode ~emit:emit_d g : Desc.sval Matcher.callbacks =
  {
    Matcher.on_shift = (fun tok -> Desc.Node tok.Termname.node);
    on_reduce =
      (fun p args ->
        if t.explain then begin
          t.prov_pending <- p.Grammar.id :: t.prov_pending;
          t.prov_last <- p.Grammar.id
        end;
        let v =
          match p.Grammar.action with
          | Action.Chain | Action.Start -> args.(0)
          | Action.Mode name -> mode t g name p args
          | Action.Emit key -> emit_d t g key p args
        in
        (if t.explain then
           match p.Grammar.action with
           | Action.Emit _ -> t.prov_pending <- []
           | Action.Mode _ | Action.Chain | Action.Start -> ());
        v);
    choose =
      (fun candidates _argss ->
        (* semantic choice among equal-length reductions: prefer
           encapsulation over glue over emission, then grammar order —
           this never re-enters the reg/rval chain cycle *)
        let best = ref 0 in
        Array.iteri
          (fun i p ->
            if
              action_rank p.Grammar.action
              < action_rank candidates.(!best).Grammar.action
            then best := i)
          candidates;
        !best);
  }

let callbacks t g = make_callbacks t ~mode:build_mode ~emit:emit_insn g
