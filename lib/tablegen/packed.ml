open Import

(* the tie-candidate arrays, newest first, and how many there are *)
type ties = { mutable rev : int array list; mutable n : int }

(* encoded actions: 0 = error; (s<<2)|1 = shift s; (p<<2)|2 = reduce p;
   3 = accept; ((i+1)<<2)|3 = semantic tie, candidates in aux.(i) *)
let encode ties = function
  | Tables.Error -> 0
  | Tables.Shift s -> (s lsl 2) lor 1
  | Tables.Accept -> 3
  | Tables.Reduce [| p |] -> (p lsl 2) lor 2
  | Tables.Reduce candidates ->
    ties.rev <- candidates :: ties.rev;
    ties.n <- ties.n + 1;
    (ties.n lsl 2) lor 3

(* First-fit row displacement packing, in the order given.  The arrays
   reach past every row's base + width, so a probe of any row at any
   column stays in range.

   Each row lands at the lowest base where all its cells are free, as a
   plain scan from base 0 would find; the search only skips bases that
   cannot fit.  Occupancy only ever grows, so:
   - once a row with column set S sits at base b, no later row with set
     S fits at any base <= b (the signature memo starts its search at
     b + 1) — LR rows repeat a handful of column sets across hundreds of
     states;
   - when column k conflicts at base b, no base below
     [next_free (b + k) - k] fits either (the conflict-column jump).
   [next_free] is a path-halving skip array over occupied cells. *)
let comb_pack ~width ~n_states rows =
  (* occupancy during the search: next.(i) = i for a free cell;
     otherwise a cell at or before the next free one *)
  let size = ref (width * 4) in
  let next = ref (Array.init !size Fun.id) in
  let grow upto =
    if upto >= !size then begin
      let nsize = max (2 * !size) (upto + width + 1) in
      let nnext = Array.init nsize Fun.id in
      Array.blit !next 0 nnext 0 !size;
      next := nnext;
      size := nsize
    end
  in
  let rec next_free i =
    if i >= !size then i
    else
      let j = !next.(i) in
      if j = i then i
      else begin
        let k = if j < !size then !next.(j) else j in
        !next.(i) <- k;
        next_free k
      end
  in
  let memo = Hashtbl.create 64 in
  let place (s, entries) =
    match entries with
    | [] -> (s, 0, entries)
    | _ ->
      (* [cols] is also the probe order: a column that conflicts
         swaps to the front, so the columns that keep colliding are
         probed first *)
      let cols = Array.of_list (List.map fst entries) in
      let n = Array.length cols in
      let max_col = Array.fold_left max 0 cols in
      let key = List.sort Int.compare (Array.to_list cols) in
      let b = ref (try Hashtbl.find memo key + 1 with Not_found -> 0) in
      grow (!b + max_col);
      let k = ref 0 in
      while !k < n do
        let c = cols.(!k) in
        let i = !b + c in
        if !next.(i) = i then incr k
        else begin
          cols.(!k) <- cols.(0);
          cols.(0) <- c;
          b := next_free i - c;
          grow (!b + max_col);
          (* column [c] is free at the new base by construction *)
          k := 1
        end
      done;
      let b = !b in
      Hashtbl.replace memo key b;
      Array.iter (fun c -> !next.(b + c) <- b + c + 1) cols;
      (s, b, entries)
  in
  let placed = List.map place rows in
  let high =
    List.fold_left
      (fun high (_, b, _) -> max high (b + width))
      (max 1 width) placed
  in
  let base = Array.make n_states 0 in
  let check = Array.make high (-1) in
  let value = Array.make high 0 in
  List.iter
    (fun (s, b, entries) ->
      base.(s) <- b;
      List.iter
        (fun (col, code) ->
          check.(b + col) <- s;
          value.(b + col) <- code)
        entries)
    placed;
  (base, check, value)

type t = {
  n_terms : int;  (* action row width is n_terms + 1 (eof) *)
  n_nonterms : int;
  n_states : int;
  grammar_digest : string;  (* Grammar.digest of the source grammar *)
  profile_digest : string option;  (* Heat.digest of the row-order profile *)
  defaults : int array;  (* encoded default reduce per state; 0 = none *)
  valid : Bytes.t;  (* bitset: 1 = the dense action cell is non-Error *)
  act_base : int array;  (* >= 0: hot comb displacement; -1: cold state *)
  act_check : int array;  (* padded to every hot base + width *)
  act_value : int array;
  cold_off : int array;  (* n_states + 1 offsets into cold_col/cold_val *)
  cold_col : int array;  (* per cold state, exception columns ascending *)
  cold_val : int array;
  goto_base : int array;
  goto_check : int array;
  goto_value : int array;  (* target + 1; 0 = none *)
  aux : int array array;  (* tie candidate arrays *)
}

(* Everything [pack] computes before the rows are laid out: the table
   without its combs and exception lists, plus the per-state exception
   rows (action cells differing from the state's default, as (terminal,
   code)) and goto rows.  Every layout starts from this, so its cells
   decode like the dense table's whatever order the rows pack in. *)
(* bump [action]'s count in [seen] and make it the entry's latest
   occurrence; false if it has no entry yet *)
let rec count_reduce action = function
  | [] -> false
  | (a, k) :: rest ->
    if !a = action then begin
      a := action;
      incr k;
      true
    end
    else count_reduce action rest

let prepare (tables : Tables.t) =
  let g = Tables.grammar tables in
  let nt = Symtab.n_terms g.Grammar.symtab in
  let nn = Symtab.n_nonterms g.Grammar.symtab in
  let n_states = Tables.n_states tables in
  let aux = { rev = []; n = 0 } in
  (* one bit per dense action cell: set iff the cell is not Error.  The
     bit distinguishes "no action" from "covered by the default
     reduction", which the comb arrays alone cannot, and is what keeps
    the packed action function identical to the dense one. *)
  let width = nt + 1 in
  let valid = Bytes.make (((n_states * width) + 7) / 8) '\000' in
  let set_valid s a =
    let i = (s * width) + a in
    Bytes.set valid (i lsr 3)
      (Char.chr (Char.code (Bytes.get valid (i lsr 3)) lor (1 lsl (i land 7))))
  in
  for s = 0 to n_states - 1 do
    Array.iteri
      (fun a action ->
        match action with Tables.Error -> () | _ -> set_valid s a)
      tables.Tables.action.(s)
  done;
  (* default reductions: the most frequent reduce action of each row *)
  let defaults = Array.make n_states 0 in
  let act_rows =
    List.init n_states (fun s ->
        (* each distinct reduce with its count and its latest
           occurrence, in reverse order of first occurrence *)
        let seen = ref [] in
        Array.iter
          (fun action ->
            match action with
            | Tables.Reduce _ ->
              if not (count_reduce action !seen) then
                seen := (ref action, ref 1) :: !seen
            | _ -> ())
          tables.Tables.action.(s);
        (* Among equally frequent reduces, the first one the fold below
           meets wins.  Filling the table in first-occurrence order, and
           keying each entry by its latest occurrence (as [replace]
           would), fixes that choice and the sharing [save] writes, so
           the packed bytes do not change with how the counts are
           gathered. *)
        let counts = Hashtbl.create 8 in
        List.iter
          (fun (a, k) -> Hashtbl.replace counts !a !k)
          (List.rev !seen);
        let default =
          Hashtbl.fold
            (fun action k best ->
              match best with
              | Some (_, bk) when bk >= k -> best
              | _ -> Some (action, k))
            counts None
        in
        (match default with
        | Some (action, _) -> defaults.(s) <- encode aux action
        | None -> ());
        let entries = ref [] in
        Array.iteri
          (fun a action ->
            match action with
            | Tables.Error -> ()
            | other ->
              let code = encode aux other in
              if code <> defaults.(s) then entries := (a, code) :: !entries)
          tables.Tables.action.(s);
        (s, !entries))
  in
  let goto_rows =
    List.init n_states (fun s ->
        let entries = ref [] in
        Array.iteri
          (fun n target ->
            if target >= 0 then entries := (n, target + 1) :: !entries)
          tables.Tables.goto_.(s);
        (s, !entries))
  in
  ( {
      n_terms = nt;
      n_nonterms = nn;
      n_states;
      grammar_digest = Grammar.digest g;
      profile_digest = None;
      defaults;
      valid;
      act_base = [||];
      act_check = [||];
      act_value = [||];
      cold_off = [||];
      cold_col = [||];
      cold_val = [||];
      goto_base = [||];
      goto_check = [||];
      goto_value = [||];
      aux = Array.of_list (List.rev aux.rev);
    },
    act_rows,
    goto_rows )

(* A profile counts production firings; the table is indexed by state.
   Credit each state's cells from the profile: a reduce cell carries
   its productions' counts directly, and a shift cell on terminal [a]
   carries the counts of every production whose right-hand side
   mentions [a] — a production cannot fire without first shifting each
   of its terminals, so shift-only states inherit the heat of the
   reductions they feed. *)
let state_heats (tables : Tables.t) (profile : Heat.t) =
  let g = Tables.grammar tables in
  let n_prods = Grammar.n_productions g in
  let prod_heat = Array.make (max 1 n_prods) 0 in
  List.iter
    (fun (id, c) ->
      (* foreign ids (another grammar's profile, a fuzzer) carry no
         weight here but stay in the profile digest *)
      if id < n_prods then prod_heat.(id) <- prod_heat.(id) + c)
    profile.Heat.counts;
  let term_heat = Array.make (Tables.eof tables + 1) 0 in
  for p = 0 to n_prods - 1 do
    if prod_heat.(p) > 0 then
      Array.iter
        (function
          | Symtab.T a -> term_heat.(a) <- term_heat.(a) + prod_heat.(p)
          | Symtab.N _ -> ())
        (Grammar.production g p).Grammar.rhs
  done;
  Array.map
    (fun row ->
      let acc = ref 0 in
      Array.iteri
        (fun a cell ->
          match cell with
          | Tables.Error | Tables.Accept -> ()
          | Tables.Shift _ -> acc := !acc + term_heat.(a)
          | Tables.Reduce candidates ->
            Array.iter (fun p -> acc := !acc + prod_heat.(p)) candidates)
        row;
      !acc)
    tables.Tables.action

(* hot = the smallest heat-first state prefix covering this share of
   the total estimated heat (state 0 always rides along: every parse
   starts there); with no usable heat, every state *)
let coverage = 0.9

let hot_states heats =
  let n = Array.length heats in
  let total = Array.fold_left ( + ) 0 heats in
  if total = 0 then Array.make n true
  else begin
    let hot = Array.make n false in
    let order =
      List.stable_sort
        (fun a b -> Int.compare heats.(b) heats.(a))
        (List.init n Fun.id)
    in
    let target = max 1 (int_of_float (ceil (coverage *. float_of_int total))) in
    ignore
      (List.fold_left
         (fun acc s ->
           if acc < target && heats.(s) > 0 then begin
             hot.(s) <- true;
             acc + heats.(s)
           end
           else acc)
         0 order);
    hot.(0) <- true;
    hot
  end

(* hottest first, then densest, then by state: with no heat this is the
   densest-first order that packs tightest *)
let packing_order heat rows =
  List.map (fun ((s, entries) as row) -> (heat s, List.length entries, row))
    rows
  |> List.sort (fun (ha, la, (sa, _)) (hb, lb, (sb, _)) ->
         match Int.compare hb ha with
         | 0 -> ( match Int.compare lb la with 0 -> Int.compare sa sb | c -> c)
         | c -> c)
  |> List.map (fun (_, _, row) -> row)

let pack ?profile (tables : Tables.t) =
  let t, act_rows, goto_rows = prepare tables in
  let n = t.n_states and width = t.n_terms + 1 in
  let heats =
    match profile with
    | None -> Array.make n 0
    | Some profile -> state_heats tables profile
  in
  let hot = hot_states heats in
  (* the comb reaches past every hot row's base + width, so the hot
     probe needs no bounds check ([action_code] reads unsafely) *)
  let act_base, act_check, act_value =
    comb_pack ~width ~n_states:n
      (packing_order (Array.get heats)
         (List.filter (fun (s, _) -> hot.(s)) act_rows))
  in
  (* cold states keep exact exception lists, searched by column: no
     comb slack, no padding, still O(log row) *)
  let cold_off = Array.make (n + 1) 0 in
  let cold = ref [] and n_cold = ref 0 in
  List.iter
    (fun (s, entries) ->
      cold_off.(s) <- !n_cold;
      if not hot.(s) then begin
        act_base.(s) <- -1;
        List.iter
          (fun cell ->
            cold := cell :: !cold;
            incr n_cold)
          (List.sort compare entries)
      end)
    act_rows;
  cold_off.(n) <- !n_cold;
  let cold = Array.of_list (List.rev !cold) in
  (* the goto comb is off the per-token probe path: densest-first *)
  let goto_base, goto_check, goto_value =
    comb_pack ~width:t.n_nonterms ~n_states:n
      (packing_order (fun _ -> 0) goto_rows)
  in
  {
    t with
    profile_digest = Option.map Heat.digest profile;
    act_base;
    act_check;
    act_value;
    cold_off;
    cold_col = Array.map fst cold;
    cold_val = Array.map snd cold;
    goto_base;
    goto_check;
    goto_value;
  }

let decode t code =
  if code = 0 then Tables.Error
  else if code = 3 then Tables.Accept
  else
    match code land 3 with
    | 1 -> Tables.Shift (code lsr 2)
    | 2 -> Tables.Reduce [| code lsr 2 |]
    | 3 -> Tables.Reduce t.aux.((code lsr 2) - 1)
    | _ -> Tables.Error

let has_action t s a =
  let i = (s * (t.n_terms + 1)) + a in
  Char.code (Bytes.unsafe_get t.valid (i lsr 3)) land (1 lsl (i land 7)) <> 0

let is_hot t s = t.act_base.(s) >= 0

(* The stored exception cells are never [Error] and never the default
   (see [prepare]), so a comb or exception-list hit is already a
   genuine action: the validity bitset is only consulted on a miss,
   where it separates [Error] cells from default-covered ones.  The
   base doubles as the hot/cold discriminant, and the comb is padded so
   [base + a] is always in range ({!load} checks this on files), which
   makes the hot hit two loads and one compare.  Cold states binary
   search their exact exception list instead.  Only the [act_base]
   read is bounds-checked: it keeps a corrupt state number from
   reaching the unsafe reads. *)
let miss_code t s a =
  let b = (s * (t.n_terms + 1)) + a in
  if Char.code (Bytes.unsafe_get t.valid (b lsr 3)) land (1 lsl (b land 7)) = 0
  then 0
  else Array.unsafe_get t.defaults s

let action_code t s a =
  let base = t.act_base.(s) in
  if base >= 0 then begin
    let i = base + a in
    if Array.unsafe_get t.act_check i = s then Array.unsafe_get t.act_value i
    else miss_code t s a
  end
  else begin
    let lo = ref (Array.unsafe_get t.cold_off s) in
    let hi = ref (Array.unsafe_get t.cold_off (s + 1)) in
    let res = ref (-1) in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      let c = Array.unsafe_get t.cold_col mid in
      if c = a then begin
        res := Array.unsafe_get t.cold_val mid;
        lo := !hi
      end
      else if c < a then lo := mid + 1
      else hi := mid
    done;
    if !res >= 0 then !res else miss_code t s a
  end

let action t s a = decode t (action_code t s a)
let tie_candidates t i = t.aux.(i)

let expected t s =
  let acc = ref [] in
  for a = t.n_terms downto 0 do
    if has_action t s a then acc := a :: !acc
  done;
  !acc

let digest t = t.grammar_digest
let profile_digest t = t.profile_digest

let goto t s n =
  let i = t.goto_base.(s) + n in
  if i < 0 || i >= Array.length t.goto_check then -1
  else if Array.unsafe_get t.goto_check i <> s then -1
  else Array.unsafe_get t.goto_value i - 1

let pp_act ppf = function
  | Tables.Error -> Fmt.string ppf "error"
  | Tables.Accept -> Fmt.string ppf "accept"
  | Tables.Shift s -> Fmt.pf ppf "shift %d" s
  | Tables.Reduce ps -> Fmt.pf ppf "reduce %a" Fmt.(array ~sep:comma int) ps

let verify t (tables : Tables.t) =
  let want = Grammar.digest (Tables.grammar tables) in
  let n = Tables.n_states tables in
  let exception Mismatch of string in
  let fail fmt = Fmt.kstr (fun m -> raise (Mismatch m)) fmt in
  try
    if t.grammar_digest <> want then
      fail "grammar digest %s does not match tables (%s)" t.grammar_digest want;
    if t.n_states <> n then fail "%d states, dense has %d" t.n_states n;
    for s = 0 to n - 1 do
      for a = 0 to t.n_terms do
        let dense = tables.Tables.action.(s).(a) in
        if action t s a <> dense then
          fail "action(%d, %d): packed %a, dense %a" s a pp_act (action t s a)
            pp_act dense
      done;
      for nt = 0 to t.n_nonterms - 1 do
        let dense = tables.Tables.goto_.(s).(nt) in
        if goto t s nt <> dense then
          fail "goto(%d, %d): packed %d, dense %d" s nt (goto t s nt) dense
      done;
      if expected t s <> Tables.expected tables s then
        fail "expected(%d) differs" s
    done;
    Ok ()
  with Mismatch m -> Error m

type stats = {
  states : int;
  hot_states : int;
  dense_cells : int;
  packed_cells : int;
  dense_bytes : int;
  packed_bytes : int;
  ratio : float;
  hot_slots : int;
  cold_entries : int;
}

let stats t =
  let dense_cells = t.n_states * (t.n_terms + 1 + t.n_nonterms) in
  let word = 4 in
  let packed_cells =
    (2 * Array.length t.act_check)
    + (2 * Array.length t.goto_check)
    + (3 * t.n_states) (* act_base, goto_base, defaults *)
    + Array.length t.cold_off
    + (2 * Array.length t.cold_col)
    + ((Bytes.length t.valid + word - 1) / word) (* the validity bitset *)
  in
  {
    states = t.n_states;
    hot_states =
      Array.fold_left (fun k b -> if b >= 0 then k + 1 else k) 0 t.act_base;
    dense_cells;
    packed_cells;
    dense_bytes = dense_cells * word;
    packed_bytes = packed_cells * word;
    ratio = float_of_int packed_cells /. float_of_int dense_cells;
    hot_slots = Array.length t.act_check;
    cold_entries = Array.length t.cold_col;
  }

let pp_stats ppf s =
  Fmt.pf ppf
    "%d states (%d hot): %d dense cells (%d KB) -> %d packed cells (%d KB), \
     %.2fx; %d hot comb slots, %d cold exact entries"
    s.states s.hot_states s.dense_cells (s.dense_bytes / 1024) s.packed_cells
    (s.packed_bytes / 1024) s.ratio s.hot_slots s.cold_entries

let magic = "ggcg-tables-v4"

let save t path =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc magic;
      Marshal.to_channel oc t [])

(* [Marshal] does not check record shape, and [action_code] reads the
   comb, the exception lists and the bitset unsafely, so a file must
   prove the invariants those reads rely on before it is served: array
   lengths, every hot row inside the padded comb, and monotone
   exception offsets.  O(states); this runs on every cached load.  A
   state number out of range (a corrupt shift or goto target) fails the
   one bounds-checked read, of [act_base]. *)
let check_shape path t =
  let bad what = Fmt.failwith "%s: corrupt table file (%s)" path what in
  let n = t.n_states and width = t.n_terms + 1 in
  if
    n < 1
    || Array.length t.defaults <> n
    || Array.length t.act_base <> n
    || Array.length t.goto_base <> n
    || Array.length t.cold_off <> n + 1
    || Bytes.length t.valid < ((n * width) + 7) / 8
  then bad "array lengths do not match the state count";
  let len = Array.length t.act_check in
  if Array.length t.act_value <> len then bad "action comb halves differ";
  Array.iter
    (fun b -> if b >= 0 && b + width > len then bad "hot row past the comb")
    t.act_base;
  if t.cold_off.(0) <> 0 || t.cold_off.(n) <> Array.length t.cold_col then
    bad "exception offsets do not span the exception lists";
  for s = 0 to n - 1 do
    if t.cold_off.(s) > t.cold_off.(s + 1) then bad "exception offsets decrease"
  done;
  if Array.length t.cold_val <> Array.length t.cold_col then
    bad "exception list halves differ";
  if Array.length t.goto_value <> Array.length t.goto_check then
    bad "goto comb halves differ"

let load ?profile (g : Grammar.t) path =
  In_channel.with_open_bin path (fun ic ->
      let m =
        try really_input_string ic (String.length magic)
        with End_of_file -> Fmt.failwith "%s: not a ggcg table file" path
      in
      if m <> magic then
        Fmt.failwith "%s: not a %s file (found %S)" path magic m;
      let t : t =
        try Marshal.from_channel ic
        with End_of_file | Failure _ ->
          Fmt.failwith "%s: truncated or corrupt table file" path
      in
      if
        t.n_terms <> Symtab.n_terms g.Grammar.symtab
        || t.n_nonterms <> Symtab.n_nonterms g.Grammar.symtab
      then Fmt.failwith "%s: tables do not match this grammar" path;
      let want = Grammar.digest g in
      if t.grammar_digest <> want then
        Fmt.failwith
          "%s: stale tables: built for grammar %s but this grammar is %s \
           (rebuild with mdgtool cache or delete the file)"
          path t.grammar_digest want;
      let want = Option.map Heat.digest profile in
      if t.profile_digest <> want then
        Fmt.failwith "%s: tables built for profile %s but %s was requested"
          path
          (Option.value ~default:"none" t.profile_digest)
          (Option.value ~default:"none" want);
      check_shape path t;
      t)
