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

type t = {
  n_terms : int;  (* action row width is n_terms + 1 (eof) *)
  n_nonterms : int;
  n_states : int;
  grammar_digest : string;  (* Grammar.digest of the source grammar *)
  defaults : int array;  (* encoded default reduce per state; 0 = none *)
  valid : Bytes.t;  (* bitset: 1 = the dense action cell is non-Error *)
  act_base : int array;
  act_check : int array;
  act_value : int array;
  goto_base : int array;
  goto_check : int array;
  goto_value : int array;  (* target + 1; 0 = none *)
  aux : int array array;  (* reversed tie candidate lists *)
}

(* First-fit row displacement packing.  [keep_order] packs the rows in
   the order given (the specializer's heat order) instead of
   densest-first.

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
let comb_pack ?(keep_order = false) ~width ~n_states rows =
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
  (* densest rows first pack tightest *)
  let order =
    if keep_order then rows
    else
      List.map (fun ((_, entries) as row) -> (List.length entries, row)) rows
      |> List.stable_sort (fun (a, _) (b, _) -> Int.compare b a)
      |> List.map snd
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
  let placed = List.map place order in
  let high =
    List.fold_left
      (fun high (_, b, entries) ->
        List.fold_left (fun high (col, _) -> max high (b + col + 1)) high entries)
      1 placed
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

(* Everything [pack] computes before the comb layout is laid down:
   validity bits, default reductions, exception rows and the tie
   arrays.  The specializer ({!Gg_specialize}) starts from the same
   preparation so its cells decode identically to the packed (and hence
   the dense) table's, whatever layout it chooses. *)
type prepared = {
  p_n_terms : int;
  p_n_nonterms : int;
  p_n_states : int;
  p_grammar_digest : string;
  p_width : int;  (* action row width, [p_n_terms + 1] *)
  p_valid : Bytes.t;
  p_defaults : int array;
  p_act_rows : (int * (int * int) list) list;
      (* per state, the (terminal, code) cells differing from the
         default *)
  p_goto_rows : (int * (int * int) list) list;
  p_aux : int array array;
}

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
  {
    p_n_terms = nt;
    p_n_nonterms = nn;
    p_n_states = n_states;
    p_grammar_digest = Grammar.digest g;
    p_width = width;
    p_valid = valid;
    p_defaults = defaults;
    p_act_rows = act_rows;
    p_goto_rows = goto_rows;
    p_aux = Array.of_list (List.rev aux.rev);
  }

let pack (tables : Tables.t) =
  let p = prepare tables in
  let act_base, act_check, act_value =
    comb_pack ~width:p.p_width ~n_states:p.p_n_states p.p_act_rows
  in
  let goto_base, goto_check, goto_value =
    comb_pack ~width:p.p_n_nonterms ~n_states:p.p_n_states p.p_goto_rows
  in
  {
    n_terms = p.p_n_terms;
    n_nonterms = p.p_n_nonterms;
    n_states = p.p_n_states;
    grammar_digest = p.p_grammar_digest;
    defaults = p.p_defaults;
    valid = p.p_valid;
    act_base;
    act_check;
    act_value;
    goto_base;
    goto_check;
    goto_value;
    aux = p.p_aux;
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

(* act_check and act_value (and the goto pair) are trimmed to the same
   length, so one range check on [i] covers the unsafe reads of both.
   The validity probe is [has_action] inlined by hand: this runs once
   per matcher action and the compiler will not inline it across the
   call. *)
let action_code t s a =
  let b = (s * (t.n_terms + 1)) + a in
  if Char.code (Bytes.unsafe_get t.valid (b lsr 3)) land (1 lsl (b land 7)) = 0
  then 0
  else
    let i = t.act_base.(s) + a in
    if i < 0 || i >= Array.length t.act_check then t.defaults.(s)
    else if Array.unsafe_get t.act_check i <> s then t.defaults.(s)
    else Array.unsafe_get t.act_value i

let action t s a = decode t (action_code t s a)

let tie_candidates t i = t.aux.(i)

let encode_table (tables : Tables.t) =
  let aux = { rev = []; n = 0 } in
  let codes = Array.map (Array.map (encode aux)) tables.Tables.action in
  (codes, Array.of_list (List.rev aux.rev))

let expected t s =
  let acc = ref [] in
  for a = t.n_terms downto 0 do
    if has_action t s a then acc := a :: !acc
  done;
  !acc

let digest t = t.grammar_digest

let default_of t s =
  match decode t t.defaults.(s) with
  | Tables.Error -> None
  | other -> Some other

let goto t s n =
  let i = t.goto_base.(s) + n in
  if i < 0 || i >= Array.length t.goto_check then -1
  else if Array.unsafe_get t.goto_check i <> s then -1
  else Array.unsafe_get t.goto_value i - 1

type stats = {
  states : int;
  dense_cells : int;
  packed_cells : int;
  dense_bytes : int;
  packed_bytes : int;
  ratio : float;
}

let stats t =
  let dense_cells = t.n_states * (t.n_terms + 1 + t.n_nonterms) in
  let word = 4 in
  let packed_cells =
    (2 * Array.length t.act_check)
    + (2 * Array.length t.goto_check)
    + (3 * t.n_states) (* the base and default arrays *)
    + ((Bytes.length t.valid + word - 1) / word) (* the validity bitset *)
  in
  {
    states = t.n_states;
    dense_cells;
    packed_cells;
    dense_bytes = dense_cells * word;
    packed_bytes = packed_cells * word;
    ratio = float_of_int packed_cells /. float_of_int dense_cells;
  }

let pp_stats ppf s =
  Fmt.pf ppf
    "%d states: %d dense cells (%d KB) -> %d packed cells (%d KB), %.2fx"
    s.states s.dense_cells (s.dense_bytes / 1024) s.packed_cells
    (s.packed_bytes / 1024) s.ratio

let magic = "ggcg-tables-v2"

let save t path =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc magic;
      Marshal.to_channel oc t [])

let load (g : Grammar.t) path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let m =
        try really_input_string ic (String.length magic)
        with End_of_file -> Fmt.failwith "%s: not a ggcg table file" path
      in
      if m <> magic then
        Fmt.failwith "%s: not a ggcg-tables-v2 file (found %S)" path m;
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
      t)
