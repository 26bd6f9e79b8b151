open Import

type t = {
  labels : Label.gen;
  mutable next_temp : int;
  mutable temps : (int * Dtype.t) list;
}

let scan_func (f : Tree.func) =
  let max_label = ref 0 in
  let max_temp = ref (-1) in
  (* first-seen order and type: [temp_types] lays out the frame by it *)
  let temps = ref [] in
  let seen = Hashtbl.create 16 in
  let scan_tree t =
    Tree.fold
      (fun () node ->
        match node with
        | Tree.Temp (ty, i) ->
          if not (Hashtbl.mem seen i) then begin
            Hashtbl.add seen i ();
            temps := (i, ty) :: !temps
          end;
          if i > !max_temp then max_temp := i
        | Tree.Cbranch (_, _, _, _, _, l) ->
          if l > !max_label then max_label := l
        | _ -> ())
      () t
  in
  List.iter
    (fun s ->
      match s with
      | Tree.Stree t -> scan_tree t
      | Tree.Slabel l | Tree.Sjump l -> if l > !max_label then max_label := l
      | Tree.Sret | Tree.Scall _ | Tree.Scomment _ | Tree.Sline _ -> ())
    f.Tree.body;
  (!max_label, !max_temp, !temps)

let create f =
  let max_label, max_temp, temps = scan_func f in
  {
    labels = Label.gen ~first:(max_label + 1) ();
    next_temp = max_temp + 1;
    temps;
  }

let fresh_label t = Label.fresh t.labels

let fresh_temp t ty =
  let i = t.next_temp in
  t.next_temp <- i + 1;
  t.temps <- (i, ty) :: t.temps;
  Tree.Temp (ty, i)

let temp_types t = List.rev t.temps
