(* The benchmark's own tracing: spans recorded around the calls it
   makes into each layer, kept in memory and written out at the end.

   A recorder belongs to one thread; spans nest through its stack of
   open spans.  A span's self time is its duration minus the part its
   children cover, so the self times of a tree sum to its root's
   duration. *)

type span = {
  name : string;
  parent : int;  (** index of the enclosing span, [-1] for a root *)
  t0 : float;
  mutable t1 : float;
}

type t = {
  mutable spans : span array;
  mutable len : int;
  mutable open_ : int list;
  mutable enabled : bool;
  track : int;  (** trace-viewer track of this recorder *)
}

let dummy = { name = ""; parent = -1; t0 = 0.; t1 = 0. }

let create ~track =
  { spans = Array.make 256 dummy; len = 0; open_ = []; enabled = false; track }

let push t s =
  if t.len = Array.length t.spans then begin
    let bigger = Array.make (2 * t.len) dummy in
    Array.blit t.spans 0 bigger 0 t.len;
    t.spans <- bigger
  end;
  t.spans.(t.len) <- s;
  t.len <- t.len + 1

(* [record t name f] runs [f] inside a span when [t] is enabled, and
   runs it bare otherwise. *)
let record t name f =
  if not t.enabled then f ()
  else begin
    let parent = match t.open_ with p :: _ -> p | [] -> -1 in
    let id = t.len in
    push t { name; parent; t0 = Unix.gettimeofday (); t1 = nan };
    t.open_ <- id :: t.open_;
    Fun.protect
      ~finally:(fun () ->
        t.spans.(id).t1 <- Unix.gettimeofday ();
        t.open_ <- List.tl t.open_)
      f
  end

(* Add an already-timed span: a child process or a request whose
   interval the benchmark measured itself. *)
let add t ~name ~t0 ~t1 =
  if t.enabled then
    let parent = match t.open_ with p :: _ -> p | [] -> -1 in
    push t { name; parent; t0; t1 }

let spans t = Array.to_list (Array.sub t.spans 0 t.len)

let duration_ms s = (s.t1 -. s.t0) *. 1e3

(* Self time of every span, in milliseconds, in recording order. *)
let self_times spans =
  let a = Array.of_list spans in
  let self = Array.map duration_ms a in
  Array.iter
    (fun s -> if s.parent >= 0 then self.(s.parent) <- self.(s.parent) -. duration_ms s)
    a;
  self

(* A ledger: the given per-layer rows plus the explicit unattributed
   remainder, which makes the rows sum to [total]. *)
let ledger ~total rows =
  let attributed = Stats.sum (List.map snd rows) in
  rows @ [ ("unattributed", total -. attributed) ]

(* The ledger of the span at index [root] of [spans]: one row per direct
   child, its duration, and the root's self time as the unattributed
   row.  The rows sum to the root's duration. *)
let ledger_of spans root =
  let a = Array.of_list spans in
  let rows =
    List.filter_map
      (fun s -> if s.parent = root then Some (s.name, duration_ms s) else None)
      spans
  in
  ledger ~total:(duration_ms a.(root)) rows

(* Replace the row [name] by [parts], shared out in proportion to their
   weights (non-negative, not all zero); the ledger's total is kept. *)
let split rows name parts =
  let w = Stats.sum (List.map snd parts) in
  List.concat_map
    (fun (n, x) ->
      if n <> name then [ (n, x) ] else List.map (fun (m, y) -> (m, x *. y /. w)) parts)
    rows

(* Chrome trace_event JSON of every recorder's spans. *)
let write_chrome path recorders =
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[";
  let first = ref true in
  List.iter
    (fun t ->
      List.iter
        (fun s ->
          if not !first then output_char oc ',';
          first := false;
          Printf.fprintf oc
            "\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f}"
            s.name t.track (s.t0 *. 1e6) ((s.t1 -. s.t0) *. 1e6))
        (spans t))
    recorders;
  output_string oc "\n]}\n";
  close_out oc
