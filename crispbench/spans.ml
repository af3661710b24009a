(* In-memory span recorder for the traced benchmark run.

   Spans are opened by the benchmark around its calls into the library
   layers; nothing inside lib/ is instrumented.  Each span records its
   name, layer, start/end in integer nanoseconds (so self-time arithmetic
   is exact), its parent, the cell or request id it belongs to, and the
   minor words allocated while it was open. *)

type span = {
  id : int;
  name : string;
  layer : string;
  parent : int;  (* -1 for a root *)
  cell : string;
  start_ns : int;
  mutable end_ns : int;
  minor0 : float;
  mutable minor1 : float;
}

let enabled = ref false
let recorded : span list ref = ref []
let next_id = ref 0
let stack : span list ref = ref []

(* Relative to process start, so a double still resolves nanoseconds. *)
let epoch = Resil.Clock.now ()
let now_ns () = int_of_float ((Resil.Clock.now () -. epoch) *. 1e9)

let reset () =
  recorded := [];
  next_id := 0;
  stack := []

let current_cell () = match !stack with s :: _ -> s.cell | [] -> ""

(* [with_span ~layer name f] runs [f], recording a span when tracing is
   enabled; untraced it is a direct call.  [cell] defaults to the
   enclosing span's id. *)
let with_span ?cell ~layer name f =
  if not !enabled then f ()
  else begin
    let parent = match !stack with s :: _ -> s.id | [] -> -1 in
    let cell = match cell with Some c -> c | None -> current_cell () in
    let s =
      { id = !next_id; name; layer; parent; cell; start_ns = now_ns (); end_ns = 0;
        minor0 = Gc.minor_words (); minor1 = 0. }
    in
    incr next_id;
    stack := s :: !stack;
    let close () =
      s.minor1 <- Gc.minor_words ();
      s.end_ns <- now_ns ();
      stack := List.tl !stack;
      recorded := s :: !recorded
    in
    Fun.protect ~finally:close f
  end

let all () = List.rev !recorded

let dur s = s.end_ns - s.start_ns

(* Self time and self minor words: the span minus its direct children.
   Children of one span never overlap (the recorder is single-threaded
   and strictly nested), so this is the part of the interval no child
   covers. *)
type self = { span : span; self_ns : int; self_minor : float }

let selves spans =
  let child_ns = Hashtbl.create 256 and child_minor = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then begin
        let ns = Option.value ~default:0 (Hashtbl.find_opt child_ns s.parent) in
        Hashtbl.replace child_ns s.parent (ns + dur s);
        let mw = Option.value ~default:0. (Hashtbl.find_opt child_minor s.parent) in
        Hashtbl.replace child_minor s.parent (mw +. (s.minor1 -. s.minor0))
      end)
    spans;
  List.map
    (fun s ->
      { span = s;
        self_ns = dur s - Option.value ~default:0 (Hashtbl.find_opt child_ns s.id);
        self_minor =
          s.minor1 -. s.minor0
          -. Option.value ~default:0. (Hashtbl.find_opt child_minor s.id) })
    spans

(* Structural invariants the smoke test asserts: every child lies inside
   its parent, and self times sum to the roots' total. *)
let check spans =
  let by_id = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  let errors = ref [] in
  List.iter
    (fun s ->
      if s.end_ns < s.start_ns then
        errors := Printf.sprintf "span %s ends before it starts" s.name :: !errors;
      match Hashtbl.find_opt by_id s.parent with
      | Some p when s.start_ns < p.start_ns || s.end_ns > p.end_ns ->
        errors := Printf.sprintf "span %s exceeds its parent %s" s.name p.name :: !errors
      | Some _ -> ()
      | None ->
        if s.parent >= 0 then
          errors := Printf.sprintf "span %s has no recorded parent" s.name :: !errors)
    spans;
  let total = List.fold_left (fun n s -> if s.parent < 0 then n + dur s else n) 0 spans in
  let self_sum = List.fold_left (fun n x -> n + x.self_ns) 0 (selves spans) in
  if self_sum <> total then
    errors :=
      Printf.sprintf "self times sum to %d ns, traced total is %d ns" self_sum total
      :: !errors;
  List.rev !errors

let to_json s =
  Obs_json.Obj
    [ ("id", Obs_json.num_int s.id);
      ("name", Obs_json.Str s.name);
      ("layer", Obs_json.Str s.layer);
      ("parent", Obs_json.num_int s.parent);
      ("cell", Obs_json.Str s.cell);
      ("start_ns", Obs_json.num_int s.start_ns);
      ("end_ns", Obs_json.num_int s.end_ns);
      ("minor_words", Obs_json.Num (s.minor1 -. s.minor0)) ]
