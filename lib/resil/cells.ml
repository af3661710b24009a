type source =
  | Computed
  | Memo_hit
  | Journal_hit

type outcome = (float array, string) result

type state =
  | Settled of outcome
  | Pending of (unit -> outcome)  (* the supervised join and its settling *)
  | Driving  (* an elected awaiter is running the [Pending] closure *)

type handle = {
  mutex : Mutex.t;
  settled : Condition.t;
  mutable state : state;
}

type t = {
  memo : (string, handle) Exec.Memo.t;
  journal : Journal.t option;
  width : int;
  pool : Exec.Pool.t;
  policy : Supervise.policy;
}

let create ?journal ~width pool policy =
  { memo = Exec.Memo.create ~size_hint:256 (); journal; width; pool; policy }

let new_handle state = { mutex = Mutex.create (); settled = Condition.create (); state }

(* ----- payload ----- *)

let encode_float v =
  let s = Printf.sprintf "%h" v in
  if Int64.equal (Int64.bits_of_float (float_of_string s)) (Int64.bits_of_float v)
  then s
  else Printf.sprintf "nan:%Lx" (Int64.bits_of_float v)

let decode_float s =
  match String.split_on_char ':' s with
  | [ "nan"; bits ] -> (
    match Int64.of_string_opt ("0x" ^ bits) with
    | Some b when Float.is_nan (Int64.float_of_bits b) -> Some (Int64.float_of_bits b)
    | _ -> None)
  | [ s ] -> float_of_string_opt s
  | _ -> None

let encode v = String.concat "," (Array.to_list (Array.map encode_float v))

let decode ~width s =
  let fields = String.split_on_char ',' s in
  if List.length fields <> width then None
  else
    let vs = List.filter_map decode_float fields in
    if List.length vs = width then Some (Array.of_list vs) else None

(* ----- journal ----- *)

let restore t key =
  match t.journal with
  | None -> None
  | Some j -> (
    match Journal.find j key with
    | None -> None
    | Some payload -> (
      match decode ~width:t.width payload with
      | Some v ->
        Log.record (Log.Restored { ident = key });
        Some v
      | None ->
        (* A digest-valid line that does not parse: a foreign writer. *)
        Log.record
          (Log.Quarantined
             { ident = key;
               reason =
                 Printf.sprintf "journalled cell payload is not %d float(s)"
                   t.width });
        None))

let checkpoint t key v =
  match t.journal with
  | None -> ()
  | Some j -> (
    try Journal.record j ~key ~payload:(encode v)
    with exn ->
      Log.record
        (Log.Quarantined
           { ident = key; reason = "cell checkpoint failed: " ^ Printexc.to_string exn }))

(* ----- settling ----- *)

let settle t key job () =
  match Supervise.join job with
  | Ok v ->
    checkpoint t key v;
    Ok v
  | Error e ->
    let error = Supervise.error_to_string e in
    Exec.Memo.remove t.memo key;
    Log.record (Log.Degraded { ident = key; error });
    Error error

let await h =
  Mutex.lock h.mutex;
  let rec wait () =
    match h.state with
    | Settled r ->
      Mutex.unlock h.mutex;
      r
    | Driving ->
      Condition.wait h.settled h.mutex;
      wait ()
    | Pending drive ->
      h.state <- Driving;
      Mutex.unlock h.mutex;
      (* Supervise.join polls with short sleeps, so driving it from a
         system thread never starves the worker domains.  [settle] never
         raises. *)
      let r = drive () in
      Mutex.lock h.mutex;
      h.state <- Settled r;
      Condition.broadcast h.settled;
      Mutex.unlock h.mutex;
      r
  in
  wait ()

let acquire t ~key thunk =
  let source = ref Memo_hit in
  let h =
    Exec.Memo.find_or_run t.memo key (fun () ->
        match restore t key with
        | Some v ->
          source := Journal_hit;
          new_handle (Settled (Ok v))
        | None ->
          source := Computed;
          let job = Supervise.spawn t.pool t.policy ~ident:key thunk in
          new_handle (Pending (settle t key job)))
  in
  (* Settle outside [find_or_run]: a failure evicts the entry, which
     only works once it is published. *)
  if !source = Computed && Exec.Pool.parallelism t.pool <= 1 then ignore (await h);
  (!source, h)

let memo_stats t = Exec.Memo.stats t.memo

let journal_size t = match t.journal with Some j -> Journal.size j | None -> 0
