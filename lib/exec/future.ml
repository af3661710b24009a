type 'a t = {
  mutex : Mutex.t;
  cond : Condition.t;
  mutable state : ('a, exn * Printexc.raw_backtrace) result option;
}

let create () = { mutex = Mutex.create (); cond = Condition.create (); state = None }

let of_value v =
  { mutex = Mutex.create (); cond = Condition.create (); state = Some (Ok v) }

let resolve t resolution =
  Mutex.lock t.mutex;
  match t.state with
  | Some _ ->
    Mutex.unlock t.mutex;
    invalid_arg "Future: already resolved"
  | None ->
    t.state <- Some resolution;
    Condition.broadcast t.cond;
    Mutex.unlock t.mutex

let fulfill t v = resolve t (Ok v)

let fail t exn bt = resolve t (Error (exn, bt))

let await t =
  Mutex.lock t.mutex;
  let rec wait () =
    match t.state with
    | Some r ->
      Mutex.unlock t.mutex;
      (match r with
      | Ok v -> v
      | Error (exn, bt) -> Printexc.raise_with_backtrace exn bt)
    | None ->
      Condition.wait t.cond t.mutex;
      wait ()
  in
  wait ()

let poll t =
  Mutex.lock t.mutex;
  let r = Option.map (Result.map_error fst) t.state in
  Mutex.unlock t.mutex;
  r
