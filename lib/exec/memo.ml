type 'v entry =
  | Ready of 'v
  | In_flight of 'v Future.t

type stats = {
  hits : int;
  misses : int;
  dedups : int;
  evictions : int;
  entries : int;
}

type ('k, 'v) t = {
  mutex : Mutex.t;
  table : ('k, 'v entry) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
  mutable dedups : int;
  mutable evictions : int;
}

let create ?(size_hint = 64) () =
  { mutex = Mutex.create ();
    table = Hashtbl.create size_hint;
    hits = 0;
    misses = 0;
    dedups = 0;
    evictions = 0 }

let find_or_run t key f =
  Mutex.lock t.mutex;
  match Hashtbl.find_opt t.table key with
  | Some (Ready v) ->
    t.hits <- t.hits + 1;
    Mutex.unlock t.mutex;
    v
  | Some (In_flight fut) ->
    t.dedups <- t.dedups + 1;
    Mutex.unlock t.mutex;
    Future.await fut
  | None -> (
    t.misses <- t.misses + 1;
    let fut = Future.create () in
    Hashtbl.replace t.table key (In_flight fut);
    Mutex.unlock t.mutex;
    match f () with
    | v ->
      Mutex.lock t.mutex;
      Hashtbl.replace t.table key (Ready v);
      Mutex.unlock t.mutex;
      Future.fulfill fut v;
      v
    | exception exn ->
      let bt = Printexc.get_raw_backtrace () in
      Mutex.lock t.mutex;
      Hashtbl.remove t.table key;
      Mutex.unlock t.mutex;
      Future.fail fut exn bt;
      Printexc.raise_with_backtrace exn bt)

let remove t key =
  Mutex.lock t.mutex;
  (match Hashtbl.find_opt t.table key with
  | Some (Ready _) ->
    Hashtbl.remove t.table key;
    t.evictions <- t.evictions + 1
  | Some (In_flight _) | None -> ());
  Mutex.unlock t.mutex

let ready table =
  Hashtbl.fold (fun _ e n -> match e with Ready _ -> n + 1 | In_flight _ -> n) table 0

let clear t =
  Mutex.lock t.mutex;
  t.evictions <- t.evictions + ready t.table;
  (* Keep in-flight entries: their computations will still publish, and
     dropping them would let a concurrent duplicate start. *)
  Hashtbl.filter_map_inplace
    (fun _ e -> match e with Ready _ -> None | In_flight _ -> Some e)
    t.table;
  Mutex.unlock t.mutex

let stats t =
  Mutex.lock t.mutex;
  let s =
    { hits = t.hits;
      misses = t.misses;
      dedups = t.dedups;
      evictions = t.evictions;
      entries = ready t.table }
  in
  Mutex.unlock t.mutex;
  s

let length t = (stats t).entries
