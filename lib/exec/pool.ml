exception Shut_down

(* A queued job: the thunk and the future its outcome resolves. *)
type job = Job : 'a Future.t * (unit -> 'a) -> job

let run (Job (fut, f)) =
  match f () with
  | v -> Future.fulfill fut v
  | exception exn -> Future.fail fut exn (Printexc.get_raw_backtrace ())

let abort (Job (fut, _)) = Future.fail fut Shut_down (Printexc.get_callstack 0)

type pooled = {
  workers : int;
  mutex : Mutex.t;  (* guards every mutable field below *)
  work : Condition.t;  (* a job was queued, or the pool closed *)
  joined : Condition.t;  (* the closing caller finished joining *)
  jobs : job Queue.t;
  mutable running : int;
  mutable closed : bool;  (* no more submissions; workers exit once drained *)
  mutable is_joined : bool;
  mutable domains : unit Domain.t array;
}

type t =
  | Sequential
  | Pooled of pooled

let sequential = Sequential

(* The pool whose worker the current domain is, if any: how [submit]
   recognises a job submitting to its own pool. *)
let owner : pooled option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let worker p =
  Domain.DLS.set owner (Some p);
  Mutex.lock p.mutex;
  let rec loop () =
    match Queue.take_opt p.jobs with
    | Some job ->
      p.running <- p.running + 1;
      Mutex.unlock p.mutex;
      run job;
      Mutex.lock p.mutex;
      p.running <- p.running - 1;
      loop ()
    | None when p.closed -> Mutex.unlock p.mutex
    | None ->
      Condition.wait p.work p.mutex;
      loop ()
  in
  loop ()

let create ?(workers = Domain.recommended_domain_count ()) () =
  if workers <= 0 then Sequential
  else begin
    let p =
      { workers;
        mutex = Mutex.create ();
        work = Condition.create ();
        joined = Condition.create ();
        jobs = Queue.create ();
        running = 0;
        closed = false;
        is_joined = false;
        domains = [||] }
    in
    p.domains <- Array.init workers (fun _ -> Domain.spawn (fun () -> worker p));
    Pooled p
  end

let parallelism = function
  | Sequential -> 1
  | Pooled p -> p.workers

type stats = {
  workers : int;
  queued : int;
  running : int;
}

let stats = function
  | Sequential -> { workers = 1; queued = 0; running = 0 }
  | Pooled p ->
    Mutex.lock p.mutex;
    let s =
      { workers = p.workers; queued = Queue.length p.jobs; running = p.running }
    in
    Mutex.unlock p.mutex;
    s

let submit t f =
  match t with
  | Sequential -> (
    match f () with
    | v -> Future.of_value v
    | exception exn ->
      let fut = Future.create () in
      Future.fail fut exn (Printexc.get_raw_backtrace ());
      fut)
  | Pooled p ->
    (match Domain.DLS.get owner with
    | Some q when q == p ->
      invalid_arg "Exec.Pool.submit: a job may not submit to its own pool"
    | _ -> ());
    let fut = Future.create () in
    Mutex.lock p.mutex;
    if p.closed then begin
      Mutex.unlock p.mutex;
      invalid_arg "Exec.Pool.submit: pool is shut down"
    end;
    Queue.push (Job (fut, f)) p.jobs;
    Condition.signal p.work;
    Mutex.unlock p.mutex;
    fut

let shutdown ?(drain = true) t =
  match t with
  | Sequential -> ()
  | Pooled p ->
    Mutex.lock p.mutex;
    (* An abort takes the never-started jobs off the queue, even when
       another caller is already draining, and fails them below. *)
    let dropped = Queue.create () in
    if not drain then Queue.transfer p.jobs dropped;
    let closer = not p.closed in
    p.closed <- true;
    Condition.broadcast p.work;
    Mutex.unlock p.mutex;
    Queue.iter abort dropped;
    (* Exactly one caller joins; concurrent or repeated calls wait for it
       to finish, so shutdown is idempotent and no domain is joined
       twice. *)
    if closer then begin
      Array.iter Domain.join p.domains;
      Mutex.lock p.mutex;
      p.is_joined <- true;
      Condition.broadcast p.joined
    end
    else begin
      Mutex.lock p.mutex;
      while not p.is_joined do
        Condition.wait p.joined p.mutex
      done
    end;
    Mutex.unlock p.mutex
