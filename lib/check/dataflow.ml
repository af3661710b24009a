(* Worklist dataflow over the micro-op CFG.  Abstract arithmetic here
   must stay an over-approximation of Trace.Executor's native-int
   semantics: wrap-around on overflow, logical right shift, x/0 = 0.
   Whenever a result could wrap, the interval collapses to top rather
   than saturating — a saturated bound would *exclude* the wrapped
   value and be unsound. *)

(* ------------------------------------------------------------------ *)
(* CFG                                                                 *)
(* ------------------------------------------------------------------ *)

module Cfg = struct
  type t = {
    code : Program.decoded array;
    succ : int array array;
    pred : int array array;
    reachable : bool array;
    order : int array;
    exits : bool array;
    back_edges : (int * int) list;
  }

  (* Raw control targets, before clipping to [0, n): a target of [n]
     (or a fall-through off the end) leaves the program. *)
  let raw_targets (code : Program.decoded array) pc =
    let d = code.(pc) in
    let next = pc + 1 in
    let targets =
      match d.Program.op with
      | Isa.Halt | Isa.Ret -> []
      | Isa.Jump | Isa.Call -> [ d.Program.target ]
      | Isa.Branch _ -> [ next; d.Program.target ]
      | _ -> [ next ]
    in
    match d.Program.op with Isa.Call -> next :: targets | _ -> targets

  let build code =
    let n = Array.length code in
    let inside p = p >= 0 && p < n in
    let succ =
      Array.init n (fun pc ->
          Array.of_list (List.filter inside (raw_targets code pc)))
    in
    let exits =
      Array.init n (fun pc ->
          match code.(pc).Program.op with
          | Isa.Halt | Isa.Ret -> true
          | _ -> List.exists (fun p -> not (inside p)) (raw_targets code pc))
    in
    let pred_lists = Array.make n [] in
    Array.iteri
      (fun pc ss ->
        Array.iter (fun s -> pred_lists.(s) <- pc :: pred_lists.(s)) ss)
      succ;
    let pred = Array.map (fun l -> Array.of_list (List.rev l)) pred_lists in
    (* Iterative DFS from the entry: reachability, postorder, and back
       edges (retreating edges to a node still on the DFS stack). *)
    let reachable = Array.make n false in
    let on_stack = Array.make n false in
    let post = ref [] in
    let back = ref [] in
    let rec visit pc =
      reachable.(pc) <- true;
      on_stack.(pc) <- true;
      Array.iter
        (fun s ->
          if on_stack.(s) then back := (pc, s) :: !back
          else if not reachable.(s) then visit s)
        succ.(pc);
      on_stack.(pc) <- false;
      post := pc :: !post
    in
    if n > 0 then visit 0;
    { code;
      succ;
      pred;
      reachable;
      order = Array.of_list !post;
      exits;
      back_edges = List.rev !back }

  let loop_headers t =
    let n = Array.length t.code in
    let h = Array.make n false in
    List.iter (fun (_, header) -> h.(header) <- true) t.back_edges;
    h

  (* Natural loop of a back edge (u -> h): h plus everything that
     reaches u without passing through h.  Bodies sharing a header are
     merged. *)
  let loops t =
    let n = Array.length t.code in
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun (u, h) ->
        let body =
          match Hashtbl.find_opt tbl h with
          | Some b -> b
          | None ->
            let b = Array.make n false in
            b.(h) <- true;
            Hashtbl.add tbl h b;
            b
        in
        let stack = ref [ u ] in
        while !stack <> [] do
          match !stack with
          | [] -> ()
          | x :: rest ->
            stack := rest;
            if not body.(x) then begin
              body.(x) <- true;
              Array.iter (fun p -> stack := p :: !stack) t.pred.(x)
            end
        done)
      t.back_edges;
    let size b = Array.fold_left (fun acc x -> if x then acc + 1 else acc) 0 b in
    Hashtbl.fold (fun h b acc -> (h, b) :: acc) tbl []
    |> List.sort (fun (h1, b1) (h2, b2) ->
           let c = compare (size b1) (size b2) in
           if c <> 0 then c else compare h1 h2)

  let innermost t pc =
    List.find_opt (fun (_, body) -> pc < Array.length body && body.(pc)) (loops t)
end

(* ------------------------------------------------------------------ *)
(* Solver                                                              *)
(* ------------------------------------------------------------------ *)

type direction =
  | Forward
  | Backward

module type DOMAIN = sig
  type t

  val equal : t -> t -> bool

  val join : t -> t -> t

  val widen : prev:t -> t -> t

  val transfer : pc:int -> Program.decoded -> t -> t

  val edge : pc:int -> Program.decoded -> succ:int -> t -> t option
end

type 'fact result = {
  before : 'fact array;
  after : 'fact array;
  iterations : int;
}

module Solver (D : DOMAIN) = struct
  let solve ?(direction = Forward) ?(widen_delay = 4) (cfg : Cfg.t) ~init ~entry =
    let code = cfg.Cfg.code in
    let n = Array.length code in
    let before = Array.make n init in
    let after = Array.make n init in
    if n = 0 then { before; after; iterations = 0 }
    else begin
      let into, from =
        (* [into.(pc)]: nodes whose [after] feeds pc's input;
           [from.(pc)]: nodes to revisit when pc's [after] changes. *)
        match direction with
        | Forward -> (cfg.Cfg.pred, cfg.Cfg.succ)
        | Backward -> (cfg.Cfg.succ, cfg.Cfg.pred)
      in
      let seeded pc =
        match direction with
        | Forward -> pc = 0
        | Backward -> cfg.Cfg.exits.(pc)
      in
      let input pc =
        let acc = ref (if seeded pc then entry else init) in
        Array.iter
          (fun p ->
            match direction with
            | Backward -> acc := D.join !acc after.(p)
            | Forward -> (
              match D.edge ~pc:p code.(p) ~succ:pc after.(p) with
              | None -> ()
              | Some fact -> acc := D.join !acc fact))
          into.(pc);
        !acc
      in
      let changes = Array.make n 0 in
      let on_queue = Array.make n false in
      let queue = Queue.create () in
      let push pc =
        if not on_queue.(pc) then begin
          on_queue.(pc) <- true;
          Queue.add pc queue
        end
      in
      (* Seed every reachable node in (reverse for Backward) postorder
         so the first sweep visits producers before consumers. *)
      (match direction with
      | Forward -> Array.iter push cfg.Cfg.order
      | Backward ->
        for i = Array.length cfg.Cfg.order - 1 downto 0 do
          push cfg.Cfg.order.(i)
        done);
      let iterations = ref 0 in
      while not (Queue.is_empty queue) do
        let pc = Queue.pop queue in
        on_queue.(pc) <- false;
        incr iterations;
        let cand = D.join before.(pc) (input pc) in
        let cand =
          if changes.(pc) >= widen_delay then D.widen ~prev:before.(pc) cand
          else cand
        in
        if not (D.equal cand before.(pc)) then begin
          changes.(pc) <- changes.(pc) + 1;
          before.(pc) <- cand
        end;
        let out = D.transfer ~pc code.(pc) before.(pc) in
        if not (D.equal out after.(pc)) then begin
          after.(pc) <- out;
          Array.iter push from.(pc)
        end
      done;
      { before; after; iterations = !iterations }
    end
end

(* ------------------------------------------------------------------ *)
(* Intervals                                                           *)
(* ------------------------------------------------------------------ *)

module Interval = struct
  type t = {
    lo : int;
    hi : int;
  }

  let top = { lo = min_int; hi = max_int }

  let const c = { lo = c; hi = c }

  let make lo hi = if lo <= hi then { lo; hi } else { lo = hi; hi = lo }

  let is_const i = if i.lo = i.hi then Some i.lo else None

  let mem v i = i.lo <= v && v <= i.hi

  let equal a b = a.lo = b.lo && a.hi = b.hi

  let join a b = { lo = min a.lo b.lo; hi = max a.hi b.hi }

  let meet a b =
    let lo = max a.lo b.lo and hi = min a.hi b.hi in
    if lo <= hi then Some { lo; hi } else None

  let widen ~prev cand =
    { lo = (if cand.lo < prev.lo then min_int else cand.lo);
      hi = (if cand.hi > prev.hi then max_int else cand.hi) }

  let bounded i = i.lo > min_int && i.hi < max_int

  let width i =
    if not (bounded i) then None
    else
      let w = i.hi - i.lo + 1 in
      if w > 0 then Some w else None

  (* Checked native arithmetic: None on overflow. *)
  let checked_add a b =
    let s = a + b in
    if a >= 0 = (b >= 0) && s >= 0 <> (a >= 0) then None else Some s

  let checked_sub a b =
    let s = a - b in
    if a >= 0 <> (b >= 0) && s >= 0 <> (a >= 0) then None else Some s

  let checked_mul a b =
    if a = 0 || b = 0 then Some 0
    else if (a = -1 && b = min_int) || (b = -1 && a = min_int) then None
    else
      let p = a * b in
      if p / a = b then Some p else None

  (* Singletons evaluate through the exact executor operation (wrap
     included), so constant facts match the executor bit-for-bit. *)
  let exact f a b =
    match (is_const a, is_const b) with
    | Some x, Some y -> Some (const (f x y))
    | _ -> None

  let add a b =
    match exact ( + ) a b with
    | Some r -> r
    | None -> (
      match (checked_add a.lo b.lo, checked_add a.hi b.hi) with
      | Some lo, Some hi -> { lo; hi }
      | _ -> top)

  let sub a b =
    match exact ( - ) a b with
    | Some r -> r
    | None -> (
      match (checked_sub a.lo b.hi, checked_sub a.hi b.lo) with
      | Some lo, Some hi -> { lo; hi }
      | _ -> top)

  let mul a b =
    match exact ( * ) a b with
    | Some r -> r
    | None ->
      let corners =
        [ checked_mul a.lo b.lo; checked_mul a.lo b.hi; checked_mul a.hi b.lo;
          checked_mul a.hi b.hi ]
      in
      if List.exists (fun c -> c = None) corners then top
      else
        let vs = List.filter_map Fun.id corners in
        { lo = List.fold_left min max_int vs; hi = List.fold_left max min_int vs }

  let div a b =
    match exact (fun x y -> if y = 0 then 0 else x / y) a b with
    | Some r -> r
    | None ->
      if a.lo = min_int && mem (-1) b then top
      else begin
        (* Quotient extrema occur at the corners of [a] against the
           divisor endpoints and the ±1 nearest zero. *)
        let divisors =
          List.filter (fun d -> d <> 0 && mem d b) [ b.lo; b.hi; -1; 1 ]
        in
        let quotients =
          List.concat_map (fun d -> [ a.lo / d; a.hi / d ]) divisors
        in
        let quotients = if mem 0 b then 0 :: quotients else quotients in
        match quotients with
        | [] -> const 0 (* divisor can only be 0 *)
        | q :: rest ->
          { lo = List.fold_left min q rest; hi = List.fold_left max q rest }
      end

  (* x land m ∈ [0, m] for any x once m >= 0 (masking keeps only m's
     bits); with both sides non-negative the tighter hi of each side
     applies. *)
  let band a b =
    match exact ( land ) a b with
    | Some r -> r
    | None ->
      if a.lo >= 0 && b.lo >= 0 then { lo = 0; hi = min a.hi b.hi }
      else if a.lo >= 0 then { lo = 0; hi = a.hi }
      else if b.lo >= 0 then { lo = 0; hi = b.hi }
      else top

  (* Smallest all-ones mask covering m, for the or/xor upper bound. *)
  let bits_mask m =
    let rec grow mask = if mask >= m then mask else grow ((mask * 2) + 1) in
    if m > max_int / 2 then max_int else grow 0

  let bor a b =
    match exact ( lor ) a b with
    | Some r -> r
    | None ->
      if a.lo >= 0 && b.lo >= 0 then
        { lo = max a.lo b.lo; hi = bits_mask (max a.hi b.hi) }
      else top

  let bxor a b =
    match exact ( lxor ) a b with
    | Some r -> r
    | None ->
      if a.lo >= 0 && b.lo >= 0 then { lo = 0; hi = bits_mask (max a.hi b.hi) }
      else top

  let shl a b =
    match exact (fun x y -> x lsl (y land 63)) a b with
    | Some r -> r
    | None -> (
      match is_const b with
      | Some s ->
        let s = s land 63 in
        if s = 0 then a
        else if a.lo >= 0 && a.hi <= max_int asr s then
          { lo = a.lo lsl s; hi = a.hi lsl s }
        else top
      | None -> top)

  let shr a b =
    match exact (fun x y -> x lsr (y land 63)) a b with
    | Some r -> r
    | None -> (
      match is_const b with
      | Some s ->
        let s = s land 63 in
        if s = 0 then a
        else if a.lo >= 0 then { lo = a.lo lsr s; hi = a.hi lsr s }
        else { lo = 0; hi = max_int } (* lsr of a negative is a large positive *)
      | None -> top)

  let cmp a b =
    match exact compare a b with
    | Some r -> r
    | None ->
      if a.hi < b.lo then const (-1)
      else if a.lo > b.hi then const 1
      else { lo = -1; hi = 1 }

  let alu kind a b =
    match kind with
    | Isa.Add -> add a b
    | Isa.Sub -> sub a b
    | Isa.And -> band a b
    | Isa.Or -> bor a b
    | Isa.Xor -> bxor a b
    | Isa.Shl -> shl a b
    | Isa.Shr -> shr a b
    | Isa.Cmp -> cmp a b
    | Isa.Mov -> a

  let negate = function
    | Isa.Eq -> Isa.Ne
    | Isa.Ne -> Isa.Eq
    | Isa.Lt -> Isa.Ge
    | Isa.Ge -> Isa.Lt
    | Isa.Le -> Isa.Gt
    | Isa.Gt -> Isa.Le

  let rec refine cond ~taken a b =
    if not taken then refine (negate cond) ~taken:true a b
    else
      match cond with
      | Isa.Eq -> (
        match meet a b with
        | None -> None
        | Some m -> Some (m, m))
      | Isa.Ne -> (
        match (is_const a, is_const b) with
        | Some x, Some y -> if x = y then None else Some (a, b)
        | Some x, None ->
          if equal b (const x) then None
          else
            let b =
              if b.lo = x then { b with lo = x + 1 }
              else if b.hi = x then { b with hi = x - 1 }
              else b
            in
            Some (a, b)
        | None, Some y ->
          if equal a (const y) then None
          else
            let a =
              if a.lo = y then { a with lo = y + 1 }
              else if a.hi = y then { a with hi = y - 1 }
              else a
            in
            Some (a, b)
        | None, None -> Some (a, b))
      | Isa.Lt ->
        if b.hi = min_int || a.lo = max_int then None
        else begin
          match
            (meet a { lo = min_int; hi = b.hi - 1 },
             meet b { lo = a.lo + 1; hi = max_int })
          with
          | Some a, Some b -> Some (a, b)
          | _ -> None
        end
      | Isa.Le -> (
        match (meet a { lo = min_int; hi = b.hi }, meet b { lo = a.lo; hi = max_int })
        with
        | Some a, Some b -> Some (a, b)
        | _ -> None)
      | Isa.Gt ->
        if a.hi = min_int || b.lo = max_int then None
        else begin
          match
            (meet a { lo = b.lo + 1; hi = max_int },
             meet b { lo = min_int; hi = a.hi - 1 })
          with
          | Some a, Some b -> Some (a, b)
          | _ -> None
        end
      | Isa.Ge -> (
        match (meet a { lo = b.lo; hi = max_int }, meet b { lo = min_int; hi = a.hi })
        with
        | Some a, Some b -> Some (a, b)
        | _ -> None)

  let pp fmt i =
    if equal i top then Format.fprintf fmt "⊤"
    else
      match is_const i with
      | Some c -> Format.fprintf fmt "%d" c
      | None ->
        Format.fprintf fmt "[%s, %s]"
          (if i.lo = min_int then "-inf" else string_of_int i.lo)
          (if i.hi = max_int then "+inf" else string_of_int i.hi)
end

(* ------------------------------------------------------------------ *)
(* Value ranges                                                        *)
(* ------------------------------------------------------------------ *)

module Ranges = struct
  type t =
    | Unreached
    | Env of Interval.t array

  let equal a b =
    match (a, b) with
    | Unreached, Unreached -> true
    | Env x, Env y -> Array.for_all2 Interval.equal x y
    | _ -> false

  let join a b =
    match (a, b) with
    | Unreached, x | x, Unreached -> x
    | Env x, Env y -> Env (Array.map2 Interval.join x y)

  let widen ~prev cand =
    match (prev, cand) with
    | Unreached, x | x, Unreached -> x
    | Env p, Env c -> Env (Array.map2 (fun prev c -> Interval.widen ~prev c) p c)

  let operand2 env (d : Program.decoded) =
    if d.Program.src2 >= 0 then env.(d.Program.src2)
    else Interval.const d.Program.imm

  let transfer ~pc:_ (d : Program.decoded) fact =
    match fact with
    | Unreached -> Unreached
    | Env env ->
      let result =
        match d.Program.op with
        | Isa.Li -> Some (Interval.const d.Program.imm)
        | Isa.Alu kind -> Some (Interval.alu kind env.(d.Program.src1) (operand2 env d))
        | Isa.Mul | Isa.Fp_mul ->
          Some (Interval.mul env.(d.Program.src1) (operand2 env d))
        | Isa.Div | Isa.Fp_div ->
          Some (Interval.div env.(d.Program.src1) (operand2 env d))
        | Isa.Fp_add -> Some (Interval.add env.(d.Program.src1) (operand2 env d))
        | Isa.Load -> Some Interval.top
        | _ -> None
      in
      (match result with
      | Some v when d.Program.dst >= 0 ->
        let out = Array.copy env in
        out.(d.Program.dst) <- v;
        Env out
      | _ -> fact)

  (* Branch-edge refinement: the fact flowing to [succ] is constrained
     by the branch outcome that selects that edge.  A degenerate branch
     whose target *is* the fall-through gets no refinement — both
     outcomes reach the same successor. *)
  let edge ~pc (d : Program.decoded) ~succ fact =
    match (fact, d.Program.op) with
    | Unreached, _ -> None
    | Env env, Isa.Branch cond when d.Program.target <> pc + 1 ->
      let taken = succ = d.Program.target in
      let a = env.(d.Program.src1) in
      let b = operand2 env d in
      (match Interval.refine cond ~taken a b with
      | None -> None
      | Some (a', b') ->
        let out = Array.copy env in
        out.(d.Program.src1) <- a';
        if d.Program.src2 >= 0 then out.(d.Program.src2) <- b';
        Some (Env out))
    | _ -> Some fact

  let entry_of reg_init =
    let env = Array.make Isa.num_regs (Interval.const 0) in
    List.iter
      (fun (r, v) -> if r >= 0 && r < Isa.num_regs then env.(r) <- Interval.const v)
      reg_init;
    Env env

  let entry_unknown reg_init =
    let env = Array.make Isa.num_regs (Interval.const 0) in
    List.iter
      (fun (r, _) -> if r >= 0 && r < Isa.num_regs then env.(r) <- Interval.top)
      reg_init;
    Env env

  let get fact r =
    match fact with
    | Unreached -> None
    | Env env -> if r >= 0 && r < Array.length env then Some env.(r) else None

  let addr_interval fact (d : Program.decoded) =
    let base =
      match d.Program.op with
      | Isa.Load | Isa.Prefetch -> Some d.Program.src1
      | Isa.Store -> Some d.Program.src2
      | _ -> None
    in
    match (fact, base) with
    | Env env, Some r when r >= 0 && r < Array.length env ->
      Some (Interval.add env.(r) (Interval.const d.Program.imm))
    | _ -> None
end

(* ------------------------------------------------------------------ *)
(* Reaching definitions                                                *)
(* ------------------------------------------------------------------ *)

module Reaching = struct
  module S = Set.Make (Int)

  type t = S.t array

  let equal a b = Array.for_all2 S.equal a b

  let join a b = Array.map2 S.union a b

  let widen ~prev:_ cand = cand (* finite lattice *)

  let transfer ~pc (d : Program.decoded) fact =
    if d.Program.dst >= 0 then begin
      let out = Array.copy fact in
      out.(d.Program.dst) <- S.singleton pc;
      out
    end
    else fact

  let edge ~pc:_ _ ~succ:_ fact = Some fact

  let entry () = Array.make Isa.num_regs (S.singleton (-1))

  let init () = Array.make Isa.num_regs S.empty
end

(* ------------------------------------------------------------------ *)
(* Liveness                                                            *)
(* ------------------------------------------------------------------ *)

module Live = struct
  type t = bool array

  let equal a b = a = b

  let join a b = Array.map2 ( || ) a b

  let widen ~prev:_ cand = cand

  (* Backward: live-in = (live-out \ dst) ∪ uses.  A return continues
     in an unknown caller, so everything is live across it; only Halt
     (or falling off the end) is a true program exit. *)
  let transfer ~pc:_ (d : Program.decoded) out =
    match d.Program.op with
    | Isa.Ret -> Array.make Isa.num_regs true
    | _ ->
      let inn = Array.copy out in
      if d.Program.dst >= 0 then inn.(d.Program.dst) <- false;
      if d.Program.src1 >= 0 then inn.(d.Program.src1) <- true;
      if d.Program.src2 >= 0 then inn.(d.Program.src2) <- true;
      inn

  let edge ~pc:_ _ ~succ:_ fact = Some fact

  let init () = Array.make Isa.num_regs false
end

(* ------------------------------------------------------------------ *)
(* Footprint                                                           *)
(* ------------------------------------------------------------------ *)

module Footprint = struct
  type t = Interval.t option array

  let compute (cfg : Cfg.t) ~(ranges : Ranges.t result) =
    Array.mapi
      (fun pc d -> Ranges.addr_interval ranges.before.(pc) d)
      cfg.Cfg.code

  let may_overlap (a : Interval.t) (b : Interval.t) =
    not (a.Interval.hi < b.Interval.lo || b.Interval.hi < a.Interval.lo)
end
