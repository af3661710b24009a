type t = {
  root_pc : int;
  pcs : bool array;
  pc_list : int list;
  instances : int;
  avg_dynamic_length : float;
  edges : (int * int) list;
  follow_memory : bool;
  witnesses : int array array;
}

(* Dynamic instances of [pc], at most [n], evenly spaced: one scan that
   gathers every instance index, then the picks [k * total / n]. *)
let sample dyns pc n =
  let all = Vec.create ~dummy:0 () in
  Array.iteri (fun i (d : Executor.dyn) -> if d.Executor.pc = pc then Vec.push all i) dyns;
  let total = Vec.length all in
  if total <= n then Vec.to_array all else Array.init n (fun k -> Vec.get all (k * total / n))

(* One instance's walk, LIFO on an int list.  [seen] is per-pc scratch
   reused across instances: a pc is seen in this walk when
   [seen.(pc) = stamp].  Returns the expanded nodes in ascending dynamic
   order. *)
let walk dyns (deps : Deps.t) ~follow_memory ~seen ~stamp root_idx =
  let pc_of i = dyns.(i).Executor.pc in
  let push p stack =
    if p >= 0 && seen.(pc_of p) <> stamp then begin
      seen.(pc_of p) <- stamp;
      p :: stack
    end
    else stack
  in
  let rec go expanded = function
    | [] -> expanded
    | i :: stack ->
      let stack = push deps.Deps.prod1.(i) stack in
      let stack = push deps.Deps.prod2.(i) stack in
      let stack = if follow_memory then push deps.Deps.prod_mem.(i) stack else stack in
      go (i :: expanded) stack
  in
  seen.(pc_of root_idx) <- stamp;
  let nodes = Array.of_list (go [] [ root_idx ]) in
  Array.sort Int.compare nodes;
  nodes

let witness ?(follow_memory = true) (trace : Executor.t) deps ~root_idx =
  let num_pcs = Array.length trace.Executor.prog.Program.code in
  walk trace.Executor.dyns deps ~follow_memory ~seen:(Array.make num_pcs 0) ~stamp:1 root_idx

let extract ?(max_instances = 32) ?(follow_memory = true) (trace : Executor.t)
    (deps : Deps.t) ~root_pc =
  let dyns = trace.Executor.dyns in
  let num_pcs = Array.length trace.Executor.prog.Program.code in
  if root_pc < 0 || root_pc >= num_pcs then invalid_arg "Slicer.extract: bad root pc";
  let seen = Array.make num_pcs 0 in
  let witnesses =
    Array.mapi
      (fun k root_idx -> walk dyns deps ~follow_memory ~seen ~stamp:(k + 1) root_idx)
      (sample dyns root_pc max_instances)
  in
  let pcs = Array.make num_pcs false in
  pcs.(root_pc) <- true;
  let edges = Hashtbl.create 64 and total_len = ref 0 in
  Array.iter
    (fun nodes ->
      total_len := !total_len + Array.length nodes;
      Array.iter
        (fun i ->
          let pc = dyns.(i).Executor.pc in
          pcs.(pc) <- true;
          let edge p = if p >= 0 then Hashtbl.replace edges (dyns.(p).Executor.pc, pc) () in
          edge deps.Deps.prod1.(i);
          edge deps.Deps.prod2.(i);
          if follow_memory then edge deps.Deps.prod_mem.(i))
        nodes)
    witnesses;
  let instances = Array.length witnesses in
  { root_pc;
    pcs;
    pc_list = List.filter (fun pc -> pcs.(pc)) (List.init num_pcs Fun.id);
    instances;
    avg_dynamic_length =
      (if instances = 0 then 0. else float_of_int !total_len /. float_of_int instances);
    edges = List.sort compare (Hashtbl.fold (fun e () acc -> e :: acc) edges []);
    follow_memory;
    witnesses }

let size t = List.length t.pc_list

let pp fmt t =
  Format.fprintf fmt "slice root pc %d: %d static instructions (%.1f dynamic avg over %d instances)@."
    t.root_pc (size t) t.avg_dynamic_length t.instances;
  Format.fprintf fmt "  pcs: %s@."
    (String.concat ", " (List.map string_of_int t.pc_list))
