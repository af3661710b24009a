(* Position of dynamic node [p] in [witness.(lo..hi)], ascending, or -1. *)
let rec find witness p lo hi =
  if lo > hi then -1
  else
    let mid = (lo + hi) / 2 in
    if witness.(mid) = p then mid
    else if witness.(mid) < p then find witness p (mid + 1) hi
    else find witness p lo (mid - 1)

(* Path latencies over one walk witness, in flat arrays indexed by the
   node's position in the witness: up = longest path from a leaf to the
   node, down = longest path from the node to the root.  Ascending
   dynamic order is a topological order (producers precede), so a
   producer of the [k]-th node is in the witness exactly when it is found
   among the first [k].  Calls [f longest i through] on every node [i],
   where through = up + down - latency and [longest] is the root's up
   (the instance's longest path, which bounds every through); returns
   [longest].  [up] and [down] are scratch, at least as long as
   [witness]. *)
let fold_through (deps : Deps.t) ~follow_memory ~latency_of ~up ~down witness f =
  let n = Array.length witness in
  let pos k p = if p < 0 then -1 else find witness p 0 (k - 1) in
  let up_of k p =
    let j = pos k p in
    if j < 0 then 0 else up.(j)
  in
  let lengthen k p d =
    let j = pos k p in
    if j >= 0 then down.(j) <- Int.max down.(j) (latency_of p + d)
  in
  for k = 0 to n - 1 do
    let i = witness.(k) in
    let best = Int.max (up_of k deps.Deps.prod1.(i)) (up_of k deps.Deps.prod2.(i)) in
    let best = if follow_memory then Int.max best (up_of k deps.Deps.prod_mem.(i)) else best in
    up.(k) <- latency_of i + best;
    down.(k) <- latency_of i
  done;
  for k = n - 1 downto 0 do
    let i = witness.(k) in
    lengthen k deps.Deps.prod1.(i) down.(k);
    lengthen k deps.Deps.prod2.(i) down.(k);
    if follow_memory then lengthen k deps.Deps.prod_mem.(i) down.(k)
  done;
  let longest = if n = 0 then 0 else up.(n - 1) in
  Array.iteri (fun k i -> f longest i (up.(k) + down.(k) - latency_of i)) witness;
  longest

let filter_slice ?(theta = 0.6) (trace : Executor.t) deps (slice : Slicer.t) ~latency_of
    =
  let dyns = trace.Executor.dyns in
  let keep = Array.make (Array.length slice.Slicer.pcs) false in
  keep.(slice.Slicer.root_pc) <- true;
  let len = Array.fold_left (fun m w -> max m (Array.length w)) 0 slice.Slicer.witnesses in
  let up = Array.make len 0 and down = Array.make len 0 in
  Array.iter
    (fun witness ->
      ignore
        (fold_through deps ~follow_memory:slice.Slicer.follow_memory ~latency_of ~up ~down
           witness (fun longest i through ->
             if float_of_int through >= theta *. float_of_int longest then
               keep.(dyns.(i).Executor.pc) <- true)))
    slice.Slicer.witnesses;
  keep

let filter ?max_instances ?follow_memory ?theta trace deps ~root_pc ~latency_of =
  filter_slice ?theta trace deps
    (Slicer.extract ?max_instances ?follow_memory trace deps ~root_pc)
    ~latency_of

let longest_path ?(follow_memory = true) trace deps ~root_idx ~latency_of =
  let witness = Slicer.witness ~follow_memory trace deps ~root_idx in
  let n = Array.length witness in
  fold_through deps ~follow_memory ~latency_of ~up:(Array.make n 0) ~down:(Array.make n 0)
    witness (fun _ _ _ -> ())
