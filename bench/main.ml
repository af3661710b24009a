(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 5) as text.

   Usage:
     dune exec bench/main.exe                -- everything
     dune exec bench/main.exe fig7 fig8      -- selected figures
     dune exec bench/main.exe --eval N --train M fig9
     dune exec bench/main.exe --jobs 8 fig7  -- grid cells on 8 worker domains

   --jobs 0 (the default) uses one worker per recommended core; --jobs 1
   bypasses the pool and runs sequentially.  Figure text is byte-identical
   for every value.

   --supervised runs every figure under the resilience layer: a figure
   that crashes is logged and skipped (marker line + nonzero exit)
   instead of killing the whole sweep.
*)

let () =
  let args = Array.to_list Sys.argv in
  let jobs = ref 0 in
  let supervised = ref false in
  let rec parse sizes figures = function
    | [] -> (sizes, List.rev figures)
    | "--eval" :: n :: rest ->
      parse { sizes with Experiments.eval_instrs = int_of_string n } figures rest
    | "--train" :: n :: rest ->
      parse { sizes with Experiments.train_instrs = int_of_string n } figures rest
    | "--jobs" :: n :: rest ->
      jobs := int_of_string n;
      parse sizes figures rest
    | "--supervised" :: rest ->
      supervised := true;
      parse sizes figures rest
    | arg :: rest -> parse sizes (arg :: figures) rest
  in
  let sizes, figures =
    match args with
    | _ :: rest -> parse Experiments.default_sizes [] rest
    | [] -> (Experiments.default_sizes, [])
  in
  let jobs = if !jobs <= 0 then Domain.recommended_domain_count () else !jobs in
  let pool =
    if jobs <= 1 then Exec.Pool.sequential else Exec.Pool.create ~workers:jobs ()
  in
  Experiments.set_pool pool;
  at_exit (fun () -> Exec.Pool.shutdown pool);
  let run_one = function
    | "table1" -> Experiments.table1 ()
    | "motivating" -> ignore (Experiments.motivating ~sizes ())
    | "fig1" -> ignore (Experiments.fig1 ~sizes ())
    | "fig3" -> ignore (Experiments.fig3 ())
    | "fig4" -> ignore (Experiments.fig4 ~sizes ())
    | "fig7" -> ignore (Experiments.fig7 ~sizes ())
    | "fig8" -> ignore (Experiments.fig8 ~sizes ())
    | "fig9" -> ignore (Experiments.fig9 ~sizes ())
    | "fig10" -> ignore (Experiments.fig10 ~sizes ())
    | "fig11" -> ignore (Experiments.fig11 ~sizes ())
    | "fig12" -> ignore (Experiments.fig12 ~sizes ())
    | "static_crit" -> ignore (Experiments.static_crit ~sizes ())
    | "ablations" -> ignore (Experiments.ablations ~sizes ())
    | "division" -> ignore (Experiments.division ~sizes ())
    | other ->
      Printf.eprintf "unknown figure %S\n" other;
      exit 2
  in
  let run_one name =
    if !supervised then
      ignore (Experiments.protected ~ident:name (fun () -> run_one name))
    else run_one name
  in
  (match figures with
  | [] -> Experiments.run_all ~sizes ()
  | figures -> List.iter run_one figures);
  (* Farm-load / cache-effectiveness counters on stderr, so figure text on
     stdout stays byte-identical across --jobs values. *)
  let m = Runner.cache_stats () in
  let ps = Exec.Pool.stats pool in
  Printf.eprintf
    "farm: memo hits %d  misses %d  dedups %d  evictions %d  entries %d; \
     pool workers %d  queued %d  running %d  stolen %d\n"
    m.Exec.Memo.hits m.Exec.Memo.misses m.Exec.Memo.dedups m.Exec.Memo.evictions
    m.Exec.Memo.entries ps.Exec.Pool.workers ps.Exec.Pool.queued
    ps.Exec.Pool.running ps.Exec.Pool.stolen;
  if !supervised then begin
    let _, _, degraded, quarantined, _ = Resil.Log.counts () in
    if Resil.Log.events () <> [] then Format.eprintf "%a@?" Resil.Log.pp_summary ();
    if degraded > 0 || quarantined > 0 then exit 1
  end
