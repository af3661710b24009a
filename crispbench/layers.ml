(* The benchmark's calls into each library layer, one wrapper per public
   function it times.  With tracing off every wrapper is a direct call;
   with tracing on it opens a span (see {!Spans}) and bumps the counters
   the per-layer table derives its ratios from. *)

let sp = Spans.with_span

let counters : (string, float) Hashtbl.t = Hashtbl.create 64

let add key v =
  if !Spans.enabled then
    Hashtbl.replace counters key (v +. Option.value ~default:0. (Hashtbl.find_opt counters key))

let set_max key v =
  if !Spans.enabled then
    match Hashtbl.find_opt counters key with
    | Some old when old >= v -> ()
    | _ -> Hashtbl.replace counters key v

let counter key = Option.value ~default:0. (Hashtbl.find_opt counters key)

(* Distinct (name, input, instrs) keys passed to Catalog.make. *)
let make_keys : (string * Workload.input * int, unit) Hashtbl.t = Hashtbl.create 64

let reset () =
  Spans.reset ();
  Hashtbl.reset counters;
  Hashtbl.reset make_keys

(* ---- checks ------------------------------------------------------ *)

(* An operation is one unit of measured work (a grid, a catalog pass, a
   farm request, ...).  A failed check marks the operation in progress
   as failed; it never stops the run. *)
let attempted = ref 0
let failed = ref 0
let op_failed = ref false

let check ok what =
  if not ok then begin
    op_failed := true;
    prerr_endline ("crispbench: check failed: " ^ what)
  end

let end_op () =
  incr attempted;
  if !op_failed then incr failed;
  op_failed := false

(* ---- workloads --------------------------------------------------- *)

let make ~input ~instrs name =
  sp ~layer:"workloads" "Catalog.make" (fun () ->
      add "workloads.make_calls" 1.;
      if !Spans.enabled then Hashtbl.replace make_keys (name, input, instrs) ();
      Catalog.make ~input ~instrs name)

(* ---- trace ------------------------------------------------------- *)

let gen workload =
  sp ~layer:"trace" "Workload.trace" (fun () ->
      let trace = Workload.trace workload in
      add "trace.instrs" (float_of_int (Array.length trace.Executor.dyns));
      trace)

let deps trace = sp ~layer:"trace" "Deps.compute" (fun () -> Deps.compute trace)

let layout ?criticality trace =
  sp ~layer:"trace" "Layout.compute" (fun () -> Sampler.resolve_layout ?criticality trace)

(* ---- analysis ---------------------------------------------------- *)

let profile ~mem_params trace =
  sp ~layer:"analysis" "Profiler.profile" (fun () -> Profiler.profile ~mem_params trace)

let classify report thresholds =
  sp ~layer:"analysis" "Classifier.classify" (fun () ->
      Classifier.classify report thresholds)

let tag ~options trace deps report classification =
  sp ~layer:"analysis" "Tagger.build" (fun () ->
      let t = Tagger.build ~options trace deps report classification in
      add "analysis.slices_built" (float_of_int (List.length t.Tagger.slices));
      add "analysis.slices_kept"
        (float_of_int
           (List.length (List.filter (fun s -> not s.Tagger.dropped) t.Tagger.slices)));
      t)

let ibda ~mem_params config trace =
  sp ~layer:"analysis" "Ibda.analyze" (fun () -> Ibda.analyze ~mem_params config trace)

(* The latency weight Tagger.build hands Critical_path.filter: fixed
   instruction latencies, the profiled AMAT estimate for loads. *)
let latency_of (report : Profiler.report) (dyns : Executor.dyn array) i =
  let d = dyns.(i) in
  match d.Executor.op with
  | Isa.Load -> begin
    match Hashtbl.find_opt report.Profiler.loads d.Executor.pc with
    | Some stats -> Profiler.amat_estimate Memory_system.skylake stats
    | None -> Isa.exec_latency Isa.Load
  end
  | op -> Isa.exec_latency op

(* Split Tagger.build's cost: run Slicer.extract and Critical_path.filter
   on every root the tagger slices, with the options it passes.  These
   are extra calls, recorded as their own "probe" roots so they never
   count inside the traced pass. *)
let probe_tagger ~cell ~(options : Tagger.options) trace deps report
    (classification : Classifier.result) =
  let roots =
    (if options.Tagger.use_load_slices then
       List.map fst classification.Classifier.delinquent_loads
     else [])
    @ (if options.Tagger.use_branch_slices then
         List.map fst classification.Classifier.hard_branches
       else [])
    @ if options.Tagger.use_long_op_slices then List.map fst classification.Classifier.long_ops
      else []
  in
  add "analysis.roots" (float_of_int (List.length roots));
  List.iter
    (fun root_pc ->
      let slice =
        sp ~cell ~layer:"probe" "Slicer.extract" (fun () ->
            Slicer.extract ~max_instances:options.Tagger.max_instances
              ~follow_memory:options.Tagger.follow_memory trace deps ~root_pc)
      in
      add "analysis.slice_dyn_nodes"
        (slice.Slicer.avg_dynamic_length *. float_of_int slice.Slicer.instances);
      if options.Tagger.critical_path_filter then
        ignore
          (sp ~cell ~layer:"probe" "Critical_path.filter" (fun () ->
               Critical_path.filter ~max_instances:options.Tagger.max_instances
                 ~follow_memory:options.Tagger.follow_memory ~theta:options.Tagger.theta
                 trace deps ~root_pc ~latency_of:(latency_of report trace.Executor.dyns))))
    roots

(* ---- cpu --------------------------------------------------------- *)

(* One full timing simulation, exactly as Runner runs it (the layout is
   the one Cpu_core.run derives when none is given).  [kind] names the
   scheduler policy: "ooo" (oldest-ready) or "crisp". *)
let simulate ~kind ?criticality cfg trace =
  let layout = layout ?criticality trace in
  let stats =
    sp ~layer:"cpu" ("Cpu_core.run:" ^ kind) (fun () ->
        Cpu_core.run ?criticality ~layout cfg trace)
  in
  add "cpu.sim_instrs" (float_of_int stats.Cpu_stats.retired);
  add "cpu.sim_cycles" (float_of_int stats.Cpu_stats.cycles);
  let len = Array.length trace.Executor.dyns in
  check (stats.Cpu_stats.retired = len)
    (Printf.sprintf "%s simulation retired %d of %d trace instructions" kind
       stats.Cpu_stats.retired len);
  stats

(* ---- sample ------------------------------------------------------ *)

let sampled ~sample cfg trace =
  let r = sp ~layer:"sample" "Sampler.run" (fun () -> Sampler.run ~sample cfg trace) in
  let c = r.Sampler.config in
  add "sample.units" (float_of_int c.Sample_config.units);
  add "sample.detail_instrs"
    (float_of_int (c.Sample_config.units * (c.Sample_config.unit_len + c.Sample_config.warmup_len)));
  add "sample.total_instrs" (float_of_int r.Sampler.total_instrs);
  set_max "sample.ci95_rel" (r.Sampler.cpi_ci95 /. r.Sampler.cpi_mean);
  check
    (Float.is_finite r.Sampler.cpi_ci95 && Float.is_finite r.Sampler.cpi_mean)
    (Printf.sprintf "sampled CPI %g +- %g is not finite" r.Sampler.cpi_mean r.Sampler.cpi_ci95);
  r

(* ---- farm -------------------------------------------------------- *)

let connect ~socket =
  sp ~layer:"farm" "Farm_client.connect" (fun () ->
      Farm_client.connect ~connect_timeout:5. ~socket ())

let run_grid conn ~id ~spec ~eval_instrs ~train_instrs =
  sp ~cell:id ~layer:"farm" "Farm_client.run_grid" (fun () ->
      Farm_client.run_grid conn ~id ~spec ~eval_instrs ~train_instrs ())

let farm_stats conn = sp ~layer:"farm" "Farm_client.stats" (fun () -> Farm_client.stats conn)
