(* crispbench: the repository benchmark.  See README.md for the
   workloads, every metric and the layer -> end-to-end map.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              [--daemon CRISP_SIMD] [--goldens DIR] [--out DIR]
     main.exe --smoke --benchmark BENCHMARK.json --daemon CRISP_SIMD
              --goldens DIR

   The last line of standard output is one JSON object: correct,
   attempted, failed and metrics (end-to-end metrics untraced, per-layer
   metrics with --trace 1). *)

let now = Resil.Clock.now

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let median = function
  | [] -> Float.nan
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile. *)
let percentile p = function
  | [] -> Float.nan
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let shuffle ~seed l =
  let st = Random.State.make [| seed |] in
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* Run [op] (which returns its own measured seconds) at least once and
   until [seconds] have passed. *)
let repeat_for ~seconds op =
  let t0 = now () in
  let rec go acc =
    let acc = op () :: acc in
    if now () -. t0 >= seconds then List.rev acc else go acc
  in
  go []

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.

(* Run [f] with standard output sent to standard error, so figure text
   printed by the library never reaches the result stream. *)
let quietly f =
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  Unix.dup2 Unix.stderr Unix.stdout;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved)
    f

(* ------------------------------------------------------------------ *)
(* Sizes                                                              *)
(* ------------------------------------------------------------------ *)

type sizes = {
  grid_spec : Grid.spec;
  grid : Experiments.sizes;
  fdo_names : string list;
  fdo_train : int;
  long : (string * int) list;
  farm_names : string list;
  farm : Experiments.sizes;
}

let full_sizes =
  { grid_spec = Grid.fig7;
    grid = Experiments.default_sizes;
    fdo_names = Catalog.names;
    fdo_train = 150_000;
    long = [ ("pointer_chase", 10_000_000); ("omnetpp", 2_000_000); ("memcached", 2_000_000) ];
    farm_names = [ "deepsjeng"; "cactus"; "lbm"; "nab"; "namd" ];
    farm = { Experiments.eval_instrs = 20_000; train_instrs = 16_000 } }

let smoke_sizes =
  { grid_spec = { Grid.fig7 with Grid.names = [ "deepsjeng"; "cactus" ] };
    grid = { Experiments.eval_instrs = 3_000; train_instrs = 2_000 };
    fdo_names = [ "deepsjeng"; "moses"; "pointer_chase" ];
    fdo_train = 3_000;
    long = [ ("pointer_chase", 60_000); ("deepsjeng", 60_000) ];
    farm_names = [ "deepsjeng"; "cactus" ];
    farm = { Experiments.eval_instrs = 3_000; train_instrs = 2_000 } }

type ctx = {
  workload : string;
  seed : int;
  seconds : float;
  traced : bool;
  sizes : sizes;
  daemon : string;
  goldens : string;
  t0 : float;  (* when the process was launched *)
  scratch : string;  (* sockets, golden stamps and result files *)
}

(* What one workload run measured. *)
type report = {
  setup : float list;  (* seconds per set-up *)
  ops : float list;  (* seconds per measured operation *)
  peak_mb : float;  (* heap high-water mark at the end of the measured region *)
  named : (string * float * string * string) list;  (* name, value, unit, better *)
  notes : string list;  (* extra report lines *)
  untraced_s : float;  (* trace mode: the untraced pass the traced one mirrors *)
}

let ratio a b = if b = 0. then 0. else a /. b

(* Rows compared bit for bit; NaN markers compare equal to themselves. *)
let render_rows rows =
  String.concat ";"
    (List.map
       (fun (name, vs) ->
         name ^ ":" ^ String.concat "," (List.map (Printf.sprintf "%h") vs))
       rows)

(* ------------------------------------------------------------------ *)
(* Cell replay: Runner.run_variant through the layer wrappers          *)
(* ------------------------------------------------------------------ *)

let run_variant ~cfg ~(sizes : Experiments.sizes) ~name variant =
  let eval_trace () =
    Layers.gen (Layers.make ~input:Workload.Ref ~instrs:sizes.Experiments.eval_instrs name)
  in
  match variant with
  | Runner.Ooo ->
    let trace = eval_trace () in
    Layers.simulate ~kind:"ooo" (Cpu_config.with_policy Scheduler.Oldest_ready cfg) trace
  | Runner.Crisp (thresholds, options) ->
    let trace = eval_trace () in
    let train =
      Layers.gen
        (Layers.make ~input:Workload.Train ~instrs:sizes.Experiments.train_instrs name)
    in
    let report = Layers.profile ~mem_params:cfg.Cpu_config.mem train in
    let classification = Layers.classify report thresholds in
    let deps = Layers.deps train in
    let tagging = Layers.tag ~options train deps report classification in
    Layers.simulate ~kind:"crisp"
      ~criticality:(Cpu_core.Static_tags (Tagger.is_critical tagging))
      (Cpu_config.with_policy Scheduler.Crisp cfg) trace
  | Runner.Ibda config ->
    let trace = eval_trace () in
    let result = Layers.ibda ~mem_params:cfg.Cpu_config.mem config trace in
    Layers.simulate ~kind:"crisp"
      ~criticality:(Cpu_core.Dynamic_tags (Ibda.is_critical result))
      (Cpu_config.with_policy Scheduler.Crisp cfg) trace

let variant_of column =
  match Grid.variant_of_column column with
  | Ok v -> v
  | Error msg -> invalid_arg msg

(* The grid rows exactly as Experiments computes them (one Grid.cell_value
   per cell, mean row appended), for specs Experiments has no entry for. *)
let local_rows (spec : Grid.spec) (sizes : Experiments.sizes) =
  List.map
    (fun name ->
      ( name,
        List.map
          (fun column ->
            Grid.cell_value ~eval_instrs:sizes.Experiments.eval_instrs
              ~train_instrs:sizes.Experiments.train_instrs ~name ~metric:spec.Grid.metric
              column)
          spec.Grid.columns ))
    spec.Grid.names

(* The figure replayed cell by cell with Runner's memo semantics (each
   app's OOO baseline simulated once), every layer call wrapped. *)
let replay_grid (spec : Grid.spec) sizes =
  let cfg = Cpu_config.skylake in
  let memo = Hashtbl.create 128 in
  let ipc name (column : Grid.column option) =
    let key, variant =
      match column with
      | None -> ((name, "ooo", None), Runner.Ooo)
      | Some c -> ((name, c.Grid.variant, c.Grid.threshold), variant_of c)
    in
    match Hashtbl.find_opt memo key with
    | Some ipc -> ipc
    | None ->
      let ipc = Cpu_stats.ipc (run_variant ~cfg ~sizes ~name variant) in
      Hashtbl.replace memo key ipc;
      ipc
  in
  let rows =
    Layers.sp ~cell:spec.Grid.tag ~layer:"core" "grid" (fun () ->
        List.map
          (fun name ->
            ( name,
              List.map
                (fun (column : Grid.column) ->
                  Layers.sp ~cell:(name ^ "/" ^ column.Grid.label) ~layer:"core" "cell"
                    (fun () -> (ipc name (Some column) /. ipc name None) -. 1.))
                spec.Grid.columns ))
          spec.Grid.names)
  in
  Grid.full_rows spec rows

let bytes_per_instr trace =
  float_of_int (Obj.reachable_words (Obj.repr trace) * (Sys.word_size / 8))
  /. float_of_int (max 1 (Array.length trace.Executor.dyns))

(* Trace memory, measured outside every span. *)
let note_bytes trace =
  let b = bytes_per_instr trace in
  if b > Layers.counter "trace.bytes_per_instr" then
    Hashtbl.replace Layers.counters "trace.bytes_per_instr" b

(* ------------------------------------------------------------------ *)
(* grid-cold                                                          *)
(* ------------------------------------------------------------------ *)

let reset_state () =
  Runner.clear_cache ();
  Gc.compact ()

let grid_cold ctx =
  let spec = ctx.sizes.grid_spec and sizes = ctx.sizes.grid in
  let setup = List.init 5 (fun _ -> snd (timed reset_state)) in
  let rows, grid_s =
    timed (fun () ->
        if spec == Grid.fig7 then quietly (fun () -> Experiments.fig7 ~sizes ())
        else Grid.full_rows spec (local_rows spec sizes))
  in
  let peak_mb = peak_heap_mb () in
  let memo = Runner.cache_stats () in
  (* Every full simulation retired its whole trace (catalog traces run to
     their instruction budget); the cells are memo hits now. *)
  List.iter
    (fun name ->
      List.iter
        (fun variant ->
          let o =
            Runner.evaluate ~eval_instrs:sizes.Experiments.eval_instrs
              ~train_instrs:sizes.Experiments.train_instrs ~name variant
          in
          Layers.check
            (o.Runner.stats.Cpu_stats.retired = sizes.Experiments.eval_instrs)
            (Printf.sprintf "%s: simulation retired %d of %d instructions" name
               o.Runner.stats.Cpu_stats.retired sizes.Experiments.eval_instrs))
        (Runner.Ooo :: List.map variant_of spec.Grid.columns))
    spec.Grid.names;
  let mean_crisp =
    match List.assoc_opt "mean" rows with Some (v :: _) -> v | _ -> Float.nan
  in
  Layers.check (Float.is_finite mean_crisp) "fig7 mean CRISP gain is not finite";
  List.iter
    (fun (name, vs) ->
      List.iter
        (fun v -> Layers.check (Float.is_finite v) (name ^ ": degraded fig7 cell"))
        vs)
    rows;
  Layers.end_op ();
  if ctx.traced then begin
    Hashtbl.replace Layers.counters "core.memo_hit_ratio"
      (ratio (float_of_int memo.Exec.Memo.hits)
         (float_of_int (memo.Exec.Memo.hits + memo.Exec.Memo.misses + memo.Exec.Memo.dedups)));
    reset_state ();
    Spans.enabled := true;
    let replayed = replay_grid spec sizes in
    Spans.enabled := false;
    Layers.check
      (render_rows replayed = render_rows rows)
      "traced replay rows differ from Experiments.fig7";
    Layers.end_op ();
    note_bytes
      (Workload.trace
         (Catalog.make ~input:Workload.Ref ~instrs:sizes.Experiments.eval_instrs
            (List.hd spec.Grid.names)))
  end;
  { setup;
    ops = [ grid_s ];
    peak_mb;
    named =
      [ ("grid_s", grid_s, "s", "lower");
        ("crisp_gain_pct", 100. *. mean_crisp, "%", "higher") ];
    notes = [];
    untraced_s = grid_s }

(* ------------------------------------------------------------------ *)
(* fdo-catalog                                                        *)
(* ------------------------------------------------------------------ *)

(* Fdo.analyze step by step on one Train input; with tracing on, each
   workload is one root span and the tagger is split by the probes. *)
let fdo_one ctx name =
  let thresholds = Classifier.default and options = Tagger.default_options in
  let mem_params = Cpu_config.skylake.Cpu_config.mem in
  let step () =
    let train = Layers.gen (Layers.make ~input:Workload.Train ~instrs:ctx.sizes.fdo_train name) in
    let report = Layers.profile ~mem_params train in
    let classification = Layers.classify report thresholds in
    let deps = Layers.deps train in
    let tagging = Layers.tag ~options train deps report classification in
    Layers.check
      (Array.length tagging.Tagger.critical = Array.length train.Executor.prog.Program.code)
      (name ^ ": tag map does not cover the program");
    Layers.check
      (tagging.Tagger.dynamic_ratio >= 0. && tagging.Tagger.dynamic_ratio <= 1.)
      (name ^ ": tagged dynamic ratio out of range");
    (train, deps, report, classification)
  in
  if not !Spans.enabled then ignore (step ())
  else begin
    let train, deps, report, classification =
      Layers.sp ~cell:name ~layer:"core" "Fdo.analyze" step
    in
    note_bytes train;
    Layers.probe_tagger ~cell:name ~options train deps report classification
  end

let fdo_catalog ctx =
  let names = shuffle ~seed:ctx.seed ctx.sizes.fdo_names in
  let setup = ref [] in
  (* Each workload starts from a collected heap, so its cost does not
     depend on the workloads the seed put before it; the collections
     are set-up, not part of the pass. *)
  let pass () =
    let reset_s, run_s =
      List.fold_left
        (fun (reset_s, run_s) name ->
          let (), r = timed reset_state in
          let (), t = timed (fun () -> fdo_one ctx name) in
          (reset_s +. r, run_s +. t))
        (0., 0.) names
    in
    Layers.end_op ();
    setup := reset_s :: !setup;
    run_s
  in
  let ops = if ctx.traced then [ pass () ] else repeat_for ~seconds:ctx.seconds pass in
  let peak_mb = peak_heap_mb () in
  (* Traced: an untraced pass on the heap the first one grew, then the
     traced pass, so the overhead compares like with like. *)
  let untraced_s =
    if not ctx.traced then 0.
    else begin
      let warm_s = pass () in
      Spans.enabled := true;
      List.iter
        (fun name ->
          reset_state ();
          fdo_one ctx name)
        names;
      Spans.enabled := false;
      Layers.end_op ();
      warm_s
    end
  in
  let fdo_s = median ops in
  { setup = !setup;
    ops;
    peak_mb;
    named = [ ("fdo_s", fdo_s, "s", "lower") ];
    notes = List.map (Printf.sprintf "  pass %.3f s") ops;
    untraced_s }

(* ------------------------------------------------------------------ *)
(* long-trace                                                         *)
(* ------------------------------------------------------------------ *)

type long_item = {
  label : string;
  instrs : int;
  full_s : float;
  sampled_s : float;
  full_cpi : float;
  sampled : Sampler.result;
}

let long_trace ctx =
  (* The largest trace always runs first: OCaml 5.1 never returns heap,
     so a trace built after it reuses its space and the heap high-water
     mark stays one trace's.  The seed orders the rest. *)
  let items =
    match ctx.sizes.long with
    | largest :: rest -> largest :: shuffle ~seed:ctx.seed rest
    | [] -> []
  in
  let cfg = Cpu_config.with_policy Scheduler.Oldest_ready Cpu_config.skylake in
  let sample = Sample_config.default in
  (* One item: generate the Ref trace (set-up), then the full OOO run and
     the sampled run (measured).  Traces are built one at a time so only
     one is live. *)
  let item (name, instrs) =
    let label = Printf.sprintf "%s@%d" name instrs in
    (* Collect the previous item's trace first, so this one reuses its
       space. *)
    let (), compact_s = timed Gc.compact in
    let body () =
      let trace, gen_s =
        timed (fun () -> Layers.gen (Layers.make ~input:Workload.Ref ~instrs name))
      in
      let stats, full_s = timed (fun () -> Layers.simulate ~kind:"ooo" cfg trace) in
      let sampled, sampled_s = timed (fun () -> Layers.sampled ~sample cfg trace) in
      (trace, gen_s, { label; instrs; full_s; sampled_s; full_cpi = 1. /. Cpu_stats.ipc stats; sampled })
    in
    if not !Spans.enabled then
      let _, gen_s, r = body () in
      (compact_s, gen_s, r)
    else begin
      let trace, gen_s, r = Layers.sp ~cell:label ~layer:"core" "item" body in
      note_bytes trace;
      (compact_s, gen_s, r)
    end
  in
  let setup = ref [] and passes = ref [] in
  (* One pass over the items; returns the seconds spent generating
     traces and the measured seconds (full plus sampled runs). *)
  let pass () =
    let results = List.map item items in
    Layers.end_op ();
    let rs = List.map (fun (_, _, r) -> r) results in
    passes := rs :: !passes;
    let sum f = List.fold_left (fun acc x -> acc +. f x) 0. results in
    let gen_s = sum (fun (_, g, _) -> g) in
    let op_s = sum (fun (_, _, r) -> r.full_s +. r.sampled_s) in
    setup := (sum (fun (c, _, _) -> c) +. gen_s) :: !setup;
    (gen_s, op_s)
  in
  let measured () = snd (pass ()) in
  let ops = if ctx.traced then [ measured () ] else repeat_for ~seconds:ctx.seconds measured in
  let peak_mb = peak_heap_mb () in
  (* Traced: an untraced pass on the heap the first one grew, then the
     traced pass, so the overhead compares like with like. *)
  let untraced_s =
    if not ctx.traced then 0.
    else begin
      let gen_s, op_s = pass () in
      Spans.enabled := true;
      let traced = List.map item items in
      Spans.enabled := false;
      Layers.end_op ();
      Hashtbl.replace Layers.counters "sample.full_s"
        (List.fold_left (fun acc (_, _, r) -> acc +. r.full_s) 0. traced);
      gen_s +. op_s
    end
  in
  let rs = List.nth !passes (List.length !passes - 1) in
  let geomean =
    exp
      (List.fold_left
         (fun acc r -> acc +. log (float_of_int r.instrs /. r.full_s /. 1e6))
         0. rs
      /. float_of_int (List.length rs))
  in
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0. rs in
  let err r = abs_float (r.sampled.Sampler.cpi_mean -. r.full_cpi) /. r.full_cpi in
  let miss r = abs_float (r.sampled.Sampler.cpi_mean -. r.full_cpi) > r.sampled.Sampler.cpi_ci95 in
  let notes =
    List.map
      (fun r ->
        Printf.sprintf "  %-24s full %.3f s  sampled %.3f s  CPI %.4f vs %.4f +- %.4f%s"
          r.label r.full_s r.sampled_s r.full_cpi r.sampled.Sampler.cpi_mean
          r.sampled.Sampler.cpi_ci95 (if miss r then "  (outside CI)" else ""))
      rs
  in
  { setup = !setup;
    ops;
    peak_mb;
    named =
      [ ("sim_minstr_per_s", geomean, "Minstr/s", "higher");
        ("sampled_speedup", sum (fun r -> r.full_s) /. sum (fun r -> r.sampled_s), "x", "higher");
        ("sampled_cpi_err_pct", 100. *. List.fold_left (fun m r -> max m (err r)) 0. rs, "%", "lower");
        ("ci_miss", float_of_int (List.length (List.filter miss rs)), "count", "lower") ];
    notes;
    untraced_s }

(* ------------------------------------------------------------------ *)
(* farm-memo                                                          *)
(* ------------------------------------------------------------------ *)

let alive pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> true
  | _ -> false
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> false

(* Start a crisp_simd daemon with one worker on [socket], run [f] once it
   answers pings, and always stop it (clean shutdown request, then
   SIGKILL after 10 s) and reap it. *)
let with_daemon ~exe ~socket f =
  (try Sys.remove socket with Sys_error _ -> ());
  let pid =
    Unix.create_process exe [| exe; "--socket"; socket; "--jobs"; "1" |] Unix.stdin
      Unix.stderr Unix.stderr
  in
  let stop () =
    (if alive pid then
       try
         let c = Farm_client.connect ~connect_timeout:2. ~socket () in
         Fun.protect ~finally:(fun () -> Farm_client.close c) (fun () ->
             Farm_client.shutdown_daemon c)
       with _ -> ());
    let deadline = now () +. 10. in
    let rec reap () =
      if alive pid then
        if now () < deadline then (Unix.sleepf 0.02; reap ())
        else begin
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()
        end
    in
    reap ();
    try Sys.remove socket with Sys_error _ -> ()
  in
  Fun.protect ~finally:stop (fun () ->
      let deadline = now () +. 30. in
      let rec ready () =
        if not (alive pid) then failwith "crisp_simd exited during start-up";
        match Farm_client.connect ~connect_timeout:1. ~socket () with
        | c -> Fun.protect ~finally:(fun () -> Farm_client.close c) (fun () -> Farm_client.ping c)
        | exception Farm_client.Disconnected _ when now () < deadline ->
          Unix.sleepf 0.02;
          ready ()
      in
      ready ();
      f ())

(* Tallies of farm responses, kept as counts so the client heap does not
   grow with the number of requests. *)
type tally = {
  renders : (string, int) Hashtbl.t;  (* rendered rows -> responses *)
  mutable cells : int;
  mutable computed : int;
  mutable memo_hits : int;
  mutable degraded : int;
}

let tally () =
  { renders = Hashtbl.create 4; cells = 0; computed = 0; memo_hits = 0; degraded = 0 }

let record t (r : Farm_client.grid_result) =
  let key = render_rows r.Farm_client.rows in
  Hashtbl.replace t.renders key (1 + Option.value ~default:0 (Hashtbl.find_opt t.renders key));
  let s = r.Farm_client.summary in
  t.cells <- t.cells + s.Farm_protocol.cells;
  t.computed <- t.computed + s.Farm_protocol.computed;
  t.memo_hits <- t.memo_hits + s.Farm_protocol.memo_hits;
  t.degraded <- t.degraded + List.length r.Farm_client.degraded

let farm_memo ctx =
  let sizes = ctx.sizes.farm in
  let spec =
    { Grid.fig7 with Grid.names = shuffle ~seed:ctx.seed ctx.sizes.farm_names;
                     with_mean = false }
  in
  let socket = Filename.concat ctx.scratch (Printf.sprintf "farm-%d.sock" (Unix.getpid ())) in
  let eval_instrs = sizes.Experiments.eval_instrs
  and train_instrs = sizes.Experiments.train_instrs in
  let next_id = ref 0 in
  let cold = tally () and warm = tally () and traced = tally () in
  (* One request on [conn], timed; the response is tallied afterwards.
     The daemon recycles a connection after its request budget, so
     reconnect and resend as Farm_client.run_grid_retrying does. *)
  let rec request into conn =
    let id = Printf.sprintf "crispbench-%d-%d" ctx.seed !next_id in
    incr next_id;
    match timed (fun () -> Layers.run_grid !conn ~id ~spec ~eval_instrs ~train_instrs) with
    | r, s ->
      record into r;
      s
    | exception Farm_client.Overloaded _ ->
      Farm_client.close !conn;
      conn := Layers.connect ~socket;
      request into conn
  in
  (* [n] requests on a fresh connection, then a stats call. *)
  let session into n =
    let conn = ref (Layers.connect ~socket) in
    for _ = 1 to n do
      ignore (request into conn)
    done;
    let stats = Layers.farm_stats !conn in
    Farm_client.close !conn;
    stats
  in
  (* The rows every response must match: the local runner's, computed
     before the loop (in catalog order, so the client heap does not depend
     on the seed) and excluded from set-up like the golden sweep. *)
  let local = local_rows { spec with Grid.names = ctx.sizes.farm_names } sizes in
  let expected = render_rows (List.map (fun n -> (n, List.assoc n local)) spec.Grid.names) in
  (* Set-up: start the daemon, connect and have it compute the grid once. *)
  let spawned = now () in
  with_daemon ~exe:ctx.daemon ~socket (fun () ->
      let conn = ref (Farm_client.connect ~socket ()) in
      ignore (request cold conn);
      let setup_s = now () -. spawned in
      let ops, wall =
        timed (fun () -> repeat_for ~seconds:ctx.seconds (fun () -> request warm conn))
      in
      Farm_client.close !conn;
      let peak_mb = peak_heap_mb () in
      let n = List.length ops in
      let untraced_s =
        if not ctx.traced then wall
        else begin
          let (_ : Farm_protocol.farm_stats), untraced_s = timed (fun () -> session warm n) in
          Spans.enabled := true;
          let stats = session traced n in
          Spans.enabled := false;
          let set k v = Hashtbl.replace Layers.counters k v in
          set "farm.computed_cells" (float_of_int traced.computed);
          set "farm.memo_hit_ratio"
            (ratio (float_of_int traced.memo_hits) (float_of_int traced.cells));
          set "farm.requests_served" (float_of_int stats.Farm_protocol.requests_served);
          untraced_s
        end
      in
      (* Checks, outside the timed region: every response's rows are
         byte-identical to the local runner's for the same grid and sizes,
         and no warm request computed or degraded a cell. *)
      let verify what t ~warm =
        Hashtbl.iter
          (fun key count ->
            for _ = 1 to count do
              Layers.check (key = expected) (what ^ ": farm rows differ from the local runner's");
              Layers.end_op ()
            done)
          t.renders;
        Layers.check (t.degraded = 0) (what ^ ": degraded cells");
        if warm then Layers.check (t.computed = 0) (what ^ ": warm requests recomputed cells");
        if !Layers.op_failed then Layers.end_op ()
      in
      verify "cold request" cold ~warm:false;
      verify "warm requests" warm ~warm:true;
      verify "traced requests" traced ~warm:true;
      let cells = List.length spec.Grid.names * List.length spec.Grid.columns in
      let ms = List.map (fun s -> 1000. *. s) ops in
      { setup = [ setup_s ];
        ops;
        peak_mb;
        named =
          [ ("farm_grid_ms_p50", median ms, "ms", "lower");
            ("farm_grid_ms_p99", percentile 0.99 ms, "ms", "lower");
            ("farm_cells_per_s", float_of_int (cells * n) /. wall, "1/s", "higher");
            ("farm_requests", float_of_int n, "count", "higher") ];
        notes = [];
        untraced_s })

(* ------------------------------------------------------------------ *)
(* Golden checks                                                      *)
(* ------------------------------------------------------------------ *)

(* Golden_stats.check and static_check against the committed goldens.
   The verdict depends only on this executable and the golden files, so
   it is cached under [scratch] keyed by their digests: the sweep
   (about a minute) runs once per build, not once per invocation.  The
   key is computed at once, as set-up; the returned check runs later,
   outside the measured region. *)
let golden_check ~dir ~scratch ~smoke =
  let names = if smoke then [ "pointer_chase" ] else Catalog.names in
  let sizes = Golden_stats.default_sizes in
  let run () =
    let failures =
      List.filter_map
        (fun name ->
          match Golden_stats.check ~dir ~sizes name with
          | Ok () -> None
          | Error report -> Some (name ^ ": " ^ report))
        names
    in
    let failures =
      if smoke then failures
      else
        match Golden_stats.static_check ~dir ~sizes () with
        | Ok () -> failures
        | Error report -> failures @ [ "static_crit: " ^ report ]
    in
    Runner.clear_cache ();
    failures
  in
  let files =
    List.map (Golden_stats.path ~dir)
      (if smoke then names else names @ [ Golden_stats.static_name ])
  in
  let stamp =
    if smoke || not (List.for_all Sys.file_exists files) then None
    else
      let key =
        Digest.to_hex
          (Digest.string
             (String.concat "" (List.map Digest.file (Sys.executable_name :: files))))
      in
      Some (Filename.concat scratch ("goldens-" ^ key))
  in
  fun () ->
    let failures =
      match stamp with
      | None -> run ()
      | Some stamp ->
        if Sys.file_exists stamp then
          In_channel.with_open_text stamp In_channel.input_all
          |> String.split_on_char '\n'
          |> List.filter (( <> ) "")
        else begin
          let failures = run () in
          Out_channel.with_open_text (stamp ^ ".tmp") (fun oc ->
              List.iter
                (fun f ->
                  output_string oc (String.map (function '\n' -> ' ' | c -> c) f);
                  output_char oc '\n')
                failures);
          Sys.rename (stamp ^ ".tmp") stamp;
          failures
        end
    in
    List.iter (fun f -> Layers.check false ("golden drift: " ^ f)) failures;
    Layers.end_op ()

(* ------------------------------------------------------------------ *)
(* Metrics                                                            *)
(* ------------------------------------------------------------------ *)

type metric = { name : string; value : float; unit_ : string; better : string }

let m name value unit_ better = { name; value; unit_; better }

(* Set-up is the launch-to-workload start-up (process start, runtime and
   module initialisation, argument parsing, the golden-stamp digest) plus
   the median of the workload's own set-up steps. *)
let end_to_end ~startup r =
  [ m "setup_s" (startup +. median r.setup) "s" "lower";
    m "op_s" (median r.ops) "s" "lower";
    m "peak_heap_mb" r.peak_mb "MB" "lower" ]

let layer_names = [ "workloads"; "trace"; "analysis"; "cpu"; "sample"; "core"; "farm" ]

let s_of ns = float_of_int ns /. 1e9

(* One row of the per-layer table: self seconds, span count and self
   minor words over the recorded spans of layer [l]. *)
type layer_row = { self_s : float; spans : int; minor : float }

let layer_row selves l =
  let xs = List.filter (fun x -> x.Spans.span.Spans.layer = l) selves in
  { self_s = s_of (List.fold_left (fun a x -> a + x.Spans.self_ns) 0 xs);
    spans = List.length xs;
    minor = List.fold_left (fun a x -> a +. x.Spans.self_minor) 0. xs }

(* The traced total: root spans, the tagger probes excluded. *)
let traced_total spans =
  s_of
    (List.fold_left
       (fun acc (s : Spans.span) ->
         if s.Spans.parent < 0 && s.Spans.layer <> "probe" then acc + Spans.dur s else acc)
       0 spans)

let per_layer ~untraced_s =
  let spans = Spans.all () in
  let row = layer_row (Spans.selves spans) in
  let named n = List.filter (fun (s : Spans.span) -> s.Spans.name = n) spans in
  let dur_s n = s_of (List.fold_left (fun acc s -> acc + Spans.dur s) 0 (named n)) in
  let calls n = float_of_int (List.length (named n)) in
  let traced_s = traced_total spans in
  let c = Layers.counter in
  let child_self =
    List.fold_left (fun acc l -> if l = "core" then acc else acc +. (row l).self_s) 0. layer_names
  in
  let gen_s = dur_s "Workload.trace" in
  let tagger_s = dur_s "Tagger.build" in
  let slicer_s = dur_s "Slicer.extract" and critpath_s = dur_s "Critical_path.filter" in
  let ooo_s = dur_s "Cpu_core.run:ooo" and crisp_s = dur_s "Cpu_core.run:crisp" in
  let cpu_minor = (row "cpu").minor in
  let connects = named "Farm_client.connect" in
  [ m "workloads.make_s" (dur_s "Catalog.make") "s" "lower";
    m "workloads.make_calls" (calls "Catalog.make") "count" "lower";
    m "workloads.make_share" (ratio (dur_s "Catalog.make") untraced_s) "ratio" "lower";
    m "workloads.make_distinct_ratio"
      (ratio (float_of_int (Hashtbl.length Layers.make_keys)) (calls "Catalog.make"))
      "ratio" "higher";
    m "trace.gen_s" gen_s "s" "lower";
    m "trace.gen_calls" (calls "Workload.trace") "count" "lower";
    m "trace.gen_ns_per_instr" (ratio (gen_s *. 1e9) (c "trace.instrs")) "ns/instr" "lower";
    m "trace.bytes_per_instr" (c "trace.bytes_per_instr") "B/instr" "lower";
    m "trace.deps_s" (dur_s "Deps.compute") "s" "lower";
    m "trace.layout_s" (dur_s "Layout.compute") "s" "lower";
    m "analysis.profile_s" (dur_s "Profiler.profile") "s" "lower";
    m "analysis.classify_s" (dur_s "Classifier.classify") "s" "lower";
    m "analysis.slicer_s" slicer_s "s" "lower";
    m "analysis.critpath_s" critpath_s "s" "lower";
    m "analysis.tagger_s" tagger_s "s" "lower";
    m "analysis.tagger_share" (ratio tagger_s untraced_s) "ratio" "lower";
    m "analysis.tagger_self_s" (tagger_s -. slicer_s -. critpath_s) "s" "lower";
    m "analysis.roots" (c "analysis.roots") "count" "lower";
    m "analysis.slice_dyn_nodes" (c "analysis.slice_dyn_nodes") "count" "lower";
    m "analysis.slices_kept_ratio"
      (ratio (c "analysis.slices_kept") (c "analysis.slices_built"))
      "ratio" "higher";
    m "analysis.ibda_s" (dur_s "Ibda.analyze") "s" "lower";
    m "analysis.minor_mwords" ((row "analysis").minor /. 1e6) "Mwords" "lower";
    m "cpu.ooo_s" ooo_s "s" "lower";
    m "cpu.crisp_s" crisp_s "s" "lower";
    m "cpu.sim_instrs" (c "cpu.sim_instrs") "count" "higher";
    m "cpu.sim_cycles" (c "cpu.sim_cycles") "count" "lower";
    m "cpu.ns_per_instr" (ratio ((ooo_s +. crisp_s) *. 1e9) (c "cpu.sim_instrs")) "ns/instr" "lower";
    m "cpu.minor_words_per_cycle" (ratio cpu_minor (c "cpu.sim_cycles")) "words/cycle" "lower";
    m "sample.full_s" (c "sample.full_s") "s" "lower";
    m "sample.sampled_s" (dur_s "Sampler.run") "s" "lower";
    m "sample.units" (c "sample.units") "count" "higher";
    m "sample.detail_fraction" (ratio (c "sample.detail_instrs") (c "sample.total_instrs")) "ratio" "lower";
    m "sample.ci95_rel" (c "sample.ci95_rel") "ratio" "lower";
    m "core.self_s" (untraced_s -. child_self) "s" "lower";
    m "core.memo_hit_ratio" (c "core.memo_hit_ratio") "ratio" "higher";
    m "farm.connect_ms"
      (ratio (1000. *. s_of (List.fold_left (fun a s -> a + Spans.dur s) 0 connects))
         (float_of_int (List.length connects)))
      "ms" "lower";
    m "farm.computed_cells" (c "farm.computed_cells") "count" "lower";
    m "farm.memo_hit_ratio" (c "farm.memo_hit_ratio") "ratio" "higher";
    m "farm.requests_served" (c "farm.requests_served") "count" "higher" ]
  @ List.concat_map
      (fun l ->
        [ m (l ^ ".traced_self_s") (row l).self_s "s" "lower";
          m (l ^ ".spans") (float_of_int (row l).spans) "count" "lower" ])
      layer_names
  @ [ m "tracing.traced_s" traced_s "s" "lower";
      m "tracing.untraced_s" untraced_s "s" "lower";
      m "tracing.overhead_s" (traced_s -. untraced_s) "s" "lower" ]

(* The per-layer table: self time, call count and self minor words per
   layer, plus the traced/untraced totals and their gap. *)
let layer_table ~untraced_s =
  let spans = Spans.all () in
  let row = layer_row (Spans.selves spans) in
  let b = Buffer.create 1024 in
  Printf.bprintf b "%-10s %12s %8s %14s %10s\n" "layer" "self_s" "spans" "minor_mwords"
    "of_untraced";
  List.iter
    (fun l ->
      let r = row l in
      Printf.bprintf b "%-10s %12.6f %8d %14.3f %9.1f%%\n" l r.self_s r.spans (r.minor /. 1e6)
        (100. *. ratio r.self_s untraced_s))
    (layer_names @ [ "probe" ]);
  let total = traced_total spans in
  Printf.bprintf b "traced total %.6f s, untraced %.6f s, tracing overhead %.6f s\n" total
    untraced_s (total -. untraced_s);
  Buffer.contents b

let result_json ~metrics =
  Obs_json.to_string
    (Obs_json.Obj
       [ ("correct", Obs_json.Bool (!Layers.failed = 0));
         ("attempted", Obs_json.num_int !Layers.attempted);
         ("failed", Obs_json.num_int !Layers.failed);
         ( "metrics",
           Obs_json.Obj
             (List.map
                (fun x ->
                  (x.name, Obs_json.Obj [ ("value", Obs_json.Num x.value); ("unit", Obs_json.Str x.unit_) ]))
                metrics) ) ])

let workloads =
  [ ("grid-cold", grid_cold); ("fdo-catalog", fdo_catalog); ("long-trace", long_trace);
    ("farm-memo", farm_memo) ]

(* Run one workload; returns its last-line metrics (end-to-end, or
   per-layer when traced) and the human-readable report. *)
let run_workload ctx =
  Layers.reset ();
  Layers.attempted := 0;
  Layers.failed := 0;
  let run = List.assoc ctx.workload workloads in
  let goldens =
    golden_check ~dir:ctx.goldens ~scratch:ctx.scratch ~smoke:(ctx.sizes != full_sizes)
  in
  let startup = now () -. ctx.t0 in
  let r = run ctx in
  let e2e = end_to_end ~startup r in
  goldens ();
  let failed_pct = 100. *. ratio (float_of_int !Layers.failed) (float_of_int !Layers.attempted) in
  let out = Buffer.create 1024 in
  Printf.bprintf out "crispbench workload=%s seed=%d traced=%b\n" ctx.workload ctx.seed ctx.traced;
  List.iter
    (fun (name, value, unit_, better) ->
      Printf.bprintf out "  %-22s %16.6f %-9s (%s is better)\n" name value unit_ better)
    (List.map (fun x -> (x.name, x.value, x.unit_, x.better)) e2e
    @ r.named
    @ [ ("failed_ops_pct", failed_pct, "%", "lower") ]);
  List.iter (fun l -> Buffer.add_string out (l ^ "\n")) r.notes;
  if ctx.traced then Buffer.add_string out (layer_table ~untraced_s:r.untraced_s);
  ((if ctx.traced then per_layer ~untraced_s:r.untraced_s else e2e), Buffer.contents out)

(* The report, the result line and (traced) the spans, one file each. *)
let write_outputs ctx ~report metrics =
  let base =
    Filename.concat ctx.scratch
      (Printf.sprintf "%s-seed%d%s" ctx.workload ctx.seed (if ctx.traced then "-traced" else ""))
  in
  Out_channel.with_open_text (base ^ ".txt") (fun oc -> output_string oc report);
  Out_channel.with_open_text (base ^ ".json") (fun oc ->
      output_string oc (result_json ~metrics);
      output_char oc '\n');
  if ctx.traced then begin
    Out_channel.with_open_text (base ^ "-spans.jsonl") (fun oc ->
        List.iter
          (fun s ->
            output_string oc (Obs_json.to_string (Spans.to_json s));
            output_char oc '\n')
          (Spans.all ()))
  end

(* ------------------------------------------------------------------ *)
(* Smoke test                                                         *)
(* ------------------------------------------------------------------ *)

(* Every workload, untraced and traced, at tiny sizes: every metric
   BENCHMARK.json names is emitted with a unit and a finite value, the
   result line parses, no check failed, and the spans are well nested
   with self times summing to the traced total. *)
let smoke ~benchmark ~daemon ~goldens ~scratch =
  let spec = Obs_json.parse (In_channel.with_open_text benchmark In_channel.input_all) in
  let names key =
    match Obs_json.member key spec with
    | Some (Obs_json.Arr l) ->
      List.map
        (fun o ->
          match Obs_json.member "name" o with Some (Obs_json.Str s) -> s | _ -> "")
        l
    | _ -> failwith ("BENCHMARK.json: no " ^ key)
  in
  let errors = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let declared = names "workloads" in
  if List.sort compare declared <> List.sort compare (List.map fst workloads) then
    fail "BENCHMARK.json workloads differ from the benchmark's";
  List.iter
    (fun (workload, _) ->
      List.iter
        (fun traced ->
          let ctx =
            { workload; seed = 7; seconds = 0.3; traced; sizes = smoke_sizes; daemon; goldens;
              t0 = now (); scratch }
          in
          let metrics, _ = run_workload ctx in
          if traced then
            List.iter (fun e -> fail "%s: %s" workload e) (Spans.check (Spans.all ()));
          let line = result_json ~metrics in
          let parsed = Obs_json.parse line in
          let emitted =
            match Obs_json.member "metrics" parsed with
            | Some (Obs_json.Obj kvs) -> kvs
            | _ -> []
          in
          let want = names (if traced then "per_layer" else "end_to_end") in
          if List.length (List.sort_uniq compare want) <> List.length want then
            fail "BENCHMARK.json repeats a metric name";
          if List.sort compare (List.map fst emitted) <> List.sort compare want then
            fail "%s traced=%b: emitted metrics differ from BENCHMARK.json" workload traced;
          List.iter
            (fun (name, v) ->
              (match Obs_json.member "unit" v with
               | Some (Obs_json.Str u) when u <> "" -> ()
               | _ -> fail "%s: metric %s has no unit" workload name);
              match Obs_json.member "value" v with
              | Some (Obs_json.Num x) when Float.is_finite x -> ()
              | _ -> fail "%s: metric %s has no finite value" workload name)
            emitted;
          if !Layers.failed > 0 then fail "%s traced=%b: %d failed operations" workload traced !Layers.failed)
        [ false; true ])
    workloads;
  match List.rev !errors with
  | [] -> print_endline "crispbench smoke: ok"
  | errs ->
    List.iter prerr_endline errs;
    exit 1

(* ------------------------------------------------------------------ *)
(* Entry point                                                        *)
(* ------------------------------------------------------------------ *)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* Unwind on termination so the farm daemon is always stopped. *)
  List.iter
    (fun signal -> Sys.set_signal signal (Sys.Signal_handle (fun _ -> failwith "terminated")))
    [ Sys.sigterm; Sys.sigint ];
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  let t0 = ref Spans.epoch in
  let daemon = ref "_build/default/bin/crisp_simd.exe"
  and goldens = ref "test/goldens"
  and scratch = ref ".bench_build/crispbench"
  and smoke_mode = ref false
  and benchmark = ref "BENCHMARK.json" in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME grid-cold|fdo-catalog|long-trace|farm-memo");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--t0", Arg.Set_float t0, "T launch time (seconds since the epoch), for set-up time");
      ("--daemon", Arg.Set_string daemon, "PATH crisp_simd executable");
      ("--goldens", Arg.Set_string goldens, "DIR committed goldens");
      ("--out", Arg.Set_string scratch, "DIR sockets, stamps and result files");
      ("--smoke", Arg.Set smoke_mode, " tiny-size self-test of every workload");
      ("--benchmark", Arg.Set_string benchmark, "PATH BENCHMARK.json (smoke test)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let rec mkdir_p d =
    if not (Sys.file_exists d) then begin
      mkdir_p (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  mkdir_p !scratch;
  if !smoke_mode then
    smoke ~benchmark:!benchmark ~daemon:!daemon ~goldens:!goldens ~scratch:!scratch
  else begin
    if not (List.mem_assoc !workload workloads) then begin
      prerr_endline ("unknown workload " ^ !workload ^ "\n" ^ usage);
      exit 2
    end;
    if !trace <> 0 && !trace <> 1 then begin
      prerr_endline usage;
      exit 2
    end;
    let ctx =
      { workload = !workload; seed = !seed; seconds = !seconds; traced = !trace = 1;
        sizes = full_sizes; daemon = !daemon; goldens = !goldens; t0 = !t0;
        scratch = !scratch }
    in
    let metrics, report = run_workload ctx in
    print_string report;
    write_outputs ctx ~report metrics;
    print_endline (result_json ~metrics)
  end
