(* Time-parallel simulation: split one long trace into K contiguous
   chunks at checkpointed boundaries and detail-simulate the chunks
   concurrently.  A sequential warming pass (functional fast-forward)
   captures a microarchitectural checkpoint just before each boundary;
   each chunk restores its own deep copy, runs a detailed cold-start
   warmup up to its boundary, then measures exactly its [b_k, b_k+1)
   instruction range.  Stitching sums per-chunk statistics in chunk
   index order, so the result is independent of how many workers ran
   the chunks or in what order they finished. *)

type result = {
  chunks : int;
  warmup : int;
  stats : Cpu_stats.t;
  per_chunk : Cpu_stats.t array;
}

let chunk_key ~chunk ~start = Printf.sprintf "chunk/%d/%d" chunk start

let run ?criticality ?layout ?(pool = Exec.Pool.sequential) ?journal ~chunks ~warmup
    cfg (trace : Executor.t) =
  if chunks <= 0 then invalid_arg "Chunked.run: chunks must be positive";
  if warmup < 0 then invalid_arg "Chunked.run: warmup must be non-negative";
  let dyns = trace.Executor.dyns in
  let n = Array.length dyns in
  let chunks = max 1 (min chunks (max 1 n)) in
  let layout = Sampler.resolve_layout ?criticality ?layout trace in
  let boundary k = k * n / chunks in
  (* Chunk [k]'s detailed warmup covers [start_k, b_k); the checkpoint is
     captured at [start_k] by the sequential warming pass. *)
  let starts = Array.init chunks (fun k -> if k = 0 then 0 else max 0 (boundary k - warmup)) in
  let blobs = Array.make chunks "" in
  let journal_find key =
    match journal with Some j -> Resil.Journal.find j key | None -> None
  in
  let journal_record key payload =
    match journal with Some j -> Resil.Journal.record j ~key ~payload | None -> ()
  in
  (* Warming pass: sequential by nature (chunk k's checkpoint depends on
     everything before it), but skipped per-checkpoint when the journal
     already holds the blob — a rerun with a warm journal does no
     fast-forward at all. *)
  let last = ref None in
  let live = ref None in
  for k = 1 to chunks - 1 do
    let key = chunk_key ~chunk:k ~start:starts.(k) in
    match journal_find key with
    | Some blob ->
      blobs.(k) <- blob;
      last := Some blob;
      live := None
    | None ->
      let w =
        match !live with
        | Some w -> w
        | None ->
          let w =
            match !last with
            | Some blob -> Cpu_core.warm_restore blob
            | None -> Cpu_core.warm_create cfg
          in
          live := Some w;
          w
      in
      while Cpu_core.warm_pos w < starts.(k) do
        ignore (Cpu_core.warm_touch w layout dyns.(Cpu_core.warm_pos w))
      done;
      let blob = Cpu_core.warm_checkpoint w in
      journal_record key blob;
      blobs.(k) <- blob;
      last := Some blob
  done;
  let futures =
    Array.init chunks (fun k ->
        Exec.Pool.submit pool (fun () ->
            if boundary (k + 1) = boundary k then Cpu_stats.zero
            else begin
              (* Each chunk restores a private deep copy, so concurrent
                 chunks never share mutable state. *)
              let warm = if k = 0 then None else Some (Cpu_core.warm_restore blobs.(k)) in
              let start = starts.(k) in
              Cpu_core.run_window ?criticality ~layout ?warm ~start
                ~warmup:(boundary k - start)
                ~measure:(boundary (k + 1) - boundary k)
                cfg trace
            end))
  in
  let per_chunk = Array.map Exec.Future.await futures in
  let stats = Array.fold_left Cpu_stats.add Cpu_stats.zero per_chunk in
  { chunks; warmup; stats; per_chunk }
