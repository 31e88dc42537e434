(** One benchmark run: measure a workload untraced for the requested
    seconds (end-to-end metrics), or additionally trace one round, probe
    its layers and measure the pool (per-layer metrics). *)

type metric = { name : string; value : float; unit : string }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  end_to_end : metric list;
  per_layer : metric list;  (** empty unless traced *)
  notes : string list;  (** human-readable lines printed before the metrics *)
}

let m name unit value = { name; value; unit }

(** What an untraced round leaves behind: rounds are summarised and
    dropped at once, so the peak heap is one round's, whatever the
    number of rounds. *)
type summary = {
  s_setup : float;
  s_wall : float;
  s_alloc_gb : float;
  s_rate : float;  (** units per second of work *)
  s_spec_rate : float;  (** valid specs per second of [Pipeline.run] *)
  s_ops : int;
  s_failed : int;
  s_valid : int;
  s_queries : int;
  s_coverage : int;
  s_crashes : int;
  s_bugs : int;
  s_digests : (string * string) list;
  s_top_heap_mb : float;  (** the round's process peak major heap *)
}

let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1048576.0

let summarise (r : Workloads.round) =
  {
    s_setup = r.setup_s;
    s_wall = r.wall_s;
    s_alloc_gb = r.alloc_gb;
    s_rate = float_of_int r.units /. r.work_s;
    s_spec_rate =
      float_of_int (Gen_phase.valid_specs r.gen) /. Layers.get r.layers "kernelgpt.pipeline_s";
    s_ops = r.ops;
    s_failed = r.failed;
    s_valid = Gen_phase.valid_specs r.gen;
    s_queries = Gen_phase.queries r.gen;
    s_coverage = r.coverage;
    s_crashes = List.length r.crashes;
    s_bugs = List.length r.bugs_found;
    s_digests = r.digests;
    s_top_heap_mb = top_heap_mb ();
  }

let digest_line kind seed digests =
  Printf.sprintf "digest %s seed=%d %s" (Workloads.name kind) seed
    (String.concat " " (List.map (fun (k, d) -> k ^ "=" ^ d) digests))

(** Run [f] in a forked child and return what it returns, so that every
    round starts from a fresh process, as a report run does: nothing one
    round builds (lazy tables, memoized indexes) makes a later round
    cheaper. The child must not start domains before it forks: OCaml
    refuses [Unix.fork] once a process has created one. *)
let forked (f : unit -> 'a) : 'a =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
      Unix.close rd;
      let code =
        match f () with
        | s ->
            let oc = Unix.out_channel_of_descr wr in
            Marshal.to_channel oc s [];
            close_out oc;
            0
        | exception e ->
            prerr_endline ("perfbench: round raised " ^ Printexc.to_string e);
            1
      in
      Unix._exit code
  | pid -> (
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let s = try Some (Marshal.from_channel ic : 'a) with End_of_file | Failure _ -> None in
      close_in ic;
      match (s, snd (Unix.waitpid [] pid)) with
      | Some s, Unix.WEXITED 0 -> s
      | _ -> failwith "a forked benchmark process did not complete")

(** Rounds until [seconds] have passed (at least [min_rounds]); the
    first round runs the output checks, and every later round must
    reproduce its digests. *)
let measure kind (z : Workloads.sizes) ~seed ~seconds : summary list =
  let t_start = Layers.now () in
  let rec go i acc =
    if i >= z.min_rounds && Layers.now () -. t_start >= seconds then acc
    else begin
      let s =
        forked (fun () -> summarise (Workloads.round kind z ~seed ~check:(i = 0)))
      in
      let s =
        match acc with
        | first :: _ when first.s_digests <> s.s_digests ->
            prerr_endline
              ("perfbench: round outputs differ from the first round's: "
              ^ digest_line kind seed s.s_digests);
            { s with s_failed = s.s_ops }
        | _ -> s
      in
      go (i + 1) (acc @ [ s ])
    end
  in
  go 0 []

let med f ss = Layers.median (List.map f ss)

let sum f ss = List.fold_left (fun n s -> n + f s) 0 ss

(** The end-to-end metrics, in BENCHMARK.json's order. [throughput] is
    the workload's unit of work per second of measured work: executions
    per second of [Campaign.drive] on the fuzz workloads, valid specs
    per second of [Pipeline.run] on spec-synthesis. *)
let end_to_end (ss : summary list) =
  let first = List.hd ss in
  [
    m "setup_s" "s" (med (fun s -> s.s_setup) ss);
    m "wall_s" "s" (med (fun s -> s.s_wall) ss);
    m "throughput" "1/s" (med (fun s -> s.s_rate) ss);
    m "top_heap_mb" "MB" (med (fun s -> s.s_top_heap_mb) ss);
    m "alloc_gb" "GB" (med (fun s -> s.s_alloc_gb) ss);
    m "valid_specs" "count" (float_of_int first.s_valid);
    m "oracle_queries" "count" (float_of_int first.s_queries);
  ]

(** The workload-specific end-to-end figures, printed for every
    workload (zero where the workload has no such work) and not gated
    for that reason. *)
let workload_figures kind (ss : summary list) =
  let first = List.hd ss in
  let fuzz = Workloads.is_fuzz kind in
  [
    m "execs_per_s" "1/s" (if fuzz then med (fun s -> s.s_rate) ss else 0.0);
    m "specs_per_s" "1/s" (med (fun s -> s.s_spec_rate) ss);
    m "coverage" "count" (float_of_int first.s_coverage);
    m "crashes" "count" (float_of_int first.s_crashes);
    m "bugs_found" "count" (float_of_int first.s_bugs);
    m "failed_ratio" "ratio"
      (float_of_int (sum (fun s -> s.s_failed) ss) /. float_of_int (sum (fun s -> s.s_ops) ss));
  ]

let stages = [ "extraction"; "identifier"; "type"; "dependency"; "device"; "socket"; "validate" ]
let query_tasks = [ "identifier"; "type"; "dependency"; "device"; "socket"; "repair" ]

(** Fuzz-loop attribution of a traced round: the probe's per-call costs
    times the campaign's own counts. [loop_other] is drive time minus
    the attributed generation, mutation and execution: coverage merge,
    corpus and scheduler. *)
let attribution l (z : Workloads.sizes) (r : Workloads.round) =
  let nops = Array.length Workloads.op_names in
  let op_s = Array.make nops 0.0 and op_w = Array.make nops 0.0 in
  let op_n = Array.make nops 0 and op_wins = Array.make nops 0 in
  let gen_s = ref 0.0 and gen_w = ref 0.0 and gen_n = ref 0 in
  let exec_s = ref 0.0 and exec_w = ref 0.0 and exec_n = ref 0 in
  List.iter
    (fun (c : Workloads.campaign) ->
      let p = Probe.run l ~n:z.probe_n c in
      let execs = (Fuzzer.Campaign.result c.state).executions in
      let muts = Array.fold_left ( + ) 0 c.op_count in
      let charge (cs, cw, cn) (cost : Probe.cost) k =
        cs := !cs +. (float_of_int k *. cost.per_call_s);
        cw := !cw +. (float_of_int k *. cost.per_call_words);
        cn := !cn + k
      in
      charge (gen_s, gen_w, gen_n) p.generate (execs - muts);
      charge (exec_s, exec_w, exec_n) p.exec execs;
      Array.iteri
        (fun i k ->
          op_s.(i) <- op_s.(i) +. (float_of_int k *. p.ops.(i).per_call_s);
          op_w.(i) <- op_w.(i) +. (float_of_int k *. p.ops.(i).per_call_words);
          op_n.(i) <- op_n.(i) + k;
          op_wins.(i) <- op_wins.(i) + c.op_wins.(i))
        c.op_count)
    r.campaigns;
  let per n x = if n = 0 then 0.0 else x /. float_of_int n in
  let mutate_s = Array.fold_left ( +. ) 0.0 op_s in
  let drive_s = if r.campaigns = [] then 0.0 else r.work_s in
  let ops =
    List.concat
      (List.init nops (fun i ->
           let p = "fuzzer.op." ^ Workloads.op_names.(i) in
           [
             m (p ^ ".us") "us" (1e6 *. per op_n.(i) op_s.(i));
             m (p ^ ".words") "words" (per op_n.(i) op_w.(i));
             m (p ^ ".count") "count" (float_of_int op_n.(i));
             m (p ^ ".wins") "count" (float_of_int op_wins.(i));
           ]))
  in
  ops
  @ [
      m "fuzzer.generate_us" "us" (1e6 *. per !gen_n !gen_s);
      m "fuzzer.generate_words" "words" (per !gen_n !gen_w);
      m "vkernel.exec_us" "us" (1e6 *. per !exec_n !exec_s);
      m "vkernel.exec_words" "words" (per !exec_n !exec_w);
      m "fuzzer.drive_s" "s" drive_s;
      m "fuzzer.generate_s" "s" !gen_s;
      m "fuzzer.mutate_s" "s" mutate_s;
      m "vkernel.exec_s" "s" !exec_s;
      m "fuzzer.loop_other_s" "s" (drive_s -. !gen_s -. mutate_s -. !exec_s);
    ]

let find name ms = (List.find (fun x -> x.name = name) ms).value

(** One traced round with metrics on: the trace gives stage self-times
    and query times, the metrics registry the operator counts. *)
let traced_round kind z ~seed ~out_dir =
  let path = Filename.concat out_dir ("trace-" ^ Workloads.name kind ^ ".jsonl") in
  Gc.compact ();
  Obs.reset ();
  Obs.enable_trace_file path;
  Obs.enable_metrics ();
  let r =
    Fun.protect ~finally:Obs.reset (fun () ->
        let r = Workloads.round kind z ~seed ~check:true in
        (r, Obs.Metrics.counter_value "repair.rounds"))
  in
  (r, Trace_stats.read path)

let per_layer kind (z : Workloads.sizes) ~seed ~out_dir (ss : summary list) =
  let (r, repair_rounds), spans = traced_round kind z ~seed ~out_dir in
  let traced_failed =
    if r.digests = (List.hd ss).s_digests then r.failed
    else begin
      prerr_endline "perfbench: the traced round's outputs differ from the untraced rounds'";
      r.ops
    end
  in
  let l = r.layers in
  let fuzz = attribution l z r in
  let stage = Trace_stats.by_name ~self:true spans "pipeline.stage" in
  let query = Trace_stats.by_name spans "oracle.query" in
  let pool = Pool_phase.run kind z in
  let layer key = m key "s" (Layers.get l key) in
  let ms =
    fuzz
    @ List.map layer
        [
          "report.suite.syzkaller_s";
          "report.suite.syzdescribe_s";
          "report.suite.kernelgpt_s";
          "vkernel.boot_s";
          "vkernel.jit_s";
          "fuzzer.init_s";
          "fuzzer.prepare_s";
          "syzlang.resolve_s";
          "kernelgpt.pipeline_s";
          "baseline.syzdescribe_s";
          "syzlang.validate_s";
        ]
    @ List.map
        (fun s -> m ("kernelgpt.stage." ^ s ^ ".self_s") "s" (Trace_stats.seconds stage s))
        stages
    @ [ m "kernelgpt.repair_rounds" "count" (float_of_int repair_rounds) ]
    @ List.map
        (fun q ->
          let n = Trace_stats.count query q in
          m ("oracle.query." ^ q ^ ".us") "us"
            (if n = 0 then 0.0 else 1e6 *. Trace_stats.seconds query q /. float_of_int n))
        query_tasks
    @ [
        m "pool.busy_ratio" "ratio" pool.busy_ratio;
        m "pool.jobs2_speedup" "ratio" (Pool_phase.speedup pool);
        m "obs.trace_overhead" "ratio" (r.wall_s /. med (fun s -> s.s_wall) ss);
        m "bench.setup_s" "s" r.setup_s;
        m "bench.wall_s" "s" r.wall_s;
      ]
    @ workload_figures kind ss
  in
  let attributed =
    if Workloads.is_fuzz kind then
      [
        Printf.sprintf
          "attribution %s (traced round): setup %.3f s + generate %.3f s + mutate %.3f s + \
           exec %.3f s + loop_other %.3f s = wall %.3f s"
          (Workloads.name kind) r.setup_s (find "fuzzer.generate_s" ms)
          (find "fuzzer.mutate_s" ms) (find "vkernel.exec_s" ms)
          (find "fuzzer.loop_other_s" ms) r.wall_s;
      ]
    else []
  in
  let notes =
    attributed
    @ [
      Printf.sprintf "pool %s: %d tasks, jobs 1 %.3f s, jobs %d %.3f s, %d quarantined"
        (Workloads.name kind) pool.tasks pool.wall1_s pool.jobs pool.wallj_s pool.quarantined;
      "traced round: " ^ digest_line kind seed r.digests;
    ]
  in
  (ms, r.ops + pool.tasks, traced_failed + pool.quarantined, notes)

let run kind size ~seed ~seconds ~trace ~out_dir : result =
  let z = Workloads.sizes size in
  let ss = measure kind z ~seed ~seconds in
  let e2e = end_to_end ss in
  let attempted = sum (fun s -> s.s_ops) ss and failed = sum (fun s -> s.s_failed) ss in
  let digest = digest_line kind seed (List.hd ss).s_digests in
  let notes =
    Printf.sprintf "%s: %d rounds in %.1f s" (Workloads.name kind) (List.length ss)
      (List.fold_left (fun t s -> t +. s.s_wall) 0.0 ss)
    :: Printf.sprintf "rounds setup_s %s; wall_s %s; alloc_gb %s"
         (String.concat " " (List.map (fun s -> Printf.sprintf "%.3f" s.s_setup) ss))
         (String.concat " " (List.map (fun s -> Printf.sprintf "%.3f" s.s_wall) ss))
         (String.concat " " (List.map (fun s -> Printf.sprintf "%.6f" s.s_alloc_gb) ss))
    :: digest
    :: List.map
         (fun x -> Printf.sprintf "metric %s %.6g %s" x.name x.value x.unit)
         (e2e @ workload_figures kind ss)
  in
  if not trace then
    { correct = failed = 0; attempted; failed; end_to_end = e2e; per_layer = []; notes }
  else begin
    if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
    let ms, t_ops, t_failed, t_notes = per_layer kind z ~seed ~out_dir ss in
    let failed = failed + t_failed in
    {
      correct = failed = 0;
      attempted = attempted + t_ops;
      failed;
      end_to_end = e2e;
      per_layer = ms;
      notes = notes @ t_notes;
    }
  end

(** The result line: one JSON object. A non-finite value is reported as
    null and makes the run incorrect. *)
let json (r : result) (metrics : metric list) : string =
  let finite = List.for_all (fun x -> Float.is_finite x.value) metrics in
  let value v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null" in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (r.correct && finite) r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (value x.value) x.unit)
          metrics))
