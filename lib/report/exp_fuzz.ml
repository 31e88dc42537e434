(** E4: overall fuzzing effectiveness — the paper's Table 3.

    Three suites over the whole loaded kernel, [reps] repetitions with
    different seeds; the execution budget stands in for the 24-hour
    sessions. "Unique Cov" counts the statements a suite reaches that
    plain Syzkaller misses, matching the paper's definition. *)

type suite_result = {
  sr_name : string;
  sr_cov : float;  (** mean total coverage over surviving repetitions *)
  sr_unique : int;  (** statements beyond the Syzkaller-only union *)
  sr_crashes : float;  (** mean unique crashes *)
  sr_union_cov : (int, unit) Hashtbl.t;
  sr_reps : int;  (** repetitions scheduled *)
  sr_dropped : int;  (** repetitions quarantined by the pool *)
}

let suite_of_reps ~name (reps : Fuzzer.Campaign.result Kernelgpt.Pool.outcome list) :
    suite_result =
  let union = Hashtbl.create 4096 in
  let covs = ref [] in
  let crashes = ref [] in
  let dropped = ref 0 in
  List.iter
    (function
      | Kernelgpt.Pool.Failed _ -> incr dropped
      | Kernelgpt.Pool.Ok (res : Fuzzer.Campaign.result) ->
          covs := float_of_int (Fuzzer.Campaign.total_coverage res) :: !covs;
          crashes := float_of_int (Hashtbl.length res.crashes) :: !crashes;
          Hashtbl.iter (fun sid () -> Hashtbl.replace union sid ()) res.coverage)
    reps;
  let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (max 1 (List.length xs)) in
  {
    sr_name = name;
    sr_cov = mean !covs;
    sr_unique = 0;
    sr_crashes = mean !crashes;
    sr_union_cov = union;
    sr_reps = List.length reps;
    sr_dropped = !dropped;
  }

type table3 = {
  rows : suite_result list;
  t3_exec : Exp_resilience.exec_totals;  (** executor-supervisor totals *)
}

let table3 ?(reps = 3) ?(budget = 6000) ?(jobs = 1) ?supervisor ?sched
    (ctx : Suites.ctx) : table3 =
  let suites =
    [|
      ("Syzkaller", Suites.syzkaller_suite ctx);
      ("Syzkaller + SyzDescribe", Suites.syzdescribe_suite ctx);
      ("Syzkaller + KernelGPT", Suites.kernelgpt_suite ctx);
    |]
  in
  (* one task per (suite, repetition); each repetition is an independent
     campaign on the context's one kernel, so the whole table shards
     across the pool *)
  let tasks =
    Array.init
      (Array.length suites * reps)
      (fun i -> (i / reps, (i mod reps) + 1))
  in
  let machine = Suites.shareable ctx.Suites.machine in
  let results =
    Kernelgpt.Pool.map_outcomes ~jobs
      ~label:(fun _ (si, rep) -> Printf.sprintf "table3:%s:rep%d" (fst suites.(si)) rep)
      ~f:(fun (si, rep) ->
        Fuzzer.Campaign.run ~seed:(rep * 7919) ~budget ?supervisor ?sched ~machine
          (snd suites.(si)))
      tasks
  in
  let reps_of si = Array.to_list (Array.sub results (si * reps) reps) in
  let syz = suite_of_reps ~name:(fst suites.(0)) (reps_of 0) in
  let sd = suite_of_reps ~name:(fst suites.(1)) (reps_of 1) in
  let kg = suite_of_reps ~name:(fst suites.(2)) (reps_of 2) in
  let unique_vs_syz (r : suite_result) =
    Hashtbl.fold
      (fun sid () acc -> if Hashtbl.mem syz.sr_union_cov sid then acc else acc + 1)
      r.sr_union_cov 0
  in
  {
    rows =
      [
        syz;
        { sd with sr_unique = unique_vs_syz sd };
        { kg with sr_unique = unique_vs_syz kg };
      ];
    t3_exec =
      Array.fold_left
        (fun acc r ->
          match r with
          | Kernelgpt.Pool.Ok res -> Exp_resilience.exec_add acc res
          | Kernelgpt.Pool.Failed _ -> acc)
        Exp_resilience.exec_empty results;
  }

let print_table3 (t : table3) =
  Table.section "Table 3: Overall effectiveness (3 repetitions)";
  Table.print
    ~align:[ Table.L; Table.R; Table.R; Table.R ]
    ~header:[ ""; "Cov"; "Unique Cov"; "Crash" ]
    (List.map
       (fun r ->
         let name =
           if r.sr_dropped > 0 then begin
             Exp_resilience.note_degraded ();
             Printf.sprintf "%s [degraded %d/%d reps]" r.sr_name r.sr_dropped r.sr_reps
           end
           else r.sr_name
         in
         [
           name;
           Printf.sprintf "%.0f" r.sr_cov;
           (if r.sr_unique = 0 && r.sr_name = "Syzkaller" then "-" else string_of_int r.sr_unique);
           Table.fmt_float r.sr_crashes;
         ])
       t.rows)
