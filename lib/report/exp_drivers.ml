(** E6: per-driver comparison — the paper's Table 5.

    Each Table 5 driver is fuzzed in isolation with each of the three
    specifications (only the syscalls of that spec enabled, as §5.2
    prescribes), [reps] seeds each; Cov is the mean coverage inside the
    driver's module. *)

type cell = {
  c_sys : int option;
  c_cov : float option;  (** mean over surviving reps; [None] if none survived *)
  c_crash : float;
  c_dropped : int;  (** repetitions quarantined by the pool *)
}

type row = {
  r_name : string;  (** paper row label *)
  r_syzkaller : cell;
  r_syzdescribe : cell;
  r_kernelgpt : cell;
}

type table5 = {
  driver_rows : row list;
  t5_execs : int;  (** total program executions (feeds BENCH_*.json) *)
}

let na = { c_sys = None; c_cov = None; c_crash = 0.0; c_dropped = 0 }

(* One pool task per (driver, suite, repetition), on one machine per
   driver booted before the pool starts and shared by all its tasks. *)

type task = {
  tk_entry : Corpus.Types.entry;
  tk_suite : string;
  tk_spec : Syzlang.Ast.spec;
  tk_rep : int;
  tk_seed_base : int;
  tk_budget : int;
}

(** Run every task, each on its driver's machine; outcomes come back in
    task order. *)
let run_tasks ~jobs ~(table : string) ?sched (tasks : task list) :
    (float * float * int) Kernelgpt.Pool.outcome array =
  let machines = Suites.boot_each (List.map (fun tk -> tk.tk_entry) tasks) in
  Kernelgpt.Pool.map_outcomes ~jobs
    ~label:(fun _ tk ->
      Printf.sprintf "%s:%s:%s:rep%d" table tk.tk_entry.name tk.tk_suite tk.tk_rep)
    ~f:(fun tk ->
      let machine = Hashtbl.find machines tk.tk_entry.name in
      let res =
        Fuzzer.Campaign.run ~seed:(tk.tk_rep * tk.tk_seed_base) ~budget:tk.tk_budget
          ?sched ~machine tk.tk_spec
      in
      ( float_of_int (Fuzzer.Campaign.module_coverage machine res tk.tk_entry.name),
        float_of_int (Hashtbl.length res.crashes),
        res.executions ))
    (Array.of_list tasks)

(** Fold [reps] per-repetition (coverage, crashes) outcomes into a cell,
    averaging the surviving repetitions in the same order the sequential
    loop did; quarantined repetitions count as dropped. *)
let cell_of_reps (spec : Syzlang.Ast.spec)
    (per_rep : (float * float * int) Kernelgpt.Pool.outcome list) : cell =
  let ok = List.filter_map (function Kernelgpt.Pool.Ok r -> Some r | Kernelgpt.Pool.Failed _ -> None) per_rep in
  let dropped = List.length per_rep - List.length ok in
  let covs = List.fold_left (fun acc (c, _, _) -> c :: acc) [] ok in
  let crashes = List.fold_left (fun acc (_, x, _) -> x :: acc) [] ok in
  let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (max 1 (List.length xs)) in
  {
    c_sys = Some (Syzlang.Ast.count_syscalls spec);
    c_cov = (if ok = [] then None else Some (mean covs));
    c_crash = mean crashes;
    c_dropped = dropped;
  }

(** Walk [results] in task-layout order, [reps] outcomes per cell: each
    call folds the next cell of a spec that had tasks and returns [None]
    for a spec that had none. Calls must follow the task layout, so
    sequence them with [let]: record fields evaluate in unspecified
    (right-to-left in practice) order. *)
let cell_taker ~reps results : Syzlang.Ast.spec option -> cell option =
  let cursor = ref 0 in
  Option.map (fun spec ->
      let per_rep = List.init reps (fun i -> results.(!cursor + i)) in
      cursor := !cursor + reps;
      cell_of_reps spec per_rep)

(** Total executions over the tasks that completed. *)
let total_execs results =
  Array.fold_left
    (fun acc r ->
      match r with Kernelgpt.Pool.Ok (_, _, e) -> acc + e | Kernelgpt.Pool.Failed _ -> acc)
    0 results

let table5 ?(reps = 3) ?(budget = 4000) ?(jobs = 1) ?sched (ctx : Suites.ctx) :
    table5 =
  let entries = Corpus.Registry.table5 () in
  let specs_of (e : Corpus.Types.entry) =
    [
      ("syz", Baseline.Syzkaller_specs.spec_of_entry e);
      ("sd", Suites.sd_spec ctx e.name);
      ("kgpt", Suites.kgpt_spec ctx e.name);
    ]
  in
  let tasks =
    List.concat_map
      (fun (e : Corpus.Types.entry) ->
        List.concat_map
          (fun (tag, spec) ->
            match spec with
            | None -> []
            | Some spec ->
                List.init reps (fun r ->
                    {
                      tk_entry = e;
                      tk_suite = tag;
                      tk_spec = spec;
                      tk_rep = r + 1;
                      tk_seed_base = 104729;
                      tk_budget = budget;
                    }))
          (specs_of e))
      entries
  in
  let results = run_tasks ~jobs ~table:"table5" ?sched tasks in
  let take =
    let next = cell_taker ~reps results in
    fun spec -> Option.value (next spec) ~default:na
  in
  let rows =
    List.map
      (fun (e : Corpus.Types.entry) ->
        match specs_of e with
        | [ (_, manual); (_, sd); (_, kg) ] ->
            (* left-to-right, like the task layout *)
            let r_syzkaller = take manual in
            let r_syzdescribe = take sd in
            let r_kernelgpt = take kg in
            { r_name = e.display_name; r_syzkaller; r_syzdescribe; r_kernelgpt }
        | suites ->
            failwith
              (Printf.sprintf
                 "Exp_drivers.table5: entry %s produced %d suites, expected 3 \
                  (syzkaller, syzdescribe, kernelgpt)"
                 e.name (List.length suites)))
      entries
  in
  (* the two drivers dropped from Linux 6 stay as N/A rows *)
  let na_row name =
    { r_name = name; r_syzkaller = na; r_syzdescribe = na; r_kernelgpt = na }
  in
  let rows = na_row "ashmem" :: na_row "fd#" :: rows in
  {
    driver_rows = List.sort (fun a b -> compare a.r_name b.r_name) rows;
    t5_execs = total_execs results;
  }

(* degraded markers: "123*" = mean over the surviving repetitions only,
   "?" = every repetition of the cell was quarantined *)
let cell_strings (c : cell) =
  [
    (match c.c_sys with Some n -> string_of_int n | None -> "N/A");
    (match (c.c_cov, c.c_dropped) with
    | Some f, 0 -> Printf.sprintf "%.0f" f
    | Some f, _ -> Printf.sprintf "%.0f*" f
    | None, 0 -> "-"
    | None, _ -> "?");
  ]

let row_dropped r = r.r_syzkaller.c_dropped + r.r_syzdescribe.c_dropped + r.r_kernelgpt.c_dropped

let print_table5 (t : table5) =
  Table.section "Table 5: Driver specification comparison (#Sys / Cov)";
  let rows =
    List.map
      (fun r ->
        if row_dropped r > 0 then Exp_resilience.note_degraded ();
        (r.r_name :: cell_strings r.r_syzkaller)
        @ cell_strings r.r_syzdescribe @ cell_strings r.r_kernelgpt)
      t.driver_rows
  in
  let sum f =
    List.fold_left (fun acc r -> acc + Option.value (f r) ~default:0) 0 t.driver_rows
  in
  let sumc f =
    List.fold_left (fun acc r -> acc +. Option.value (f r) ~default:0.0) 0.0 t.driver_rows
  in
  let total =
    [
      "Total";
      string_of_int (sum (fun r -> r.r_syzkaller.c_sys));
      Printf.sprintf "%.0f" (sumc (fun r -> r.r_syzkaller.c_cov));
      string_of_int (sum (fun r -> r.r_syzdescribe.c_sys));
      Printf.sprintf "%.0f" (sumc (fun r -> r.r_syzdescribe.c_cov));
      string_of_int (sum (fun r -> r.r_kernelgpt.c_sys));
      Printf.sprintf "%.0f" (sumc (fun r -> r.r_kernelgpt.c_cov));
    ]
  in
  Table.print
    ~align:[ Table.L; Table.R; Table.R; Table.R; Table.R; Table.R; Table.R ]
    ~header:[ ""; "Syz #Sys"; "Syz Cov"; "SD #Sys"; "SD Cov"; "KGPT #Sys"; "KGPT Cov" ]
    (rows @ [ total ]);
  if List.exists (fun r -> row_dropped r > 0) t.driver_rows then
    Printf.printf
      "* = mean over surviving reps; ? = all reps quarantined by the worker pool\n";
  (* who wins where *)
  let wins =
    List.fold_left
      (fun (s, d, k) r ->
        match (r.r_syzkaller.c_cov, r.r_syzdescribe.c_cov, r.r_kernelgpt.c_cov) with
        | Some a, b, Some c ->
            let b = Option.value b ~default:0.0 in
            if c >= a && c >= b then (s, d, k + 1)
            else if a >= b && a >= c then (s + 1, d, k)
            else (s, d + 1, k)
        | _ -> (s, d, k))
      (0, 0, 0) t.driver_rows
  in
  let s, d, k = wins in
  Printf.printf "Best coverage: KernelGPT on %d drivers, Syzkaller on %d, SyzDescribe on %d\n" k s d;
  let crash_total f =
    List.fold_left (fun acc r -> acc +. (f r).c_crash) 0.0 t.driver_rows
  in
  Printf.printf "Unique crashes (avg totals): Syzkaller %.1f, SyzDescribe %.1f, KernelGPT %.1f\n"
    (crash_total (fun r -> r.r_syzkaller))
    (crash_total (fun r -> r.r_syzdescribe))
    (crash_total (fun r -> r.r_kernelgpt))
