(** E5: bug detection by the new specifications — the paper's Table 4.

    Each bug-carrying module is fuzzed with its combined
    (Syzkaller + KernelGPT) specification; the same campaigns run with
    the Syzkaller-only and SyzDescribe suites to confirm the baselines
    cannot trigger the bugs (the ✗/✗ columns). *)

type bug_row = {
  br_bug : Corpus.Types.bug;
  br_found_kgpt : bool;
  br_found_syzkaller : bool;
  br_found_syzdescribe : bool;
  br_deg_kgpt : bool;  (** that family's campaign for this module was quarantined *)
  br_deg_syzkaller : bool;
  br_deg_syzdescribe : bool;
}

type table4 = {
  bug_rows : bug_row list;
  t4_exec : Exp_resilience.exec_totals;  (** executor-supervisor totals *)
}

let fuzz_module ~(machine : Vkernel.Machine.t) ~(budget : int) ~(seeds : int) ?supervisor
    ?sched (spec : Syzlang.Ast.spec) : (string, unit) Hashtbl.t * Exp_resilience.exec_totals =
  let titles = Hashtbl.create 8 in
  let exec = ref Exp_resilience.exec_empty in
  for s = 1 to seeds do
    let res =
      Fuzzer.Campaign.run ~seed:(s * 1299721) ~budget ?supervisor ?sched ~machine spec
    in
    exec := Exp_resilience.exec_add !exec res;
    Hashtbl.iter (fun t _ -> Hashtbl.replace titles t ()) res.crashes
  done;
  (titles, !exec)

let table4 ?(budget = 30_000) ?(seeds = 3) ?(jobs = 1) ?supervisor ?sched
    (ctx : Suites.ctx) : table4 =
  let modules =
    List.sort_uniq compare (List.map (fun b -> b.Corpus.Types.bug_module) Corpus.Registry.bugs)
  in
  (* one pool task per (suite family, module); the crash-title sets
     merge by union, which is order-insensitive *)
  let families =
    [
      ("kgpt", fun m -> Some (Suites.module_suite ctx m));
      ( "syz",
        fun m -> Option.bind (Corpus.Registry.find m) Baseline.Syzkaller_specs.spec_of_entry );
      ("sd", fun m -> Suites.sd_spec ctx m);
    ]
  in
  let tasks =
    Array.of_list
      (List.concat_map
         (fun (tag, suite_of) ->
           List.filter_map (fun m -> Option.map (fun s -> (tag, m, s)) (suite_of m)) modules)
         families)
  in
  (* one machine per module, shared by its three suite families *)
  let machines = Suites.boot_each (List.map Corpus.Registry.find_exn modules) in
  let results =
    Kernelgpt.Pool.map_outcomes ~jobs
      ~label:(fun _ (tag, m, _) -> Printf.sprintf "table4:%s:%s" tag m)
      ~f:(fun (_, m, spec) ->
        fuzz_module ~machine:(Hashtbl.find machines m) ~budget ~seeds ?supervisor ?sched spec)
      tasks
  in
  let degraded = Hashtbl.create 8 in
  let found_with tag =
    let tbl = Hashtbl.create 32 in
    Array.iteri
      (fun i r ->
        let tag', m, _ = tasks.(i) in
        match r with
        | Kernelgpt.Pool.Ok (titles, _) ->
            if tag' = tag then Hashtbl.iter (fun t () -> Hashtbl.replace tbl t ()) titles
        | Kernelgpt.Pool.Failed _ -> Hashtbl.replace degraded (tag', m) ())
      results;
    tbl
  in
  let kgpt_found = found_with "kgpt" in
  let syz_found = found_with "syz" in
  let sd_found = found_with "sd" in
  let deg tag m = Hashtbl.mem degraded (tag, m) in
  {
    t4_exec =
      Array.fold_left
        (fun acc r ->
          match r with
          | Kernelgpt.Pool.Ok (_, e) -> Exp_resilience.exec_sum acc e
          | Kernelgpt.Pool.Failed _ -> acc)
        Exp_resilience.exec_empty results;
    bug_rows =
      List.map
        (fun (b : Corpus.Types.bug) ->
          {
            br_bug = b;
            br_found_kgpt = Hashtbl.mem kgpt_found b.bug_title;
            br_found_syzkaller = Hashtbl.mem syz_found b.bug_title;
            br_found_syzdescribe = Hashtbl.mem sd_found b.bug_title;
            br_deg_kgpt = deg "kgpt" b.bug_module;
            br_deg_syzkaller = deg "syz" b.bug_module;
            br_deg_syzdescribe = deg "sd" b.bug_module;
          })
        Corpus.Registry.bugs;
  }

let print_table4 (t : table4) =
  Table.section "Table 4: New bugs detected by KernelGPT";
  (* "?" = that family's campaign for the module was quarantined, so
     "not found" would overclaim — the cell is explicitly unknown *)
  let mark ?(degraded = false) b = if b then "X" else if degraded then "?" else "-" in
  let any_degraded = ref false in
  Table.print
    ~align:[ Table.L; Table.L; Table.L; Table.L; Table.L; Table.L; Table.L ]
    ~header:
      [ "Crash with new specs"; "New"; "Confirmed"; "Fixed"; "CVE"; "Syzkaller"; "SyzDescribe" ]
    (List.map
       (fun r ->
         let b = r.br_bug in
         if
           (r.br_deg_kgpt && not r.br_found_kgpt)
           || (r.br_deg_syzkaller && not r.br_found_syzkaller)
           || (r.br_deg_syzdescribe && not r.br_found_syzdescribe)
         then begin
           any_degraded := true;
           Exp_resilience.note_degraded ()
         end;
         [
           b.bug_title;
           mark ~degraded:r.br_deg_kgpt r.br_found_kgpt;
           mark b.bug_confirmed;
           mark b.bug_fixed;
           Option.value b.bug_cve ~default:"";
           mark ~degraded:r.br_deg_syzkaller r.br_found_syzkaller;
           mark ~degraded:r.br_deg_syzdescribe r.br_found_syzdescribe;
         ])
       t.bug_rows);
  if !any_degraded then
    Printf.printf "? = campaign quarantined by the worker pool; result unknown\n";
  let found = List.length (List.filter (fun r -> r.br_found_kgpt) t.bug_rows) in
  let base =
    List.length (List.filter (fun r -> r.br_found_syzkaller || r.br_found_syzdescribe) t.bug_rows)
  in
  Printf.printf "Total: %d/%d bugs found with KernelGPT specs; %d by baselines\n" found
    (List.length t.bug_rows) base
