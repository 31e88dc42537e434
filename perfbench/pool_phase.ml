(** The pool measurement of the traced run: the workload's pool-sharded
    phase, run through the report's own code at [--jobs 1] and again at
    [jobs = min(2, nproc)]. Every worker of the parallel run boots its
    own kernel, so the speedup includes those boots. *)

type t = {
  jobs : int;
  wall1_s : float;
  wallj_s : float;
  busy_ratio : float;  (** busy seconds over (wall seconds × workers) at [jobs] *)
  tasks : int;  (** pool tasks of one phase run *)
  quarantined : int;  (** of the parallel run's [tasks] *)
}

let run (kind : Workloads.kind) (z : Workloads.sizes) : t =
  let jobs = min 2 (Kernelgpt.Pool.cpu_count ()) in
  let ctx = lazy (Report.Suites.build ()) in
  let phase =
    match kind with
    | Workloads.Spec_synthesis -> fun ~jobs -> ignore (Report.Suites.build ~jobs ())
    | Workloads.Module_bugs ->
        fun ~jobs ->
          ignore
            (Report.Exp_bugs.table4 ~budget:z.mb_budget ~seeds:z.mb_seeds ~jobs (Lazy.force ctx))
    | Workloads.Whole_kernel ->
        fun ~jobs ->
          ignore (Report.Exp_fuzz.table3 ~reps:z.wk_reps ~budget:z.wk_budget ~jobs (Lazy.force ctx))
  in
  if kind <> Workloads.Spec_synthesis then ignore (Lazy.force ctx);
  let timed jobs =
    Gc.compact ();
    Kernelgpt.Pool.reset_stats ();
    let t0 = Layers.now () in
    phase ~jobs;
    (Layers.now () -. t0, Kernelgpt.Pool.stats ())
  in
  let wall1_s, _ = timed 1 in
  let wallj_s, s = timed jobs in
  {
    jobs;
    wall1_s;
    wallj_s;
    busy_ratio =
      s.s_busy_seconds /. (s.s_wall_seconds *. float_of_int (max 1 s.s_workers));
    tasks = s.s_tasks;
    quarantined = s.s_quarantined;
  }

let speedup p = p.wall1_s /. p.wallj_s
