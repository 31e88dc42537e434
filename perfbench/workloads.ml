(** The three workloads. One round of a workload sets up from scratch
    (boot, spec generation, suite assembly, campaign init) and then does
    its measured unit of work (campaign drives, or pipeline runs); every
    round of a run uses the same seed, so every round must produce the
    same outputs. *)

type kind = Whole_kernel | Module_bugs | Spec_synthesis

let all = [ Whole_kernel; Module_bugs; Spec_synthesis ]

let name = function
  | Whole_kernel -> "whole-kernel"
  | Module_bugs -> "module-bugs"
  | Spec_synthesis -> "spec-synthesis"

let of_name s = List.find_opt (fun k -> name k = s) all

let is_fuzz = function Whole_kernel | Module_bugs -> true | Spec_synthesis -> false

(** Workload sizes. [Full] is the benchmark; [Small] is the smallest
    size that still loads every layer, for the self-check. *)
type size = Full | Small

type sizes = {
  wk_budget : int;  (** executions per whole-kernel campaign *)
  wk_reps : int;  (** campaigns per whole-kernel suite *)
  mb_budget : int;  (** executions per module-bugs campaign *)
  mb_seeds : int;  (** campaigns per (module, suite family) *)
  probe_n : int;  (** programs the layer probe replays per campaign *)
  min_rounds : int;
}

let sizes = function
  | Full ->
      { wk_budget = 400; wk_reps = 3; mb_budget = 3000; mb_seeds = 2; probe_n = 24; min_rounds = 3 }
  | Small ->
      { wk_budget = 40; wk_reps = 1; mb_budget = 150; mb_seeds = 1; probe_n = 4; min_rounds = 1 }

(** Campaign seeds derive from the workload seed; [k] numbers the
    repetition, and the suite families share it so that they compare on
    the same draws, as in the report's tables. *)
let campaign_seed ~seed k = (seed * 1000) + k

(** The suite families of Tables 3 and 4. *)
let families = [ "syzkaller"; "syzdescribe"; "kernelgpt" ]

let op_names = Array.map Fuzzer.Mutator.name Fuzzer.Mutator.all

type campaign = {
  label : string;
  family : string;
  boot_entries : Corpus.Types.entry list;  (** what a fresh boot for re-execution loads *)
  machine : Vkernel.Machine.t;
  spec : Syzlang.Ast.spec;
  budget : int;
  state : Fuzzer.Campaign.t;
  mutable raised : bool;
  op_count : int array;  (** applications per {!Fuzzer.Mutator.all} op (metrics-on rounds) *)
  op_wins : int array;
}

type round = {
  setup_s : float;  (** start of the round to the first measured unit of work *)
  wall_s : float;  (** the whole round, setup included *)
  alloc_gb : float;  (** bytes allocated by setup and work, in GB: deterministic per seed *)
  work_s : float;  (** [Campaign.drive] seconds, or [Pipeline.run] seconds *)
  units : int;  (** executions, or valid specs *)
  ops : int;  (** campaigns plus pipeline runs *)
  failed : int;  (** of [ops]: raised or failed an output check *)
  gen : Gen_phase.t;
  campaigns : campaign list;
  layers : Layers.t;
  coverage : int;  (** statements reached, summed over campaigns *)
  crashes : string list;  (** distinct crash titles *)
  bugs_found : string list;  (** distinct Table 4 titles found by the KernelGPT family *)
  digests : (string * string) list;  (** coverage, crashes, specs *)
}

let force_jit l (m : Vkernel.Machine.t) =
  Layers.time l "vkernel.jit_s" (fun () -> ignore (Lazy.force m.Vkernel.Machine.jit))

let init_campaign l ~label ~family ~boot_entries ~machine ~budget ~seed spec =
  let state =
    Layers.time l "fuzzer.init_s" (fun () -> Fuzzer.Campaign.init ~seed ~budget ~machine spec)
  in
  let n = Array.length op_names in
  {
    label;
    family;
    boot_entries;
    machine;
    spec;
    budget;
    state;
    raised = false;
    op_count = Array.make n 0;
    op_wins = Array.make n 0;
  }

let op_counters () =
  Array.map
    (fun op ->
      ( Obs.Metrics.counter_value ("fuzz.op." ^ op),
        Obs.Metrics.counter_value ("fuzz.op." ^ op ^ ".wins") ))
    op_names

let drive l (c : campaign) =
  let before = op_counters () in
  (match Layers.time l "fuzzer.drive_s" (fun () -> Fuzzer.Campaign.drive c.state) with
  | _ -> ()
  | exception e ->
      prerr_endline ("perfbench: campaign " ^ c.label ^ " raised " ^ Printexc.to_string e);
      c.raised <- true);
  Array.iteri
    (fun i (n, w) ->
      let n0, w0 = before.(i) in
      c.op_count.(i) <- n - n0;
      c.op_wins.(i) <- w - w0)
    (op_counters ())

(** A round's start: the wall clock and the bytes allocated so far. *)
let start () = (Layers.now (), Gc.allocated_bytes ())

let md5 parts = Digest.to_hex (Digest.string (String.concat "\n" parts))

let campaign_digests (results : (campaign * Fuzzer.Campaign.result) list) =
  [
    ( "coverage",
      md5
        (List.map
           (fun (c, (r : Fuzzer.Campaign.result)) ->
             let sids = Hashtbl.fold (fun sid () acc -> sid :: acc) r.coverage [] in
             Printf.sprintf "%s %d %s" c.label r.executions
               (String.concat "," (List.map string_of_int (List.sort compare sids))))
           results) );
    ( "crashes",
      md5
        (List.map
           (fun (c, r) -> c.label ^ " " ^ String.concat "|" (Fuzzer.Campaign.crash_titles r))
           results) );
  ]

let sort_uniq l = List.sort_uniq String.compare l

(** Drive every campaign (setup is over), then, when [check] is set,
    run the output checks; assemble the round. *)
let finish l ~start:(t0, a0) ~check (gen : Gen_phase.t) (cs : campaign list) : round =
  let t1 = Layers.now () in
  List.iter (drive l) cs;
  let t2 = Layers.now () in
  let alloc_gb = (Gc.allocated_bytes () -. a0) /. 1e9 in
  let results = List.map (fun c -> (c, Fuzzer.Campaign.result c.state)) cs in
  let raised = List.length (List.filter (fun c -> c.raised) cs) in
  let check_failed =
    if not check then 0
    else
      Checks.campaigns
        (List.filter_map
           (fun (c, r) -> if c.raised then None else Some (c.label, c.boot_entries, c.budget, r))
           results)
      + Checks.valid_specs l ~kernel:gen.ctx.Report.Suites.kernel (Gen_phase.outcomes gen)
  in
  let titles_of pred =
    sort_uniq
      (List.concat_map
         (fun (c, r) -> if pred c then Fuzzer.Campaign.crash_titles r else [])
         results)
  in
  let bug_titles = List.map (fun (b : Corpus.Types.bug) -> b.bug_title) Corpus.Registry.bugs in
  {
    setup_s = t1 -. t0;
    wall_s = t2 -. t0;
    alloc_gb;
    work_s = t2 -. t1;
    units = List.fold_left (fun n (_, (r : Fuzzer.Campaign.result)) -> n + r.executions) 0 results;
    ops = List.length cs + List.length gen.targets;
    failed = raised + gen.raised + check_failed;
    gen;
    campaigns = cs;
    layers = l;
    coverage =
      List.fold_left (fun n (_, r) -> n + Fuzzer.Campaign.total_coverage r) 0 results;
    crashes = titles_of (fun _ -> true);
    bugs_found =
      List.filter
        (fun t -> List.mem t bug_titles)
        (titles_of (fun c -> c.family = "kernelgpt"));
    digests = campaign_digests results @ [ ("specs", md5 (Gen_phase.spec_texts gen)) ];
  }

(** Table 3's shape: the three merged whole-kernel suites fuzzed on one
    booted kernel, [wk_reps] campaigns each. *)
let whole_kernel (z : sizes) ~seed ~check : round =
  let l = Layers.create () in
  let t0 = start () in
  let gen = Gen_phase.run l in
  let ctx = gen.ctx in
  let suite = function
    | "syzkaller" -> Report.Suites.syzkaller_suite
    | "syzdescribe" -> Report.Suites.syzdescribe_suite
    | _ -> Report.Suites.kernelgpt_suite
  in
  let specs =
    List.map
      (fun fam -> (fam, Layers.time l ("report.suite." ^ fam ^ "_s") (fun () -> suite fam ctx)))
      families
  in
  force_jit l ctx.machine;
  let cs =
    List.concat_map
      (fun (fam, spec) ->
        List.init z.wk_reps (fun i ->
            init_campaign l
              ~label:(Printf.sprintf "%s:%d" fam (i + 1))
              ~family:fam ~boot_entries:ctx.entries ~machine:ctx.machine ~budget:z.wk_budget
              ~seed:(campaign_seed ~seed (i + 1))
              spec))
      specs
  in
  finish l ~start:t0 ~check gen cs

let bug_modules () =
  List.sort_uniq String.compare
    (List.map (fun (b : Corpus.Types.bug) -> b.bug_module) Corpus.Registry.bugs)

(** Table 4's shape: every bug-carrying module, booted alone, fuzzed
    with each suite family's module spec over [mb_seeds] seeds. *)
let module_bugs (z : sizes) ~seed ~check : round =
  let l = Layers.create () in
  let t0 = start () in
  let gen = Gen_phase.run l in
  let ctx = gen.ctx in
  let cs =
    List.concat_map
      (fun m ->
        let entry = Corpus.Registry.find_exn m in
        let machine = Gen_phase.boot l [ entry ] in
        force_jit l machine;
        let spec_of = function
          | "syzkaller" -> Baseline.Syzkaller_specs.spec_of_entry entry
          | "syzdescribe" -> Report.Suites.sd_spec ctx m
          | _ -> Some (Report.Suites.module_suite ctx m)
        in
        List.concat_map
          (fun fam ->
            match spec_of fam with
            | None -> []
            | Some spec ->
                List.init z.mb_seeds (fun i ->
                    init_campaign l
                      ~label:(Printf.sprintf "%s:%s:%d" m fam (i + 1))
                      ~family:fam ~boot_entries:[ entry ] ~machine ~budget:z.mb_budget
                      ~seed:(campaign_seed ~seed (i + 1))
                      spec))
          families)
      (bug_modules ())
  in
  finish l ~start:t0 ~check gen cs

(** The generation phase alone: boot, then every generation target
    through the KernelGPT pipeline and SyzDescribe with a fresh oracle.
    The corpus is the input, so the seed changes nothing here. *)
let spec_synthesis (_ : sizes) ~seed:_ ~check : round =
  let l = Layers.create () in
  let t0, a0 = start () in
  let entries = Corpus.Registry.loaded () in
  let machine = Gen_phase.boot l entries in
  let t1 = Layers.now () in
  let gen =
    Gen_phase.generate l ~machine ~entries ~targets:(Report.Suites.generation_targets entries)
  in
  let t2 = Layers.now () in
  let alloc_gb = (Gc.allocated_bytes () -. a0) /. 1e9 in
  let check_failed =
    if check then Checks.valid_specs l ~kernel:machine.index (Gen_phase.outcomes gen) else 0
  in
  {
    setup_s = t1 -. t0;
    wall_s = t2 -. t0;
    alloc_gb;
    work_s = Layers.get l "kernelgpt.pipeline_s";
    units = Gen_phase.valid_specs gen;
    ops = List.length gen.targets;
    failed = gen.raised + check_failed;
    gen;
    campaigns = [];
    layers = l;
    coverage = 0;
    crashes = [];
    bugs_found = [];
    digests = [ ("specs", md5 (Gen_phase.spec_texts gen)) ];
  }

let round kind z ~seed ~check =
  match kind with
  | Whole_kernel -> whole_kernel z ~seed ~check
  | Module_bugs -> module_bugs z ~seed ~check
  | Spec_synthesis -> spec_synthesis z ~seed ~check
