(** Shared experiment context: the booted kernel, generated
    specifications, and the three specification suites the paper
    compares (Syzkaller, Syzkaller+SyzDescribe, Syzkaller+KernelGPT). *)

type ctx = {
  machine : Vkernel.Machine.t;  (** whole loaded kernel *)
  kernel : Csrc.Index.t;
  entries : Corpus.Types.entry list;  (** loaded modules *)
  oracle : Oracle.t;
  query_budget : Client.budget option;
      (** the run's shared query budget, when one was set *)
  kgpt : (string, Kernelgpt.Pipeline.outcome) Hashtbl.t;
  sd : (string, Baseline.Syzdescribe.outcome) Hashtbl.t;
  degraded : (string * string) list;
      (** pipeline tasks quarantined by the pool (entry name, reason),
          in entry order; downstream suites treat them as spec-less *)
}

(** Modules KernelGPT generates specs for in §5.1: loaded handlers with
    missing descriptions. §5.2 additionally targets the Table 5/6
    modules. *)
let generation_targets (entries : Corpus.Types.entry list) : Corpus.Types.entry list =
  List.filter
    (fun (e : Corpus.Types.entry) ->
      Baseline.Syzkaller_specs.is_incomplete e || e.in_table5 || e.in_table6)
    entries

(** Build the shared context. [jobs > 1] shards the per-entry pipeline
    runs over a domain pool; every worker gets a private definition
    index over the booted kernel's files (the ASTs are immutable and
    shared; the index's memo tables are not) and a private oracle (it
    counts), and the outcomes are merged in entry order, so the context
    is identical to a sequential build. A [faults] plan
    and/or a [query_budget] route every pipeline query through a
    fault-tolerant {!Client} (the budget is one atomic counter shared by
    all workers); with neither set the client is a pass-through and the
    build is bit-for-bit what it always was. A [cache] is shared by
    every worker's client: any worker's oracle answer serves them all,
    and on a warm cache the build performs no oracle queries at all
    while reporting the cold run's costs ({!Cache.replay}). *)
let build ?(profile = Profile.gpt4) ?(jobs = 1) ?faults ?query_budget ?cache () : ctx =
  let entries = Corpus.Registry.loaded () in
  let machine = Vkernel.Machine.boot entries in
  let kernel = machine.Vkernel.Machine.index in
  let budget = Option.map Client.budget query_budget in
  let client_of oracle = Client.create ?plan:faults ?query_budget:budget ?cache oracle in
  let oracle = Oracle.create ~profile ~knowledge:kernel () in
  let kgpt = Hashtbl.create 256 in
  let sd = Hashtbl.create 256 in
  let targets = Array.of_list (generation_targets entries) in
  let outcomes =
    Kernelgpt.Pool.map_outcomes ~jobs
      ~label:(fun _ (e : Corpus.Types.entry) -> "pipeline:" ^ e.name)
      ~init:(fun () ->
        (* every worker — the sequential one included — gets a private
           oracle; accounting folds from the successful outcomes below,
           so a retried attempt never double-counts queries or tokens *)
        if jobs <= 1 then (client_of (Oracle.create ~profile ~knowledge:kernel ()), kernel)
        else
          let k = Csrc.Index.of_files kernel.Csrc.Index.files in
          (client_of (Oracle.create ~profile ~knowledge:k ()), k))
      ~f:(fun (client, kernel) (e : Corpus.Types.entry) ->
        let oracle = Client.oracle client in
        (Kernelgpt.Pipeline.run ~client ~oracle ~kernel e, Baseline.Syzdescribe.run e))
      targets
  in
  let degraded = ref [] in
  Array.iteri
    (fun i out ->
      let e = targets.(i) in
      match out with
      | Kernelgpt.Pool.Ok ((kg_out : Kernelgpt.Pipeline.outcome), sd_out) ->
          Hashtbl.replace kgpt e.Corpus.Types.name kg_out;
          Hashtbl.replace sd e.Corpus.Types.name sd_out;
          oracle.Oracle.queries <- oracle.Oracle.queries + kg_out.o_queries;
          oracle.Oracle.prompt_tokens <- oracle.Oracle.prompt_tokens + kg_out.o_tokens
      | Kernelgpt.Pool.Failed fl ->
          degraded := (e.Corpus.Types.name, Printexc.to_string fl.f_exn) :: !degraded)
    outcomes;
  {
    machine;
    kernel;
    entries;
    oracle;
    query_budget = budget;
    kgpt;
    sd;
    degraded = List.rev !degraded;
  }

let kgpt_outcome ctx name = Hashtbl.find_opt ctx.kgpt name

let kgpt_spec ctx name : Syzlang.Ast.spec option =
  match Hashtbl.find_opt ctx.kgpt name with
  | Some o when o.Kernelgpt.Pipeline.o_usable -> o.o_spec
  | _ -> None

let sd_spec ctx name : Syzlang.Ast.spec option =
  match Hashtbl.find_opt ctx.sd name with
  | Some o -> o.Baseline.Syzdescribe.sd_spec
  | None -> None

(** Suite 1: the hand-written Syzkaller descriptions. *)
let syzkaller_suite ctx : Syzlang.Ast.spec =
  Baseline.Syzkaller_specs.suite ~name:"syzkaller" ctx.entries

(** Suite 2: Syzkaller + SyzDescribe-generated driver specs. *)
let syzdescribe_suite ctx : Syzlang.Ast.spec =
  let extra = List.filter_map (fun (e : Corpus.Types.entry) -> sd_spec ctx e.name) ctx.entries in
  Syzlang.Merge.merge_all ~name:"syzkaller+syzdescribe" (syzkaller_suite ctx :: extra)

(** Suite 3: Syzkaller + KernelGPT-generated specs for the handlers with
    missing descriptions. *)
let kernelgpt_suite ctx : Syzlang.Ast.spec =
  let extra =
    List.filter_map
      (fun (e : Corpus.Types.entry) ->
        if Baseline.Syzkaller_specs.is_incomplete e then kgpt_spec ctx e.name else None)
      ctx.entries
  in
  Syzlang.Merge.merge_all ~name:"syzkaller+kernelgpt" (syzkaller_suite ctx :: extra)

(** Per-module suite for Table 4-style bug hunting: the module's manual
    spec (if any) merged with its generated one. *)
let module_suite ctx (name : string) : Syzlang.Ast.spec =
  let manual =
    Option.bind (Corpus.Registry.find name) Baseline.Syzkaller_specs.spec_of_entry
  in
  Syzlang.Merge.merge_all ~name (Option.to_list (kgpt_spec ctx name) @ Option.to_list manual)
