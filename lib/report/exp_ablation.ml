(** E8/E9: the §5.2.3 ablations — iterative multi-stage prompting vs
    all-in-one prompting, and the LLM-choice study. Both run on the first
    ten valid Table 5 drivers, as the paper does. *)

type variant_result = {
  v_name : string;
  v_syscalls : int;
  v_types : int;
  v_cov : float;
  v_queries : int;
  v_tokens : int;
  v_execs : int;  (** total program executions (feeds BENCH_*.json) *)
  v_drivers : int;  (** drivers scheduled for this variant *)
  v_dropped : int;  (** drivers quarantined by the pool *)
}

(* Each driver is an independent pool task: it runs the pipeline on
   the driver's machine (booted once for every variant) and fuzzes the
   resulting spec. Per-driver partials fold in registry order, so the
   floating-point coverage sum matches the sequential loop exactly. *)
let measure ~(machines : (string, Vkernel.Machine.t) Hashtbl.t) ~(name : string)
    ~(profile : Profile.t) ~(mode : Kernelgpt.Pipeline.mode) ?(reps = 2) ?(budget = 3000)
    ?(jobs = 1) ?cache () : variant_result =
  let drivers = Array.of_list (Corpus.Registry.ablation_drivers ()) in
  let partials =
    Kernelgpt.Pool.map_outcomes ~jobs
      ~label:(fun _ (e : Corpus.Types.entry) -> Printf.sprintf "ablation:%s:%s" name e.name)
      ~f:(fun (e : Corpus.Types.entry) ->
        let machine = Hashtbl.find machines e.name in
        let kernel = machine.Vkernel.Machine.index in
        let oracle = Oracle.create ~profile ~knowledge:kernel () in
        (* without a cache this client is a plain pass-through *)
        let client = Client.create ?cache oracle in
        let out = Kernelgpt.Pipeline.run ~mode ~client ~oracle ~kernel e in
        match out.o_spec with
        | Some spec when out.o_valid ->
            let covs = ref 0.0 in
            let execs = ref 0 in
            for rep = 1 to reps do
              let res = Fuzzer.Campaign.run ~seed:(rep * 31337) ~budget ~machine spec in
              execs := !execs + res.executions;
              covs := !covs +. float_of_int (Fuzzer.Campaign.module_coverage machine res e.name)
            done;
            ( out.o_queries,
              out.o_tokens,
              !execs,
              Some
                ( Syzlang.Ast.count_syscalls spec,
                  Syzlang.Ast.count_types spec,
                  !covs /. float_of_int reps ) )
        | _ -> (out.o_queries, out.o_tokens, 0, None))
      drivers
  in
  let syscalls = ref 0 and types = ref 0 in
  let cov = ref 0.0 in
  let queries = ref 0 and tokens = ref 0 in
  let execs = ref 0 in
  let dropped = ref 0 in
  Array.iter
    (function
      | Kernelgpt.Pool.Failed _ -> incr dropped
      | Kernelgpt.Pool.Ok (q, t, e, fuzzed) -> (
          queries := !queries + q;
          tokens := !tokens + t;
          execs := !execs + e;
          match fuzzed with
          | Some (s, ty, c) ->
              syscalls := !syscalls + s;
              types := !types + ty;
              cov := !cov +. c
          | None -> ()))
    partials;
  {
    v_name = name;
    v_syscalls = !syscalls;
    v_types = !types;
    v_cov = !cov;
    v_queries = !queries;
    v_tokens = !tokens;
    v_execs = !execs;
    v_drivers = Array.length drivers;
    v_dropped = !dropped;
  }

type ablation = { iter_rows : variant_result list; llm_rows : variant_result list }

let run ?(reps = 2) ?(budget = 3000) ?(jobs = 1) ?cache () : ablation =
  let machines = Suites.boot_each (Corpus.Registry.ablation_drivers ()) in
  let m = measure ~machines ~reps ~budget ~jobs ?cache in
  {
    iter_rows =
      [
        m ~name:"Iterative multi-stage" ~profile:Profile.gpt4 ~mode:Kernelgpt.Pipeline.Iterative ();
        m ~name:"All-in-one prompt" ~profile:Profile.gpt4 ~mode:Kernelgpt.Pipeline.All_in_one ();
      ];
    llm_rows =
      [
        m ~name:"GPT-3.5" ~profile:Profile.gpt35 ~mode:Kernelgpt.Pipeline.Iterative ();
        m ~name:"GPT-4" ~profile:Profile.gpt4 ~mode:Kernelgpt.Pipeline.Iterative ();
        m ~name:"GPT-4o" ~profile:Profile.gpt4o ~mode:Kernelgpt.Pipeline.Iterative ();
      ];
  }

let print_rows title rows =
  Table.section title;
  Table.print
    ~align:[ Table.L; Table.R; Table.R; Table.R; Table.R; Table.R ]
    ~header:[ ""; "#Syscalls"; "#Types"; "Cov"; "Queries"; "Prompt tokens" ]
    (List.map
       (fun v ->
         let name =
           if v.v_dropped > 0 then begin
             Exp_resilience.note_degraded ();
             Printf.sprintf "%s [degraded %d/%d drivers]" v.v_name v.v_dropped v.v_drivers
           end
           else v.v_name
         in
         [
           name;
           string_of_int v.v_syscalls;
           string_of_int v.v_types;
           Printf.sprintf "%.0f" v.v_cov;
           string_of_int v.v_queries;
           string_of_int v.v_tokens;
         ])
       rows)

let print (a : ablation) =
  print_rows "Ablation 1 (§5.2.3): iterative multi-stage vs all-in-one prompting" a.iter_rows;
  print_rows "Ablation 2 (§5.2.3): LLM choice" a.llm_rows

(* ------------------------------------------------------------------ *)
(* Scheduling ablation: uniform vs UCB over the Table 4 bug modules    *)
(* ------------------------------------------------------------------ *)

type sched_row = {
  s_module : string;
  s_uniform_ttc : int option;
      (** executions to the first crash under uniform scheduling
          (best over seeds); [None] when no seed crashed *)
  s_ucb_ttc : int option;  (** same, under UCB scheduling *)
  s_uniform_cov : float;  (** mean module coverage, uniform *)
  s_ucb_cov : float;  (** mean module coverage, UCB *)
  s_uniform_deg : bool;  (** that mode's campaign task was quarantined *)
  s_ucb_deg : bool;
}

type sched_ablation = { sched_rows : sched_row list; sa_execs : int }

(* One pool task per (module, mode): the Table 4 bug modules fuzzed with
   their combined suite under each scheduling mode, [seeds] campaigns
   each. Time-to-first-crash is the best (minimum) first-crash execution
   counter across seeds — the "how fast does the scheduler steer into
   the bug" number. *)
let run_sched ?(budget = 20_000) ?(seeds = 3) ?(jobs = 1) (ctx : Suites.ctx) :
    sched_ablation =
  let modules =
    List.sort_uniq compare
      (List.map (fun b -> b.Corpus.Types.bug_module) Corpus.Registry.bugs)
  in
  let tasks =
    Array.of_list
      (List.concat_map
         (fun m -> [ (m, Fuzzer.Schedule.Uniform); (m, Fuzzer.Schedule.Ucb) ])
         modules)
  in
  let machines = Suites.boot_each (List.map Corpus.Registry.find_exn modules) in
  let results =
    Kernelgpt.Pool.map_outcomes ~jobs
      ~label:(fun _ (m, mode) ->
        Printf.sprintf "ablation-sched:%s:%s" m (Fuzzer.Schedule.mode_to_string mode))
      ~f:(fun (m, mode) ->
        let machine = Hashtbl.find machines m in
        let spec = Suites.module_suite ctx m in
        (* TTC scores the module's Table 4 *injected* bugs only:
           campaigns also surface shallow emergent crashes within a
           handful of executions, which would saturate the metric *)
        let injected =
          List.filter_map
            (fun (b : Corpus.Types.bug) ->
              if b.bug_module = m then Some b.bug_title else None)
            Corpus.Registry.bugs
        in
        let ttc = ref None in
        let cov = ref 0.0 in
        let execs = ref 0 in
        for s = 1 to seeds do
          let res =
            Fuzzer.Campaign.run ~seed:(s * 1299721) ~budget ~sched:mode
              ~machine spec
          in
          execs := !execs + res.executions;
          cov := !cov +. float_of_int (Fuzzer.Campaign.module_coverage machine res m);
          List.iter
            (fun (title, e) ->
              if List.mem title injected then
                match !ttc with
                | Some best when best <= e -> ()
                | _ -> ttc := Some e)
            res.first_crash_execs
        done;
        (!ttc, !cov /. float_of_int (max 1 seeds), !execs))
      tasks
  in
  let find_mode m mode =
    (* a quarantined task leaves the mode's numbers unknown, not zero *)
    let row = ref ((None, 0.0, 0), false) in
    Array.iteri
      (fun i r ->
        let m', mode' = tasks.(i) in
        if m' = m && mode' = mode then
          match r with
          | Kernelgpt.Pool.Ok v -> row := (v, false)
          | Kernelgpt.Pool.Failed _ -> row := ((None, 0.0, 0), true))
      results;
    !row
  in
  {
    sched_rows =
      List.map
        (fun m ->
          let (u_ttc, u_cov, _), u_deg = find_mode m Fuzzer.Schedule.Uniform in
          let (a_ttc, a_cov, _), a_deg = find_mode m Fuzzer.Schedule.Ucb in
          {
            s_module = m;
            s_uniform_ttc = u_ttc;
            s_ucb_ttc = a_ttc;
            s_uniform_cov = u_cov;
            s_ucb_cov = a_cov;
            s_uniform_deg = u_deg;
            s_ucb_deg = a_deg;
          })
        modules;
    sa_execs =
      Array.fold_left
        (fun acc r ->
          match r with
          | Kernelgpt.Pool.Ok (_, _, e) -> acc + e
          | Kernelgpt.Pool.Failed _ -> acc)
        0 results;
  }

let print_sched (a : sched_ablation) =
  Table.section "Ablation 3: uniform vs UCB seed/operator scheduling (Table 4 modules)";
  let ttc ~degraded = function
    | Some e -> string_of_int e
    | None -> if degraded then "?" else "-"
  in
  let cov ~degraded c = if degraded then "?" else Printf.sprintf "%.0f" c in
  Table.print
    ~align:[ Table.L; Table.R; Table.R; Table.R; Table.R ]
    ~header:[ "Module"; "Uniform TTC"; "UCB TTC"; "Uniform Cov"; "UCB Cov" ]
    (List.map
       (fun r ->
         if r.s_uniform_deg || r.s_ucb_deg then Exp_resilience.note_degraded ();
         [
           r.s_module;
           ttc ~degraded:r.s_uniform_deg r.s_uniform_ttc;
           ttc ~degraded:r.s_ucb_deg r.s_ucb_ttc;
           cov ~degraded:r.s_uniform_deg r.s_uniform_cov;
           cov ~degraded:r.s_ucb_deg r.s_ucb_cov;
         ])
       a.sched_rows);
  if List.exists (fun r -> r.s_uniform_deg || r.s_ucb_deg) a.sched_rows then
    Printf.printf "? = campaign quarantined by the worker pool; result unknown\n";
  (* TTC = executions to the first *injected* (Table 4) crash, best
     seed; lower is better; "-" = never triggered within budget *)
  let wins =
    List.length
      (List.filter
         (fun r ->
           (* a degraded mode has an unknown TTC, not a losing one *)
           (not (r.s_uniform_deg || r.s_ucb_deg))
           &&
           match (r.s_uniform_ttc, r.s_ucb_ttc) with
           | Some u, Some a -> a < u
           | None, Some _ -> true
           | _ -> false)
         a.sched_rows)
  in
  Printf.printf "UCB reaches the first injected crash earlier on %d/%d modules\n" wins
    (List.length a.sched_rows)
