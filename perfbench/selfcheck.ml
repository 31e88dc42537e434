(* Self-check of the benchmark: every workload at its smallest size,
   traced, must pass its output checks and report exactly the metrics
   BENCHMARK.json names, each finite and with its unit; the fuzz
   workloads' attributed layers must add up to their wall time; and the
   generation phase the benchmark drives from outside must produce the
   specs [Report.Suites.build] produces. *)

open Perfbench

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      prerr_endline ("selfcheck: " ^ s))
    fmt

(* (name, unit) of each metric in one BENCHMARK.json list *)
let declared key =
  let text = In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all in
  let str k j = match Obs.Json.member k j with Some (Obs.Json.Str s) -> s | _ -> "" in
  match Result.map (Obs.Json.member key) (Obs.Json.parse text) with
  | Ok (Some (Obs.Json.List ms)) -> List.map (fun j -> (str "name" j, str "unit" j)) ms
  | _ -> failwith ("BENCHMARK.json has no list " ^ key)

let check_metrics what (declared : (string * string) list) (got : Bench.metric list) =
  let names = List.map (fun (m : Bench.metric) -> m.name) got in
  if List.sort compare names <> List.sort compare (List.map fst declared) then
    fail "%s: reported metrics differ from BENCHMARK.json's" what;
  List.iter
    (fun (m : Bench.metric) ->
      if not (Float.is_finite m.value) then fail "%s: %s is not finite" what m.name;
      match List.assoc_opt m.name declared with
      | Some u when u = m.unit && u <> "" -> ()
      | _ -> fail "%s: %s has unit %S, not BENCHMARK.json's" what m.name m.unit)
    got

(* The checks of one workload; returns how many failed. It runs in its
   own forked process: a traced run starts pool domains, after which a
   process can no longer fork the rounds of the next workload. *)
let check_workload e2e layer kind =
  let what = Workloads.name kind in
  let r = Bench.run kind Workloads.Small ~seed:1 ~seconds:0.0 ~trace:true ~out_dir:"." in
  if not r.correct || r.failed > 0 then
    fail "%s: %d of %d operations failed" what r.failed r.attempted;
  check_metrics (what ^ " end-to-end") e2e r.end_to_end;
  check_metrics (what ^ " per-layer") layer r.per_layer;
  if Workloads.is_fuzz kind then begin
    let v name = (List.find (fun (m : Bench.metric) -> m.name = name) r.per_layer).value in
    let parts =
      List.fold_left ( +. ) 0.0
        (List.map v
           [
             "bench.setup_s"; "fuzzer.generate_s"; "fuzzer.mutate_s"; "vkernel.exec_s";
             "fuzzer.loop_other_s";
           ])
    in
    if Float.abs (parts -. v "bench.wall_s") > 1e-6 *. v "bench.wall_s" then
      fail "%s: attributed layers sum to %g s, wall is %g s" what parts (v "bench.wall_s")
  end;
  !failures

let () =
  let e2e = declared "end_to_end" and layer = declared "per_layer" in
  List.iter
    (fun kind ->
      let n = Bench.forked (fun () -> check_workload e2e layer kind) in
      failures := !failures + n)
    Workloads.all;
  let ours = Gen_phase.run (Layers.create ()) in
  let theirs = { ours with ctx = Report.Suites.build () } in
  if Gen_phase.spec_texts ours <> Gen_phase.spec_texts theirs then
    fail "the benchmark's generation phase differs from Report.Suites.build";
  if !failures > 0 then exit 1
