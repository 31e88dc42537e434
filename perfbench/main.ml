(** The repository benchmark.

    Usage (from the repository root, through [perfbench/run.sh], which
    builds this program first):
      perfbench/run.sh --workload whole-kernel --seed 1 --seconds 20 --trace 0

    [--trace 0] prints every end-to-end metric; [--trace 1] additionally
    traces one round, probes the layers and measures the worker pool,
    and prints the per-layer metrics. Human-readable lines come first;
    the last line of stdout is one JSON object with the keys [correct],
    [attempted], [failed] and [metrics]. [--out DIR] (default
    [.perfbench_out]) receives the trace file. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload whole-kernel|module-bugs|spec-synthesis --seed N --seconds S \
     --trace 0|1 [--out DIR]";
  exit 2

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        opts ((k, v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = opts [] args in
  let get k = List.assoc_opt k opts in
  let int k = Option.bind (get k) int_of_string_opt in
  let kind = Option.bind (get "--workload") Perfbench.Workloads.of_name in
  match (kind, int "--seed", Option.bind (get "--seconds") float_of_string_opt, int "--trace") with
  | Some kind, Some seed, Some seconds, Some trace when trace = 0 || trace = 1 -> (
      let out_dir = Option.value (get "--out") ~default:".perfbench_out" in
      let trace = trace = 1 in
      match Perfbench.Bench.run kind Perfbench.Workloads.Full ~seed ~seconds ~trace ~out_dir with
      | r ->
          List.iter print_endline r.notes;
          print_endline (Perfbench.Bench.json r (if trace then r.per_layer else r.end_to_end))
      | exception e ->
          prerr_endline ("perfbench: " ^ Printexc.to_string e);
          exit 1)
  | _ -> usage ()
