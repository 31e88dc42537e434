(** The layer probe: replays a fixed sample of a campaign's programs
    through the fuzzer's and the kernel's public functions and measures
    each call's wall-clock time and minor-heap words. The campaign's
    own [fuzz.op.<name>] counters then turn these per-call costs into
    attributed seconds (see {!Bench}). *)

type cost = { per_call_s : float; per_call_words : float }

type t = {
  generate : cost;
  ops : cost array;  (** indexed like {!Fuzzer.Mutator.all} *)
  exec : cost;
}

(* Calls of a few microseconds are below the clock's resolution, so a
   batch runs the whole sample repeatedly until it has taken at least
   [min_batch_s], and the cost is the batch's mean. *)
let min_batch_s = 0.005

let batch (f : 'a -> unit) (items : 'a array) : cost =
  let calls = ref 0 in
  let t0 = Layers.now () and w0 = Gc.minor_words () in
  while !calls = 0 || Layers.now () -. t0 < min_batch_s do
    Array.iter f items;
    calls := !calls + Array.length items
  done;
  let n = float_of_int (max 1 !calls) in
  { per_call_s = (Layers.now () -. t0) /. n; per_call_words = (Gc.minor_words () -. w0) /. n }

(** Probe one driven campaign with [n] programs sampled evenly from its
    final corpus (fresh programs when the corpus is empty). Resolving
    and preparing the spec are timed too: they are the spec-dependent
    part of [Campaign.init]. *)
let run (l : Layers.t) ~(n : int) (c : Workloads.campaign) : t =
  let machine = c.Workloads.machine in
  let spec =
    Layers.time l "syzlang.resolve_s" (fun () ->
        Syzlang.Validate.resolve_spec ~kernel:machine.Vkernel.Machine.index c.spec)
  in
  let gen = Layers.time l "fuzzer.prepare_s" (fun () -> Fuzzer.Proggen.prepare spec) in
  let rng = Fuzzer.Rng.make 0x5eed in
  let corpus =
    Array.of_list (List.map (fun (p, _, _) -> p) (Fuzzer.Campaign.snapshot c.state).corpus)
  in
  let sample =
    if Array.length corpus = 0 then Array.init n (fun _ -> Fuzzer.Proggen.generate gen rng ())
    else Array.init n (fun i -> corpus.(i * Array.length corpus / n))
  in
  let generate = batch (fun () -> ignore (Fuzzer.Proggen.generate gen rng ())) (Array.make n ()) in
  let ops =
    Array.map
      (fun op ->
        let k = ref 0 in
        let partner () =
          incr k;
          sample.(!k mod n)
        in
        batch (fun p -> ignore (Fuzzer.Mutator.apply gen rng op ~partner p)) sample)
      Fuzzer.Mutator.all
  in
  let step_budget = (Fuzzer.Campaign.result c.state).step_budget in
  let sink = Vkernel.Machine.new_sink machine in
  let exec =
    batch
      (fun p ->
        ignore (Vkernel.Machine.exec_prog_sink ~step_budget ~sink machine p);
        Vkernel.Machine.sink_reset sink)
      sample
  in
  { generate; ops; exec }
