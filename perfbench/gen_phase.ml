(** The specification-generation phase, driven from outside: boot the
    whole loaded kernel, then run [Kernelgpt.Pipeline.run] and
    [Baseline.Syzdescribe.run] over every generation target with one
    fresh oracle. This is [Report.Suites.build ~jobs:1] unrolled so that
    the boot, every pipeline run and every SyzDescribe run are timed
    separately; the context it returns is the one [Suites.build] builds
    (the self-check compares their spec texts). *)

type t = {
  ctx : Report.Suites.ctx;
  targets : Corpus.Types.entry list;
  raised : int;  (** pipeline or SyzDescribe runs that raised *)
}

let boot (l : Layers.t) entries =
  Layers.time l "vkernel.boot_s" (fun () -> Vkernel.Machine.boot entries)

(** Run the generation phase over [targets] on an already booted whole
    kernel. A run that raises leaves its entry spec-less, as a
    quarantined pool task does in [Suites.build]. *)
let generate (l : Layers.t) ~(machine : Vkernel.Machine.t) ~entries ~targets : t =
  let kernel = machine.Vkernel.Machine.index in
  let oracle = Oracle.create ~profile:Profile.gpt4 ~knowledge:kernel () in
  let kgpt = Hashtbl.create 256 and sd = Hashtbl.create 256 in
  let raised = ref 0 in
  List.iter
    (fun (e : Corpus.Types.entry) ->
      match
        ( Layers.time l "kernelgpt.pipeline_s" (fun () ->
              Kernelgpt.Pipeline.run ~oracle ~kernel e),
          Layers.time l "baseline.syzdescribe_s" (fun () -> Baseline.Syzdescribe.run e) )
      with
      | kg, sd_out ->
          Hashtbl.replace kgpt e.name kg;
          Hashtbl.replace sd e.name sd_out
      | exception _ -> incr raised)
    targets;
  {
    ctx =
      {
        Report.Suites.machine;
        kernel;
        entries;
        oracle;
        query_budget = None;
        kgpt;
        sd;
        degraded = [];
      };
    targets;
    raised = !raised;
  }

(** Boot the whole loaded kernel and generate specs for every target. *)
let run (l : Layers.t) : t =
  let entries = Corpus.Registry.loaded () in
  let machine = boot l entries in
  generate l ~machine ~entries ~targets:(Report.Suites.generation_targets entries)

let outcomes (g : t) : Kernelgpt.Pipeline.outcome list =
  List.filter_map
    (fun (e : Corpus.Types.entry) -> Hashtbl.find_opt g.ctx.Report.Suites.kgpt e.name)
    g.targets

let valid_specs g =
  List.length (List.filter (fun (o : Kernelgpt.Pipeline.outcome) -> o.o_valid) (outcomes g))

let queries g = g.ctx.Report.Suites.oracle.Oracle.queries

(** Every generated spec as text, in target order: the KernelGPT spec
    with its validity flags, then the SyzDescribe spec. *)
let spec_texts (g : t) : string list =
  let text = function Some s -> Syzlang.Printer.spec_str s | None -> "-" in
  List.concat_map
    (fun (e : Corpus.Types.entry) ->
      let kg =
        match Hashtbl.find_opt g.ctx.Report.Suites.kgpt e.name with
        | Some o ->
            Printf.sprintf "%s valid=%b usable=%b\n%s" e.name o.o_valid o.o_usable
              (text o.o_spec)
        | None -> e.name ^ " raised"
      in
      let sd = text (Report.Suites.sd_spec g.ctx e.name) in
      [ kg; sd ])
    g.targets
