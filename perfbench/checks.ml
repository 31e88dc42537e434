(** Output checks that hold for any correct program, not just for the
    outputs of one commit: a semantic fix that moves coverage or finds
    other crashes still passes them. Each returns the number of
    operations (campaigns or pipeline runs) that failed, and explains
    every failure on stderr. *)

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: check failed: " ^ s)) fmt

(** A campaign must run its whole budget, and every crash it reports
    must reproduce: its reproducer, executed with [Machine.exec_prog] on
    a freshly booted kernel (one boot per distinct module set), crashes
    with the same title. *)
let campaigns (runs : (string * Corpus.Types.entry list * int * Fuzzer.Campaign.result) list)
    : int =
  let boots = Hashtbl.create 16 in
  let fresh entries =
    let key = List.map (fun (e : Corpus.Types.entry) -> e.name) entries in
    match Hashtbl.find_opt boots key with
    | Some m -> m
    | None ->
        let m = Vkernel.Machine.boot entries in
        Hashtbl.replace boots key m;
        m
  in
  List.fold_left
    (fun failed (label, entries, budget, (res : Fuzzer.Campaign.result)) ->
      let ok_budget = res.executions = budget in
      if not ok_budget then fail "%s ran %d of %d executions" label res.executions budget;
      let ok_crashes =
        Hashtbl.fold
          (fun title prog ok ->
            let r =
              Vkernel.Machine.exec_prog ~step_budget:res.step_budget (fresh entries) prog
            in
            match r.crash with
            | Some c when c.cr_title = title -> ok
            | other ->
                fail "%s: reproducer of %S re-executes to %s" label title
                  (match other with Some c -> Printf.sprintf "%S" c.cr_title | None -> "no crash");
                false)
          res.crashes true
      in
      if ok_budget && ok_crashes then failed else failed + 1)
    0 runs

(** Every spec the pipeline marked valid must validate with zero errors. *)
let valid_specs (l : Layers.t) ~(kernel : Csrc.Index.t)
    (outcomes : Kernelgpt.Pipeline.outcome list) : int =
  List.fold_left
    (fun failed (o : Kernelgpt.Pipeline.outcome) ->
      match (o.o_valid, o.o_spec) with
      | false, _ -> failed
      | true, None ->
          fail "%s is marked valid but has no spec" o.o_entry;
          failed + 1
      | true, Some spec -> (
          match
            Layers.time l "syzlang.validate_s" (fun () -> Syzlang.Validate.validate ~kernel spec)
          with
          | [] -> failed
          | errs ->
              fail "%s is marked valid but re-validates with %d errors (first: %s)" o.o_entry
                (List.length errs)
                (Syzlang.Validate.error_to_string (List.hd errs));
              failed + 1))
    0 outcomes
