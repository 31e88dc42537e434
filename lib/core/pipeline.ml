(** End-to-end KernelGPT pipeline for one operation handler:
    extraction → iterative stages → spec synthesis → validation and
    repair (§3). *)

type mode = Iterative | All_in_one

type outcome = {
  o_entry : string;  (** registry key of the module *)
  o_spec : Syzlang.Ast.spec option;
  o_valid : bool;  (** passed validation intact (possibly after repair) *)
  o_usable : bool;
      (** the final spec validates, possibly after pruning descriptions
          that could not be repaired — usable for fuzzing even when not
          counted "valid" *)
  o_direct_valid : bool;  (** passed validation before any repair *)
  o_repaired : bool;  (** repair changed the spec *)
  o_errors : Syzlang.Validate.error list;  (** remaining errors *)
  o_queries : int;
  o_tokens : int;
  o_iterations : int;
  o_faults : int;  (** transport faults injected into this module's queries *)
  o_retries : int;  (** attempts retried after a fault *)
  o_recovered : int;  (** queries that succeeded after ≥ 1 fault *)
  o_degraded : int;  (** queries that never succeeded (partial results) *)
}

let failed_outcome name =
  {
    o_entry = name;
    o_spec = None;
    o_valid = false;
    o_usable = false;
    o_direct_valid = false;
    o_repaired = false;
    o_errors = [];
    o_queries = 0;
    o_tokens = 0;
    o_iterations = 0;
    o_faults = 0;
    o_retries = 0;
    o_recovered = 0;
    o_degraded = 0;
  }

let max_repair_rounds = 3

(** Rounds the repair loop may skip — refund rather than spend — when
    every query in the round degraded; bounds the loop when the oracle
    never comes back. *)
let max_skipped_rounds = 3

(** Validate and, if needed, repair a spec by consulting the oracle with
    the error messages (§3.2). A round in which {e every} repair query
    degraded (the fault-tolerant client gave up on all of them) is
    skipped, not spent: it does not count against [max_repair_rounds],
    and up to [max_skipped_rounds] such rounds are refunded before the
    loop gives up. A round where the oracle did answer but nothing
    improved ends the loop early — it is out of ideas, not out of
    luck. *)
let validate_and_repair ?client ~(oracle : Oracle.t) ~(kernel : Csrc.Index.t)
    (spec : Syzlang.Ast.spec) : Syzlang.Ast.spec * bool * bool * Syzlang.Validate.error list =
  let client = match client with Some c -> c | None -> Client.pass_through oracle in
  let errors0 = Syzlang.Validate.validate ~kernel spec in
  if errors0 = [] then begin
    Obs.Metrics.incr "repair.outcome.direct";
    (spec, true, false, [])
  end
  else begin
    let spec = ref spec in
    let errors = ref errors0 in
    let round = ref 0 in
    let skipped = ref 0 in
    let changed = ref false in
    Obs.with_span
      ~attrs:(fun () ->
        [
          ("errors_initial", Obs.Json.Int (List.length errors0));
          ("errors_final", Obs.Json.Int (List.length !errors));
          ("rounds", Obs.Json.Int !round);
        ])
      ~kind:"pipeline.stage" "validate"
    @@ fun () ->
    while !errors <> [] && !round < max_repair_rounds do
      incr round;
      Obs.Metrics.incr "repair.rounds";
      let errors_before = List.length !errors in
      Obs.with_span
        ~attrs:(fun () ->
          [
            ("errors_before", Obs.Json.Int errors_before);
            ("errors_after", Obs.Json.Int (List.length !errors));
          ])
        ~kind:"repair.round"
        ("round-" ^ string_of_int !round)
      @@ fun () ->
      let progressed = ref false in
      let degraded = ref 0 in
      List.iter
        (fun (e : Syzlang.Validate.error) ->
          let item = Syzlang.Validate.item_to_string e.err_item in
          let description =
            (* the offending description, as text, for the repair prompt *)
            match e.err_item with
            | Syzlang.Validate.In_syscall full -> (
                match
                  List.find_opt
                    (fun c -> Syzlang.Ast.syscall_full_name c = full)
                    !spec.Syzlang.Ast.syscalls
                with
                | Some c -> Syzlang.Printer.syscall_str c
                | None -> full)
            | Syzlang.Validate.In_type tn -> (
                match
                  List.find_opt (fun c -> c.Syzlang.Ast.comp_name = tn) !spec.Syzlang.Ast.types
                with
                | Some c -> Syzlang.Printer.comp_str c
                | None -> tn)
            | Syzlang.Validate.In_flag_set n | Syzlang.Validate.In_resource n -> n
          in
          match
            Client.query client
              {
                Prompt.task = Prompt.Repair { item; description; error = e.err_msg };
                snippets = [];
                usage = [];
              }
          with
          | None -> incr degraded
          | Some resp -> (
              match (resp.Prompt.r_repaired, e.err_ident) with
              | Some good, Some bad ->
                  let next = Syzlang.Rewrite.substitute_name !spec ~bad ~good in
                  if next <> !spec then begin
                    spec := next;
                    progressed := true;
                    changed := true
                  end
              | _ ->
                  (* no fix, or an error that names no identifier (empty
                     struct, bad ioctl shape, ...): nothing to substitute *)
                  ()))
        !errors;
      errors := Syzlang.Validate.validate ~kernel !spec;
      if not !progressed then
        if !degraded = errors_before && !skipped < max_skipped_rounds then begin
          (* every query this round degraded: the oracle was down, not
             out of answers.  Refund the round so the full repair budget
             retries once the client recovers; [max_skipped_rounds]
             keeps the loop finite when it never does *)
          incr skipped;
          decr round;
          Obs.Metrics.incr "repair.skipped_rounds"
        end
        else
          (* at least one query got a real answer and nothing improved
             (or the skip budget is spent): stop retrying *)
          round := max_repair_rounds
    done;
    Obs.Metrics.incr
      (if !errors = [] then "repair.outcome.fixed" else "repair.outcome.failed");
    (!spec, !errors = [], !changed, !errors)
  end

(** Drop the descriptions validation still rejects (what a maintainer
    does with an unrepairable entry before merging the rest). Iterates to
    a fixpoint since removing a type can orphan a syscall. *)
let prune ~(kernel : Csrc.Index.t) (spec : Syzlang.Ast.spec) :
    Syzlang.Ast.spec * Syzlang.Validate.error list =
  let rec go spec rounds =
    let errors = Syzlang.Validate.validate ~kernel spec in
    if errors = [] || rounds = 0 then (spec, errors)
    else begin
      let bad_calls =
        List.filter_map
          (fun (e : Syzlang.Validate.error) ->
            match e.err_item with Syzlang.Validate.In_syscall s -> Some s | _ -> None)
          errors
      in
      let bad_resources =
        List.filter_map
          (fun (e : Syzlang.Validate.error) ->
            match e.err_item with Syzlang.Validate.In_resource r -> Some r | _ -> None)
          errors
      in
      let bad_types =
        List.filter_map
          (fun (e : Syzlang.Validate.error) ->
            match e.err_item with Syzlang.Validate.In_type t -> Some t | _ -> None)
          errors
      in
      let bad_sets =
        List.filter_map
          (fun (e : Syzlang.Validate.error) ->
            match e.err_item with Syzlang.Validate.In_flag_set f -> Some f | _ -> None)
          errors
      in
      let spec =
        {
          spec with
          Syzlang.Ast.syscalls =
            List.filter
              (fun (c : Syzlang.Ast.syscall) ->
                (not (List.mem (Syzlang.Ast.syscall_full_name c) bad_calls))
                (* a syscall returning a pruned resource is orphaned too *)
                && not
                     (match c.Syzlang.Ast.ret with
                     | Some r -> List.mem r bad_resources
                     | None -> false))
              spec.Syzlang.Ast.syscalls;
          resources =
            List.filter
              (fun (r : Syzlang.Ast.resource_def) ->
                not (List.mem r.Syzlang.Ast.res_name bad_resources))
              spec.Syzlang.Ast.resources;
          types =
            List.filter (fun c -> not (List.mem c.Syzlang.Ast.comp_name bad_types)) spec.types;
          flag_sets =
            List.filter (fun f -> not (List.mem f.Syzlang.Ast.set_name bad_sets)) spec.flag_sets;
        }
      in
      go spec (rounds - 1)
    end
  in
  go spec 4

(* ------------------------------------------------------------------ *)
(* Drivers                                                             *)
(* ------------------------------------------------------------------ *)

let ioctl_fn_of (hi : Extractor.handler_info) : string option =
  match List.assoc_opt "unlocked_ioctl" hi.hi_handlers with
  | Some fn -> Some fn
  | None -> List.assoc_opt "ioctl" hi.hi_handlers

(** Stamp an outcome with the client's resilience deltas since [s0] —
    applied to every exit of a module run, failed ones included, so the
    report's fault accounting misses nothing. *)
let resilient ~(client : Client.t) ~(s0 : Client.stats) (o : outcome) : outcome =
  let d = Client.diff (Client.snapshot client) s0 in
  {
    o with
    o_faults = d.Client.s_faults;
    o_retries = d.Client.s_retries;
    o_recovered = d.Client.s_recovered;
    o_degraded = d.Client.s_degraded;
  }

let run_driver ~(mode : mode) ~(client : Client.t) ~(kernel : Csrc.Index.t)
    (entry : Corpus.Types.entry) : outcome =
  let oracle = Client.oracle client in
  let q0 = oracle.Oracle.queries and t0 = oracle.Oracle.prompt_tokens in
  let s0 = Client.snapshot client in
  let resilient = resilient ~client ~s0 in
  let midx, infos =
    Obs.with_span
      ~attrs:(fun () -> [ ("entry", Obs.Json.Str entry.name) ])
      ~kind:"pipeline.stage" "extraction"
    @@ fun () ->
    let midx = Extractor.entry_index ~kernel entry in
    (midx, Extractor.extract midx)
  in
  match Extractor.main_handler infos with
  | None -> resilient (failed_outcome entry.name)
  | Some hi -> (
      let stats = Engine.new_stats () in
      let device_path =
        match hi.hi_reg_symbol with
        | Some reg -> Engine.device_stage ~client ~module_index:midx ~reg_symbol:reg
        | None -> None
      in
      match device_path with
      | None -> resilient (failed_outcome entry.name)
      | Some path ->
          let idents, types, deps =
            match (mode, ioctl_fn_of hi) with
            | _, None -> ([], [], [])
            | Iterative, Some ioctl_fn ->
                let idents =
                  Engine.identifier_stage ~client ~module_index:midx ~handler_fn:ioctl_fn ~stats
                in
                let deps =
                  Engine.dependency_stage ~client ~module_index:midx ~handler_fn:ioctl_fn ~stats
                in
                let type_names =
                  List.filter_map (fun (i : Prompt.ident) -> i.id_arg_type) idents
                  |> List.sort_uniq String.compare
                in
                (idents, Engine.type_stage ~client ~module_index:midx ~type_names ~stats, deps)
            | All_in_one, Some ioctl_fn ->
                let idents, types, deps =
                  Engine.all_in_one ~client ~module_index:midx ~handler_fn:ioctl_fn
                in
                stats.Engine.iterations <- 1;
                (idents, types, deps)
          in
          (* dependent handlers (anon-inode fds): analyze their commands *)
          let dep_blocks, dep_types =
            List.fold_left
              (fun (blocks, extra_types) (d : Prompt.dep) ->
                match Extractor.find_handler infos d.dep_ops with
                | None -> (blocks, extra_types)
                | Some dep_hi -> (
                    match ioctl_fn_of dep_hi with
                    | None -> (blocks, extra_types)
                    | Some dep_fn when mode = Iterative ->
                        let dep_idents =
                          Engine.identifier_stage ~client ~module_index:midx ~handler_fn:dep_fn
                            ~stats
                        in
                        let dep_deps =
                          Engine.dependency_stage ~client ~module_index:midx ~handler_fn:dep_fn
                            ~stats
                        in
                        let tn =
                          List.filter_map (fun (i : Prompt.ident) -> i.id_arg_type) dep_idents
                          |> List.sort_uniq String.compare
                        in
                        let tys =
                          Engine.type_stage ~client ~module_index:midx ~type_names:tn ~stats
                        in
                        let block =
                          {
                            Specgen.db_ops = d.dep_ops;
                            db_res = "fd_" ^ entry.name ^ "_" ^ d.dep_ops;
                            db_create_cmd = d.dep_cmd;
                            db_idents = dep_idents;
                          }
                        in
                        (* second-level deps (kvm vcpu) *)
                        let blocks2 =
                          List.filter_map
                            (fun (d2 : Prompt.dep) ->
                              match Extractor.find_handler infos d2.dep_ops with
                              | Some hi2 when d2.dep_ops <> d.dep_ops -> (
                                  match ioctl_fn_of hi2 with
                                  | Some fn2 ->
                                      let ids2 =
                                        Engine.identifier_stage ~client ~module_index:midx
                                          ~handler_fn:fn2 ~stats
                                      in
                                      Some
                                        {
                                          Specgen.db_ops = d2.dep_ops;
                                          db_res = "fd_" ^ entry.name ^ "_" ^ d2.dep_ops;
                                          db_create_cmd = d2.dep_cmd;
                                          db_idents = ids2;
                                        }
                                  | None -> None)
                              | _ -> None)
                            dep_deps
                        in
                        let types2 =
                          List.concat_map
                            (fun b ->
                              let tn =
                                List.filter_map
                                  (fun (i : Prompt.ident) -> i.id_arg_type)
                                  b.Specgen.db_idents
                                |> List.sort_uniq String.compare
                              in
                              Engine.type_stage ~client ~module_index:midx ~type_names:tn ~stats)
                            blocks2
                        in
                        ((block :: blocks2) @ blocks, tys @ types2 @ extra_types)
                    | Some _ -> (blocks, extra_types)))
              ([], []) deps
          in
          let all_types =
            let seen = Hashtbl.create 16 in
            List.filter
              (fun (c : Syzlang.Ast.comp_def) ->
                if Hashtbl.mem seen c.comp_name then false
                else (
                  Hashtbl.replace seen c.comp_name ();
                  true))
              (types @ dep_types)
          in
          (* semantic value constraints on struct fields (version checks
             and the like) become const fields, as real Syzkaller specs
             hand-write them *)
          let all_types =
            match ioctl_fn_of hi with
            | None -> all_types
            | Some ioctl_fn ->
                let fns = Extractor.call_closure midx ioctl_fn ~depth:3 in
                List.map
                  (fun (cd : Syzlang.Ast.comp_def) ->
                    let constraints =
                      Extractor.field_constraints midx fns ~struct_name:cd.comp_name
                    in
                    if constraints = [] then cd
                    else
                      {
                        cd with
                        comp_fields =
                          List.map
                            (fun (f : Syzlang.Ast.field) ->
                              match (List.assoc_opt f.fname constraints, f.ftyp) with
                              | Some c, Syzlang.Ast.Int (w, _) ->
                                  { f with ftyp = Syzlang.Ast.Const (c, w) }
                              | Some c, Syzlang.Ast.Array (Syzlang.Ast.Int (w, _), n) ->
                                  { f with ftyp = Syzlang.Ast.Array (Syzlang.Ast.Const (c, w), n) }
                              | _ -> f)
                            cd.comp_fields;
                      })
                  all_types
          in
          let plain = List.map fst hi.hi_handlers in
          let spec =
            Specgen.driver_spec ~name:entry.name ~path ~idents ~types:all_types
              ~deps:dep_blocks ~plain
          in
          let spec, valid, repaired, errors =
            validate_and_repair ~client ~oracle ~kernel spec
          in
          let spec, errors =
            if valid then (spec, errors)
            else begin
              Obs.Metrics.incr "repair.pruned_specs";
              prune ~kernel spec
            end
          in
          resilient
            {
              o_entry = entry.name;
              o_spec = Some spec;
              o_valid = valid;
              o_usable = errors = [];
              o_direct_valid = (valid && not repaired);
              o_repaired = repaired;
              o_errors = errors;
              o_queries = oracle.Oracle.queries - q0;
              o_tokens = oracle.Oracle.prompt_tokens - t0;
              o_iterations = stats.Engine.iterations;
              o_faults = 0;
              o_retries = 0;
              o_recovered = 0;
              o_degraded = 0;
            })

(* ------------------------------------------------------------------ *)
(* Sockets                                                             *)
(* ------------------------------------------------------------------ *)

let run_socket ~(mode : mode) ~(client : Client.t) ~(kernel : Csrc.Index.t)
    (entry : Corpus.Types.entry) : outcome =
  let oracle = Client.oracle client in
  let q0 = oracle.Oracle.queries and t0 = oracle.Oracle.prompt_tokens in
  let s0 = Client.snapshot client in
  let resilient = resilient ~client ~s0 in
  let midx, infos =
    Obs.with_span
      ~attrs:(fun () -> [ ("entry", Obs.Json.Str entry.name) ])
      ~kind:"pipeline.stage" "extraction"
    @@ fun () ->
    let midx = Extractor.entry_index ~kernel entry in
    (midx, Extractor.extract midx)
  in
  match List.find_opt (fun hi -> hi.Extractor.hi_is_socket) infos with
  | None -> resilient (failed_outcome entry.name)
  | Some hi -> (
      let stats = Engine.new_stats () in
      match Engine.socket_stage ~client ~module_index:midx ~ops_symbol:hi.hi_ops_global with
      | None -> resilient (failed_outcome entry.name)
      | Some triple ->
          let handler name = List.assoc_opt name hi.hi_handlers in
          let run_opts fn_opt =
            match (fn_opt, mode) with
            | None, _ -> []
            | Some fn, Iterative ->
                Engine.identifier_stage ~client ~module_index:midx ~handler_fn:fn ~stats
            | Some fn, All_in_one ->
                let ids, _, _ = Engine.all_in_one ~client ~module_index:midx ~handler_fn:fn in
                ids
          in
          let setsockopts = run_opts (handler "setsockopt") in
          let getsockopts = run_opts (handler "getsockopt") in
          let sockaddr =
            List.find_map
              (fun field ->
                match handler field with
                | Some fn ->
                    Extractor.cast_struct_of_param midx fn
                      ~param_names:[ "uaddr"; "addr"; "sa" ]
                | None -> None)
              [ "bind"; "connect" ]
          in
          let msg_control =
            match handler "sendmsg" with
            | Some fn -> (
                match Extractor.msg_control_struct midx fn with
                | Some c -> Some c
                | None ->
                    (* the cast may be in a helper *)
                    List.find_map
                      (fun callee -> Extractor.msg_control_struct midx callee)
                      (Extractor.call_closure midx fn ~depth:2))
            | None -> None
          in
          let sockaddr =
            match sockaddr with
            | Some s -> Some s
            | None -> (
                match handler "sendmsg" with
                | Some fn -> Extractor.msg_name_struct midx fn
                | None -> None)
          in
          let type_names =
            (Option.to_list sockaddr @ Option.to_list msg_control
            @ List.filter_map (fun (i : Prompt.ident) -> i.id_arg_type) (setsockopts @ getsockopts)
            )
            |> List.sort_uniq String.compare
          in
          let types = Engine.type_stage ~client ~module_index:midx ~type_names ~stats in
          (* constrain sockaddr fields the handlers require to be exact
             (family checks): semantically valid values, per §2.1 *)
          let types =
            match sockaddr with
            | None -> types
            | Some s ->
                let fns =
                  List.filter_map handler [ "bind"; "connect"; "sendmsg" ]
                in
                let constraints = Extractor.field_constraints midx fns ~struct_name:s in
                List.map
                  (fun (cd : Syzlang.Ast.comp_def) ->
                    if cd.comp_name <> s then cd
                    else
                      {
                        cd with
                        comp_fields =
                          List.map
                            (fun (f : Syzlang.Ast.field) ->
                              match (List.assoc_opt f.fname constraints, f.ftyp) with
                              | Some c, Syzlang.Ast.Int (w, _) ->
                                  { f with ftyp = Syzlang.Ast.Const (c, w) }
                              | _ -> f)
                            cd.comp_fields;
                      })
                  types
          in
          let sockaddr_size =
            match sockaddr with
            | Some s -> Csrc.Index.sizeof midx (Csrc.Ast.Struct_ref s)
            | None -> 16
          in
          let shape =
            {
              Specgen.sk_triple = triple;
              sk_sockaddr = sockaddr;
              sk_sockaddr_size = sockaddr_size;
              sk_msg_control = msg_control;
              sk_setsockopts = setsockopts;
              sk_getsockopts = getsockopts;
              sk_plain = List.map fst hi.hi_handlers;
            }
          in
          let spec = Specgen.socket_spec ~name:entry.name ~shape ~types in
          let spec, valid, repaired, errors =
            validate_and_repair ~client ~oracle ~kernel spec
          in
          let spec, errors =
            if valid then (spec, errors)
            else begin
              Obs.Metrics.incr "repair.pruned_specs";
              prune ~kernel spec
            end
          in
          resilient
            {
              o_entry = entry.name;
              o_spec = Some spec;
              o_valid = valid;
              o_usable = errors = [];
              o_direct_valid = (valid && not repaired);
              o_repaired = repaired;
              o_errors = errors;
              o_queries = oracle.Oracle.queries - q0;
              o_tokens = oracle.Oracle.prompt_tokens - t0;
              o_iterations = stats.Engine.iterations;
              o_faults = 0;
              o_retries = 0;
              o_recovered = 0;
              o_degraded = 0;
            })

(** Generate a specification for one corpus module. *)
let run ?(mode = Iterative) ?client ~(oracle : Oracle.t) ~(kernel : Csrc.Index.t)
    (entry : Corpus.Types.entry) : outcome =
  let client = match client with Some c -> c | None -> Client.pass_through oracle in
  (* module boundary: drop the client's transient state (virtual clock,
     breaker, consecutive failures) so fault handling depends only on
     this module's own queries — never on which modules this client
     happened to serve before — keeping sharded fault-injected runs
     byte-identical for any --jobs value *)
  if Client.fault_tolerant client then Client.reset_transients client;
  let o = ref None in
  Obs.with_span
    ~attrs:(fun () ->
      let kind =
        match entry.kind with
        | Corpus.Types.Driver -> "driver"
        | Corpus.Types.Socket -> "socket"
      in
      let valid, usable, queries =
        match !o with
        | Some o -> (o.o_valid, o.o_usable, o.o_queries)
        | None -> (false, false, 0)
      in
      [
        ("module_kind", Obs.Json.Str kind);
        ("valid", Obs.Json.Bool valid);
        ("usable", Obs.Json.Bool usable);
        ("queries", Obs.Json.Int queries);
      ])
    ~kind:"pipeline" entry.name
  @@ fun () ->
  Obs.Metrics.incr "pipeline.runs";
  let outcome =
    match entry.kind with
    | Corpus.Types.Driver -> run_driver ~mode ~client ~kernel entry
    | Corpus.Types.Socket -> run_socket ~mode ~client ~kernel entry
  in
  if outcome.o_valid then Obs.Metrics.incr "pipeline.valid";
  if outcome.o_usable then Obs.Metrics.incr "pipeline.usable";
  if outcome.o_repaired then Obs.Metrics.incr "pipeline.repaired";
  o := Some outcome;
  outcome
