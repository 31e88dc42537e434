(** Combining specification suites.

    The paper evaluates combined suites such as "Syzkaller + KernelGPT":
    the union of the hand-written descriptions and the generated ones.
    Merging renames nothing; colliding syscall variants keep the first
    occurrence (Syzkaller's own rule for duplicate identifiers), and so
    do colliding resource, type and flag-set names: the first definition
    under a name wins, whatever the later ones contain. *)

let dedup_by key xs =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun x ->
      let k = key x in
      if Hashtbl.mem seen k then false
      else (
        Hashtbl.replace seen k ();
        true))
    xs

(** Merge a list of specs into one suite named [name]; earlier specs win
    on name collisions. Each field is concatenated across all specs and
    deduplicated once: first-occurrence dedup satisfies
    [dedup (dedup x @ y) = dedup (x @ y)], so this equals folding a
    pairwise merge, without re-scanning the accumulated suite per spec. *)
let merge_all ~name (specs : Ast.spec list) : Ast.spec =
  let field get key = dedup_by key (List.concat_map get specs) in
  {
    Ast.spec_name = name;
    resources = field (fun s -> s.Ast.resources) (fun r -> r.Ast.res_name);
    syscalls = field (fun s -> s.Ast.syscalls) Ast.syscall_full_name;
    types = field (fun s -> s.Ast.types) (fun c -> c.Ast.comp_name);
    flag_sets = field (fun s -> s.Ast.flag_sets) (fun f -> f.Ast.set_name);
  }

(** Merge two specs into one; [a] wins on name collisions. *)
let merge2 (a : Ast.spec) (b : Ast.spec) : Ast.spec = merge_all ~name:a.Ast.spec_name [ a; b ]

(* the set of [key]s over [base], for the Table 2 difference filters *)
let key_set key xs =
  let s = Hashtbl.create (List.length xs) in
  List.iter (fun x -> Hashtbl.replace s (key x) ()) xs;
  s

(** Syscalls present in [next] but absent from [base] — the paper's
    "new syscalls" metric (Table 2). *)
let new_syscalls ~(base : Ast.spec) (next : Ast.spec) : Ast.syscall list =
  let base_names = key_set Ast.syscall_full_name base.Ast.syscalls in
  List.filter
    (fun c -> not (Hashtbl.mem base_names (Ast.syscall_full_name c)))
    next.Ast.syscalls

(** Types present in [next] but absent from [base] (Table 2's "#Types"). *)
let new_types ~(base : Ast.spec) (next : Ast.spec) : Ast.comp_def list =
  let base_names = key_set (fun c -> c.Ast.comp_name) base.Ast.types in
  List.filter (fun c -> not (Hashtbl.mem base_names c.Ast.comp_name)) next.Ast.types
