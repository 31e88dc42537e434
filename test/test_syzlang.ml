(* Tests for the syzlang AST, parser, printer, validator and merge. *)

let kernel =
  lazy
    (let sid = ref 0 in
     Csrc.Index.of_files
       (Corpus.Headers.parse_with_header ~sid ~file:"dm.c" Corpus.Drv_dm.source))

let parse text = Syzlang.Parser.parse_spec ~name:"t" text

let simple_spec =
  {|resource fd_t[fd]
openat$t(fd const[AT_FDCWD], file ptr[in, string["/dev/mapper/control"]], flags const[O_RDWR], mode const[0]) fd_t
ioctl$DM_VERSION(fd fd_t, cmd const[DM_VERSION], arg ptr[inout, dm_ioctl])

dm_flags = DM_VERSION_CMD, DM_LIST_DEVICES_CMD, 7

dm_ioctl {
	version array[int32, 3]
	data_size int32
	name string
	payload sub_union
}
sub_union [
	a int32
	b int64
]
|}

let test_parse_roundtrip () =
  let spec = parse simple_spec in
  Alcotest.(check int) "syscalls" 2 (List.length spec.syscalls);
  Alcotest.(check int) "types" 2 (List.length spec.types);
  Alcotest.(check int) "resources" 1 (List.length spec.resources);
  Alcotest.(check int) "flag sets" 1 (List.length spec.flag_sets);
  (* printing then reparsing preserves the counts *)
  let spec2 = parse (Syzlang.Printer.spec_str spec) in
  Alcotest.(check int) "syscalls after roundtrip" 2 (List.length spec2.syscalls);
  Alcotest.(check int) "types after roundtrip" 2 (List.length spec2.types)

let test_union_resolution () =
  let spec = parse simple_spec in
  let dm = List.find (fun c -> c.Syzlang.Ast.comp_name = "dm_ioctl") spec.types in
  let payload = List.nth dm.comp_fields 3 in
  match payload.ftyp with
  | Syzlang.Ast.Union_ref "sub_union" -> ()
  | _ -> Alcotest.fail "payload should resolve to a union reference"

let test_resource_resolution () =
  let spec = parse simple_spec in
  let ioctl = List.nth spec.syscalls 1 in
  match (List.hd ioctl.args).ftyp with
  | Syzlang.Ast.Resource_ref "fd_t" -> ()
  | _ -> Alcotest.fail "fd argument should resolve to the resource"

let test_validate_clean () =
  let spec = parse simple_spec in
  Alcotest.(check int) "no errors" 0
    (List.length (Syzlang.Validate.validate ~kernel:(Lazy.force kernel) spec))

let test_validate_unknown_const () =
  let spec = parse (simple_spec ^ "ioctl$BAD(fd fd_t, cmd const[NO_SUCH_MACRO], arg intptr)\n") in
  let errors = Syzlang.Validate.validate ~kernel:(Lazy.force kernel) spec in
  Alcotest.(check bool) "reports unknown const" true
    (List.exists
       (fun e ->
         e.Syzlang.Validate.err_item = Syzlang.Validate.In_syscall "ioctl$BAD"
         && e.err_msg = "unknown const NO_SUCH_MACRO")
       errors)

let test_validate_unknown_type () =
  let spec = parse (simple_spec ^ "ioctl$T2(fd fd_t, cmd const[DM_VERSION], arg ptr[in, ghost_t])\n") in
  let errors = Syzlang.Validate.validate ~kernel:(Lazy.force kernel) spec in
  Alcotest.(check bool) "reports undefined type" true
    (List.exists (fun e -> e.Syzlang.Validate.err_msg = "undefined type ghost_t") errors)

let test_validate_duplicate () =
  let dup = simple_spec ^ "ioctl$DM_VERSION(fd fd_t, cmd const[DM_VERSION], arg intptr)\n" in
  let errors = Syzlang.Validate.validate ~kernel:(Lazy.force kernel) (parse dup) in
  Alcotest.(check bool) "reports duplicate" true
    (List.exists (fun e -> e.Syzlang.Validate.err_msg = "duplicate syscall name") errors)

let test_validate_len_target () =
  let text =
    {|resource fd_t[fd]
bad_struct {
	count len[nonexistent, int32]
	data array[int8, 4]
}
|}
  in
  let errors = Syzlang.Validate.validate ~kernel:(Lazy.force kernel) (parse text) in
  Alcotest.(check bool) "reports bad len target" true
    (List.exists
       (fun e -> e.Syzlang.Validate.err_msg = "len target nonexistent is not a sibling field")
       errors)

let test_validate_ioctl_needs_const_cmd () =
  let text =
    {|resource fd_t[fd]
ioctl$X(fd fd_t, cmd intptr, arg intptr)
|}
  in
  let errors = Syzlang.Validate.validate ~kernel:(Lazy.force kernel) (parse text) in
  Alcotest.(check bool) "flags non-const cmd" true
    (List.exists
       (fun e -> e.Syzlang.Validate.err_msg = "ioctl command argument must be a const or flags")
       errors)

let test_validate_undeclared_resource () =
  let text = {|ioctl$X(fd fd_ghost, cmd const[DM_VERSION], arg intptr)
|} in
  let errors = Syzlang.Validate.validate ~kernel:(Lazy.force kernel) (parse text) in
  (* fd_ghost parses as a struct ref since no resource declares it *)
  Alcotest.(check bool) "reports something undefined" true (errors <> [])

let test_validate_err_ident_structured () =
  (* identifier errors carry the offending name as a structured field,
     so consumers (the repair loop) never parse it out of message text *)
  let spec =
    parse (simple_spec ^ "ioctl$BAD(fd fd_t, cmd const[NO_SUCH_MACRO], arg ptr[in, ghost_t])\n")
  in
  let errors = Syzlang.Validate.validate ~kernel:(Lazy.force kernel) spec in
  let ident_of msg =
    List.find_map
      (fun (e : Syzlang.Validate.error) -> if e.err_msg = msg then Some e.err_ident else None)
      errors
  in
  Alcotest.(check (option (option string))) "unknown const carries its name"
    (Some (Some "NO_SUCH_MACRO")) (ident_of "unknown const NO_SUCH_MACRO");
  Alcotest.(check (option (option string))) "undefined type carries its name"
    (Some (Some "ghost_t")) (ident_of "undefined type ghost_t")

let test_validate_err_ident_absent_for_structural () =
  (* structural errors name no identifier; err_ident must be None even
     when the message happens to end in an identifier-looking word *)
  let dup = simple_spec ^ "ioctl$DM_VERSION(fd fd_t, cmd const[DM_VERSION], arg intptr)\n" in
  let errors = Syzlang.Validate.validate ~kernel:(Lazy.force kernel) (parse dup) in
  List.iter
    (fun (e : Syzlang.Validate.error) ->
      if e.err_msg = "duplicate syscall name" then
        Alcotest.(check (option string)) "duplicate has no ident" None e.err_ident)
    errors;
  let shape = {|resource fd_t[fd]
ioctl$X(fd fd_t, cmd intptr, arg intptr)
|} in
  let errors = Syzlang.Validate.validate ~kernel:(Lazy.force kernel) (parse shape) in
  List.iter
    (fun (e : Syzlang.Validate.error) ->
      if e.err_msg = "ioctl command argument must be a const or flags" then
        Alcotest.(check (option string)) "ioctl shape has no ident" None e.err_ident)
    errors

let test_validate_len_target_ident () =
  let text =
    {|resource fd_t[fd]
bad_struct {
	count len[nonexistent, int32]
	data array[int8, 4]
}
|}
  in
  let errors = Syzlang.Validate.validate ~kernel:(Lazy.force kernel) (parse text) in
  Alcotest.(check bool) "len error carries mid-message ident" true
    (List.exists
       (fun (e : Syzlang.Validate.error) -> e.err_ident = Some "nonexistent")
       errors)

let test_resolve_spec_fills_values () =
  let spec = parse simple_spec in
  let resolved = Syzlang.Validate.resolve_spec ~kernel:(Lazy.force kernel) spec in
  let ioctl = List.nth resolved.syscalls 1 in
  let cmd = List.nth ioctl.args 1 in
  match cmd.ftyp with
  | Syzlang.Ast.Const (c, _) ->
      Alcotest.(check bool) "value filled in" true (c.const_value <> None)
  | _ -> Alcotest.fail "cmd should be a const"

let test_merge_dedup () =
  let a = parse simple_spec in
  let b = parse simple_spec in
  let merged = Syzlang.Merge.merge2 a b in
  Alcotest.(check int) "no duplicate syscalls" 2 (List.length merged.syscalls);
  Alcotest.(check int) "no duplicate types" 2 (List.length merged.types)

let test_new_syscalls () =
  let base = parse simple_spec in
  let next =
    parse (simple_spec ^ "ioctl$DM_DEV_CREATE(fd fd_t, cmd const[DM_DEV_CREATE], arg intptr)\n")
  in
  let fresh = Syzlang.Merge.new_syscalls ~base next in
  Alcotest.(check int) "one new syscall" 1 (List.length fresh);
  Alcotest.(check string) "its name" "ioctl$DM_DEV_CREATE"
    (Syzlang.Ast.syscall_full_name (List.hd fresh))

let test_rewrite_substitution () =
  let spec = parse simple_spec in
  let broken = Syzlang.Rewrite.substitute_name spec ~bad:"DM_VERSION" ~good:"DM_VERSION_X" in
  let ioctl = List.nth broken.syscalls 1 in
  Alcotest.(check (option string)) "variant renamed" (Some "DM_VERSION_X") ioctl.variant;
  (* and back *)
  let fixed = Syzlang.Rewrite.substitute_name broken ~bad:"DM_VERSION_X" ~good:"DM_VERSION" in
  Alcotest.(check int) "fixed validates" 0
    (List.length (Syzlang.Validate.validate ~kernel:(Lazy.force kernel) fixed))

let test_counts () =
  let spec = parse simple_spec in
  Alcotest.(check int) "count_syscalls" 2 (Syzlang.Ast.count_syscalls spec);
  Alcotest.(check int) "count_types" 2 (Syzlang.Ast.count_types spec)

let test_manual_specs_parse_and_validate () =
  (* every hand-written spec in the corpus must parse and validate *)
  let kernel =
    (Vkernel.Machine.boot (Corpus.Registry.loaded ())).Vkernel.Machine.index
  in
  List.iter
    (fun (e : Corpus.Types.entry) ->
      match e.existing_spec with
      | None -> ()
      | Some _ -> (
          match Baseline.Syzkaller_specs.spec_of_entry e with
          | None -> Alcotest.failf "spec for %s did not parse" e.name
          | Some spec ->
              let errors = Syzlang.Validate.validate ~kernel spec in
              if errors <> [] then
                Alcotest.failf "manual spec for %s invalid: %s" e.name
                  (Syzlang.Validate.error_to_string (List.hd errors))))
    (Corpus.Registry.loaded ())

let qcheck_parse_never_crashes =
  QCheck.Test.make ~name:"parser rejects garbage gracefully" ~count:300
    QCheck.(string_of_size (Gen.int_bound 80))
    (fun s ->
      match Syzlang.Parser.parse_spec ~name:"fuzz" s with
      | _ -> true
      | exception Syzlang.Parser.Error _ -> true)

let qcheck_printer_parser_stable =
  (* printing a randomly assembled well-formed spec and reparsing keeps
     the syscall count *)
  let gen =
    QCheck.Gen.(
      map
        (fun n ->
          let calls =
            List.init (1 + (n mod 5)) (fun i ->
                {
                  Syzlang.Ast.call_name = "ioctl";
                  variant = Some (Printf.sprintf "C%d" i);
                  args =
                    [
                      { Syzlang.Ast.fname = "fd"; ftyp = Syzlang.Ast.Resource_ref "fd_x" };
                      {
                        Syzlang.Ast.fname = "cmd";
                        ftyp = Syzlang.Ast.Const (Syzlang.Ast.const_of_value (Int64.of_int i), Syzlang.Ast.Iptr);
                      };
                      { Syzlang.Ast.fname = "arg"; ftyp = Syzlang.Ast.Int (Syzlang.Ast.Iptr, None) };
                    ];
                  ret = None;
                })
          in
          {
            Syzlang.Ast.spec_name = "x";
            resources = [ { Syzlang.Ast.res_name = "fd_x"; res_underlying = "fd" } ];
            syscalls = calls;
            types = [];
            flag_sets = [];
          })
        (int_bound 1000))
  in
  QCheck.Test.make ~name:"print/parse preserves syscall count" ~count:100
    (QCheck.make gen) (fun spec ->
      let text = Syzlang.Printer.spec_str spec in
      let spec2 = Syzlang.Parser.parse_spec ~name:"x" text in
      List.length spec2.syscalls = List.length spec.syscalls)

(* Random small specs whose resource, syscall, type and flag-set names
   collide across specs while their contents differ, so "first
   definition wins" is observable. *)
let gen_small_spec =
  let open QCheck.Gen in
  let module A = Syzlang.Ast in
  let name p = map (fun k -> p ^ string_of_int k) (int_bound 3) in
  let resource =
    map2 (fun res_name res_underlying -> { A.res_name; res_underlying }) (name "r")
      (oneofl [ "fd"; "int32" ])
  in
  let syscall =
    map4
      (fun call_name variant arg ret ->
        let args = if arg then [ { A.fname = "a"; ftyp = A.Resource_ref "r0" } ] else [] in
        { A.call_name; variant; args; ret })
      (oneofl [ "ioctl"; "openat" ])
      (opt (name "V"))
      bool
      (opt (name "r"))
  in
  let comp =
    map2
      (fun comp_name comp_kind -> { A.comp_name; comp_kind; comp_fields = [] })
      (name "T") (oneofl [ A.Struct; A.Union ])
  in
  let flags =
    map2
      (fun set_name n ->
        { A.set_name; set_values = List.init n (fun i -> A.const_of_value (Int64.of_int i)) })
      (name "F") (int_bound 2)
  in
  let few g = list_size (int_bound 4) g in
  map4
    (fun (spec_name, resources) syscalls types flag_sets ->
      { A.spec_name; resources; syscalls; types; flag_sets })
    (pair (name "s") (few resource))
    (few syscall) (few comp) (few flags)

let arb_specs =
  QCheck.make
    ~print:(fun specs -> String.concat "\n----\n" (List.map Syzlang.Printer.spec_str specs))
    QCheck.Gen.(list_size (int_bound 6) gen_small_spec)

(* the reference: a left fold that deduplicates the accumulated suite at
   every step, checking membership by list scan *)
let merge_by_fold ~name (specs : Syzlang.Ast.spec list) : Syzlang.Ast.spec =
  let module A = Syzlang.Ast in
  let add key acc xs =
    List.fold_left
      (fun acc x -> if List.exists (fun y -> key y = key x) acc then acc else acc @ [ x ])
      acc xs
  in
  List.fold_left
    (fun (acc : A.spec) (s : A.spec) ->
      {
        acc with
        A.resources = add (fun r -> r.A.res_name) acc.A.resources s.A.resources;
        syscalls = add A.syscall_full_name acc.syscalls s.syscalls;
        types = add (fun c -> c.A.comp_name) acc.types s.types;
        flag_sets = add (fun f -> f.A.set_name) acc.flag_sets s.flag_sets;
      })
    (A.empty_spec name) specs

let qcheck_merge_all_one_pass =
  QCheck.Test.make ~name:"one-pass merge_all equals the step-wise fold" ~count:300 arb_specs
    (fun specs ->
      Syzlang.Merge.merge_all ~name:"m" specs = merge_by_fold ~name:"m" specs
      &&
      match specs with
      | a :: b :: _ -> Syzlang.Merge.merge2 a b = merge_by_fold ~name:a.spec_name [ a; b ]
      | _ -> true)

let qcheck_new_names_match_scan =
  QCheck.Test.make ~name:"new_syscalls/new_types equal the list-scan filter" ~count:300
    (QCheck.pair (QCheck.make gen_small_spec) (QCheck.make gen_small_spec))
    (fun (base, next) ->
      let module A = Syzlang.Ast in
      let fresh key base_xs xs =
        let names = List.map key base_xs in
        List.filter (fun x -> not (List.mem (key x) names)) xs
      in
      Syzlang.Merge.new_syscalls ~base next
      = fresh A.syscall_full_name base.A.syscalls next.A.syscalls
      && Syzlang.Merge.new_types ~base next
         = fresh (fun c -> c.A.comp_name) base.A.types next.A.types)

let () =
  let t n f = Alcotest.test_case n `Quick f in
  Alcotest.run "syzlang"
    [
      ( "parser",
        [
          t "roundtrip" test_parse_roundtrip;
          t "union resolution" test_union_resolution;
          t "resource resolution" test_resource_resolution;
          QCheck_alcotest.to_alcotest qcheck_parse_never_crashes;
          QCheck_alcotest.to_alcotest qcheck_printer_parser_stable;
        ] );
      ( "validate",
        [
          t "clean spec" test_validate_clean;
          t "unknown const" test_validate_unknown_const;
          t "unknown type" test_validate_unknown_type;
          t "duplicate syscall" test_validate_duplicate;
          t "len target" test_validate_len_target;
          t "ioctl cmd const" test_validate_ioctl_needs_const_cmd;
          t "undeclared resource" test_validate_undeclared_resource;
          t "err_ident structured" test_validate_err_ident_structured;
          t "err_ident absent for structural" test_validate_err_ident_absent_for_structural;
          t "err_ident mid-message" test_validate_len_target_ident;
          t "resolve fills values" test_resolve_spec_fills_values;
        ] );
      ( "merge-and-rewrite",
        [
          t "merge dedup" test_merge_dedup;
          t "new syscalls" test_new_syscalls;
          t "rewrite substitution" test_rewrite_substitution;
          t "counts" test_counts;
          QCheck_alcotest.to_alcotest qcheck_merge_all_one_pass;
          QCheck_alcotest.to_alcotest qcheck_new_names_match_scan;
        ] );
      ("corpus-specs", [ t "all manual specs parse+validate" test_manual_specs_parse_and_validate ]);
    ]
