(* Differential tests for the execution pipeline: the JIT-closured
   handler bodies must agree with the reference tree-walker ({!Walker},
   test-only) on every generated, mutated and campaign-kept program —
   same return values, crash, coverage set and timeout — and the
   bitmap coverage sink must agree with the plain coverage list. Plus
   regressions for the generator range, bytesize, and push-order
   bugfixes. *)

let dm_ctx =
  lazy
    (let entry = Corpus.Registry.find_exn "dm" in
     let machine = Vkernel.Machine.boot [ entry ] in
     let kernel = machine.Vkernel.Machine.index in
     let oracle = Oracle.create ~profile:Profile.gpt4 ~knowledge:kernel () in
     let spec = Option.get (Kernelgpt.Pipeline.run ~oracle ~kernel entry).o_spec in
     let spec = Syzlang.Validate.resolve_spec ~kernel spec in
     (machine, spec))

let ctx_of_entry entry =
  let machine = Vkernel.Machine.boot [ entry ] in
  let kernel = machine.Vkernel.Machine.index in
  let oracle = Oracle.create ~profile:Profile.gpt4 ~knowledge:kernel () in
  match Kernelgpt.Pipeline.run ~oracle ~kernel entry with
  | { o_valid = true; o_spec = Some spec; _ } ->
      Some (machine, Syzlang.Validate.resolve_spec ~kernel spec)
  | _ -> None

(* a random generated driver with a validating KernelGPT spec, or None
   when the pipeline declines this seed *)
let ctx_of_seed seed =
  ctx_of_entry
    (List.hd
       (Corpus.Gen.population ~seed ~n_drivers:1 ~loaded_drivers:1 ~n_sockets:0
          ~loaded_sockets:0 ()))

(* the executor stress driver (Registry.extras): goto loops, arity
   mismatches, shadowing and implicit locals *)
let stress_ctx =
  lazy
    (match Corpus.Registry.extras with
    | [ entry ] -> Option.get (ctx_of_entry entry)
    | _ -> Alcotest.fail "expected exactly the stress module in Registry.extras")

(* ------------------------------------------------------------------ *)
(* Execution: JIT closures vs the reference tree-walker                *)
(* ------------------------------------------------------------------ *)

let sorted_result (r : Vkernel.Machine.exec_result) =
  (r.retvals, r.crash, List.sort compare r.coverage, r.timed_out)

(* both executors agree on one program, under the given step budget *)
let agrees ?step_budget machine prog =
  sorted_result (Vkernel.Machine.exec_prog ?step_budget machine prog)
  = sorted_result (Walker.exec_prog ?step_budget machine prog)

(* Fresh programs from [Proggen.generate], each chained through
   [Mutator.apply] round-robin over the whole operator ensemble (splice
   partners are the other fresh programs), every link run on both
   executors. *)
let programs_agree machine spec seed =
  let t = Fuzzer.Proggen.prepare spec in
  let r = Fuzzer.Rng.make seed in
  let partner = Fuzzer.Proggen.generate t r () in
  let prog = ref (Fuzzer.Proggen.generate t r ()) in
  let ok = ref (agrees machine partner && agrees machine !prog) in
  Array.iter
    (fun op ->
      prog := Fuzzer.Mutator.apply t r op ~partner:(fun () -> partner) !prog;
      if not (agrees machine !prog) then ok := false)
    Fuzzer.Mutator.all;
  !ok

let qcheck_exec_differential =
  QCheck.Test.make ~name:"JIT and interpreter execute programs identically" ~count:40
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let machine, spec = Lazy.force dm_ctx in
      programs_agree machine spec seed)

let qcheck_exec_differential_stress =
  QCheck.Test.make ~name:"JIT and interpreter agree on the stress module" ~count:40
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let machine, spec = Lazy.force stress_ctx in
      programs_agree machine spec seed)

let qcheck_exec_differential_random_specs =
  QCheck.Test.make ~name:"JIT and interpreter agree on random pipeline specs" ~count:8
    QCheck.(int_bound 5000)
    (fun seed ->
      match ctx_of_seed seed with
      | None -> true
      | Some (machine, spec) -> programs_agree machine spec seed)

let test_sink_matches_coverage () =
  let machine, spec = Lazy.force dm_ctx in
  let t = Fuzzer.Proggen.prepare spec in
  let r = Fuzzer.Rng.make 17 in
  let sink = Vkernel.Machine.new_sink machine in
  for _ = 1 to 50 do
    let prog = Fuzzer.Proggen.generate t r () in
    let plain = Vkernel.Machine.exec_prog machine prog in
    let sunk = Vkernel.Machine.exec_prog_sink ~sink machine prog in
    let buf =
      List.sort compare
        (List.init sink.Vkernel.Machine.cs_n (fun i -> sink.Vkernel.Machine.cs_buf.(i)))
    in
    Vkernel.Machine.sink_reset sink;
    Alcotest.(check (list int)) "sink sids = coverage sids"
      (List.sort_uniq compare plain.coverage)
      buf;
    Alcotest.(check (list int)) "sink result carries no coverage list" [] sunk.coverage;
    Alcotest.(check bool) "rest of the result agrees" true
      ( sunk.retvals = plain.retvals && sunk.crash = plain.crash
      && sunk.timed_out = plain.timed_out )
  done

(* ------------------------------------------------------------------ *)
(* Whole campaigns: replay what a campaign kept on both executors      *)
(* ------------------------------------------------------------------ *)

(* Re-execute every corpus program and crash reproducer of a finished
   campaign under its own step budget: both executors must agree, and
   each reproducer must still raise the title it was filed under. *)
let campaign_replays ?max_corpus ~seed ~budget machine spec =
  let c = Fuzzer.Campaign.init ~seed ~budget ?max_corpus ~machine spec in
  ignore (Fuzzer.Campaign.drive c);
  let snap = Fuzzer.Campaign.snapshot c in
  let step_budget = snap.Fuzzer.Checkpoint.step_budget in
  List.for_all (fun (p, _, _) -> agrees ~step_budget machine p) snap.corpus
  && List.for_all
       (fun (title, p, _) ->
         agrees ~step_budget machine p
         &&
         match (Vkernel.Machine.exec_prog ~step_budget machine p).crash with
         | Some cr -> cr.cr_title = title
         | None -> false)
       snap.crashes

let test_campaign_differential () =
  let machine, spec = Lazy.force dm_ctx in
  Alcotest.(check bool) "corpus and reproducers agree" true
    (campaign_replays ~seed:5 ~budget:2000 machine spec)

let test_campaign_differential_under_eviction () =
  let machine, spec = Lazy.force dm_ctx in
  Alcotest.(check bool) "agree with a saturated corpus ring" true
    (campaign_replays ~seed:9 ~budget:1500 ~max_corpus:4 machine spec)

let qcheck_campaign_differential_random_specs =
  QCheck.Test.make ~name:"campaigns agree on random pipeline specs" ~count:8
    QCheck.(int_bound 5000)
    (fun seed ->
      match ctx_of_seed seed with
      | None -> true
      | Some (machine, spec) -> campaign_replays ~seed ~budget:400 machine spec)

(* ------------------------------------------------------------------ *)
(* Bugfix regressions                                                  *)
(* ------------------------------------------------------------------ *)

let test_range_wide_no_collapse () =
  (* the old draw computed [Int64.to_int (hi - lo) + 1], which wraps
     negative for wide ranges; [Rng.int n] with n <= 0 returns 0, so
     every draw collapsed to [lo] *)
  let r = Fuzzer.Rng.make 2 in
  let distinct lo hi =
    let seen = Hashtbl.create 16 in
    for _ = 1 to 64 do
      let v = Fuzzer.Rng.int64_in_range r ~lo ~hi in
      Alcotest.(check bool) "within range" true
        (Int64.compare v lo >= 0 && Int64.compare v hi <= 0);
      Hashtbl.replace seen v ()
    done;
    Hashtbl.length seen
  in
  Alcotest.(check bool) "full 64-bit range varies" true
    (distinct Int64.min_int Int64.max_int > 1);
  Alcotest.(check bool) "positive wide range varies" true (distinct 0L Int64.max_int > 1);
  Alcotest.(check bool) "signed wide range varies" true
    (distinct (-4611686018427387904L) 4611686018427387904L > 1)

let test_range_narrow_parity () =
  (* narrow ranges must keep the historical bit-for-bit draw so campaign
     stdout is unchanged where the old code was correct *)
  let a = Fuzzer.Rng.make 3 and b = Fuzzer.Rng.make 3 in
  for _ = 1 to 500 do
    let lo = -37L and hi = 4096L in
    let v = Fuzzer.Rng.int64_in_range a ~lo ~hi in
    let old = Int64.add lo (Int64.of_int (Fuzzer.Rng.int b (Int64.to_int (Int64.sub hi lo) + 1))) in
    Alcotest.(check int64) "matches the historical formula" old v
  done;
  Alcotest.(check int64) "streams in lockstep" (Fuzzer.Rng.next_int64 a)
    (Fuzzer.Rng.next_int64 b)

let test_range_one_draw_always () =
  (* every range shape consumes exactly one word, including hi < lo *)
  let draws lo hi =
    let a = Fuzzer.Rng.make 7 and b = Fuzzer.Rng.make 7 in
    ignore (Fuzzer.Rng.int64_in_range a ~lo ~hi);
    ignore (Fuzzer.Rng.next_int64 b);
    Fuzzer.Rng.next_int64 a = Fuzzer.Rng.next_int64 b
  in
  Alcotest.(check bool) "narrow" true (draws 0L 10L);
  Alcotest.(check bool) "wide" true (draws Int64.min_int Int64.max_int);
  Alcotest.(check bool) "empty (hi < lo)" true (draws 10L 0L)

let test_bytesize_counts_bytes () =
  (* bytesize fields were computed as element counts; a 4-element int32
     array is 16 bytes, not 4 *)
  let spec =
    Syzlang.Parser.parse_spec ~name:"t"
      {|resource fd_t[fd]
t_struct {
	nbytes bytesize[items, int32]
	nelems len[items, int32]
	items array[int32, 4]
}
ioctl$X(fd fd_t, cmd const[1], arg ptr[in, t_struct])
|}
  in
  let t = Fuzzer.Proggen.prepare spec in
  let r = Fuzzer.Rng.make 5 in
  for _ = 1 to 50 do
    (* t_struct is the spec's only composite, so plan entry 0 *)
    match Fuzzer.Proggen.uval_of_gen t r ~depth:0 (Fuzzer.Compiled.G_comp 0) with
    | Vkernel.Value.U_struct (_, fields) ->
        Alcotest.(check bool) "bytesize = 4 * len" true
          (List.assoc "nbytes" fields = Vkernel.Value.U_int 16L
          && List.assoc "nelems" fields = Vkernel.Value.U_int 4L)
    | _ -> Alcotest.fail "expected a struct"
  done

let test_push_call_linear_order () =
  (* push_call accumulates reversed with an explicit count; pushing the
     whole spec must keep spec order (with producers inserted before
     their consumers) and the count in step with the program length *)
  let _, spec = Lazy.force dm_ctx in
  let t = Fuzzer.Proggen.prepare spec in
  let r = Fuzzer.Rng.make 11 in
  let rev_prog = ref [] and count = ref 0 and resource_at = ref [] in
  let n = Array.length t.Fuzzer.Proggen.syscalls in
  Alcotest.(check bool) "dm spec is non-trivial" true (n > 1);
  for i = 0 to n - 1 do
    Fuzzer.Proggen.push_call t r ~rev_prog ~count ~resource_at ~depth:0 i
  done;
  let names = List.rev_map fst !rev_prog in
  Alcotest.(check int) "count tracks program length" (List.length names) !count;
  (* the directly-pushed sequence is a subsequence of the emitted one *)
  let pushed =
    Array.to_list (Array.map Syzlang.Ast.syscall_full_name t.Fuzzer.Proggen.syscalls)
  in
  let rec subseq want have =
    match (want, have) with
    | [], _ -> true
    | _, [] -> false
    | w :: ws, h :: hs -> if w = h then subseq ws hs else subseq want hs
  in
  Alcotest.(check bool) "spec order preserved" true (subseq pushed names);
  (* and every result reference points backwards *)
  List.iteri
    (fun i (c : Vkernel.Machine.call) ->
      List.iter
        (function
          | Vkernel.Machine.P_result j ->
              Alcotest.(check bool) "P_result refers backwards" true (j < i)
          | _ -> ())
        c.c_args)
    (List.rev_map snd !rev_prog)

(* ------------------------------------------------------------------ *)
(* Fast paths: slot-allocated locals, value-level builtins, compiled   *)
(* global init — JIT/reference parity at the function-call level       *)
(* ------------------------------------------------------------------ *)

(* one index, one state per executor: the reference walker and the
   closure compiler each lower the same source independently *)
let dual_of src =
  let sid = ref 0 in
  let idx = Csrc.Index.of_files (Corpus.Headers.parse_with_header ~sid ~file:"t.c" src) in
  let sti = Vkernel.Interp.create ~index:idx () in
  let stj = Vkernel.Interp.create ~index:idx () in
  let eng = Vkernel.Jit.of_index idx in
  let interp ?(args = []) fn = Walker.call sti fn args in
  let jit ?(args = []) fn = Vkernel.Jit.call eng stj fn args in
  (interp, jit)

type runner = ?args:Vkernel.Value.value list -> string -> Vkernel.Value.value

let check_both name expect (interp : runner) (jit : runner) fn args =
  let args = List.map Vkernel.Value.vint args in
  Alcotest.(check int64) (name ^ " (interp)") expect
    (Vkernel.Value.to_int (interp ~args fn));
  Alcotest.(check int64) (name ^ " (jit)") expect
    (Vkernel.Value.to_int (jit ~args fn))

let test_arity_mismatch () =
  (* regression for the O(arity^2) nth-based binding: a six-parameter
     function called with 2 and 9 arguments. Missing parameters read as
     zero; extra arguments still evaluate left-to-right for their side
     effects and are dropped. *)
  let interp, jit =
    dual_of
      {|
static long _log;

static long mix6(long a, long b, long c, long d, long e, long f)
{
  return a + b * 2 + c * 3 + d * 4 + e * 5 + f * 6;
}

static long bump(long v)
{
  _log = _log * 10 + v;
  return v;
}

static long call2(void)
{
  return mix6(7, 9);
}

static long call9(void)
{
  _log = 0;
  return mix6(1, 2, 3, 4, 5, 6, bump(7), bump(8), bump(9));
}

static long get_log(void)
{
  return _log;
}
|}
  in
  check_both "2 args: c..f read as zero" 25L interp jit "call2" [];
  check_both "9 args: 1+4+9+16+25+36" 91L interp jit "call9" [];
  (* 7, 8, 9 evaluated in order even though dropped *)
  check_both "extras evaluated left to right" 789L interp jit "get_log" []

let test_unknown_label_error_parity () =
  (* the jit resolves gotos at compile time but must defer the unknown-
     label failure to execution, with the interpreter's exact message *)
  let interp, jit =
    dual_of
      {|
static long f(long x)
{
  if (x)
    goto missing;
  return 1;
}
|}
  in
  let msg (run : runner) =
    match run ~args:[ Vkernel.Value.vint 1L ] "f" with
    | _ -> Alcotest.fail "expected Exec_error"
    | exception Vkernel.Interp.Exec_error m -> m
  in
  let mi = msg interp and mj = msg jit in
  Alcotest.(check string) "same error text" mi mj;
  Alcotest.(check string) "expected message" "f: unknown label missing" mi;
  (* the goto is dead when x = 0: neither executor fails early *)
  check_both "unreached goto is not an error" 1L interp jit "f" [ 0L ]

let test_slot_edge_cases () =
  let interp, jit =
    dual_of
      {|
static long _g = 5;

static long shadow(long _g)
{
  _g = _g + 100;
  return _g;
}

static long get_g(void)
{
  return _g;
}

static long skip(long flag)
{
  long tmp;
  if (flag)
    goto after;
  tmp = 40;
after:
  return tmp + 2;
}

static long implicit(long x)
{
  counter = x * 2;
  counter = counter + shadow(counter);
  return counter;
}
|}
  in
  (* a parameter shadows the global for the whole body *)
  check_both "shadowing parameter" 101L interp jit "shadow" [ 1L ];
  check_both "global untouched by shadow" 5L interp jit "get_g" [];
  (* goto jumps over tmp's first write: the declared zero survives *)
  check_both "goto over first write" 2L interp jit "skip" [ 1L ];
  check_both "fallthrough writes tmp" 42L interp jit "skip" [ 0L ];
  (* implicit declaration: counter = 12, then + shadow(12) = 112 -> 124 *)
  check_both "implicit local" 124L interp jit "implicit" [ 6L ]

let test_global_init_parity () =
  (* compiled global initializers: scalars, partial array init,
     designated struct init with a nested array, and an address-of
     chain. Oids must come out identical because both executors must
     allocate the same objects in the same order. *)
  let src =
    {|
struct cfg { int mode; int depth; int tab[3]; };

static int g_scalar = 42;
static int g_arr[4] = {1, 2, 3};
static struct cfg g_cfg = { .depth = 9, .tab = {7, 8}, .mode = 3 };
static int *g_ptr = &g_scalar;

static long probe(void)
{
  return g_cfg.mode + g_cfg.depth * 10 + g_cfg.tab[1] * 100 + g_arr[0] * 1000
         + g_arr[2] * 10000 + g_scalar;
}
|}
  in
  let interp, jit = dual_of src in
  (* 3 + 9*10 + 8*100 + 1*1000 + 3*10000 + 42 *)
  check_both "initialized state agrees" 31935L interp jit "probe" [];
  (* and the raw global views line up, including object identity *)
  let sid = ref 0 in
  let idx = Csrc.Index.of_files (Corpus.Headers.parse_with_header ~sid ~file:"t.c" src) in
  let sti = Vkernel.Interp.create ~index:idx () in
  let stj = Vkernel.Interp.create ~index:idx () in
  let eng = Vkernel.Jit.of_index idx in
  List.iter
    (fun g ->
      let vi = Option.get (Walker.get_global sti g) in
      let vj = Option.get (Vkernel.Jit.get_global eng stj g) in
      Alcotest.(check string)
        (g ^ " prints identically (oids included)")
        (Vkernel.Value.to_string vi) (Vkernel.Value.to_string vj))
    [ "g_scalar"; "g_arr"; "g_cfg"; "g_ptr" ]

let qcheck_builtin_value_core_parity =
  (* the reference walker reaches builtins through the expression-level
     wrapper, the jit through per-callsite argument closures over the
     value-level core: both must see the same argument views, stores
     and results *)
  let interp, jit =
    dual_of
      {|
static long f(long a, long b)
{
  char buf[32];
  long lo;
  long hi;
  lo = min_t(long, a, b);
  hi = max_t(long, a, b);
  memset(buf, 0, 32);
  snprintf(buf, 32, "v-%d", lo);
  if (strncmp(buf, "v-0", 3) == 0)
    return hi - lo;
  return hi * 2 + strlen(buf);
}
|}
  in
  QCheck.Test.make ~name:"builtin core and wrapper agree" ~count:200
    QCheck.(pair (int_bound 2000) (int_bound 2000))
    (fun (a, b) ->
      let args = [ Vkernel.Value.vint (Int64.of_int (a - 1000)); Vkernel.Value.vint (Int64.of_int b) ] in
      interp ~args "f" = jit ~args "f")

let test_integer_edge_semantics () =
  (* pins for the tagged value representation: every arithmetic edge
     where a result or operand crosses the fixnum/boxed boundary must
     keep exact 64-bit two's-complement semantics, identically in both
     executors *)
  let interp, jit =
    dual_of
      {|
static long div2(long a, long b) { return a / b; }
static long rem2(long a, long b) { return a % b; }
static long shl2(long a, long b) { return a << b; }
static long shr2(long a, long b) { return a >> b; }
static long band2(long a, long b) { return a & b; }
static long add2(long a, long b) { return a + b; }
static long sub2(long a, long b) { return a - b; }
static long mul2(long a, long b) { return a * b; }
static long eq2(long a, long b) { return a == b; }
static long lt2(long a, long b) { return a < b; }
static long neg1(long a) { return -a; }
static long not1(long a) { return ~a; }
|}
  in
  let min64 = Int64.min_int and max64 = Int64.max_int in
  (* Int64.min_int / -1 wraps to itself; % -1 is 0 (no trap) *)
  check_both "min_int / -1" min64 interp jit "div2" [ min64; -1L ];
  check_both "min_int % -1" 0L interp jit "rem2" [ min64; -1L ];
  check_both "min_int / 1" min64 interp jit "div2" [ min64; 1L ];
  check_both "min_int % 7" (-1L) interp jit "rem2" [ min64; 7L ];
  (* shifts by 63 and by-64 wraparound; >> is logical *)
  check_both "1 << 63" min64 interp jit "shl2" [ 1L; 63L ];
  check_both "-1 << 63" min64 interp jit "shl2" [ -1L; 63L ];
  check_both "1 << 64 wraps the count" 1L interp jit "shl2" [ 1L; 64L ];
  check_both "-1 >> 63" 1L interp jit "shr2" [ -1L; 63L ];
  check_both "min_int >> 63" 1L interp jit "shr2" [ min64; 63L ];
  check_both "-1 >> 1" max64 interp jit "shr2" [ -1L; 1L ];
  (* full-width masks *)
  check_both "min_int & -1" min64 interp jit "band2" [ min64; -1L ];
  check_both "0x1234 & -1" 0x1234L interp jit "band2" [ 0x1234L; -1L ];
  (* results crossing the 63-bit boundary in either direction *)
  check_both "fixnum max + 1 boxes" 0x4000_0000_0000_0000L interp jit "add2"
    [ 0x3fff_ffff_ffff_ffffL; 1L ];
  check_both "boxed - 1 re-normalizes" 0x3fff_ffff_ffff_ffffL interp jit "sub2"
    [ 0x4000_0000_0000_0000L; 1L ];
  check_both "2^32 * 2^32 wraps to 0" 0L interp jit "mul2"
    [ 0x1_0000_0000L; 0x1_0000_0000L ];
  check_both "max64 + 1 wraps to min" min64 interp jit "add2" [ max64; 1L ];
  (* comparisons across the fixnum/boxed boundary *)
  check_both "fixnum max < first boxed" 1L interp jit "lt2"
    [ 0x3fff_ffff_ffff_ffffL; 0x4000_0000_0000_0000L ];
  check_both "equal boxed values" 1L interp jit "eq2" [ min64; min64 ];
  check_both "boxed != fixnum" 0L interp jit "eq2" [ 0x4000_0000_0000_0000L; 1L ];
  check_both "min_int < 0" 1L interp jit "lt2" [ min64; 0L ];
  (* unary edges *)
  check_both "-min_int wraps to itself" min64 interp jit "neg1" [ min64 ];
  check_both "-(first boxed) is fixnum min" (-0x4000_0000_0000_0000L) interp jit "neg1"
    [ 0x4000_0000_0000_0000L ];
  check_both "~min_int" max64 interp jit "not1" [ min64 ];
  (* divide-by-zero still crashes identically *)
  let crash_title (run : runner) =
    match run ~args:[ Vkernel.Value.vint 1L; Vkernel.Value.vint 0L ] "div2" with
    | _ -> Alcotest.fail "expected a crash"
    | exception Vkernel.Crash.Crash cr -> Vkernel.Crash.title cr
  in
  let ti = crash_title interp and tj = crash_title jit in
  Alcotest.(check string) "same crash title" ti tj;
  Alcotest.(check string) "divide error title" "divide error in div2" ti

let test_builtin_names_cover_ids () =
  (* every published builtin name resolves through the id table to the
     value-level core; unknown names fall through to None in both the
     name-keyed face and the expression wrapper *)
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (name ^ " has a dense id") true
        (Vkernel.Value.Stbl.find_opt Vkernel.Interp.builtin_ids name <> None))
    Vkernel.Interp.builtin_names;
  Alcotest.(check bool) "unknown name has no id" true
    (Vkernel.Value.Stbl.find_opt Vkernel.Interp.builtin_ids "not_a_builtin" = None)

let () =
  let t n f = Alcotest.test_case n `Quick f in
  Alcotest.run "compiled"
    [
      ( "execution",
        [
          QCheck_alcotest.to_alcotest qcheck_exec_differential;
          QCheck_alcotest.to_alcotest qcheck_exec_differential_stress;
          QCheck_alcotest.to_alcotest qcheck_exec_differential_random_specs;
          t "sink matches coverage" test_sink_matches_coverage;
        ] );
      ( "campaign",
        [
          t "differential" test_campaign_differential;
          t "differential under eviction" test_campaign_differential_under_eviction;
          QCheck_alcotest.to_alcotest qcheck_campaign_differential_random_specs;
        ] );
      ( "fast-paths",
        [
          t "arity mismatch binds once" test_arity_mismatch;
          t "unknown label error parity" test_unknown_label_error_parity;
          t "slot edge cases" test_slot_edge_cases;
          t "global init parity" test_global_init_parity;
          QCheck_alcotest.to_alcotest qcheck_builtin_value_core_parity;
          t "builtin ids dense" test_builtin_names_cover_ids;
          t "integer edge semantics" test_integer_edge_semantics;
        ] );
      ( "bugfixes",
        [
          t "wide ranges vary" test_range_wide_no_collapse;
          t "narrow ranges bit-identical" test_range_narrow_parity;
          t "ranges draw once" test_range_one_draw_always;
          t "bytesize counts bytes" test_bytesize_counts_bytes;
          t "push_call linear and ordered" test_push_call_linear_order;
        ] );
    ]
