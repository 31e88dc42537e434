(* Focused executor tests over synthetic functions: control flow,
   crash detectors, heap modeling. Every case runs twice, on the
   production JIT and on the reference tree-walker, each over its own
   state of one index. *)

type runner = ?args:Vkernel.Value.value list -> string -> Vkernel.Value.value

let executors_of src : (string * runner) list =
  let sid = ref 0 in
  let idx = Csrc.Index.of_files (Corpus.Headers.parse_with_header ~sid ~file:"t.c" src) in
  let stj = Vkernel.Interp.create ~index:idx () in
  let stw = Vkernel.Interp.create ~index:idx () in
  let eng = Vkernel.Jit.of_index idx in
  [
    ("jit", fun ?(args = []) fn -> Vkernel.Jit.call eng stj fn args);
    ("walker", fun ?(args = []) fn -> Walker.call stw fn args);
  ]

(* run [f] against each executor; a failure names the executor *)
let each src (f : runner -> unit) =
  List.iter
    (fun (name, call) ->
      try f call
      with e ->
        prerr_endline ("failing executor: " ^ name);
        raise e)
    (executors_of src)

let int_of v = Vkernel.Value.to_int v

let test_switch_fallthrough () =
  each
    {|
static int f(int x)
{
  int acc;
  acc = 0;
  switch (x) {
  case 1:
    acc = acc + 1;
  case 2:
    acc = acc + 10;
    break;
  case 3:
    acc = acc + 100;
    break;
  default:
    acc = acc + 1000;
  }
  return acc;
}
|}
  @@ fun call ->
  let run x = int_of (call ~args:[ Vkernel.Value.vint x ] "f") in
  Alcotest.(check int64) "case 1 falls through" 11L (run 1L);
  Alcotest.(check int64) "case 2" 10L (run 2L);
  Alcotest.(check int64) "case 3" 100L (run 3L);
  Alcotest.(check int64) "default" 1000L (run 9L)

let test_goto_forward () =
  each
    {|
static int f(int x)
{
  int r;
  r = 1;
  if (x < 0)
    goto out;
  r = 2;
out:
  return r;
}
|}
  @@ fun call ->
  Alcotest.(check int64) "skips on goto" 1L
    (int_of (call ~args:[ Vkernel.Value.vint (-1L) ] "f"));
  Alcotest.(check int64) "falls through" 2L
    (int_of (call ~args:[ Vkernel.Value.vint 1L ] "f"))

let test_while_and_break () =
  each
    {|
static int f(void)
{
  int i;
  int sum;
  i = 0;
  sum = 0;
  while (1) {
    if (i >= 10)
      break;
    if (i == 3) {
      i = i + 1;
      continue;
    }
    sum = sum + i;
    i = i + 1;
  }
  return sum;
}
|}
  @@ fun call ->
  (* 0+1+2+4+5+6+7+8+9 = 42 *)
  Alcotest.(check int64) "loop with break/continue" 42L (int_of (call "f"))

let test_do_while () =
  each
    {|
static int f(void)
{
  int i;
  i = 0;
  do {
    i = i + 1;
  } while (i < 5);
  return i;
}
|}
  @@ fun call ->
  Alcotest.(check int64) "do-while" 5L (int_of (call "f"))

let test_recursion () =
  each
    {|
static int fact(int n)
{
  if (n <= 1)
    return 1;
  return n * fact(n - 1);
}
|}
  @@ fun call ->
  Alcotest.(check int64) "factorial" 120L (int_of (call ~args:[ Vkernel.Value.vint 5L ] "fact"))

let test_global_array_state () =
  each
    {|
static int slots[4];

static int put(int i, int v)
{
  if (i < 0 || i >= 4)
    return -EINVAL;
  slots[i] = v;
  return 0;
}

static int get(int i)
{
  return slots[i];
}
|}
  @@ fun call ->
  ignore (call ~args:[ Vkernel.Value.vint 2L; Vkernel.Value.vint 77L ] "put");
  Alcotest.(check int64) "array persists" 77L
    (int_of (call ~args:[ Vkernel.Value.vint 2L ] "get"));
  Alcotest.(check int64) "bounds enforced by guard" (-22L)
    (int_of (call ~args:[ Vkernel.Value.vint 9L; Vkernel.Value.vint 1L ] "put"))

let expect_crash title f =
  match f () with
  | _ -> Alcotest.failf "expected crash %s" title
  | exception Vkernel.Crash.Crash c ->
      Alcotest.(check string) "crash title" title (Vkernel.Crash.title c)

let test_uaf_crash () =
  each
    {|
struct box { int v; };
static struct box *stash;

static int make(void)
{
  stash = kmalloc(sizeof(struct box), GFP_KERNEL);
  kfree(stash);
  return 0;
}

static int use_after(void)
{
  return stash->v;
}
|}
  @@ fun call ->
  ignore (call "make");
  expect_crash "KASAN: slab-use-after-free Read in use_after" (fun () -> call "use_after")

let test_double_free_crash () =
  each
    {|
static int f(void)
{
  void *p;
  p = kmalloc(16, GFP_KERNEL);
  kfree(p);
  kfree(p);
  return 0;
}
|}
  @@ fun call ->
  expect_crash "KASAN: double-free in f" (fun () -> call "f")

let test_null_deref_crash () =
  each
    {|
struct box { int v; };
static int f(void)
{
  struct box *p;
  p = 0;
  return p->v;
}
|}
  @@ fun call ->
  expect_crash "general protection fault in f" (fun () -> call "f")

let test_array_oob_crash () =
  each
    {|
static int f(int i)
{
  int arr[4];
  return arr[i];
}
|}
  @@ fun call ->
  expect_crash "UBSAN: array-index-out-of-bounds in f" (fun () ->
      call ~args:[ Vkernel.Value.vint 7L ] "f")

let test_divide_crash () =
  each {|
static int f(int d)
{
  return 100 / d;
}
|}
  @@ fun call ->
  Alcotest.(check int64) "normal division" 25L
    (int_of (call ~args:[ Vkernel.Value.vint 4L ] "f"));
  expect_crash "divide error in f" (fun () -> call ~args:[ Vkernel.Value.vint 0L ] "f")

let test_oversized_alloc_crash () =
  each
    {|
static int f(unsigned long size)
{
  void *p;
  p = kvmalloc(size, GFP_KERNEL);
  if (!p)
    return -ENOMEM;
  kvfree(p);
  return 0;
}
|}
  @@ fun call ->
  Alcotest.(check int64) "normal alloc" 0L
    (int_of (call ~args:[ Vkernel.Value.vint 4096L ] "f"));
  expect_crash "kmalloc bug in f" (fun () -> call ~args:[ Vkernel.Value.vint 0x9000_0000L ] "f")

let test_deadlock_crash () =
  each
    {|
struct mutex _m;
static int f(void)
{
  mutex_init(&_m);
  mutex_lock(&_m);
  mutex_lock(&_m);
  return 0;
}
|}
  @@ fun call ->
  expect_crash "possible deadlock in f" (fun () -> call "f")

let test_step_budget_timeout () =
  each {|
static int f(void)
{
  while (1) {
  }
  return 0;
}
|}
  @@ fun call ->
  match call "f" with
  | _ -> Alcotest.fail "expected a timeout"
  | exception Vkernel.Interp.Exec_timeout -> ()

let test_copy_from_user_type_confusion () =
  (* a user struct with wrong field names yields kernel-side zeros *)
  each
    {|
struct req { u32 mode; };
static int f(unsigned long arg)
{
  struct req r;
  if (copy_from_user(&r, (void *)arg, sizeof(struct req)))
    return -EFAULT;
  if (r.mode == 7)
    return 1;
  return 0;
}
|}
  @@ fun call ->
  let good = Vkernel.Value.(vuptr (U_struct ("req", [ ("mode", U_int 7L) ]))) in
  let confused = Vkernel.Value.(vuptr (U_struct ("other", [ ("field_0", U_int 7L) ]))) in
  Alcotest.(check int64) "matching names reach the branch" 1L
    (int_of (call ~args:[ good ] "f"));
  Alcotest.(check int64) "confused layout reads zero" 0L
    (int_of (call ~args:[ confused ] "f"))

let () =
  let t n f = Alcotest.test_case n `Quick f in
  Alcotest.run "interp"
    [
      ( "control-flow",
        [
          t "switch fallthrough" test_switch_fallthrough;
          t "goto" test_goto_forward;
          t "while/break/continue" test_while_and_break;
          t "do-while" test_do_while;
          t "recursion" test_recursion;
          t "global arrays" test_global_array_state;
        ] );
      ( "detectors",
        [
          t "use-after-free" test_uaf_crash;
          t "double free" test_double_free_crash;
          t "null deref" test_null_deref_crash;
          t "array oob" test_array_oob_crash;
          t "divide error" test_divide_crash;
          t "oversized alloc" test_oversized_alloc_crash;
          t "deadlock" test_deadlock_crash;
          t "step budget" test_step_budget_timeout;
        ] );
      ("boundary", [ t "type confusion" test_copy_from_user_type_confusion ]);
    ]
