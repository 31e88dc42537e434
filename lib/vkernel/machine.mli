(** The virtual kernel machine: boots corpus modules, dispatches
    syscalls, executes whole programs and reports coverage and crashes.

    This is the stand-in for the paper's QEMU/KCOV fuzzing target.
    Device paths and socket triples come from the registry's ground
    truth (the moral equivalent of booting the modules); everything else
    runs from the same mini-C sources the analyses read, through the
    closure-compiled {!Jit} executor over the {!Interp} runtime. Syscall
    names resolve through a jump table rather than a per-call string
    match. *)

(** One syscall argument as the fuzzer passes it. *)
type parg =
  | P_int of int64
  | P_str of string
  | P_data of Value.uval  (** a user pointer carrying generated data *)
  | P_null
  | P_result of int  (** the file descriptor returned by call #i *)

type call = { c_name : string; c_args : parg list }

type prog = call list

type crash_report = { cr_title : string; cr_call : int }

type exec_result = {
  retvals : int64 array;
  crash : crash_report option;
  coverage : int list;  (** statement ids executed *)
  timed_out : bool;
      (** a call (or exit-path release) exhausted the step budget; the
          kmemleak scan is skipped for such runs, since "leaks" of an
          interrupted program are an artifact of the budget *)
}

type device = { dev_module : string; dev_fops : string }

type socket_reg = { sock_module : string; sock_ops : string }

type t = {
  index : Csrc.Index.t;
  devices : (string, device) Hashtbl.t;
      (** device path -> driver; where two drivers register one path,
          the first entry booted owns it *)
  sockets : ((int * int * int) * socket_reg) list;
  sid_module : (int, string) Hashtbl.t;
  modules : string list;
  jit : Jit.t Lazy.t;
      (** closure-compiled function bodies, global-initializer plans and
          composite layouts; forced by campaign init (or on first
          execution) so boots that never execute programs pay nothing.
          Once it is forced, nothing in [t] is written again, so any
          number of domains may execute programs on one machine.
          Forcing is not domain-safe: force it before sharing. *)
  n_sids : int;  (** statement-id count, sizes coverage bitmaps *)
}

(** Boot the machine over the given corpus entries: parse all module
    sources into one definition index with globally unique statement
    ids, behind the process-wide header AST ({!Corpus.Headers.header}),
    and register devices and sockets. *)
val boot : Corpus.Types.entry list -> t

(** Which module a covered statement belongs to. *)
val module_of_sid : t -> int -> string option

(** How handler bodies run: call a function by name, and resolve a
    global (lazily initializing it) by precomputed {!Value.Stbl.hash}
    and name. {!exec_prog} and {!exec_prog_sink} always run the
    {!Jit}; only {!exec_prog_with} takes another executor, so tests can
    compare the JIT against a reference over the same runtime. *)
type executor = {
  ex_call : t -> Interp.state -> string -> Value.value list -> Value.value;
  ex_global : t -> Interp.state -> int -> string -> Value.value option;
}

(** Reusable per-campaign scratch: a coverage bitmap over statement
    ids plus the list of sids touched by the current execution
    ([cs_buf.(0 .. cs_n-1)]), and the call-frame pool its executions
    share. Recording allocates nothing once warm. A sink belongs to one
    campaign, so to one domain. *)
type cov_sink = {
  mutable cs_bits : Bytes.t;
  mutable cs_buf : int array;
  mutable cs_n : int;
  mutable cs_hook : int -> unit;
      (** [sink_record] on this sink, built once by {!new_sink} *)
  cs_frames : Value.Pool.t;  (** call-frame free list of its executions *)
}

val new_sink : t -> cov_sink

(** Clear the touched bits and rewind the buffer for the next run. *)
val sink_reset : cov_sink -> unit

(** Execute a program against a fresh kernel state (and a fresh frame
    pool): run each call, close remaining file descriptors at exit
    (release handlers may crash), and run the kmemleak-style
    reachability scan. Deterministic. *)
val exec_prog : ?step_budget:int -> t -> prog -> exec_result

(** Like {!exec_prog}, but statement coverage lands in [sink] instead of
    the result's [coverage] list (which comes back empty): the campaign
    hot loop reads [sink.cs_buf] and {!sink_reset}s it, touching no
    per-execution allocations. *)
val exec_prog_sink : ?step_budget:int -> sink:cov_sink -> t -> prog -> exec_result

(** {!exec_prog} with handler bodies run by [executor] instead of the
    JIT. *)
val exec_prog_with : ?step_budget:int -> executor:executor -> t -> prog -> exec_result
