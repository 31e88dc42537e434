(** Fault-isolating work-stealing pool on OCaml 5 [Domain]s.

    The report runner uses this to shard independent experiment tasks
    (driver/socket campaigns, seed repetitions, ablation cells) across
    cores. Results come back as an array in task-submission order, so
    callers can merge them deterministically: a run with [jobs] > 1 must
    produce byte-identical tables to the sequential run.

    Scheduling is work-stealing: every worker owns a deque seeded
    round-robin with task indices, pops its own work from the front, and
    steals from the tail of a sibling's deque when it runs dry. Failure
    is isolated per task: an attempt that raises is retried a bounded
    number of times (requeued at the head of the {e next} worker's
    deque, so a different domain picks it up), and a task that exhausts
    its retry budget is {e quarantined} — reported as a {!Failed}
    outcome instead of killing the run.

    Workers keep no state of their own: a task builds the mutable state
    it needs (an [Oracle.t], a campaign) and may read shared data that
    nothing writes while the pool runs, such as a booted
    [Vkernel.Machine.t] whose JIT was forced before the pool started.
    Per-attempt wall-clock timings are accumulated in a global,
    mutex-protected log for the end-of-run speedup report; the log is
    bounded (top slowest kept, aggregate counters stay exact — see
    {!summary.s_timings_dropped}).

    {b Determinism contract.} Task outcomes depend only on the task
    function and the fault plan, never on scheduling: with faults off,
    stdout of any caller is byte-identical for any [jobs]; with a fault
    plan, injected faults are a pure hash of [(seed, label, attempt)],
    so outcomes (and every count derived from them: injections, retries,
    stalls, quarantines) are identical for any [jobs] and across resumed
    runs. The exceptions are {!summary.s_steals} and [s_flagged] (real
    stragglers), which depend on actual scheduling —
    they are reported on [stderr]/metrics only, never on stdout. Labels
    must be unique within a run for the fault plan to be well-defined;
    every caller's labels (and the ["task-<i>"] default) are. *)

(** Number of cores the runtime recommends using ([--jobs 0] resolves to
    this). *)
val cpu_count : unit -> int

(** Deterministic, seeded worker-fault injection — the pool twin of
    [--faults] (oracle transport) and [--exec-faults] (executor wedges).
    A plan fires on a pure hash of [(seed, label, attempt)]: the same
    RATE:SEED reproduces the same task crashes and stalls for any
    [jobs] value and across [--resume]. *)
module Faults : sig
  type plan = { rate_pct : int; seed : int }

  val default_seed : int
  val make : ?seed:int -> rate_pct:int -> unit -> plan

  (** Parse ["RATE"] or ["RATE:SEED"] (rate 0-100). *)
  val parse_spec : string -> (plan, string) result

  val spec_to_string : plan -> string

  type kind =
    | Crash  (** the attempt raises {!Injected_fault} instead of running *)
    | Stall
        (** the attempt runs normally but is flagged as a straggler, as
            if it had overrun its deadline *)

  (** Pure decision for one attempt of the task named [label]; [None]
      when the attempt proceeds unharmed. Crashes outnumber stalls 3:1. *)
  val decide : plan -> label:string -> attempt:int -> kind option
end

(** Raised (and caught by the retry machinery) in place of a task
    attempt the fault plan crashed; carries the task label. *)
exception Injected_fault of string

(** Process-wide default fault plan, picked up by every pool run that
    does not pass its own [?faults] — how the [--pool-faults] CLI flag
    reaches the pool. [None] (the initial state) disables injection. *)
val set_faults : Faults.plan option -> unit

val current_faults : unit -> Faults.plan option

(** Process-wide default per-task deadline in seconds, picked up by
    every pool run that does not pass its own [?deadline_s]. The
    watchdog only {e flags} stragglers (metrics + timing log) — domains
    cannot be killed, so an overrunning task keeps its worker. *)
val set_deadline : float option -> unit

val current_deadline : unit -> float option

(** Attempts per task = [retries + 1]. *)
val default_retries : int

type failure = {
  f_exn : exn;  (** the last attempt's exception *)
  f_backtrace : Printexc.raw_backtrace;
  f_attempts : int;  (** attempts consumed (0 if the task never ran) *)
}

(** What one task produced. [Failed] means quarantined: every attempt
    raised (or no surviving worker could run it). *)
type 'a outcome = Ok of 'a | Failed of failure

type timing = {
  tm_label : string;  (** task label, e.g. ["table5:dm:kgpt:rep2"] *)
  tm_worker : int;  (** index of the worker domain that ran it *)
  tm_seconds : float;  (** attempt wall-clock *)
  tm_attempt : int;  (** 0 for the first attempt *)
  tm_ok : bool;  (** whether this attempt succeeded *)
  tm_flagged : bool;  (** straggler: overran the deadline or stalled *)
}

type summary = {
  s_tasks : int;  (** tasks submitted since the last [reset_stats] *)
  s_workers : int;  (** largest pool size used *)
  s_wall_seconds : float;  (** wall-clock spent inside pool runs *)
  s_busy_seconds : float;
      (** sum of per-attempt wall-clocks, failed attempts included *)
  s_steals : int;  (** tasks taken from a sibling's deque (stderr-only) *)
  s_retries : int;  (** failed attempts that were requeued *)
  s_quarantined : int;  (** tasks that exhausted their retry budget *)
  s_flagged : int;  (** attempts flagged by the deadline watchdog *)
  s_faults_injected : int;  (** injected crashes + stalls *)
  s_stalls : int;  (** injected stalls among them *)
  s_timings_dropped : int;
      (** timing entries evicted from the bounded log; aggregate
          counters above remain exact *)
}

(** [map_outcomes ~jobs ~f items] runs [f] on every item to a per-task
    {!outcome}, in input order. A task whose attempt raises is retried
    up to [retries] more times (default
    {!default_retries}), each retry requeued so another worker can pick
    it up; a task that exhausts the budget comes back as [Failed] with
    the last exception, backtrace, and attempt count. [deadline_s] arms
    the straggler watchdog for this run. [faults] overrides the global
    plan from {!set_faults}. [jobs <= 1] runs sequentially in the
    calling domain (no domain is spawned); the retry/quarantine/fault
    machinery behaves identically, so outcomes match any parallel run. *)
val map_outcomes :
  ?jobs:int ->
  ?label:(int -> 'a -> string) ->
  ?retries:int ->
  ?deadline_s:float ->
  ?faults:Faults.plan ->
  f:('a -> 'b) ->
  'a array ->
  'b outcome array

(** [map ~jobs f items] is {!map_outcomes} for callers that need every
    task to succeed: after the pool fully drains (all tasks resolved,
    retries included — no early abort), if any task was quarantined the
    {e lowest-index} quarantined task's exception is re-raised with its
    backtrace. The choice is deterministic: it depends on task indices,
    never on which worker failed first. *)
val map :
  ?jobs:int ->
  ?label:(int -> 'a -> string) ->
  ?retries:int ->
  ?deadline_s:float ->
  ?faults:Faults.plan ->
  ('a -> 'b) ->
  'a array ->
  'b array

(** Clear the global timing log and resilience counters. *)
val reset_stats : unit -> unit

(** Aggregate of every pool run since the last [reset_stats]. *)
val stats : unit -> summary

(** Per-attempt timings recorded since the last [reset_stats], slowest
    first. At most a bounded number of entries survive (the slowest
    ones); {!summary.s_timings_dropped} counts evictions. *)
val timings : unit -> timing list

(** Print the run summary (tasks, workers, busy vs wall time, speedup,
    and — when any occurred — steals, retries, quarantines and
    straggler flags) and, with [per_task], the surviving
    per-attempt wall-clocks. The runner sends this to [stderr] so table
    output on [stdout] stays byte-identical to a sequential run. *)
val report : ?per_task:bool -> out_channel -> unit
