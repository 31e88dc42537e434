(** Fault-isolating work-stealing pool on OCaml 5 [Domain]s. See pool.mli.

    Scheduling: every worker owns a deque seeded round-robin with task
    indices; owners pop from the front, idle workers steal from the
    tail of a sibling's deque. A failed attempt is requeued at the head
    of the {e next} worker's deque (so the retry lands on a different
    domain when one exists); a shared atomic [pending] counter drives
    termination. Result slots are disjoint per task and [Domain.join]
    orders every slot write before the caller reads, so the merge is
    race-free and outcomes come back in submission order regardless of
    completion order. Per-task mutable state ([attempts]) is handed
    between workers through the deque mutexes, which order the failing
    worker's writes before the retrying worker's reads. *)

let cpu_count () = Domain.recommended_domain_count ()

(* ------------------------------------------------------------------ *)
(* Deterministic worker-fault injection                                 *)
(* ------------------------------------------------------------------ *)

module Faults = struct
  type plan = { rate_pct : int; seed : int }

  let default_seed = 1
  let make ?(seed = default_seed) ~rate_pct () = { rate_pct; seed }

  let parse_spec (s : string) : (plan, string) result =
    let rate_of r =
      match int_of_string_opt r with
      | Some pct when pct >= 0 && pct <= 100 -> Ok pct
      | Some _ -> Error (Printf.sprintf "pool fault rate %s out of range (0-100)" r)
      | None ->
          Error (Printf.sprintf "bad pool fault rate %S (expected RATE or RATE:SEED)" r)
    in
    match String.split_on_char ':' s with
    | [ rate ] -> Result.map (fun pct -> make ~rate_pct:pct ()) (rate_of rate)
    | [ rate; seed ] -> (
        match (rate_of rate, int_of_string_opt seed) with
        | Ok pct, Some seed -> Ok (make ~seed ~rate_pct:pct ())
        | (Error _ as e), _ -> e
        | _, None -> Error (Printf.sprintf "bad pool fault seed %S" seed))
    | _ -> Error (Printf.sprintf "bad pool fault spec %S (expected RATE or RATE:SEED)" s)

  let spec_to_string p = Printf.sprintf "%d:%d" p.rate_pct p.seed

  type kind = Crash | Stall

  let kind_to_string = function Crash -> "crash" | Stall -> "stall"

  (* The same deterministic-hash idiom as oracle [Faults.roll]: stable
     across runs and processes, independent of worker count and
     scheduling because it keys only on the run-unique task label and
     the attempt number. *)
  let roll (p : plan) ~(salt : string) ~(label : string) ~(attempt : int)
      ~(modulus : int) : int =
    Hashtbl.hash (p.seed, salt, label, attempt) mod modulus

  let decide (p : plan) ~label ~attempt : kind option =
    if p.rate_pct <= 0 then None
    else if roll p ~salt:"pool.fire" ~label ~attempt ~modulus:100 >= p.rate_pct then None
    else if roll p ~salt:"pool.kind" ~label ~attempt ~modulus:4 = 0 then Some Stall
    else Some Crash
end

exception Injected_fault of string

let () =
  Printexc.register_printer (function
    | Injected_fault lbl -> Some (Printf.sprintf "Pool.Injected_fault(%s)" lbl)
    | _ -> None)

let global_faults : Faults.plan option Atomic.t = Atomic.make None
let set_faults p = Atomic.set global_faults p
let current_faults () = Atomic.get global_faults
let global_deadline : float option Atomic.t = Atomic.make None
let set_deadline d = Atomic.set global_deadline d
let current_deadline () = Atomic.get global_deadline
let default_retries = 2

type failure = {
  f_exn : exn;
  f_backtrace : Printexc.raw_backtrace;
  f_attempts : int;
}

type 'a outcome = Ok of 'a | Failed of failure

type timing = {
  tm_label : string;
  tm_worker : int;
  tm_seconds : float;
  tm_attempt : int;
  tm_ok : bool;
  tm_flagged : bool;
}

type summary = {
  s_tasks : int;
  s_workers : int;
  s_wall_seconds : float;
  s_busy_seconds : float;
  s_steals : int;
  s_retries : int;
  s_quarantined : int;
  s_flagged : int;
  s_faults_injected : int;
  s_stalls : int;
  s_timings_dropped : int;
}

(* ------------------------------------------------------------------ *)
(* Global accounting (mutex-protected; workers log through it)         *)
(* ------------------------------------------------------------------ *)

(* The per-attempt log is bounded so a long-lived process (daemon mode)
   cannot leak: past [2 * timing_cap] entries it is compacted to the
   [timing_cap] slowest. Aggregate counters stay exact. *)
let timing_cap = 512

let log_mutex = Mutex.create ()
let logged : timing list ref = ref []
let logged_len = ref 0
let timings_dropped = ref 0
let busy_seconds = ref 0.0
let pool_runs : (int * int * float) list ref = ref []  (* tasks, workers, wall *)

let g_steals = Atomic.make 0
let g_retries = Atomic.make 0
let g_quarantined = Atomic.make 0
let g_flagged = Atomic.make 0
let g_injected = Atomic.make 0
let g_stalls = Atomic.make 0

let with_log f =
  Mutex.lock log_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock log_mutex) f

let reset_stats () =
  with_log (fun () ->
      logged := [];
      logged_len := 0;
      timings_dropped := 0;
      busy_seconds := 0.0;
      pool_runs := []);
  List.iter
    (fun c -> Atomic.set c 0)
    [ g_steals; g_retries; g_quarantined; g_flagged; g_injected; g_stalls ]

let by_slowest a b = compare b.tm_seconds a.tm_seconds

(* callers hold [log_mutex] *)
let compact_log () =
  if !logged_len > 2 * timing_cap then begin
    let sorted = List.sort by_slowest !logged in
    let kept = List.filteri (fun i _ -> i < timing_cap) sorted in
    timings_dropped := !timings_dropped + (!logged_len - timing_cap);
    logged := kept;
    logged_len := timing_cap
  end

let stats () : summary =
  with_log (fun () ->
      let tasks, workers, wall =
        List.fold_left
          (fun (t, w, s) (t', w', s') -> (t + t', max w w', s +. s'))
          (0, 0, 0.0) !pool_runs
      in
      {
        s_tasks = tasks;
        s_workers = workers;
        s_wall_seconds = wall;
        s_busy_seconds = !busy_seconds;
        s_steals = Atomic.get g_steals;
        s_retries = Atomic.get g_retries;
        s_quarantined = Atomic.get g_quarantined;
        s_flagged = Atomic.get g_flagged;
        s_faults_injected = Atomic.get g_injected;
        s_stalls = Atomic.get g_stalls;
        s_timings_dropped = !timings_dropped;
      })

let timings () : timing list = with_log (fun () -> List.sort by_slowest !logged)

let report ?(per_task = false) oc =
  let s = stats () in
  if s.s_tasks > 0 then begin
    let speedup = if s.s_wall_seconds > 0.0 then s.s_busy_seconds /. s.s_wall_seconds else 1.0 in
    Printf.fprintf oc
      "[pool] %d tasks on up to %d workers: %.2fs task time in %.2fs wall (%.2fx speedup)\n"
      s.s_tasks s.s_workers s.s_busy_seconds s.s_wall_seconds speedup;
    if s.s_faults_injected + s.s_retries + s.s_quarantined + s.s_steals + s.s_flagged > 0
    then
      Printf.fprintf oc
        "[pool] resilience: %d injected faults (%d stalls), %d retries, %d quarantined, \
         %d steals, %d straggler flags\n"
        s.s_faults_injected s.s_stalls s.s_retries s.s_quarantined s.s_steals s.s_flagged;
    if per_task then begin
      if s.s_timings_dropped > 0 then
        Printf.fprintf oc "[pool]   (%d slowest attempts shown; %d dropped from the log)\n"
          timing_cap s.s_timings_dropped;
      List.iter
        (fun t ->
          Printf.fprintf oc "[pool]   %-48s worker %d attempt %d %9.1f ms%s%s\n" t.tm_label
            t.tm_worker t.tm_attempt
            (t.tm_seconds *. 1000.0)
            (if t.tm_ok then "" else " FAILED")
            (if t.tm_flagged then " STRAGGLER" else ""))
        (timings ())
    end
  end

(* ------------------------------------------------------------------ *)
(* The pool                                                            *)
(* ------------------------------------------------------------------ *)

let finish_run ~t_start ~workers ~tasks (run_timings : timing list) =
  let wall = Unix.gettimeofday () -. t_start in
  with_log (fun () ->
      pool_runs := (tasks, workers, wall) :: !pool_runs;
      List.iter
        (fun t ->
          busy_seconds := !busy_seconds +. t.tm_seconds;
          logged := t :: !logged;
          incr logged_len)
        run_timings;
      compact_log ());
  if Obs.metrics_on () then begin
    Obs.Metrics.incr "pool.runs";
    Obs.Metrics.incr ~by:tasks "pool.tasks";
    Obs.Metrics.observe "pool.run_wall_s" wall;
    List.iter
      (fun t ->
        Obs.Metrics.observe "pool.task_s" t.tm_seconds;
        Obs.Metrics.observe (Printf.sprintf "pool.worker%d.task_s" t.tm_worker) t.tm_seconds)
      run_timings
  end

(* One deque per worker. A plain mutex-protected list is plenty: tasks
   number in the hundreds and each holds the lock for O(length). *)
type deque = { mutable dq : int list; mu : Mutex.t }

let with_deque d f =
  Mutex.lock d.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock d.mu) f

let pop_front d =
  with_deque d (fun () ->
      match d.dq with
      | [] -> None
      | i :: tl ->
          d.dq <- tl;
          Some i)

let push_front d i = with_deque d (fun () -> d.dq <- i :: d.dq)

let pop_back d =
  with_deque d (fun () ->
      match List.rev d.dq with
      | [] -> None
      | i :: rtl ->
          d.dq <- List.rev rtl;
          Some i)

let map_outcomes ?(jobs = 1) ?label ?(retries = default_retries) ?deadline_s ?faults
    ~(f : 'a -> 'b) (items : 'a array) : 'b outcome array =
  let n = Array.length items in
  if n = 0 then [||]
  else
    (* the pool-run span opens on the calling domain, so its id is
       deterministic; every task span is rooted at <run-id>.<task-index>
       below, independent of worker scheduling *)
    Obs.with_span
      ~attrs:(fun () -> [ ("tasks", Obs.Json.Int n) ])
      ~kind:"pool.run" "pool"
    @@ fun () ->
    let ctx = Obs.current_ctx () in
    let label =
      match label with Some l -> l | None -> fun i _ -> "task-" ^ string_of_int i
    in
    let faults = match faults with Some _ as p -> p | None -> current_faults () in
    let deadline = match deadline_s with Some _ as d -> d | None -> current_deadline () in
    let retries = max 0 retries in
    let workers = max 1 (min jobs n) in
    let t_start = Unix.gettimeofday () in
    let results : 'b outcome option array = Array.make n None in
    let attempts = Array.make n 0 in
    let flagged = Array.init n (fun _ -> Atomic.make false) in
    let pending = Atomic.make n in
    let deques = Array.init workers (fun _ -> { dq = []; mu = Mutex.create () }) in
    for i = n - 1 downto 0 do
      let d = deques.(i mod workers) in
      d.dq <- i :: d.dq
    done;
    (* worker w's current task and its start time, for the watchdog *)
    let inflight : (int * float) option Atomic.t array =
      Array.init workers (fun _ -> Atomic.make None)
    in
    let wtimes : timing list array = Array.make workers [] in
    let flag_task i =
      if not (Atomic.exchange flagged.(i) true) then begin
        Atomic.incr g_flagged;
        Obs.Metrics.incr "pool.deadline_flagged"
      end
    in
    let watchdog_scan () =
      match deadline with
      | None -> ()
      | Some dl ->
          let now = Unix.gettimeofday () in
          Array.iter
            (fun slot ->
              match Atomic.get slot with
              | Some (i, t0) when now -. t0 > dl -> flag_task i
              | Some _ | None -> ())
            inflight
    in
    (* Run one attempt of task [i]; returns [`Resolved] or [`Requeue].
       Everything — fault decision, the task body, retry/quarantine
       bookkeeping — happens inside the task span, so trace events get
       deterministic ids and no exception ever escapes to the worker
       loop. *)
    let run_attempt ~worker i =
      let lbl = label i items.(i) in
      let attempt = attempts.(i) in
      attempts.(i) <- attempt + 1;
      let fault =
        match faults with Some p -> Faults.decide p ~label:lbl ~attempt | None -> None
      in
      (* attrs stay [] on the clean first-attempt path so a faults-off
         trace is byte-identical (modulo timings) to a sequential one *)
      let span_attrs = ref [] in
      Obs.with_task_span ~worker ~ctx ~index:i ~kind:"pool.task"
        ~attrs:(fun () -> !span_attrs)
        (fun () -> lbl)
        (fun () ->
          if attempt > 0 then span_attrs := [ ("attempt", Obs.Json.Int attempt) ];
          let t0 = Unix.gettimeofday () in
          Atomic.set inflight.(worker) (Some (i, t0));
          let res =
            match fault with
            | Some k ->
                span_attrs :=
                  !span_attrs @ [ ("fault", Obs.Json.Str (Faults.kind_to_string k)) ];
                Atomic.incr g_injected;
                Obs.Metrics.incr "pool.faults.injected";
                Obs.event ~kind:"pool.fault"
                  ~attrs:(fun () ->
                    [
                      ("fault", Obs.Json.Str (Faults.kind_to_string k));
                      ("attempt", Obs.Json.Int attempt);
                    ])
                  lbl;
                (match k with
                | Faults.Crash ->
                    (* the attempt never runs, so a later retry observes
                       exactly the state a clean first attempt would *)
                    `Err (Injected_fault lbl, Printexc.get_callstack 0)
                | Faults.Stall -> (
                    Atomic.incr g_stalls;
                    Obs.Metrics.incr "pool.stalls";
                    flag_task i;
                    match f items.(i) with
                    | v -> `Res v
                    | exception e -> `Err (e, Printexc.get_raw_backtrace ())))
            | None -> (
                match f items.(i) with
                | v -> `Res v
                | exception e -> `Err (e, Printexc.get_raw_backtrace ()))
          in
          let dt = Unix.gettimeofday () -. t0 in
          Atomic.set inflight.(worker) None;
          (* completion-time backstop: catches overruns the watchdog
             missed, and the only check a sequential run gets *)
          (match deadline with Some dl when dt > dl -> flag_task i | Some _ | None -> ());
          let ok = match res with `Res _ -> true | `Err _ -> false in
          wtimes.(worker) <-
            {
              tm_label = lbl;
              tm_worker = worker;
              tm_seconds = dt;
              tm_attempt = attempt;
              tm_ok = ok;
              tm_flagged = Atomic.get flagged.(i);
            }
            :: wtimes.(worker);
          match res with
          | `Res v ->
              results.(i) <- Some (Ok v);
              `Resolved
          | `Err (e, bt) ->
              let used = attempt + 1 in
              if used > retries then begin
                Atomic.incr g_quarantined;
                Obs.Metrics.incr "pool.quarantined";
                span_attrs :=
                  !span_attrs @ [ ("outcome", Obs.Json.Str "quarantined") ];
                Obs.event ~kind:"pool.quarantine"
                  ~attrs:(fun () -> [ ("attempts", Obs.Json.Int used) ])
                  lbl;
                results.(i) <-
                  Some (Failed { f_exn = e; f_backtrace = bt; f_attempts = used });
                `Resolved
              end
              else begin
                Atomic.incr g_retries;
                Obs.Metrics.incr "pool.retries";
                span_attrs := !span_attrs @ [ ("outcome", Obs.Json.Str "retry") ];
                Obs.event ~kind:"pool.retry"
                  ~attrs:(fun () -> [ ("attempt", Obs.Json.Int attempt) ])
                  lbl;
                `Requeue
              end)
    in
    let execute ~worker i =
      match run_attempt ~worker i with
      | `Resolved -> Atomic.decr pending
      | `Requeue ->
          (* head of the next worker's deque: with more than one worker
             the retry lands on a different domain; with one it is the
             very next task popped, preserving sequential order *)
          push_front deques.((worker + 1) mod workers) i
    in
    let steal w =
      let rec scan k =
        if k >= workers then None
        else
          match pop_back deques.((w + k) mod workers) with
          | Some i ->
              Atomic.incr g_steals;
              Obs.Metrics.incr "pool.steals";
              Some i
          | None -> scan (k + 1)
      in
      scan 1
    in
    let worker_loop w () =
      let spins = ref 0 in
      let rec loop () =
        match pop_front deques.(w) with
        | Some i ->
            execute ~worker:w i;
            loop ()
        | None -> (
            match steal w with
            | Some i ->
                execute ~worker:w i;
                loop ()
            | None ->
                if Atomic.get pending > 0 then begin
                  incr spins;
                  if !spins land 1023 = 0 then begin
                    watchdog_scan ();
                    Unix.sleepf 0.0002
                  end
                  else Domain.cpu_relax ();
                  loop ()
                end)
      in
      loop ()
    in
    if workers = 1 then
      (* sequential fast path: same loop, no domain spawned *)
      worker_loop 0 ()
    else begin
      let domains = List.init workers (fun w -> Domain.spawn (worker_loop w)) in
      List.iter Domain.join domains
    end;
    let run_timings =
      Array.fold_left (fun acc l -> List.rev_append l acc) [] wtimes
    in
    finish_run ~t_start ~workers ~tasks:n run_timings;
    (* every worker loops until [pending] reaches zero, so every task
       has resolved by the time the domains are joined *)
    Array.map (function Some o -> o | None -> assert false) results

let map ?jobs ?label ?retries ?deadline_s ?faults f items =
  let outs = map_outcomes ?jobs ?label ?retries ?deadline_s ?faults ~f items in
  (* all tasks ran to resolution first (no early abort); only then is
     the lowest-index quarantined task's exception re-raised, so the
     choice never depends on which worker failed first *)
  Array.iter
    (function
      | Failed fl -> Printexc.raise_with_backtrace fl.f_exn fl.f_backtrace
      | Ok _ -> ())
    outs;
  Array.map (function Ok v -> v | Failed _ -> assert false) outs
