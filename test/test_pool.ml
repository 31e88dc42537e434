(* Unit tests for the domain work pool: ordering, determinism vs the
   sequential path, exception propagation, and the timing accounting. *)

let test_map_preserves_order () =
  let items = Array.init 100 (fun i -> i) in
  let f x = (x * 2) + 1 in
  let seq = Kernelgpt.Pool.map ~jobs:1 f items in
  let par = Kernelgpt.Pool.map ~jobs:4 f items in
  Alcotest.(check (array int)) "parallel equals sequential" seq par;
  Alcotest.(check int) "order preserved" 7 par.(3)

let test_map_empty () =
  Alcotest.(check int) "empty input" 0
    (Array.length (Kernelgpt.Pool.map ~jobs:4 (fun x -> x) [||]))

let test_map_more_jobs_than_tasks () =
  let out = Kernelgpt.Pool.map ~jobs:16 (fun x -> x + 1) [| 1; 2; 3 |] in
  Alcotest.(check (array int)) "pool shrinks to task count" [| 2; 3; 4 |] out

let test_exception_propagates () =
  let boom () =
    ignore
      (Kernelgpt.Pool.map ~jobs:3
         (fun x -> if x = 5 then failwith "task exploded" else x)
         (Array.init 20 (fun i -> i)))
  in
  Alcotest.check_raises "worker exception reaches caller" (Failure "task exploded") boom

let test_stats_accounting () =
  Kernelgpt.Pool.reset_stats ();
  ignore (Kernelgpt.Pool.map ~jobs:2 (fun x -> x) (Array.init 10 (fun i -> i)));
  ignore (Kernelgpt.Pool.map ~jobs:1 (fun x -> x) (Array.init 5 (fun i -> i)));
  let s = Kernelgpt.Pool.stats () in
  Alcotest.(check int) "tasks counted across runs" 15 s.s_tasks;
  Alcotest.(check int) "max pool size" 2 s.s_workers;
  Alcotest.(check int) "one timing per task" 15 (List.length (Kernelgpt.Pool.timings ()));
  Kernelgpt.Pool.reset_stats ();
  Alcotest.(check int) "reset clears" 0 (Kernelgpt.Pool.stats ()).s_tasks

let test_labels_logged () =
  Kernelgpt.Pool.reset_stats ();
  ignore
    (Kernelgpt.Pool.map ~jobs:2
       ~label:(fun _ x -> "job:" ^ string_of_int x)
       (fun x -> x) [| 7; 8 |]);
  let labels = List.map (fun t -> t.Kernelgpt.Pool.tm_label) (Kernelgpt.Pool.timings ()) in
  List.iter
    (fun l -> Alcotest.(check bool) (l ^ " recorded") true (List.mem l labels))
    [ "job:7"; "job:8" ]

(* ------------------------------------------------------------------ *)
(* Fault isolation: stealing, retries, quarantine, stragglers, the    *)
(* bounded log, and the determinism contract                          *)
(* ------------------------------------------------------------------ *)

let test_steal_path () =
  (* worker 0 gets stuck on task 0; worker 1 drains its own deque and
     must steal 0's remaining tasks for the run to finish promptly *)
  Kernelgpt.Pool.reset_stats ();
  let out =
    Kernelgpt.Pool.map ~jobs:2
      (fun x ->
        if x = 0 then Unix.sleepf 0.05;
        x)
      (Array.init 16 (fun i -> i))
  in
  Alcotest.(check int) "all tasks ran" 16 (Array.length out);
  let s = Kernelgpt.Pool.stats () in
  Alcotest.(check bool) "sibling stole from the stuck worker" true (s.s_steals > 0)

let test_retry_then_succeed () =
  (* the first attempt of task 3 raises; its retry (on another worker)
     must succeed and the overall outcome must be Ok *)
  Kernelgpt.Pool.reset_stats ();
  let mu = Mutex.create () in
  let tried = Hashtbl.create 8 in
  let out =
    Kernelgpt.Pool.map_outcomes ~jobs:2
      ~f:(fun x ->
        if x = 3 then begin
          Mutex.lock mu;
          let first = not (Hashtbl.mem tried x) in
          Hashtbl.replace tried x ();
          Mutex.unlock mu;
          if first then failwith "flaky"
        end;
        x * 10)
      (Array.init 8 (fun i -> i))
  in
  (match out.(3) with
  | Kernelgpt.Pool.Ok v -> Alcotest.(check int) "retry produced the result" 30 v
  | Kernelgpt.Pool.Failed _ -> Alcotest.fail "flaky task should recover on retry");
  let s = Kernelgpt.Pool.stats () in
  Alcotest.(check int) "one retry recorded" 1 s.s_retries;
  Alcotest.(check int) "nothing quarantined" 0 s.s_quarantined

let test_quarantine_after_budget () =
  Kernelgpt.Pool.reset_stats ();
  let out =
    Kernelgpt.Pool.map_outcomes ~jobs:2
      ~f:(fun x -> if x = 2 then failwith "always broken" else x)
      (Array.init 6 (fun i -> i))
  in
  (match out.(2) with
  | Kernelgpt.Pool.Failed fl ->
      Alcotest.(check int) "every attempt consumed"
        (Kernelgpt.Pool.default_retries + 1)
        fl.f_attempts;
      Alcotest.(check bool) "last exception kept" true (fl.f_exn = Failure "always broken")
  | Kernelgpt.Pool.Ok _ -> Alcotest.fail "always-broken task cannot succeed");
  Array.iteri
    (fun i o ->
      if i <> 2 then
        match o with
        | Kernelgpt.Pool.Ok v -> Alcotest.(check int) "sibling task unharmed" i v
        | Kernelgpt.Pool.Failed _ -> Alcotest.fail "only task 2 should fail")
    out;
  let s = Kernelgpt.Pool.stats () in
  Alcotest.(check int) "one task quarantined" 1 s.s_quarantined;
  Alcotest.(check int) "retries before giving up" Kernelgpt.Pool.default_retries s.s_retries

let test_deadline_flags_straggler () =
  Kernelgpt.Pool.reset_stats ();
  let out =
    Kernelgpt.Pool.map_outcomes ~jobs:2 ~deadline_s:0.01
      ~f:(fun x ->
        if x = 1 then Unix.sleepf 0.05;
        x)
      (Array.init 4 (fun i -> i))
  in
  Array.iter
    (function
      | Kernelgpt.Pool.Ok _ -> ()
      | Kernelgpt.Pool.Failed _ -> Alcotest.fail "the watchdog flags, it never kills")
    out;
  let s = Kernelgpt.Pool.stats () in
  Alcotest.(check bool) "straggler flagged" true (s.s_flagged >= 1);
  let flagged =
    List.exists (fun t -> t.Kernelgpt.Pool.tm_flagged) (Kernelgpt.Pool.timings ())
  in
  Alcotest.(check bool) "timing log carries the flag" true flagged

let test_map_raises_lowest_index () =
  (* tasks 2 and 5 both exhaust their budgets; map must deterministically
     re-raise task 2's exception whatever the scheduling *)
  let boom () =
    ignore
      (Kernelgpt.Pool.map ~jobs:3
         (fun x -> if x = 2 || x = 5 then failwith ("boom-" ^ string_of_int x) else x)
         (Array.init 8 (fun i -> i)))
  in
  Alcotest.check_raises "lowest-index quarantined exception wins" (Failure "boom-2") boom

let test_timing_log_bounded () =
  Kernelgpt.Pool.reset_stats ();
  ignore (Kernelgpt.Pool.map ~jobs:4 (fun x -> x) (Array.init 3000 (fun i -> i)));
  let s = Kernelgpt.Pool.stats () in
  let kept = List.length (Kernelgpt.Pool.timings ()) in
  Alcotest.(check int) "aggregate task count stays exact" 3000 s.s_tasks;
  Alcotest.(check bool) "log is bounded" true (kept <= 1024);
  Alcotest.(check int) "kept + dropped = attempts" 3000 (kept + s.s_timings_dropped);
  Alcotest.(check bool) "entries were dropped" true (s.s_timings_dropped > 0)

(* QCheck: for any fault plan, outcomes and resilience counters are
   identical at jobs 1 and jobs 3 — the determinism contract the CI
   byte-diffs rely on *)
let prop_jobs_identity =
  QCheck.Test.make ~name:"fault outcomes independent of jobs" ~count:30
    QCheck.(pair (int_bound 100) (int_bound 1000))
    (fun (rate, seed) ->
      let plan = Kernelgpt.Pool.Faults.make ~seed ~rate_pct:rate () in
      let items = Array.init 24 (fun i -> i) in
      let run jobs =
        Kernelgpt.Pool.reset_stats ();
        let out =
          Kernelgpt.Pool.map_outcomes ~jobs ~faults:plan
            ~label:(fun i _ -> "prop:" ^ string_of_int i)
            ~f:(fun x -> x * 7)
            items
        in
        let s = Kernelgpt.Pool.stats () in
        let shape =
          Array.map
            (function
              | Kernelgpt.Pool.Ok v -> `Ok v
              | Kernelgpt.Pool.Failed fl ->
                  `Failed (fl.Kernelgpt.Pool.f_attempts, Printexc.to_string fl.f_exn))
            out
        in
        (shape, s.s_retries, s.s_quarantined, s.s_faults_injected, s.s_stalls)
      in
      run 1 = run 3)

let () =
  let t n f = Alcotest.test_case n `Quick f in
  Alcotest.run "pool"
    [
      ( "pool",
        [
          t "order preserved" test_map_preserves_order;
          t "empty input" test_map_empty;
          t "more jobs than tasks" test_map_more_jobs_than_tasks;
          t "task exception propagates" test_exception_propagates;
          t "stats accounting" test_stats_accounting;
          t "labels logged" test_labels_logged;
        ] );
      ( "faults",
        [
          t "steal path" test_steal_path;
          t "retry then succeed" test_retry_then_succeed;
          t "quarantine after budget" test_quarantine_after_budget;
          t "deadline flags straggler" test_deadline_flags_straggler;
          t "map raises lowest index" test_map_raises_lowest_index;
          t "timing log bounded" test_timing_log_bounded;
          QCheck_alcotest.to_alcotest prop_jobs_identity;
        ] );
    ]
