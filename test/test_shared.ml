(* One booted kernel shared by several domains. Once its JIT is forced
   nothing writes a machine, so campaigns and executions running on it
   from two domains at once must reproduce the sequential runs exactly,
   and the definition index's memo tables must answer concurrent
   lookups the way a freshly built index does. *)

let boot entries =
  let m = Vkernel.Machine.boot entries in
  ignore (Lazy.force m.Vkernel.Machine.jit);
  m

let dm = lazy (boot [ Corpus.Registry.find_exn "dm" ])
let whole = lazy (boot (Corpus.Registry.loaded ()))

(* Run [f] on two domains released together; both results, in order. *)
let on_two_domains (f : unit -> 'a) : 'a * 'a =
  let ready = Atomic.make 0 in
  let go () =
    Atomic.incr ready;
    while Atomic.get ready < 2 do
      Domain.cpu_relax ()
    done;
    f ()
  in
  let other = Domain.spawn go in
  let mine = go () in
  (mine, Domain.join other)

(* ------------------------------------------------------------------ *)
(* Index memos                                                         *)
(* ------------------------------------------------------------------ *)

(* Every macro's value, every identifier's constant, and the all-macros
   list, as one comparable answer. [backwards] walks the names in the
   opposite order, so two domains fill the memos with different keys at
   once instead of trailing each other over the same ones. *)
let index_answers ?(backwards = false) (idx : Csrc.Index.t) =
  let names tbl = List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) tbl []) in
  let macros = names idx.Csrc.Index.macros in
  let idents = List.sort_uniq compare (macros @ names idx.Csrc.Index.enums_by_item) in
  let walk f xs =
    if backwards then List.rev_map f (List.rev xs) else List.map f xs
  in
  ( walk (fun n -> (n, Csrc.Index.eval_macro idx n)) macros,
    walk (fun n -> (n, Csrc.Index.ident_const idx n)) idents,
    List.sort compare (Csrc.Index.all_macro_values idx) )

let check_index (m : Vkernel.Machine.t) =
  let idx = m.Vkernel.Machine.index in
  let fresh = index_answers (Csrc.Index.of_files idx.Csrc.Index.files) in
  let turn = Atomic.make false in
  let a, b =
    on_two_domains (fun () -> index_answers ~backwards:(Atomic.exchange turn true) idx)
  in
  Alcotest.(check bool) "first domain matches a fresh index" true (a = fresh);
  Alcotest.(check bool) "second domain matches a fresh index" true (b = fresh)

let test_index_whole () = check_index (Lazy.force whole)
let test_index_dm () = check_index (Lazy.force dm)

(* ------------------------------------------------------------------ *)
(* Campaigns and executions                                            *)
(* ------------------------------------------------------------------ *)

let dm_spec =
  lazy
    (let m = Lazy.force dm in
     let kernel = m.Vkernel.Machine.index in
     let oracle = Oracle.create ~profile:Profile.gpt4 ~knowledge:kernel () in
     Option.get
       (Kernelgpt.Pipeline.run ~oracle ~kernel (Corpus.Registry.find_exn "dm")).o_spec)

let whole_spec = lazy (Baseline.Syzkaller_specs.suite (Corpus.Registry.loaded ()))

(* What a campaign is judged by: executions, coverage set, crash
   titles and when each first fired. *)
let campaign_print (r : Fuzzer.Campaign.result) =
  ( r.executions,
    List.sort compare (Hashtbl.fold (fun sid () acc -> sid :: acc) r.coverage []),
    List.sort compare (Fuzzer.Campaign.crash_titles r),
    List.sort compare r.first_crash_execs )

let exec_print (r : Vkernel.Machine.exec_result) =
  (r.retvals, r.crash, List.sort compare r.coverage, r.timed_out)

(* Small campaigns on [machine], then one execution of each of a fixed
   sample of generated programs. *)
let workload machine spec ~budget ~seeds () =
  let campaigns =
    List.map
      (fun seed -> campaign_print (Fuzzer.Campaign.run ~seed ~budget ~machine spec))
      seeds
  in
  let gen =
    Fuzzer.Proggen.prepare
      (Syzlang.Validate.resolve_spec ~kernel:machine.Vkernel.Machine.index spec)
  in
  let rng = Fuzzer.Rng.make 17 in
  let progs = List.init 40 (fun _ -> Fuzzer.Proggen.generate gen rng ()) in
  (campaigns, List.map (fun p -> exec_print (Vkernel.Machine.exec_prog machine p)) progs)

let check_shared machine spec ~budget ~seeds =
  let run = workload machine spec ~budget ~seeds in
  let seq = run () in
  let a, b = on_two_domains run in
  let campaigns (c, _) = c and execs (_, e) = e in
  Alcotest.(check bool) "campaigns ran their budget" true
    (List.for_all (fun (n, _, _, _) -> n = budget) (campaigns seq));
  Alcotest.(check bool) "first domain's campaigns match" true (campaigns a = campaigns seq);
  Alcotest.(check bool) "second domain's campaigns match" true (campaigns b = campaigns seq);
  Alcotest.(check bool) "first domain's executions match" true (execs a = execs seq);
  Alcotest.(check bool) "second domain's executions match" true (execs b = execs seq)

let test_dm_shared () =
  check_shared (Lazy.force dm) (Lazy.force dm_spec) ~budget:1500 ~seeds:[ 1; 2; 3 ]

let test_whole_shared () =
  check_shared (Lazy.force whole) (Lazy.force whole_spec) ~budget:300 ~seeds:[ 1 ]

let () =
  let t n f = Alcotest.test_case n `Quick f in
  Alcotest.run "shared"
    [
      ( "index",
        [
          t "whole kernel memos across domains" test_index_whole;
          t "dm memos across domains" test_index_dm;
        ] );
      ( "machine",
        [
          t "dm campaigns across domains" test_dm_shared;
          t "whole kernel campaigns across domains" test_whole_shared;
        ] );
    ]
