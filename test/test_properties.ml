(* Cross-library property tests: the procedural corpus generator doubles
   as a QCheck generator of realistic driver modules, over which we check
   end-to-end invariants of parsing, analysis and execution. *)

let gen_driver_entry =
  QCheck.Gen.map
    (fun seed ->
      let entries =
        Corpus.Gen.population ~seed ~n_drivers:1 ~loaded_drivers:1 ~n_sockets:0
          ~loaded_sockets:0 ()
      in
      List.hd entries)
    QCheck.Gen.(int_bound 5000)

let gen_socket_entry =
  QCheck.Gen.map
    (fun seed ->
      let entries =
        Corpus.Gen.population ~seed ~n_drivers:0 ~loaded_drivers:0 ~n_sockets:1
          ~loaded_sockets:1 ()
      in
      List.hd entries)
    QCheck.Gen.(int_bound 5000)

let arbitrary_driver = QCheck.make ~print:(fun e -> e.Corpus.Types.name) gen_driver_entry
let arbitrary_socket = QCheck.make ~print:(fun e -> e.Corpus.Types.name) gen_socket_entry

(* 1. every generated module parses and pretty-print round-trips *)
let prop_parse_roundtrip =
  QCheck.Test.make ~name:"generated drivers parse and round-trip" ~count:60 arbitrary_driver
    (fun entry ->
      let sid = ref 0 in
      let f = Csrc.Parser.parse_file ~file:"m.c" ~sid entry.source in
      let printed = Csrc.Pretty.file_str f in
      let sid2 = ref 0 in
      let f2 = Csrc.Parser.parse_file ~file:"m.c" ~sid:sid2 printed in
      List.length f.decls = List.length f2.decls)

(* 2. the pipeline always terminates and, when valid, covers the ground
   truth commands *)
let prop_pipeline_sound =
  QCheck.Test.make ~name:"pipeline specs validate against the kernel" ~count:25
    arbitrary_driver (fun entry ->
      let machine = Vkernel.Machine.boot [ entry ] in
      let kernel = machine.Vkernel.Machine.index in
      let oracle = Oracle.create ~profile:Profile.gpt4 ~knowledge:kernel () in
      let out = Kernelgpt.Pipeline.run ~oracle ~kernel entry in
      match out.o_spec with
      | None -> true
      | Some spec ->
          (not out.o_valid) || Syzlang.Validate.validate ~kernel spec = [])

(* 3. fuzzing a generated driver with its KernelGPT spec reaches at least
   the open handler (coverage > 0) whenever generation succeeded *)
let prop_fuzz_reaches_module =
  QCheck.Test.make ~name:"valid specs earn module coverage" ~count:15 arbitrary_driver
    (fun entry ->
      let machine = Vkernel.Machine.boot [ entry ] in
      let kernel = machine.Vkernel.Machine.index in
      let oracle = Oracle.create ~profile:Profile.gpt4 ~knowledge:kernel () in
      match Kernelgpt.Pipeline.run ~oracle ~kernel entry with
      | { o_valid = true; o_spec = Some spec; _ } ->
          let res = Fuzzer.Campaign.run ~seed:1 ~budget:300 ~machine spec in
          Fuzzer.Campaign.module_coverage machine res entry.name > 0
      | _ -> true)

(* 4. execution never raises: crashes and errors are data, not exceptions *)
let prop_exec_total =
  QCheck.Test.make ~name:"program execution is total" ~count:40 arbitrary_driver
    (fun entry ->
      let machine = Vkernel.Machine.boot [ entry ] in
      let r = Fuzzer.Rng.make (Hashtbl.hash entry.Corpus.Types.name) in
      let path = List.hd entry.gt.gt_paths in
      let prog =
        [
          { Vkernel.Machine.c_name = "openat"; c_args = [ P_int (-100L); P_str path ] };
          {
            Vkernel.Machine.c_name = "ioctl";
            c_args =
              [
                P_result 0;
                P_int (Fuzzer.Rng.fuzz_int r ~bits:32);
                P_data (Vkernel.Value.U_str "x");
              ];
          };
          { Vkernel.Machine.c_name = "close"; c_args = [ P_result 0 ] };
        ]
      in
      match Vkernel.Machine.exec_prog machine prog with _ -> true)

(* 5. socket pipeline: the generated socket spec's domain matches gt *)
let prop_socket_domain =
  QCheck.Test.make ~name:"socket specs carry the right domain" ~count:20 arbitrary_socket
    (fun entry ->
      let machine = Vkernel.Machine.boot [ entry ] in
      let kernel = machine.Vkernel.Machine.index in
      let oracle = Oracle.create ~profile:Profile.gpt4 ~knowledge:kernel () in
      match Kernelgpt.Pipeline.run ~oracle ~kernel entry with
      | { o_spec = Some spec; _ } -> (
          match
            ( entry.gt.gt_socket,
              List.find_opt (fun c -> c.Syzlang.Ast.call_name = "socket") spec.syscalls )
          with
          | Some (d, _, _), Some call -> (
              match (List.hd call.args).ftyp with
              | Syzlang.Ast.Const (c, _) -> c.const_value = Some (Int64.of_int d)
              | _ -> false)
          | _ -> true)
      | _ -> true)

(* 6. SyzDescribe either fails or produces a validating spec *)
let prop_syzdescribe_validates =
  QCheck.Test.make ~name:"SyzDescribe output validates (even when wrong)" ~count:30
    arbitrary_driver (fun entry ->
      let machine = Vkernel.Machine.boot [ entry ] in
      let kernel = machine.Vkernel.Machine.index in
      match (Baseline.Syzdescribe.run entry).sd_spec with
      | None -> true
      | Some spec -> Syzlang.Validate.validate ~kernel spec = [])

(* 7. interpreter arithmetic sanity through a synthetic module *)
let prop_interp_arithmetic =
  QCheck.Test.make ~name:"interpreter arithmetic matches OCaml" ~count:80
    QCheck.(pair (int_bound 1000) (int_range 1 1000))
    (fun (a, b) ->
      let src =
        Printf.sprintf
          {|
static long arith_ioctl(struct file *f, unsigned int cmd, unsigned long arg)
{
  long x;
  x = %d;
  x = x * 3 + %d;
  x = x %% 97;
  if (x > 48)
    x = x - 48;
  return x;
}
static const struct file_operations arith_fops = {
  .unlocked_ioctl = arith_ioctl,
};
|}
          a b
      in
      let sid = ref 0 in
      let idx = Csrc.Index.of_files (Corpus.Headers.parse_with_header ~sid ~file:"a.c" src) in
      let st = Vkernel.Interp.create ~index:idx () in
      let v =
        Vkernel.Jit.call (Vkernel.Jit.of_index idx) st "arith_ioctl"
          [ Vkernel.Value.vint 0L; Vkernel.Value.vint 0L; Vkernel.Value.vint 0L ]
      in
      let expected =
        let x = ((a * 3) + b) mod 97 in
        if x > 48 then x - 48 else x
      in
      Vkernel.Value.to_int v = Int64.of_int expected)

let () =
  Alcotest.run "properties"
    [
      ( "end-to-end",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_parse_roundtrip;
            prop_pipeline_sound;
            prop_fuzz_reaches_module;
            prop_exec_total;
            prop_socket_domain;
            prop_syzdescribe_validates;
            prop_interp_arithmetic;
          ] );
    ]
