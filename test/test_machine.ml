(* Tests of the syscall machine beyond the dm basics: socket dispatch,
   resource-producing ioctls, leak scanning, and interpreter detail. *)

open Vkernel

let boot names = Machine.boot (List.map Corpus.Registry.find_exn names)

let cmd machine name =
  match Csrc.Index.eval_macro machine.Machine.index name with
  | Some v -> v
  | None -> Alcotest.failf "macro %s missing" name

(* ------------------------------------------------------------------ *)
(* Sockets                                                             *)
(* ------------------------------------------------------------------ *)

let test_socket_exact_triple () =
  let m = boot [ "rds" ] in
  let r =
    Machine.exec_prog m [ { Machine.c_name = "socket"; c_args = [ P_int 21L; P_int 5L; P_int 0L ] } ]
  in
  Alcotest.(check bool) "socket created" true (Int64.compare r.retvals.(0) 0L >= 0)

let test_socket_wrong_domain () =
  let m = boot [ "rds" ] in
  let r =
    Machine.exec_prog m [ { Machine.c_name = "socket"; c_args = [ P_int 2L; P_int 1L; P_int 0L ] } ]
  in
  Alcotest.(check int64) "EAFNOSUPPORT" (-97L) r.retvals.(0)

let test_socket_proto_fallback () =
  (* rfcomm is (31,1,3); a request with wildcard type but right proto
     must land on it, not on sco (31,5,2) *)
  let m = boot [ "rfcomm_sock"; "sco_sock" ] in
  let addr =
    Value.U_struct
      ("sockaddr_rc", [ ("rc_family", Value.U_int 31L); ("rc_channel", Value.U_int 5L) ])
  in
  let r =
    Machine.exec_prog m
      [
        { Machine.c_name = "socket"; c_args = [ P_int 31L; P_int 2L; P_int 3L ] };
        { Machine.c_name = "bind"; c_args = [ P_result 0; P_data addr; P_int 10L ] };
      ]
  in
  Alcotest.(check int64) "bound through rfcomm" 0L r.retvals.(1)

let test_setsockopt_dispatch () =
  let m = boot [ "llc_ui" ] in
  let bind_addr =
    Value.U_struct
      ("sockaddr_llc", [ ("sllc_family", Value.U_int 26L); ("sllc_sap", Value.U_int 2L) ])
  in
  let r =
    Machine.exec_prog m
      [
        { Machine.c_name = "socket"; c_args = [ P_int 26L; P_int 2L; P_int 0L ] };
        { Machine.c_name = "bind"; c_args = [ P_result 0; P_data bind_addr; P_int 16L ] };
        (* LLC_OPT_TX_WIN = 7, value above LLC_OPT_MAX_WIN must fail *)
        {
          Machine.c_name = "setsockopt";
          c_args = [ P_result 0; P_int 0L; P_int 7L; P_data (Value.U_int 500L); P_int 4L ];
        };
        {
          Machine.c_name = "setsockopt";
          c_args = [ P_result 0; P_int 0L; P_int 7L; P_data (Value.U_int 5L); P_int 4L ];
        };
      ]
  in
  Alcotest.(check int64) "oversized window rejected" (-22L) r.retvals.(2);
  Alcotest.(check int64) "valid window accepted" 0L r.retvals.(3)

let test_bind_null_addr_efault () =
  let m = boot [ "rds" ] in
  let r =
    Machine.exec_prog m
      [
        { Machine.c_name = "socket"; c_args = [ P_int 21L; P_int 5L; P_int 0L ] };
        { Machine.c_name = "bind"; c_args = [ P_result 0; P_null; P_int 16L ] };
      ]
  in
  Alcotest.(check int64) "EFAULT, not a crash" (-14L) r.retvals.(1);
  Alcotest.(check bool) "no crash" true (r.crash = None)

let test_sendto_lowered_to_sendmsg () =
  let m = boot [ "phonet_dgram" ] in
  let addr =
    Value.U_struct
      ("sockaddr_pn", [ ("spn_family", Value.U_int 35L); ("spn_dev", Value.U_int 0L) ])
  in
  let r =
    Machine.exec_prog m
      [
        { Machine.c_name = "socket"; c_args = [ P_int 35L; P_int 2L; P_int 0L ] };
        {
          Machine.c_name = "sendto";
          c_args = [ P_result 0; P_data (Value.U_str "hi"); P_int 2L; P_int 0L; P_data addr; P_int 16L ];
        };
      ]
  in
  Alcotest.(check int64) "send succeeds through sendmsg handler" 2L r.retvals.(1)

(* ------------------------------------------------------------------ *)
(* Resource-producing ioctls (kvm)                                     *)
(* ------------------------------------------------------------------ *)

let test_kvm_anon_fd_chain () =
  let m = boot [ "kvm" ] in
  let create_vm = cmd m "KVM_CREATE_VM" in
  let create_vcpu = cmd m "KVM_CREATE_VCPU" in
  let set_cpuid = cmd m "KVM_SET_CPUID2" in
  let run_vcpu = cmd m "KVM_RUN" in
  let cpuid = Value.U_struct ("kvm_cpuid2", [ ("nent", Value.U_int 2L) ]) in
  let r =
    Machine.exec_prog m
      [
        { Machine.c_name = "openat"; c_args = [ P_int (-100L); P_str "/dev/kvm" ] };
        { Machine.c_name = "ioctl"; c_args = [ P_result 0; P_int create_vm; P_int 0L ] };
        { Machine.c_name = "ioctl"; c_args = [ P_result 1; P_int create_vcpu; P_int 0L ] };
        { Machine.c_name = "ioctl"; c_args = [ P_result 2; P_int run_vcpu; P_int 0L ] };
        { Machine.c_name = "ioctl"; c_args = [ P_result 2; P_int set_cpuid; P_data cpuid ] };
        { Machine.c_name = "ioctl"; c_args = [ P_result 2; P_int run_vcpu; P_int 0L ] };
      ]
  in
  Alcotest.(check bool) "vm fd created" true (Int64.compare r.retvals.(1) 2L > 0);
  Alcotest.(check bool) "vcpu fd created" true (Int64.compare r.retvals.(2) r.retvals.(1) > 0);
  Alcotest.(check int64) "run before cpuid fails" (-8L) r.retvals.(3);
  Alcotest.(check int64) "cpuid set" 0L r.retvals.(4);
  Alcotest.(check int64) "run after cpuid" 0L r.retvals.(5)

(* ------------------------------------------------------------------ *)
(* Interpreter detail                                                  *)
(* ------------------------------------------------------------------ *)

let test_read_write_dispatch () =
  let m = boot [ "nvram" ] in
  let r =
    Machine.exec_prog m
      [
        { Machine.c_name = "openat"; c_args = [ P_int (-100L); P_str "/dev/nvram" ] };
        { Machine.c_name = "write"; c_args = [ P_result 0; P_data (Value.U_str "x"); P_int 4L ] };
        { Machine.c_name = "read"; c_args = [ P_result 0; P_null; P_int 8L ] };
      ]
  in
  Alcotest.(check int64) "write returns count" 4L r.retvals.(1);
  (* read fails while the checksum is dirty *)
  Alcotest.(check int64) "read EIO" (-5L) r.retvals.(2)

let test_step_budget_no_hang () =
  (* a pathological program cannot wedge the machine *)
  let m = boot [ "dm" ] in
  let t0 = Unix.gettimeofday () in
  let _ =
    Machine.exec_prog ~step_budget:5_000 m
      [ { Machine.c_name = "openat"; c_args = [ P_int (-100L); P_str "/dev/mapper/control" ] } ]
  in
  Alcotest.(check bool) "fast" true (Unix.gettimeofday () -. t0 < 1.0)

let starts_with ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let test_timeout_not_reported_as_leak () =
  (* open an fd, then time out inside the ioctl: the exit path must
     still release the fd on its own small budget, and the kmemleak scan
     must be skipped — a timed-out program never ran its releases to
     completion, so scanning would misreport live state as leaked *)
  let m = boot [ "dm" ] in
  let create = cmd m "DM_DEV_CREATE" in
  let prog =
    [
      { Machine.c_name = "openat"; c_args = [ P_int (-100L); P_str "/dev/mapper/control" ] };
      {
        Machine.c_name = "ioctl";
        c_args =
          [
            P_result 0;
            P_int create;
            P_data
              (Value.U_struct
                 ( "dm_ioctl",
                   [
                     ("version", Value.U_arr [ Value.U_int 4L ]);
                     ("data_size", Value.U_int 400L);
                     ("name", Value.U_str "v0");
                   ] ));
          ];
      };
    ]
  in
  let r = Machine.exec_prog ~step_budget:20 m prog in
  Alcotest.(check bool) "fd was opened" true (Int64.compare r.Machine.retvals.(0) 0L >= 0);
  Alcotest.(check int64) "ioctl interrupted" (-4L) r.retvals.(1);
  Alcotest.(check bool) "flagged as timed out" true r.timed_out;
  (match r.crash with
  | Some c when starts_with ~prefix:"memory leak" c.cr_title ->
      Alcotest.fail ("timed-out program misreported as " ^ c.cr_title)
  | _ -> ());
  (* the same program with budget to spare is neither flagged nor leaky *)
  let ok = Machine.exec_prog m prog in
  Alcotest.(check bool) "untimed run not flagged" false ok.Machine.timed_out;
  Alcotest.(check bool) "untimed run has no crash" true (ok.crash = None)

let test_unknown_syscall_enosys () =
  let m = boot [ "dm" ] in
  let r = Machine.exec_prog m [ { Machine.c_name = "reboot"; c_args = [] } ] in
  Alcotest.(check int64) "ENOSYS" (-38L) r.retvals.(0)

let test_coverage_nonoverlapping_modules () =
  let m = boot [ "dm"; "ubi" ] in
  let det = cmd m "UBI_IOCDET" in
  let r =
    Machine.exec_prog m
      [
        { Machine.c_name = "openat"; c_args = [ P_int (-100L); P_str "/dev/ubi_ctrl" ] };
        { Machine.c_name = "ioctl"; c_args = [ P_result 0; P_int det; P_data (Value.U_int 9L) ] };
      ]
  in
  let mods =
    List.filter_map (Machine.module_of_sid m) r.coverage |> List.sort_uniq compare
  in
  Alcotest.(check (list string)) "only ubi executed" [ "ubi" ] mods

let test_double_free_detected () =
  (* dvb remove_pid twice on the same slot after manual free would be a
     double free; exercise via DMX_REMOVE_PID after REMOVE_PID *)
  let m = boot [ "dvb_demux" ] in
  let add = cmd m "DMX_ADD_PID" and rem = cmd m "DMX_REMOVE_PID" in
  let pid = Machine.P_data (Value.U_int 5L) in
  let r =
    Machine.exec_prog m
      [
        { Machine.c_name = "openat"; c_args = [ P_int (-100L); P_str "/dev/dvb/adapter0/demux0" ] };
        { Machine.c_name = "ioctl"; c_args = [ P_result 0; P_int add; pid ] };
        { Machine.c_name = "ioctl"; c_args = [ P_result 0; P_int rem; pid ] };
        { Machine.c_name = "ioctl"; c_args = [ P_result 0; P_int rem; pid ] };
      ]
  in
  Alcotest.(check int64) "first remove ok" 0L r.retvals.(2);
  Alcotest.(check int64) "second remove EINVAL" (-22L) r.retvals.(3);
  Alcotest.(check bool) "no crash" true (r.crash = None)

let test_leak_scan_ignores_reachable () =
  (* a successful ubi attach keeps its allocations reachable: no leak *)
  let m = boot [ "ubi" ] in
  let att = cmd m "UBI_IOCATT" in
  let req =
    Value.U_struct
      ( "ubi_attach_req",
        [ ("mtd_num", Value.U_int 1L); ("vid_hdr_offset", Value.U_int 4096L);
          ("max_beb_per1024", Value.U_int 20L) ] )
  in
  let r =
    Machine.exec_prog m
      [
        { Machine.c_name = "openat"; c_args = [ P_int (-100L); P_str "/dev/ubi_ctrl" ] };
        { Machine.c_name = "ioctl"; c_args = [ P_result 0; P_int att; P_data req ] };
        { Machine.c_name = "close"; c_args = [ P_result 0 ] };
      ]
  in
  Alcotest.(check int64) "attach ok" 0L r.retvals.(1);
  Alcotest.(check bool) "no leak report" true (r.crash = None)

let test_detach_frees () =
  let m = boot [ "ubi" ] in
  let att = cmd m "UBI_IOCATT" and det = cmd m "UBI_IOCDET" in
  let req mtd =
    Value.U_struct
      ( "ubi_attach_req",
        [ ("mtd_num", Value.U_int mtd); ("vid_hdr_offset", Value.U_int 4096L);
          ("max_beb_per1024", Value.U_int 20L) ] )
  in
  let r =
    Machine.exec_prog m
      [
        { Machine.c_name = "openat"; c_args = [ P_int (-100L); P_str "/dev/ubi_ctrl" ] };
        { Machine.c_name = "ioctl"; c_args = [ P_result 0; P_int att; P_data (req 1L) ] };
        { Machine.c_name = "ioctl"; c_args = [ P_result 0; P_int det; P_data (Value.U_int 1L) ] };
        { Machine.c_name = "ioctl"; c_args = [ P_result 0; P_int att; P_data (req 1L) ] };
      ]
  in
  Array.iteri
    (fun i v -> Alcotest.(check bool) (Printf.sprintf "call %d ok" i) true (Int64.compare v 0L >= 0))
    r.retvals;
  Alcotest.(check bool) "no false leak after detach+reattach" true (r.crash = None)

(* ------------------------------------------------------------------ *)
(* Boot                                                                *)
(* ------------------------------------------------------------------ *)

(* Boot reuses the header parsed once per process; its sid numbering
   must equal a boot that parses kernel.h afresh. *)
let test_boot_shared_header_sids () =
  let entries = Corpus.Registry.loaded () in
  let m = Machine.boot entries in
  let sid = ref 0 in
  let header =
    Csrc.Parser.parse_file ~file:Corpus.Headers.header_path ~sid Corpus.Headers.kernel_h
  in
  Alcotest.(check int) "header sid count" !sid Corpus.Headers.header_sids;
  let sid_module = Hashtbl.create 4096 in
  let files =
    List.map
      (fun (e : Corpus.Types.entry) ->
        let before = !sid in
        let f = Csrc.Parser.parse_file ~file:(Corpus.Headers.module_file_name e) ~sid e.source in
        for s = before to !sid - 1 do
          Hashtbl.replace sid_module s e.name
        done;
        f)
      entries
  in
  Alcotest.(check int) "n_sids" !sid m.n_sids;
  let sorted tbl = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []) in
  Alcotest.(check (list (pair int string))) "sid_module" (sorted sid_module) (sorted m.sid_module);
  Alcotest.(check bool) "same ASTs" true (m.index.files = header :: files);
  Alcotest.(check bool) "header AST shared" true
    (List.hd m.index.files == Corpus.Headers.header_file);
  (* parse_with_header shares the header only from sid 0 *)
  let from0 = ref 0 and from7 = ref 7 in
  let h0 = List.hd (Corpus.Headers.parse_with_header ~sid:from0 ~file:"m.c" "") in
  let h7 = List.hd (Corpus.Headers.parse_with_header ~sid:from7 ~file:"m.c" "") in
  Alcotest.(check bool) "shared from 0" true (h0 == Corpus.Headers.header_file);
  Alcotest.(check int) "counter after shared header" Corpus.Headers.header_sids !from0;
  Alcotest.(check bool) "fresh from 7" true (h7 != Corpus.Headers.header_file);
  Alcotest.(check int) "counter after fresh header" (7 + Corpus.Headers.header_sids) !from7

(* Two drivers registering one path: the first entry booted owns it. *)
let test_boot_first_device_wins () =
  let dm = Corpus.Registry.find_exn "dm" in
  let twin = { dm with name = "dm_twin"; gt = { dm.gt with gt_fops = "twin_fops" } } in
  let m = Machine.boot [ dm; twin ] in
  List.iter
    (fun path ->
      Alcotest.(check string) path "dm" (Hashtbl.find m.devices path).dev_module)
    dm.gt.gt_paths;
  Alcotest.(check int) "one entry per path" (List.length dm.gt.gt_paths)
    (Hashtbl.length m.devices)

let () =
  let t n f = Alcotest.test_case n `Quick f in
  Alcotest.run "machine"
    [
      ( "sockets",
        [
          t "exact triple" test_socket_exact_triple;
          t "wrong domain" test_socket_wrong_domain;
          t "proto fallback" test_socket_proto_fallback;
          t "setsockopt dispatch" test_setsockopt_dispatch;
          t "null sockaddr" test_bind_null_addr_efault;
          t "sendto lowering" test_sendto_lowered_to_sendmsg;
        ] );
      ("anon-fds", [ t "kvm vm/vcpu chain" test_kvm_anon_fd_chain ]);
      ( "boot",
        [
          t "shared header sids" test_boot_shared_header_sids;
          t "first device wins" test_boot_first_device_wins;
        ] );
      ( "interp",
        [
          t "read/write dispatch" test_read_write_dispatch;
          t "step budget" test_step_budget_no_hang;
          t "timeout is not a leak" test_timeout_not_reported_as_leak;
          t "unknown syscall" test_unknown_syscall_enosys;
          t "module attribution" test_coverage_nonoverlapping_modules;
          t "no spurious double-free" test_double_free_detected;
          t "leak scan reachability" test_leak_scan_ignores_reachable;
          t "detach frees" test_detach_frees;
        ] );
    ]
