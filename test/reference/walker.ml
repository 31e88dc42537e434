(** Reference tree-walker for the mini-C dialect, kept for tests only.

    It re-walks the handler AST on every execution, over the same
    {!Vkernel.Interp} runtime (state, objects, builtins, leak scan) that
    the production {!Vkernel.Jit} closures use. The two execute the same
    source independently, so any disagreement between them on a
    program's return values, crash, coverage or timeout is a bug in one
    of them. {!executor} plugs the walker into
    {!Vkernel.Machine.exec_prog_with}; {!exec_prog} runs a whole program
    on it. *)

open Vkernel
open Value
open Interp

exception Goto_exc of string

type env = { st : state; locals : value Stbl.t; fn : string }

type lvalue =
  | L_local of string
  | L_global of string
  | L_field of obj * string
  | L_cell of obj * int

let step env = step_state env.st

let cover env (s : Csrc.Ast.stmt) = env.st.on_cover s.Csrc.Ast.sid

(* Globals initialize lazily on first touch: a whole-kernel boot carries
   a thousand module globals, of which any one program touches a handful. *)
let rec get_global (st : state) (name : string) : value option =
  match Stbl.find_opt st.globals name with
  | Some v -> Some v
  | None -> (
      match Csrc.Index.find_global st.index name with
      | None -> None
      | Some g ->
          let v = init_global st g in
          Stbl.replace st.globals name v;
          Some v)

and init_global (st : state) (g : Csrc.Ast.global_def) : value =
  let fn = "__init" in
  let base =
    match g.global_type with
    | Csrc.Ast.Struct_ref n | Csrc.Ast.Union_ref n -> vptr (typed_obj st ~fn n)
    | Csrc.Ast.Array (elem, Some count) when count > 0 && count <= 4096 ->
        let cells = Array.init count (fun _ -> zero_value st ~fn elem) in
        vptr (new_obj st ~fn ~tracked:false (Cells cells))
    | ty -> zero_value st ~fn ty
  in
  (* publish before applying the initializer so cross-references resolve *)
  Stbl.replace st.globals g.global_name base;
  (match g.global_init with
  | None -> ()
  | Some gi -> (
      match gi with
      | Csrc.Ast.Init_designated fields when not (is_imm base) -> (
          match boxed base with
          | B_ptr o ->
              List.iter (fun (f, gi) -> set_field ~fn o f (init_value st gi)) fields
          | _ -> Stbl.replace st.globals g.global_name (init_value st gi))
      | _ -> Stbl.replace st.globals g.global_name (init_value st gi)));
  match Stbl.find_opt st.globals g.global_name with Some v -> v | None -> base

and get_global_h (st : state) (h : int) (name : string) : value option =
  (* precomputed-hash twin of {!get_global} for callers that resolve
     the same name repeatedly (the machine's handler dispatch) *)
  match Stbl.find_opt_h st.globals h name with
  | Some v -> Some v
  | None -> (
      match Csrc.Index.find_global st.index name with
      | None -> None
      | Some g ->
          let v = init_global st g in
          Stbl.replace_h st.globals h name v;
          Some v)

and init_value (st : state) (gi : Csrc.Ast.ginit) : value =
  let fn = "__init" in
  match gi with
  | Csrc.Ast.Init_expr (Csrc.Ast.Ident name) -> (
      match Csrc.Index.find_function st.index name with
      | Some _ -> vfn name
      | None -> (
          match get_global st name with
          | Some v -> v
          | None -> (
              match Csrc.Index.eval_macro st.index name with
              | Some v -> vint v
              | None -> (
                  match Csrc.Index.find_enum_item st.index name with
                  | Some e -> (
                      match Csrc.Index.eval_opt st.index e with Some v -> vint v | None -> vzero)
                  | None -> (
                      match Csrc.Index.string_macro st.index name with
                      | Some s -> vstr s
                      | None -> vzero)))))
  | Csrc.Ast.Init_expr (Csrc.Ast.Addr_of (Csrc.Ast.Ident name)) -> (
      match get_global st name with Some v -> v | None -> vzero)
  | Csrc.Ast.Init_expr e -> (
      match Csrc.Index.eval_opt st.index e with
      | Some v -> vint v
      | None -> (
          match Csrc.Index.eval_string st.index e with Some s -> vstr s | None -> vzero))
  | Csrc.Ast.Init_designated fields ->
      let o = fields_obj st ~fn () in
      List.iter (fun (f, gi) -> set_field ~fn o f (init_value st gi)) fields;
      vptr o
  | Csrc.Ast.Init_list items ->
      let cells = Array.of_list (List.map (init_value st) items) in
      vptr (new_obj st ~fn ~tracked:false (Cells cells))

let lookup_var env name : value option =
  match Stbl.find_opt env.locals name with
  | Some v -> Some v
  | None -> get_global env.st name

let rec eval env (e : Csrc.Ast.expr) : value =
  match e with
  | Csrc.Ast.Const_int v -> vint v
  | Csrc.Ast.Const_char c -> fix (Char.code c)
  | Csrc.Ast.Const_str s -> vstr s
  | Csrc.Ast.Ident name -> eval_ident env name
  | Csrc.Ast.Unop (op, a) -> (
      let v = eval env a in
      match op with
      | Csrc.Ast.Neg -> vneg v
      | Csrc.Ast.Not -> vbool (not (truthy v))
      | Csrc.Ast.Bit_not -> vlognot v)
  | Csrc.Ast.Binop (op, a, b) -> eval_binop env op a b
  | Csrc.Ast.Assign (lhs, rhs) ->
      let v = eval env rhs in
      store env (eval_lval env lhs) v;
      v
  | Csrc.Ast.Call (name, args) -> eval_call env name args
  | Csrc.Ast.Member (a, f) | Csrc.Ast.Arrow (a, f) -> (
      let base = eval env a in
      if is_imm base then Crash.raise_crash Crash.Gpf env.fn
      else
        match boxed base with
        | B_ptr o -> get_field ~fn:env.fn o f
        | B_uptr (U_struct (_, fields)) -> (
            match List.assoc_opt f fields with
            | Some uv -> value_of_uval env.st ~fn:env.fn uv
            | None -> vzero)
        | B_uptr U_null | B_i64 _ -> Crash.raise_crash Crash.Gpf env.fn
        | _ -> raise (Exec_error (Printf.sprintf "%s: bad field base for .%s" env.fn f)))
  | Csrc.Ast.Index (a, i) -> (
      let idx = Int64.to_int (as_int (eval env i)) in
      let base = eval env a in
      if is_imm base then
        if imm base = 0 then Crash.raise_crash Crash.Gpf env.fn else vzero
      else
        match boxed base with
        | B_ptr o -> (
            check_alive ~fn:env.fn o;
            match o.data with
            | Cells cells ->
                if idx < 0 || idx >= Array.length cells then
                  Crash.raise_crash Crash.Ubsan_oob env.fn
                else cells.(idx)
            | Fields _ | Typed _ | Opaque -> vzero)
        | B_str s ->
            if idx >= 0 && idx < String.length s then fix (Char.code s.[idx])
            else vzero
        | B_uptr (U_arr xs) -> (
            match List.nth_opt xs idx with
            | Some uv -> value_of_uval env.st ~fn:env.fn uv
            | None -> vzero)
        | _ -> vzero)
  | Csrc.Ast.Cast (_, a) -> eval env a
  | Csrc.Ast.Sizeof_type ty -> vint (Int64.of_int (Csrc.Index.sizeof env.st.index ty))
  | Csrc.Ast.Sizeof_expr _ -> vint 8L
  | Csrc.Ast.Ternary (c, t, f) -> if truthy (eval env c) then eval env t else eval env f
  | Csrc.Ast.Addr_of a -> (
      (* &x where x is a struct local/global is the object itself; &arr[i]
         likewise when the element is an object *)
      match a with
      | Csrc.Ast.Ident _ | Csrc.Ast.Member _ | Csrc.Ast.Arrow _ | Csrc.Ast.Index _ -> eval env a
      | _ -> eval env a)
  | Csrc.Ast.Deref a ->
      let v = eval env a in
      (if is_imm v then (
         if imm v = 0 then Crash.raise_crash Crash.Gpf env.fn)
       else
         match boxed v with
         | B_ptr o -> check_alive ~fn:env.fn o
         | _ -> ());
      v
  | Csrc.Ast.Type_arg ty -> vint (Int64.of_int (Csrc.Index.sizeof env.st.index ty))

and eval_ident env name =
  match lookup_var env name with
  | Some v -> v
  | None -> (
      match Csrc.Index.ident_const env.st.index name with
      | Csrc.Index.C_int v -> vint v
      | Csrc.Index.C_str s -> vstr s
      | Csrc.Index.C_none -> (
          match Csrc.Index.find_function env.st.index name with
          | Some _ -> vfn name
          | None -> vzero))

and eval_binop env op a b =
  match op with
  | Csrc.Ast.Land -> vbool (truthy (eval env a) && truthy (eval env b))
  | Csrc.Ast.Lor -> vbool (truthy (eval env a) || truthy (eval env b))
  | _ ->
      let va = eval env a in
      let vb = eval env b in
      binop_values ~fn:env.fn op va vb

and eval_lval env (e : Csrc.Ast.expr) : lvalue =
  match e with
  | Csrc.Ast.Ident name ->
      if Stbl.mem env.locals name then L_local name
      else if get_global env.st name <> None then L_global name
      else L_local name (* implicit declaration (for-loop desugaring) *)
  | Csrc.Ast.Member (a, f) | Csrc.Ast.Arrow (a, f) -> (
      let base = eval env a in
      if is_imm base then Crash.raise_crash Crash.Gpf env.fn
      else
        match boxed base with
        | B_ptr o ->
            check_alive ~fn:env.fn o;
            L_field (o, f)
        | B_i64 _ -> Crash.raise_crash Crash.Gpf env.fn
        | _ -> raise (Exec_error (Printf.sprintf "%s: bad lvalue base for .%s" env.fn f)))
  | Csrc.Ast.Index (a, i) -> (
      let idx = Int64.to_int (as_int (eval env i)) in
      let base = eval env a in
      if is_imm base then
        if imm base = 0 then Crash.raise_crash Crash.Gpf env.fn
        else raise (Exec_error (env.fn ^ ": bad array lvalue"))
      else
        match boxed base with
        | B_ptr o -> (
            check_alive ~fn:env.fn o;
            match o.data with
            | Cells cells ->
                if idx < 0 || idx >= Array.length cells then
                  Crash.raise_crash Crash.Ubsan_oob env.fn
                else L_cell (o, idx)
            | Fields _ | Typed _ | Opaque -> L_field (o, Printf.sprintf "__idx%d" idx))
        | _ -> raise (Exec_error (env.fn ^ ": bad array lvalue")))
  | Csrc.Ast.Deref a -> (
      let base = eval env a in
      if is_imm base then
        if imm base = 0 then Crash.raise_crash Crash.Gpf env.fn
        else raise (Exec_error (env.fn ^ ": bad deref lvalue"))
      else
        match boxed base with
        | B_ptr o ->
            check_alive ~fn:env.fn o;
            L_field (o, "__deref")
        | _ -> raise (Exec_error (env.fn ^ ": bad deref lvalue")))
  | Csrc.Ast.Cast (_, a) -> eval_lval env a
  | _ -> raise (Exec_error (env.fn ^ ": expression is not an lvalue"))

and store env (lv : lvalue) (v : value) : unit =
  match lv with
  | L_local name -> Stbl.replace env.locals name v
  | L_global name -> Stbl.replace env.st.globals name v
  | L_field (o, f) -> set_field ~fn:env.fn o f v
  | L_cell (o, idx) -> (
      match o.data with
      | Cells cells -> cells.(idx) <- v
      | Fields _ | Typed _ | Opaque -> raise (Exec_error "cell store on non-array"))

(* ------------------------------------------------------------------ *)
(* Builtins                                                            *)
(* ------------------------------------------------------------------ *)

and eval_call env name (args : Csrc.Ast.expr list) : value =
  match builtin env name args with
  | Some v -> v
  | None -> (
      match Csrc.Index.find_function env.st.index name with
      | Some fd when fd.fun_body <> [] ->
          let argv = List.map (eval env) args in
          call_function env.st name fd argv
      | Some _ | None -> vzero)

(* The expr-level face of {!builtin_values}: evaluates arguments on
   demand through the tree walker. The name check up front keeps the
   (cheap) context record off the user-function call path entirely. *)
and builtin env name (args : Csrc.Ast.expr list) : value option =
  match Stbl.find_opt builtin_ids name with
  | None -> None
  | Some id -> begin
    let arg i =
      match List.nth_opt args i with
      | Some e -> e
      | None -> Csrc.Ast.Const_int 0L
    in
    (* [copy_from_user(&local, src, n)] on a scalar local cannot go
       through value semantics; resolve the destination as an lvalue *)
    let strip_addr e =
      let rec strip = function
        | Csrc.Ast.Cast (_, e) -> strip e
        | Csrc.Ast.Addr_of e -> Some e
        | _ -> None
      in
      strip e
    in
    let b =
      {
        bn = List.length args;
        bv =
          (fun env i ->
            (* user pointers to plain byte buffers behave like strings
               for the string builtins *)
            let x = eval env (arg i) in
            if is_imm x then x
            else match boxed x with B_uptr (U_str s) -> vstr s | _ -> x);
        braw = (fun env i -> eval env (arg i));
        bstore =
          (fun env i sv ->
            try
              store env (eval_lval env (arg i)) sv;
              true
            with Exec_error _ -> false);
        bsstore =
          (fun env i sv ->
            match strip_addr (arg i) with
            | Some inner -> (
                try
                  store env (eval_lval env inner) sv;
                  true
                with Exec_error _ -> false)
            | None -> false);
        bfops =
          (fun () ->
            let rec find = function
              | Csrc.Ast.Addr_of (Csrc.Ast.Ident g) -> Some g
              | Csrc.Ast.Cast (_, e) -> find e
              | _ -> None
            in
            List.find_map find args);
        bio =
          (fun () ->
            match Csrc.Index.eval_opt env.st.index (Csrc.Ast.Call (name, args)) with
            | Some x -> vint x
            | None -> vzero);
      }
    in
    builtin_values_id env.st ~fn:env.fn id name b env
  end

(* ------------------------------------------------------------------ *)
(* Statements and functions                                            *)
(* ------------------------------------------------------------------ *)

and exec_stmt env (s : Csrc.Ast.stmt) : unit =
  step env;
  cover env s;
  match s.Csrc.Ast.node with
  | Csrc.Ast.Expr_stmt e -> ignore (eval env e)
  | Csrc.Ast.Decl_stmt (ty, name, init) ->
      let v =
        match init with
        | Some e -> eval env e
        | None -> zero_value env.st ~fn:env.fn ty
      in
      Stbl.replace env.locals name v
  | Csrc.Ast.If (c, t, f) ->
      if truthy (eval env c) then exec_block env t
      else ( match f with Some f -> exec_block env f | None -> ())
  | Csrc.Ast.Switch (scrut, cases) -> exec_switch env scrut cases
  | Csrc.Ast.While (c, body) ->
      (try
         while truthy (eval env c) do
           step env;
           try exec_block env body with Continue_exc -> ()
         done
       with Break_exc -> ())
  | Csrc.Ast.Do_while (body, c) ->
      (try
         let continue_loop = ref true in
         while !continue_loop do
           step env;
           (try exec_block env body with Continue_exc -> ());
           continue_loop := truthy (eval env c)
         done
       with Break_exc -> ())
  | Csrc.Ast.For (init, cond, upd, body) ->
      (match init with Some e -> ignore (eval env e) | None -> ());
      (try
         let check () = match cond with Some c -> truthy (eval env c) | None -> true in
         while check () do
           step env;
           (try exec_block env body with Continue_exc -> ());
           match upd with Some u -> ignore (eval env u) | None -> ()
         done
       with Break_exc -> ())
  | Csrc.Ast.Return e ->
      let v = match e with Some e -> eval env e | None -> vunit in
      raise (Return_exc v)
  | Csrc.Ast.Break -> raise Break_exc
  | Csrc.Ast.Continue -> raise Continue_exc
  | Csrc.Ast.Goto l -> raise (Goto_exc l)
  | Csrc.Ast.Label _ -> ()
  | Csrc.Ast.Block b -> exec_block env b

and exec_block env (b : Csrc.Ast.block) : unit = List.iter (exec_stmt env) b

and exec_switch env scrut cases =
  let key = as_int (eval env scrut) in
  let matches case =
    List.exists
      (function
        | Csrc.Ast.Case e -> Int64.equal (as_int (eval env e)) key
        | Csrc.Ast.Default -> false)
      case.Csrc.Ast.labels
  in
  let is_default case = List.mem Csrc.Ast.Default case.Csrc.Ast.labels in
  let rec find_start i = function
    | [] -> None
    | c :: rest -> if matches c then Some i else find_start (i + 1) rest
  in
  let start =
    match find_start 0 cases with
    | Some i -> Some i
    | None -> (
        let rec find_default i = function
          | [] -> None
          | c :: rest -> if is_default c then Some i else find_default (i + 1) rest
        in
        find_default 0 cases)
  in
  match start with
  | None -> ()
  | Some i -> (
      let rest = List.filteri (fun j _ -> j >= i) cases in
      try List.iter (fun c -> exec_block env c.Csrc.Ast.case_body) rest
      with Break_exc -> ())

and call_function (st : state) (fname : string) (fd : Csrc.Ast.func_def) (argv : value list)
    : value =
  if st.depth > 64 then raise (Exec_error ("recursion too deep at " ^ fname));
  st.depth <- st.depth + 1;
  let locals = Stbl.create 16 in
  (* one simultaneous walk over params/argv: extra arguments are
     dropped, missing parameters read as zero *)
  let rec bind params argv =
    match (params, argv) with
    | [], _ -> ()
    | (_, pname) :: ps, [] ->
        Stbl.replace locals pname vzero;
        bind ps []
    | (_, pname) :: ps, a :: rest ->
        Stbl.replace locals pname a;
        bind ps rest
  in
  bind fd.fun_params argv;
  let env = { st; locals; fn = fname } in
  (* label -> tail of the body, built at most once per call; the first
     occurrence of a duplicated label wins, matching the Jit's
     compile-time label table *)
  let label_map =
    lazy
      (let rec go acc = function
         | [] -> List.rev acc
         | s :: rest -> (
             match s.Csrc.Ast.node with
             | Csrc.Ast.Label l when not (List.mem_assoc l acc) ->
                 go ((l, s :: rest) :: acc) rest
             | _ -> go acc rest)
       in
       go [] fd.fun_body)
  in
  let result =
    let rec run stmts =
      try
        List.iter (exec_stmt env) stmts;
        vunit
      with
      | Return_exc v -> v
      | Goto_exc l -> (
          match List.assoc_opt l (Lazy.force label_map) with
          | Some rest -> run rest
          | None -> raise (Exec_error (Printf.sprintf "%s: unknown label %s" fname l)))
    in
    run fd.fun_body
  in
  st.depth <- st.depth - 1;
  result

(** Call a named function with already-evaluated arguments. *)
let call st fname (argv : value list) : value =
  match Csrc.Index.find_function st.index fname with
  | Some fd when fd.fun_body <> [] -> call_function st fname fd argv
  | Some _ | None -> raise (Exec_error ("no such function " ^ fname))

(** The walker as a {!Vkernel.Machine} executor. *)
let executor : Machine.executor =
  {
    Machine.ex_call = (fun _ st fname argv -> call st fname argv);
    ex_global = (fun _ st h name -> get_global_h st h name);
  }

(** Execute a program with handler bodies run by the walker. *)
let exec_prog ?step_budget (machine : Machine.t) (prog : Machine.prog) :
    Machine.exec_result =
  Machine.exec_prog_with ?step_budget ~executor machine prog
