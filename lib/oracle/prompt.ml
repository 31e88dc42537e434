(** Prompts and responses of the analysis LLM.

    Prompts follow the paper's structured template (Figure 6): an
    instruction, the unknown-target list carried over from the previous
    step, and the source code of the relevant definitions. Responses are
    structured the way KernelGPT parses LLM output: inferred facts plus
    an [UNKNOWN] section naming the definitions still needed.

    A snippet carries its source text and the declarations that text
    prints. The text is what the model "reads": token counts,
    {!render} and the answer-cache key come from it. The oracle analyzes
    the declarations, so answering a prompt parses nothing. *)

type task =
  | Identifier_deduction of { handler_fn : string }
      (** deduce command values handled by this ioctl/sockopt handler *)
  | Type_recovery of { type_name : string }
  | Dependency_analysis of { handler_fn : string }
  | Device_name of { reg_symbol : string }
      (** infer the device path from a registration global or init fn *)
  | Socket_triple of { ops_symbol : string }
      (** infer the socket (domain, type, protocol) from a proto_ops *)
  | Repair of { item : string; description : string; error : string }
  | All_in_one of { handler_fn : string }  (** §5.2.3 ablation: single prompt *)

type snippet = {
  snip_name : string;
  snip_text : string;
  snip_decls : Csrc.Ast.decl list;
      (** the declarations [snip_text] prints; parsing the text gives
          them back, up to statement ids and source locations *)
}

(** A snippet from hand-written source text, parsed once here. Text
    that does not parse carries no declarations: the oracle sees
    nothing in it. *)
let snippet_of_text ~(name : string) (text : string) : snippet =
  let snip_decls =
    try (Csrc.Parser.parse_file ~file:("<prompt:" ^ name ^ ">") ~sid:(ref 0) text).decls
    with Csrc.Parser.Error _ | Csrc.Lexer.Error _ -> []
  in
  { snip_name = name; snip_text = text; snip_decls }

type t = {
  task : task;
  snippets : snippet list;
  usage : string list;  (** usage lines carried from the previous step *)
}

(** Approximate tokenization: the usual ~4 characters per token. *)
let snippet_tokens s = (String.length s.snip_text / 4) + (String.length s.snip_name / 4) + 8

(** Tokens of the fixed instruction template — named once, here, so the
    context-window budgeting in {!Oracle.fit_context} and the totals
    below can never disagree again. *)
let header_tokens = 64

(** Tokens of one carried-over usage line. *)
let usage_tokens u = String.length u / 4

let tokens (p : t) : int =
  List.fold_left (fun acc s -> acc + snippet_tokens s) header_tokens p.snippets
  + List.fold_left (fun acc u -> acc + usage_tokens u) 0 p.usage

(** Render the prompt as the text actually "sent" — used by the examples
    and by the answer-cache key; the analysis itself consumes the
    snippets' declarations. *)
let render (p : t) : string =
  let buf = Buffer.create 2048 in
  let add s = Buffer.add_string buf (s ^ "\n") in
  add "# Instruction";
  (match p.task with
  | Identifier_deduction { handler_fn } ->
      add
        (Printf.sprintf
           "Please generate the Syzkaller specification for the ioctl handler `%s`.\n\
            If the command is unclear and dependent on another function, list it in the \
            `UNKNOWN` section."
           handler_fn)
  | Type_recovery { type_name } ->
      add
        (Printf.sprintf
           "Please write the Syzkaller type description for `%s`. Mark nested types you \
            cannot see in the `UNKNOWN` section."
           type_name)
  | Dependency_analysis { handler_fn } ->
      add
        (Printf.sprintf
           "Does any command of `%s` produce a resource (e.g. a new file descriptor) \
            consumed by other syscalls? List the operation handlers it dispatches to."
           handler_fn)
  | Device_name { reg_symbol } ->
      add
        (Printf.sprintf
           "What device file name should be used to interact with the driver registered \
            by `%s`?"
           reg_symbol)
  | Socket_triple { ops_symbol } ->
      add
        (Printf.sprintf
           "What socket(domain, type, protocol) arguments reach the handlers registered \
            by `%s`?"
           ops_symbol)
  | Repair { item; description; error } ->
      add (Printf.sprintf "The following description for %s failed validation." item);
      add "## Description";
      add description;
      add "## Error";
      add error
  | All_in_one { handler_fn } ->
      add
        (Printf.sprintf
           "Here is all source code related to `%s`. Generate the complete Syzkaller \
            specification in one step."
           handler_fn));
  if p.usage <> [] then begin
    add "\n## Unknown";
    List.iter (fun u -> add ("- " ^ u)) p.usage
  end;
  add "\n## Source Code of Relative Functions";
  List.iter
    (fun s ->
      add (Printf.sprintf "/* --- %s --- */" s.snip_name);
      add s.snip_text)
    p.snippets;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)
(* ------------------------------------------------------------------ *)

(** How the handler transforms the raw command before dispatching. *)
type cmd_mode = Cmd_raw | Cmd_ioc_nr

type ident = {
  id_cmd : string;  (** macro name of the user-visible command value *)
  id_arg_type : string option;  (** kernel struct name of the argument *)
  id_arg_dir : Syzlang.Ast.dir;
  id_scalar_arg : bool;  (** argument is a plain integer, not a pointer *)
  id_copy_size : int option;  (** pointer to a scalar of this byte size *)
  id_values : Syzlang.Ast.const_ref list;
      (** semantically valid values of a scalar argument, when inferable *)
}

type unknown = { u_name : string; u_usage : string }

type dep = {
  dep_cmd : string;  (** command creating the resource *)
  dep_ops : string;  (** operation-handler global the new fd dispatches through *)
}

type response = {
  r_idents : ident list;
  r_types : Syzlang.Ast.comp_def list;
  r_unknown : unknown list;  (** functions to analyze next *)
  r_nested_types : string list;  (** type names to analyze next *)
  r_deps : dep list;
  r_device_paths : string list;
  r_socket_triple : (int * int * int) option;
  r_repaired : string option;  (** corrected name, for repair prompts *)
}

let empty_response =
  {
    r_idents = [];
    r_types = [];
    r_unknown = [];
    r_nested_types = [];
    r_deps = [];
    r_device_paths = [];
    r_socket_triple = None;
    r_repaired = None;
  }
