(** The simulated analysis LLM.

    Deterministic stand-in for GPT-4/-4o/-3.5 (see {!Profile}): it
    *really* analyzes the code in its prompt — the declarations each
    snippet's text prints ({!Prompt.snippet}), indexed without parsing,
    so context truncation genuinely hides code — with capability gaps
    and seeded, repairable hallucinations.
    The [knowledge] index models pre-training exposure to kernel
    headers: it resolves constant names and values, never code the
    prompt did not include. *)

type t = {
  profile : Profile.t;
  knowledge : Csrc.Index.t;
  mutable queries : int;  (** total queries served *)
  mutable prompt_tokens : int;  (** total prompt tokens consumed *)
  mutable truncations : int;
      (** snippets dropped because their prompt overflowed the window
          (each dropped snippet counts once) *)
  mutable injected_errors : int;
      (** hallucinations injected into responses — part of the
          accounting the answer cache replays on a hit *)
}

val create : ?profile:Profile.t -> knowledge:Csrc.Index.t -> unit -> t

(** Pure context-window truncation: the prompt [profile] would actually
    see — trailing snippets dropped until the template header
    ({!Prompt.header_tokens}), the carried-over usage lines, {e and} the
    kept snippets fit [profile]'s window — plus the number of snippets
    dropped. No accounting is touched; {!query} uses this internally and
    {!Cache} uses it to derive the post-truncation prompt its keys hash. *)
val truncate : Profile.t -> Prompt.t -> Prompt.t * int

(** Short task label of a prompt ("identifier", "type", "repair", ...) —
    the span name of the query, also used by {!Client} to key fault
    decisions. *)
val task_name : Prompt.task -> string

(** The subject (handler/type/symbol/item) a prompt is about. *)
val task_subject : Prompt.task -> string

(** Answer one prompt. Applies the context window (whole trailing
    snippets are dropped, their declarations with them), runs the
    analysis for the prompt's task over the kept snippets'
    declarations, and injects the profile's deterministic error rate.
    Calls no parser. *)
val query : t -> Prompt.t -> Prompt.response
