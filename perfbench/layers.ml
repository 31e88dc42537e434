(** Per-layer timers, taken from outside: each call into a layer's
    public function runs inside a [bench.layer] span (emitted only when
    tracing is on) and adds its wall-clock seconds to a named total.
    Untraced rounds pay one clock read per call, which is negligible
    next to the calls timed (boots, pipeline runs, whole campaigns). *)

type t = (string, float ref) Hashtbl.t

let create () : t = Hashtbl.create 32

let now = Unix.gettimeofday

let add (l : t) key dt =
  match Hashtbl.find_opt l key with
  | Some r -> r := !r +. dt
  | None -> Hashtbl.replace l key (ref dt)

let get (l : t) key = match Hashtbl.find_opt l key with Some r -> !r | None -> 0.0

(** [time l key f] runs [f] inside a span named [key] and charges its
    duration to [key]. An exception escapes uncharged. *)
let time (l : t) key f =
  Obs.with_span ~kind:"bench.layer" key @@ fun () ->
  let t0 = now () in
  let v = f () in
  add l key (now () -. t0);
  v

let median (xs : float list) : float =
  match List.sort compare xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
