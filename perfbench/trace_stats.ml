(** Self-times from a trace file: a span's self time is its duration
    minus the durations of its direct children. *)

type span = { id : string; parent : string option; kind : string; name : string; dur_s : float }

let read (path : string) : span list =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let spans = ref [] in
  (try
     while true do
       let line = input_line ic in
       match Obs.Json.parse line with
       | Error e -> failwith (Printf.sprintf "%s: %s" path e)
       | Ok j -> (
           let str k = match Obs.Json.member k j with Some (Obs.Json.Str s) -> Some s | _ -> None in
           let dur =
             match Option.bind (Obs.Json.member "t" j) (Obs.Json.member "dur_ms") with
             | Some (Obs.Json.Float f) -> Some (f /. 1000.0)
             | Some (Obs.Json.Int i) -> Some (float_of_int i /. 1000.0)
             | _ -> None
           in
           match (str "id", str "kind", str "name", dur) with
           | Some id, Some kind, Some name, Some dur_s ->
               spans := { id; parent = str "parent"; kind; name; dur_s } :: !spans
           | _ -> (* point events carry no duration *) ())
     done
   with End_of_file -> ());
  List.rev !spans

type totals = (string, int ref * float ref) Hashtbl.t

(** Per name of the spans of [kind]: (count, summed seconds), the
    seconds being self time when [self] is set. *)
let by_name ?(self = false) (spans : span list) (kind : string) : totals =
  let child_s = Hashtbl.create 1024 in
  if self then
    List.iter
      (fun s ->
        match s.parent with
        | Some p ->
            Hashtbl.replace child_s p
              (s.dur_s +. Option.value (Hashtbl.find_opt child_s p) ~default:0.0)
        | None -> ())
      spans;
  let tot : totals = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if s.kind = kind then begin
        let secs =
          if self then s.dur_s -. Option.value (Hashtbl.find_opt child_s s.id) ~default:0.0
          else s.dur_s
        in
        let n, t =
          match Hashtbl.find_opt tot s.name with
          | Some nt -> nt
          | None ->
              let nt = (ref 0, ref 0.0) in
              Hashtbl.replace tot s.name nt;
              nt
        in
        incr n;
        t := !t +. secs
      end)
    spans;
  tot

let count (t : totals) name = match Hashtbl.find_opt t name with Some (n, _) -> !n | None -> 0
let seconds (t : totals) name = match Hashtbl.find_opt t name with Some (_, s) -> !s | None -> 0.0
