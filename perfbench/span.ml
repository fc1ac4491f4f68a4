(* In-memory spans for the traced run.

   A span is one timed call into a layer: its name, start and end on a
   monotonic clock, the span that caused it, the request it belongs to
   and the track (client connection) it ran on.  Spans stay in memory
   until the run ends; [to_chrome] writes them as Chrome trace-event
   JSON, the format Perfetto loads.  Recording is mutex-guarded so the
   serve replay's client threads can share one recorder. *)

type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int option;
  req : int;
  track : int;
}

type t = {
  clock : unit -> float;
  lock : Mutex.t;
  mutable next_id : int;
  mutable closed : span list;
}

type handle = {
  h_id : int;
  h_name : string;
  h_start : float;
  h_parent : int option;
  h_req : int;
  h_track : int;
}

let create ?(clock = Unix.gettimeofday) () =
  { clock; lock = Mutex.create (); next_id = 0; closed = [] }

let enter t ?parent ?(track = 0) ~req name =
  let id =
    Mutex.protect t.lock (fun () ->
        let id = t.next_id in
        t.next_id <- id + 1;
        id)
  in
  { h_id = id; h_name = name; h_start = t.clock (); h_parent = parent;
    h_req = req; h_track = track }

let leave t h =
  let stop = t.clock () in
  let s =
    { id = h.h_id; name = h.h_name; start = h.h_start; stop;
      parent = h.h_parent; req = h.h_req; track = h.h_track }
  in
  Mutex.protect t.lock (fun () -> t.closed <- s :: t.closed)

(* [within t ~req name f] runs [f id] inside a span; [id] is the parent
   to hand to nested spans. *)
let within t ?parent ?track ~req name f =
  let h = enter t ?parent ?track ~req name in
  match f h.h_id with
  | v ->
    leave t h;
    v
  | exception e ->
    leave t h;
    raise e

let spans t =
  Mutex.protect t.lock (fun () ->
      List.sort (fun a b -> compare (a.start, a.id) (b.start, b.id)) t.closed)

let duration s = s.stop -. s.start

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0.0, None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* Self time of every span: its duration minus the part of its interval
   that its direct children cover (overlapping children count once). *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      match s.parent with
      | Some p -> Hashtbl.replace children p ((s.start, s.stop) :: Option.value ~default:[] (Hashtbl.find_opt children p))
      | None -> ())
    spans;
  List.map
    (fun s ->
      let kids = Option.value ~default:[] (Hashtbl.find_opt children s.id) in
      (s, duration s -. covered ~lo:s.start ~hi:s.stop kids))
    spans

(* Total self time per span name, largest first. *)
let self_by_name spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      let c, t = Option.value ~default:(0, 0.0) (Hashtbl.find_opt tbl s.name) in
      Hashtbl.replace tbl s.name (c + 1, t +. self))
    (self_times spans);
  Hashtbl.fold (fun name (c, t) acc -> (name, c, t) :: acc) tbl []
  |> List.sort (fun (_, _, a) (_, _, b) -> Float.compare b a)

(* Share of the [root]-named spans' time that no layer span covers: the
   roots' self time over their duration. *)
let unattributed_share ~root spans =
  let self, total =
    List.fold_left
      (fun (self, total) (s, st) ->
        if s.name = root then (self +. st, total +. duration s) else (self, total))
      (0.0, 0.0) (self_times spans)
  in
  if total > 0.0 then self /. total else 0.0

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Chrome trace-event JSON: one complete ("X") event per span, times in
   microseconds from the first span, one thread row per track. *)
let to_chrome spans =
  let t0 = List.fold_left (fun m s -> Float.min m s.start) infinity spans in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char b ',';
      Buffer.add_string b
        (Printf.sprintf
           "{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"req\":%d,\"id\":%d,\"parent\":%s}}"
           (json_string s.name) s.track
           ((s.start -. t0) *. 1e6)
           (duration s *. 1e6) s.req s.id
           (match s.parent with None -> "null" | Some p -> string_of_int p)))
    spans;
  Buffer.add_string b "]}\n";
  Buffer.contents b
