(* Bounded search-event journal.  See search.mli for the contract.

   Incumbent improvements are rare (tens per sweep) and prune events
   are sampled, so a mutex around the append is invisible next to the
   scan kernel; the disarmed fast path is the single [Atomic.get] in
   [enabled]. *)

type kind = Incumbent | Chunk | Prune

type design = {
  nr : int;
  nc : int;
  n_pre : int;
  n_wr : int;
  vssc : float;
}

type event = {
  t : float;
  kind : kind;
  source : string;
  score : float;
  edp : float;
  design : design option;
  detail : int;
}

let kind_name = function
  | Incumbent -> "incumbent"
  | Chunk -> "chunk"
  | Prune -> "prune"

let prune_sample = 512

let armed = Atomic.make false
let enabled () = Atomic.get armed

let lock = Mutex.create ()
let epoch = ref 0.0

(* Events are stored in one flat unboxed float array (12 slots per
   event: t, kind, source id, score, edp, has-design, nr, nc, n_pre,
   n_wr, vssc, detail) so an armed append allocates nothing.  The scan
   kernel it observes is allocation-free; a journal of boxed records
   would tax it with minor collections it never asked for.  Events are
   materialized back into records only on the cold {!events} path. *)
let stride = 12
let store : float array ref = ref [||]
let len = ref 0
let dropped_n = ref 0

(* Source names are interned to small ids so the hot path stores a
   float.  The exhaustive engine gets a fixed id; any other name
   (tests) is added under the journal lock. *)
let extras : string array ref = ref [||]
let n_extras = ref 0

let src_id_locked s =
  match s with
  | "exhaustive" -> 0
  | s ->
    let rec find i =
      if i >= !n_extras then begin
        if !n_extras = Array.length !extras then begin
          let bigger = Array.make (max 4 (2 * Array.length !extras)) "" in
          Array.blit !extras 0 bigger 0 !n_extras;
          extras := bigger
        end;
        !extras.(!n_extras) <- s;
        incr n_extras;
        !n_extras
      end
      else if String.equal !extras.(i) s then 1 + i
      else find (i + 1)
    in
    find 0

let src_name_locked = function
  | 0 -> "exhaustive"
  | i -> if i - 1 < !n_extras then !extras.(i - 1) else "?"

(* Monotonic counters, kept outside the buffer so they survive a full
   buffer and stay cheap to bump (prunes fire once per pruned geometry
   when armed). *)
let n_incumbents = Atomic.make 0
let n_chunks = Atomic.make 0
let n_prunes = Atomic.make 0

(* Convergence facts live outside the buffer too: a journal that hit
   its cap still reports the true best score and improvement times. *)
let best = ref infinity
let first_imp = ref nan
let last_imp = ref nan

let arm ?(capacity = 8192) () =
  Mutex.lock lock;
  store := Array.make (max 1 capacity * stride) 0.0;
  len := 0;
  dropped_n := 0;
  best := infinity;
  first_imp := nan;
  last_imp := nan;
  epoch := Clock.now ();
  Mutex.unlock lock;
  Atomic.set n_incumbents 0;
  Atomic.set n_chunks 0;
  Atomic.set n_prunes 0;
  Atomic.set armed true

let disarm () = Atomic.set armed false

let kind_code = function Incumbent -> 0.0 | Chunk -> 1.0 | Prune -> 2.0

let emit_locked ~t ~kind ~source ~score ~edp ~design ~detail =
  let s = !store in
  let i = !len * stride in
  if i < Array.length s then begin
    Array.unsafe_set s i t;
    Array.unsafe_set s (i + 1) (kind_code kind);
    Array.unsafe_set s (i + 2) (float_of_int (src_id_locked source));
    Array.unsafe_set s (i + 3) score;
    Array.unsafe_set s (i + 4) edp;
    (match design with
    | None ->
      Array.unsafe_set s (i + 5) 0.0;
      Array.unsafe_set s (i + 6) 0.0;
      Array.unsafe_set s (i + 7) 0.0;
      Array.unsafe_set s (i + 8) 0.0;
      Array.unsafe_set s (i + 9) 0.0;
      Array.unsafe_set s (i + 10) 0.0
    | Some d ->
      Array.unsafe_set s (i + 5) 1.0;
      Array.unsafe_set s (i + 6) (float_of_int d.nr);
      Array.unsafe_set s (i + 7) (float_of_int d.nc);
      Array.unsafe_set s (i + 8) (float_of_int d.n_pre);
      Array.unsafe_set s (i + 9) (float_of_int d.n_wr);
      Array.unsafe_set s (i + 10) d.vssc);
    Array.unsafe_set s (i + 11) (float_of_int detail);
    incr len
  end
  else incr dropped_n

let now_rel () = Clock.now () -. !epoch

let emit ~kind ~source ~score ~edp ~design ~detail =
  let t = now_rel () in
  Mutex.lock lock;
  emit_locked ~t ~kind ~source ~score ~edp ~design ~detail;
  Mutex.unlock lock

let record_incumbent ~source ~score ~edp ~design =
  if enabled () then begin
    Atomic.incr n_incumbents;
    let t = now_rel () in
    Mutex.lock lock;
    if Float.is_nan !first_imp then first_imp := t;
    last_imp := t;
    if score < !best then best := score;
    emit_locked ~t ~kind:Incumbent ~source ~score ~edp ~design:(Some design)
      ~detail:0;
    Mutex.unlock lock
  end

let record_chunk ~source ~index ~score =
  if enabled () then begin
    Atomic.incr n_chunks;
    emit ~kind:Chunk ~source ~score ~edp:nan ~design:None ~detail:index
  end

let record_prune ~source ~bound ~design =
  if enabled () then begin
    let n = Atomic.fetch_and_add n_prunes 1 in
    if n mod prune_sample = 0 then
      emit ~kind:Prune ~source ~score:bound ~edp:nan ~design:(Some design)
        ~detail:0
  end

(* Hot-loop variants: a search that already counts its prunes reuses
   that counter as the sampling clock and folds the total in once, so
   the armed per-prune cost is one atomic load instead of a
   fetch-and-add plus an extra journal event. *)

let record_sampled_prune ~source ~bound ~design =
  if enabled () then
    emit ~kind:Prune ~source ~score:bound ~edp:nan ~design:(Some design)
      ~detail:0

let note_prunes n =
  if enabled () && n > 0 then ignore (Atomic.fetch_and_add n_prunes n)

let events () =
  Mutex.lock lock;
  let n = !len in
  let s = !store in
  let out =
    List.init n (fun j ->
        let i = j * stride in
        let kind =
          match int_of_float s.(i + 1) with
          | 0 -> Incumbent
          | 1 -> Chunk
          | _ -> Prune
        in
        let design =
          if s.(i + 5) = 0.0 then None
          else
            Some
              { nr = int_of_float s.(i + 6);
                nc = int_of_float s.(i + 7);
                n_pre = int_of_float s.(i + 8);
                n_wr = int_of_float s.(i + 9);
                vssc = s.(i + 10) }
        in
        { t = s.(i);
          kind;
          source = src_name_locked (int_of_float s.(i + 2));
          score = s.(i + 3);
          edp = s.(i + 4);
          design;
          detail = int_of_float s.(i + 11) })
  in
  Mutex.unlock lock;
  List.stable_sort (fun a b -> compare a.t b.t) out

type summary = {
  incumbents : int;
  chunks : int;
  prunes : int;
  journaled : int;
  dropped : int;
  best_score : float;
  first_improvement_s : float;
  last_improvement_s : float;
}

let summary () =
  Mutex.lock lock;
  let journaled = !len in
  let dropped = !dropped_n in
  let best_score = !best in
  let first = !first_imp and last = !last_imp in
  Mutex.unlock lock;
  { incumbents = Atomic.get n_incumbents;
    chunks = Atomic.get n_chunks;
    prunes = Atomic.get n_prunes;
    journaled;
    dropped;
    best_score;
    first_improvement_s = first;
    last_improvement_s = last }

let print_report ?(channel = stdout) () =
  let s = summary () in
  if s.journaled > 0 || s.prunes > 0 then begin
    Printf.fprintf channel "search journal:\n";
    Printf.fprintf channel
      "  %d incumbent updates, %d chunk completions, %d bound prunes \
       (1 in %d journaled), %d events stored, %d dropped\n"
      s.incumbents s.chunks s.prunes prune_sample s.journaled s.dropped;
    if s.incumbents > 0 then
      Printf.fprintf channel
        "  best score %.6g; first improvement at %.3f s, last at %.3f s\n"
        s.best_score s.first_improvement_s s.last_improvement_s
  end
