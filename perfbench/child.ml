(* Child processes of the optimizer binary: spawn, capture stdout, and
   reap with wait4 so each run also reports its peak resident set. *)

external wait4 : int -> int * int = "perfbench_wait4"

let now = Obs.Clock.now

type outcome = {
  code : int;     (* exit code, or 128 + signal *)
  out : string;   (* everything written to stdout *)
  rss_kb : int;   (* peak resident set size *)
  wall_s : float; (* spawn to reap *)
}

let devnull = lazy (Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0)

let read_all fd =
  let b = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes b chunk 0 n;
      go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ();
  Buffer.contents b

(* Run [prog args] to completion.  The child's stderr is the
   benchmark's, so a failing optimizer explains itself. *)
let run prog args =
  let r, w = Unix.pipe ~cloexec:true () in
  let t0 = now () in
  let pid =
    Unix.create_process prog (Array.of_list (prog :: args)) (Lazy.force devnull) w
      Unix.stderr
  in
  Unix.close w;
  let out = Fun.protect ~finally:(fun () -> Unix.close r) (fun () -> read_all r) in
  let code, rss_kb = wait4 pid in
  { code; out; rss_kb; wall_s = now () -. t0 }

(* Start a long-lived child with stdout sent to [log]. *)
let spawn ~log prog args =
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
  let pid =
    Unix.create_process prog (Array.of_list (prog :: args)) (Lazy.force devnull) fd fd
  in
  Unix.close fd;
  pid

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end
