(* Entry point: [main.exe --bin SRAM_OPT --workload NAME --seed N
   --seconds S --trace 0|1].  Prints a summary, one compact run record,
   and as its last line the result object. *)

let usage = "main.exe --bin PATH --workload NAME --seed N --seconds S --trace 0|1"

let () =
  let bin = ref "" and workload = ref "" and seed = ref 1 and seconds = ref 10.0
  and trace = ref 0 in
  Arg.parse
    [ ("--bin", Arg.Set_string bin, "PATH sram_opt executable");
      ("--workload", Arg.Set_string workload, "NAME cli_optimize | table4_sweep | serve_mix");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured time per run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run (0) or traced replay (1)");
      ("--corrupt-reference", Arg.Set Reference.corrupt,
       " alter every reference checksum (self-test: the run must fail)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if !bin = "" || not (List.mem !workload [ "cli_optimize"; "table4_sweep"; "serve_mix" ])
  then begin
    prerr_endline usage;
    exit 2
  end;
  (* A daemon that dies mid-request must surface as a failed request, not
     kill the benchmark with SIGPIPE. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let root = ".perfbench" in
  let work = Filename.concat root (Printf.sprintf "run-%s-%d-%d" !workload !seed (Unix.getpid ())) in
  Child.mkdir_p work;
  let ctx =
    { E2e.bin = !bin; seed = !seed; seconds = !seconds;
      nproc = Domain.recommended_domain_count (); work }
  in
  let outcome =
    Fun.protect ~finally:(fun () -> Child.rm_rf work) (fun () ->
        if !trace = 0 then E2e.run ctx !workload else Traced.run ctx !workload)
  in
  let num v = Printf.sprintf "%.17g" v in
  let metrics_json ms =
    String.concat ","
      (List.map
         (fun (x : E2e.metric) ->
           Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" x.E2e.name (num x.E2e.value) x.E2e.unit_)
         ms)
  in
  List.iter
    (fun (x : E2e.metric) -> Printf.printf "%-34s %14.6g %s\n" x.E2e.name x.E2e.value x.E2e.unit_)
    (outcome.E2e.details @ outcome.E2e.metrics);
  let record =
    Printf.sprintf
      "{\"commit\":%S,\"nproc\":%d,\"profile\":%S,\"ocaml\":%S,\"workload\":%S,\"seed\":%d,\"trace\":%d,\"seconds\":%s,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}"
      (Persist.Record_log.git_commit ()) ctx.E2e.nproc Build_info.profile Sys.ocaml_version
      !workload !seed !trace (num !seconds) outcome.E2e.attempted outcome.E2e.failed
      (metrics_json (outcome.E2e.metrics @ outcome.E2e.details))
  in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 (Filename.concat root "records.jsonl") in
  output_string oc (record ^ "\n");
  close_out oc;
  print_endline ("record " ^ record);
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n"
    (outcome.E2e.failed = 0) outcome.E2e.attempted outcome.E2e.failed
    (metrics_json outcome.E2e.metrics);
  exit (if outcome.E2e.failed = 0 then 0 else 1)
