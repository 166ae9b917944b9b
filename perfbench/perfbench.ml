(* The benchmark's entry point.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1

   runs one workload (flow_s15850, serve_tiny, or the ungated eco_s9234) for S
   seconds from seed N, checks the program's outputs, and prints a host
   fingerprint line and then, as the last line of stdout,
   {"correct", "attempted", "failed", "metrics"} with every end-to-end
   metric (--trace 0) or every per-layer metric (--trace 1).  Progress,
   failures and the add-up report go to stderr.  Run it through
   perfbench/run.sh, which builds it and the CLI first. *)

open Rc_core
open Perfbench_lib
module Json = Rc_util.Json

(* tiers per run: a tier keeps one speed for its lifetime, so samples
   are pooled over several *)
let serve_tiers = 6
let eco_tiers = 3

(* how long the traced run drives the workloads it is not about *)
let side_seconds = 3.0

let traced tally workload ~seed ~seconds =
  let main w = if w = workload then seconds else side_seconds in
  let tiers w n = if w = workload then n else 1 in
  let in_process bench ~min_traced =
    Flow_layers.measure tally ~cfg:(Flow.default_config bench)
      ~gen:(fun () -> Bench_suite.netlist bench)
      ~min_traced ~until:(Flow_layers.now ())
  in
  let flow_rows =
    match workload with
    | "flow_s15850" -> Flow_wl.layers tally ~seed ~seconds
    | "serve_tiny" -> in_process Bench_suite.tiny ~min_traced:7
    | _ -> in_process Bench_suite.s9234 ~min_traced:3
  in
  let serve =
    Served_wl.serve_tiny tally ~seed ~seconds:(main "serve_tiny") ~tiers:(tiers "serve_tiny" serve_tiers) ~traced:true
  in
  let eco = Served_wl.eco tally ~seed ~seconds:(main "eco_s9234") ~tiers:(tiers "eco_s9234" eco_tiers) ~traced:true in
  flow_rows @ serve.Served_wl.layers @ eco.Served_wl.layers

let untraced tally workload ~seed ~seconds =
  match workload with
  | "flow_s15850" -> Flow_wl.run tally ~seed ~seconds
  | "serve_tiny" -> (Served_wl.serve_tiny tally ~seed ~seconds ~tiers:serve_tiers ~traced:false).Served_wl.rows
  | _ -> (Served_wl.eco tally ~seed ~seconds ~tiers:eco_tiers ~traced:false).Served_wl.rows

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME " ^ String.concat " | " (Decl.workloads @ Decl.ungated));
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measured window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if not (List.mem !workload (Decl.workloads @ Decl.ungated)) then begin
    prerr_endline ("perfbench: unknown workload " ^ !workload);
    exit 2
  end;
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "perfbench: --seconds must be positive and --trace 0 or 1";
    exit 2
  end;
  (* a peer that closes mid-write must surface as an error, not kill
     the run with tiers left behind; on any exit, stop every tier *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 3))) [ Sys.sigterm; Sys.sigint ];
  at_exit (fun () ->
      Tier.stop_all ();
      Tier.rm_rf Served_wl.run_dir;
      try Unix.rmdir (Filename.dirname Served_wl.run_dir) with Unix.Unix_error _ -> ());
  Rc_par.Pool.set_jobs 1;
  Rc_obs.Metrics.set_enabled true;
  let host = Host.start () in
  let tally = Tally.create () in
  let seconds = float_of_int !seconds and seed = !seed and trace = !trace = 1 in
  match
    let rows = (if trace then traced else untraced) tally !workload ~seed ~seconds in
    Decl.result_line ~attempted:tally.Tally.attempted ~failed:tally.Tally.failed ~trace rows
  with
  | line ->
      print_endline (Json.to_line (Host.to_json host));
      print_endline line
  | exception e ->
      Printf.eprintf "perfbench: %s\n%!" (Printexc.to_string e);
      exit 1
