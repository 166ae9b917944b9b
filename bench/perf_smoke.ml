(* CI perf-smoke for the incremental layer.

   Two checks per --quick circuit, fast enough for every push:

   1. Correctness: the flow's final quality snapshot with the
      cross-iteration caches enabled is bit-identical to the flow with
      them disabled (incremental = false is the original cold path).
   2. Reuse actually happens: on the medium circuit (s9234) the reuse
      counters — STA replays, assignment-network replays, tap-cache
      hits — must all be non-zero, and the placement system template
      is built exactly once for the flow's placement calls.  A
      refactor that silently stops the caches from firing fails CI even
      though the results would still be correct.  The counters are
      deterministic for any job count, so both checks hold at every -j
      value.

   -j/--jobs N selects the job count (default 1) so CI can exercise the
   parallel regions; exit status 0 on success, 1 with a diagnostic on
   any failure. *)

open Rc_core

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      Printf.printf "FAIL %s\n" s)
    fmt

let ok fmt = Printf.ksprintf (fun s -> Printf.printf "ok   %s\n" s) fmt

let check_field name circuit a b =
  if a = b then ok "%s %s: %.17g" circuit name a
  else fail "%s %s: incremental %.17g <> cold %.17g" circuit name a b

let counter_value snap name =
  match List.assoc_opt name snap with Some (Rc_obs.Metrics.Count n) -> n | _ -> 0

let check_reuse snap circuit name =
  let n = counter_value snap name in
  if n > 0 then ok "%s %s = %d" circuit name n
  else fail "%s %s = 0: the incremental layer never fired" circuit name

(* the flow cache holds one placement system template for stage 1 and
   every stage-6 pass; a refactor that goes back to assembling per call
   or per spreading round fails here *)
let check_template_builds snap circuit (o : Flow.outcome) =
  let calls =
    List.length
      (List.filter
         (fun e -> e.Flow_trace.category = Flow_trace.Placer)
         (Flow_trace.events o.Flow.trace))
  in
  let n = counter_value snap "place.template_builds" in
  if n = 1 then ok "%s place.template_builds = 1 over %d placement calls" circuit calls
  else fail "%s place.template_builds = %d over %d placement calls, want 1" circuit n calls

let run_flow ~incremental bench =
  let cfg = { (Flow.default_config bench) with Flow.incremental } in
  Flow.run cfg

let jobs =
  let n = Array.length Sys.argv in
  let value s = Option.value (int_of_string_opt s) ~default:1 in
  let rec scan i =
    if i >= n then 1
    else if (Sys.argv.(i) = "-j" || Sys.argv.(i) = "--jobs") && i + 1 < n then
      value Sys.argv.(i + 1)
    else if String.length Sys.argv.(i) > 7 && String.sub Sys.argv.(i) 0 7 = "--jobs=" then
      value (String.sub Sys.argv.(i) 7 (String.length Sys.argv.(i) - 7))
    else scan (i + 1)
  in
  scan 1

let () =
  Rc_par.Pool.set_jobs jobs;
  Printf.printf "perf smoke: jobs = %d\n%!" jobs;
  List.iter
    (fun bench ->
      let name = bench.Bench_suite.bname in
      Rc_obs.Metrics.set_enabled true;
      let before = Rc_obs.Metrics.snapshot () in
      let inc = run_flow ~incremental:true bench in
      let snap = Rc_obs.Metrics.diff ~before ~after:(Rc_obs.Metrics.snapshot ()) in
      Rc_obs.Metrics.set_enabled false;
      let cold = run_flow ~incremental:false bench in
      let a = inc.Flow.final and b = cold.Flow.final in
      check_field "tapping_wl" name a.Flow.tapping_wl b.Flow.tapping_wl;
      check_field "signal_wl" name a.Flow.signal_wl b.Flow.signal_wl;
      check_field "total_wl" name a.Flow.total_wl b.Flow.total_wl;
      check_field "max_load_ff" name a.Flow.max_load_ff b.Flow.max_load_ff;
      check_field "total_mw" name a.Flow.total_mw b.Flow.total_mw;
      check_field "afd" name a.Flow.afd b.Flow.afd;
      if name = "s9234" then begin
        check_reuse snap name "timing.sta.replays";
        check_reuse snap name "netflow.assignment.replays";
        check_reuse snap name "assign.tapcache.hits";
        check_template_builds snap name inc
      end)
    Bench_suite.quick;
  if !failures > 0 then begin
    Printf.printf "perf smoke: %d failure(s)\n" !failures;
    exit 1
  end;
  print_endline "perf smoke: all checks passed"
