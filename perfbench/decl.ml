(* The metrics every run prints, by name and unit.  BENCHMARK.json
   declares the same lists (the self-test pins the two together), and
   [Perfbench] refuses to print a result whose metric set differs. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("op_p50_s", "s");
    ("op_p90_s", "s");
    ("ops_per_s", "1/s");
    ("slo_ok_ratio", "ratio");
    ("cpu_s_per_op", "s");
    ("peak_rss_mb", "MB");
    ("tapping_wl_um", "um");
    ("total_mw", "mW");
  ]

let per_layer =
  [
    ("netlist.gen_s", "s");
    ("flow.place_s", "s");
    ("flow.replace_s", "s");
    ("flow.assign_s", "s");
    ("flow.schedule_s", "s");
    ("flow.evaluate_s", "s");
    ("flow.iterations", "count");
    ("flow.stage_share", "ratio");
    ("cg.iterations", "count");
    ("cg.us_per_iter", "us");
    ("mcmf.dijkstra_scans", "count");
    ("mcmf.augmentations", "count");
    ("mcmf.ns_per_scan", "ns");
    ("tap.candidate_solves", "count");
    ("tapcache.hit_ratio", "ratio");
    ("sta.pairs", "count");
    ("sta.cone_reuse_ratio", "ratio");
    ("skew.minmax_probes", "count");
    ("pool.speedup_j2", "ratio");
    ("pool.cpu_util_j2", "ratio");
    ("gc.minor_mwords_per_op", "Mword");
    ("gc.major_collections_per_op", "count");
    ("serve.status_rtt_p50_s", "s");
    ("serve.flow_inproc_s", "s");
    ("serve.overhead_p50_s", "s");
    ("serve.cpu_supervisor_s_per_op", "s");
    ("serve.cpu_workers_s_per_op", "s");
    ("serve.threads_supervisor", "count");
    ("serve.fallback_ratio", "ratio");
    ("checkpoint.per_request", "count");
    ("checkpoint.save_s", "s");
    ("checkpoint.load_s", "s");
    ("checkpoint.bytes", "bytes");
    ("eco.apply_s", "s");
    ("eco.escrow_s", "s");
    ("eco.escrow_bytes", "bytes");
    ("eco.rehydrate_s", "s");
    ("eco.stages_per_batch", "count");
    ("eco.overhead_p50_s", "s");
    ("eco.open_inproc_s", "s");
    ("trace.overhead_share", "ratio");
  ]

(* the workloads BENCHMARK.json gates *)
let workloads = [ "flow_s15850"; "serve_tiny" ]

(* Runnable by name but not gated: on the reference host a CPU-steal
   phase moved its latency by up to 38% between runs, more than any
   bound allows.  Every traced run still measures its layers. *)
let ungated = [ "eco_s9234" ]

let declared ~trace = if trace then per_layer else end_to_end

(* The result line: exactly the declared metrics, each finite.  A
   workload that produced a different set is a benchmark bug. *)
let result_line ~attempted ~failed ~trace rows =
  let declared = declared ~trace in
  let names l = List.sort compare (List.map fst l) in
  if names rows <> names declared then
    failwith
      (Printf.sprintf "metric set differs from the declared one: got [%s]"
         (String.concat ", " (names rows)));
  List.iter
    (fun (n, v) -> if not (Float.is_finite v) then failwith (Printf.sprintf "metric %s is not finite" n))
    rows;
  let module Json = Rc_util.Json in
  Json.to_line
    (Json.Obj
       [
         ("correct", Json.Bool (failed = 0));
         ("attempted", Json.Int attempted);
         ("failed", Json.Int failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun (n, unit) ->
                  (n, Json.Obj [ ("value", Json.Float (List.assoc n rows)); ("unit", Json.String unit) ]))
                declared) );
       ])
