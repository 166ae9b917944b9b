(* flow_s15850: a closed loop of whole in-process flows at jobs=1 on
   netlists generated from the s15850 profile with seed-derived
   generator seeds.  The numeric core does the work here (placement CG,
   tapping + MCMF assignment, STA + scheduling); the service tier is
   not involved. *)

open Rc_core

let bench = Bench_suite.s15850
let cfg = Flow.default_config bench

(* a flow slower than this misses the latency limit *)
let slo_s = 2.5

(* Netlists per run.  Most generated s15850-profile netlists converge
   in 7 flow iterations, about one in eight in 5 (a ~30% shorter flow),
   and work counts differ by ~5% among the rest, so a run with few
   netlists measures its seed's mix more than the program.  Each run
   generates this many from seed-derived generator seeds and cycles
   through them one flow at a time until the window ends. *)
let netlists = 32

let generate seed j () =
  match bench.Bench_suite.gen with
  | Bench_suite.Flat c ->
      Rc_netlist.Generator.generate { c with Rc_netlist.Generator.seed = (seed * netlists) + j }
  | Bench_suite.Hier _ -> invalid_arg "flow_s15850: the s15850 profile is flat"

let run tally ~seed ~seconds =
  (* Every timed call runs between two host-speed probes and its times
     are rescaled to reference speed (see Speed); the raw medians go to
     stderr. *)
  let speed = Speed.create () in
  (* set-up: generating every netlist, each timed; the median is setup_s *)
  let gens =
    Array.init netlists (fun j ->
        let (netlist, raw), k = Speed.around speed (fun () -> Flow_layers.time (generate seed j)) in
        (netlist, raw, raw *. k))
  in
  let netlist j =
    let n, _, _ = gens.(j) in
    n
  in
  (* one untimed flow warms the heap; each netlist's first flow is its
     reference for the later ones *)
  let warm = Flow_layers.run_flow ~traced:false cfg (netlist 0) in
  ignore (Speed.sample speed);
  Tally.op tally ~ok:true "warm-up flow";
  let refs = Array.make netlists None in
  refs.(0) <- Some warm;
  (* (netlist, raw sample, speed factor) of every timed flow *)
  let samples = ref [] and failed = ref 0 in
  let t0 = Flow_layers.now () in
  let deadline = t0 +. seconds in
  let next = ref 0 in
  while Flow_layers.now () < deadline do
    let j = !next mod netlists in
    incr next;
    let flow () = Flow_layers.run_flow ~traced:false cfg (netlist j) in
    let timed f = Speed.around speed f in
    match refs.(j) with
    | None -> (
        match timed flow with
        | s, k ->
            Tally.op tally ~ok:true "reference flow";
            refs.(j) <- Some s;
            samples := (j, s, k) :: !samples
        | exception e ->
            incr failed;
            Tally.op tally ~ok:false ("flow raised " ^ Printexc.to_string e))
    | Some reference -> (
        match timed (fun () -> Flow_layers.checked tally ~reference ~what:(Printf.sprintf "flow on netlist %d" j) flow) with
        | Some s, k -> samples := (j, s, k) :: !samples
        | None, _ -> incr failed)
  done;
  let samples = Array.of_list !samples in
  let walls = Array.map (fun (_, s, k) -> s.Flow_layers.wall *. k) samples in
  let raw_walls = Array.map (fun (_, s, _) -> s.Flow_layers.wall) samples in
  (* The netlists' flow times form clusters, so the pooled median of a
     run's mix sits between clusters and jumps with the seed: the p50 is
     each netlist's median flow time, averaged over the netlists the
     window reached, and the p90 is taken over those medians, so it is
     the tail across inputs, not across repeats of one input. *)
  let netlist_medians walls =
    let of_netlist j = List.filteri (fun i _ -> let k, _, _ = samples.(i) in k = j) (Array.to_list walls) in
    Array.of_list
      (List.filter_map
         (fun j -> match of_netlist j with [] -> None | l -> Some (Stats.median (Array.of_list l)))
         (List.init netlists Fun.id))
  in
  let medians = netlist_medians walls and raw_medians = netlist_medians raw_walls in
  let n = float_of_int (Array.length samples) in
  let ok = Array.fold_left (fun a (_, s, _) -> if s.Flow_layers.wall <= slo_s then a + 1 else a) 0 samples in
  let refs = Array.to_list refs |> List.filter_map Fun.id in
  let quality f = Stats.mean (Array.of_list (List.map (fun s -> f s.Flow_layers.final) refs)) in
  let setup = Stats.median (Array.map (fun (_, _, s) -> s) gens) in
  Printf.eprintf
    "[perfbench] flow_s15850 raw (not rescaled): setup %.4f s, op p50 %.4f s, p90 %.4f s over %d flows in %.1f s; probe median %.4f s (reference %.4f s)\n%!"
    (Stats.median (Array.map (fun (_, r, _) -> r) gens))
    (Stats.mean raw_medians) (Stats.percentile raw_medians 90.0) (Array.length samples)
    (Flow_layers.now () -. t0) (Speed.median_probe_s speed) Speed.reference_s;
  [
    ("setup_s", setup);
    ("op_p50_s", Stats.mean medians);
    ("op_p90_s", Stats.percentile medians 90.0);
    ("ops_per_s", n /. Array.fold_left ( +. ) 0.0 walls);
    ("slo_ok_ratio", float_of_int ok /. (n +. float_of_int !failed));
    ("cpu_s_per_op", Array.fold_left (fun a (_, s, k) -> a +. (s.Flow_layers.cpu *. k)) 0.0 samples /. n);
    ("peak_rss_mb", Procfs.peak_rss_mb (Unix.getpid ()));
    ("tapping_wl_um", quality (fun q -> q.Flow.tapping_wl));
    ("total_mw", quality (fun q -> q.Flow.total_mw));
  ]

let layers tally ~seed ~seconds =
  Flow_layers.measure tally ~cfg ~gen:(generate seed 0) ~min_traced:3 ~until:(Flow_layers.now () +. seconds)
