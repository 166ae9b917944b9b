(* In-process flows, timed layer by layer from outside the program.

   Stage times come from wrapping each Flow_stage.t of
   Flow.plan_of_config (stage 2 and stage 4 both count as
   "schedule"); work counts are deltas of the program's own
   Rc_obs.Metrics counters around each flow; allocation is
   Gc.quick_stat deltas.  Every flow's digest and deterministic work
   counters must equal the run's first flow's. *)

open Rc_core
module Metrics = Rc_obs.Metrics
module Checkpoint = Rc_serve.Checkpoint

let now = Rc_util.Timer.now_s

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let counter_names =
  [|
    "sparse.cg.iterations";
    "netflow.mcmf.dijkstra_scans";
    "netflow.mcmf.augmentations";
    "assign.candidate_solves";
    "assign.tapcache.hits";
    "assign.tapcache.misses";
    "timing.sta.pairs";
    "timing.sta.cone_reuses";
    "timing.sta.cone_recomputes";
    "skew.minmax.probes";
  |]

(* work counts that must repeat exactly across flows of one netlist *)
let deterministic = [ "sparse.cg.iterations"; "netflow.mcmf.dijkstra_scans"; "timing.sta.pairs" ]

let read_counters () =
  Array.map
    (fun n -> match Metrics.value_of n with Some (Metrics.Count c) -> c | _ -> 0)
    counter_names

type stage = Place | Replace | Assign | Schedule | Evaluate

let stage_index = function Place -> 0 | Replace -> 1 | Assign -> 2 | Schedule -> 3 | Evaluate -> 4

type sample = {
  wall : float;
  cpu : float;
  digest : string;
  final : Flow.snapshot;
  iterations : int;
  counts : int array;  (** [counter_names] deltas *)
  stages : float array;  (** per [stage], seconds; zeros when untraced *)
  minor_words : float;
  major : int;
}

let count s name =
  let rec find i = if counter_names.(i) = name then s.counts.(i) else find (i + 1) in
  find 0

let stage_s s st = s.stages.(stage_index st)

let wrapped_plan cfg acc =
  let plan = Flow.plan_of_config cfg in
  let wrap st (s : Flow_stage.t) =
    {
      s with
      Flow_stage.run =
        (fun ctx ->
          let t0 = now () in
          let r = s.Flow_stage.run ctx in
          let k = stage_index st in
          acc.(k) <- acc.(k) +. (now () -. t0);
          r);
    }
  in
  {
    Flow.place = wrap Place plan.Flow.place;
    schedule = wrap Schedule plan.Flow.schedule;
    assign = wrap Assign plan.Flow.assign;
    cost_schedule = wrap Schedule plan.Flow.cost_schedule;
    evaluate = wrap Evaluate plan.Flow.evaluate;
    replace = wrap Replace plan.Flow.replace;
  }

let run_flow ~traced ?on_iteration cfg netlist =
  let acc = Array.make 5 0.0 in
  let plan = if traced then Some (wrapped_plan cfg acc) else None in
  let c0 = read_counters () and g0 = Gc.quick_stat () and cpu0 = Procfs.self_cpu_s () in
  let o, wall = time (fun () -> Flow.run_on ?plan ?on_iteration cfg netlist) in
  let cpu = Procfs.self_cpu_s () -. cpu0 and g1 = Gc.quick_stat () and c1 = read_counters () in
  {
    wall;
    cpu;
    digest = Checkpoint.digest_of_outcome o;
    final = o.Flow.final;
    iterations = List.length o.Flow.history;
    counts = Array.map2 ( - ) c1 c0;
    stages = acc;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    major = g1.Gc.major_collections - g0.Gc.major_collections;
  }

(* one operation: a flow whose digest and deterministic counters must
   match the reference flow's *)
let checked tally ~reference ~what f =
  match f () with
  | exception e ->
      Tally.op tally ~ok:false (Printf.sprintf "%s raised %s" what (Printexc.to_string e));
      None
  | s ->
      let same_counts = List.for_all (fun n -> count s n = count reference n) deterministic in
      Tally.op tally ~ok:(s.digest = reference.digest && same_counts)
        (Printf.sprintf "%s: digest %s vs %s, counters %s" what s.digest reference.digest
           (if same_counts then "equal" else "differ"));
      Some s

let with_jobs n f =
  let prev = Rc_par.Pool.jobs () in
  Rc_par.Pool.set_jobs n;
  Fun.protect ~finally:(fun () -> Rc_par.Pool.set_jobs prev) f

let arr l = Array.of_list l
let med f l = Stats.median (arr (List.map f l))

(* The per-layer rows of one circuit: [gen] builds its netlist; traced
   and untraced flows alternate until [until] (at least [min_traced]
   pairs), so the tracing overhead compares flows of the same period;
   three jobs=2 flows then give the pool's delivered speed-up.
   Boundary contexts of the first traced flow give the checkpoint
   codec's costs. *)
let measure tally ~cfg ~gen ~min_traced ~until =
  let gens = List.init 3 (fun _ -> time gen) in
  let netlist = fst (List.hd gens) in
  let reference = run_flow ~traced:false cfg netlist in
  Tally.op tally ~ok:true "reference flow";
  let boundaries = ref [] in
  let traced = ref [] and untraced = ref [] in
  let rec loop i =
    let on_iteration = if i = 0 then Some (fun ctx -> boundaries := ctx :: !boundaries) else None in
    (match checked tally ~reference ~what:"traced flow" (fun () -> run_flow ~traced:true ?on_iteration cfg netlist) with
    | Some s -> traced := s :: !traced
    | None -> ());
    (match checked tally ~reference ~what:"untraced flow" (fun () -> run_flow ~traced:false cfg netlist) with
    | Some s -> untraced := s :: !untraced
    | None -> ());
    if i + 1 < min_traced || now () < until then loop (i + 1)
  in
  loop 0;
  let untraced = !untraced in
  let j2 =
    with_jobs 2 (fun () ->
        List.filter_map (fun _ -> checked tally ~reference ~what:"jobs=2 flow" (fun () -> run_flow ~traced:false cfg netlist)) [ 1; 2; 3 ])
  in
  let ckpt =
    List.map
      (fun ctx ->
        let (_, blob), save_s = time (fun () -> Checkpoint.to_blob ctx) in
        let loaded, load_s = time (fun () -> Checkpoint.load_blob ~netlist blob) in
        (match loaded with
        | Ok (_, ctx') ->
            Tally.op tally ~ok:(Checkpoint.digest_of_ctx ctx' = Checkpoint.digest_of_ctx ctx) "checkpoint round trip digest"
        | Error e -> Tally.op tally ~ok:false ("checkpoint load: " ^ e));
        (save_s, load_s, float_of_int (String.length blob)))
      !boundaries
  in
  let traced = !traced in
  let c name = float_of_int (count reference name) in
  let untraced_p50 = med (fun s -> s.wall) untraced in
  let traced_p50 = med (fun s -> s.wall) traced in
  let hits = c "assign.tapcache.hits" and misses = c "assign.tapcache.misses" in
  let reuses = c "timing.sta.cone_reuses" and recomputes = c "timing.sta.cone_recomputes" in
  let sum f l = List.fold_left (fun a x -> a +. f x) 0.0 l in
  let stage_share = med (fun s -> Array.fold_left ( +. ) 0.0 s.stages /. s.wall) traced in
  Printf.eprintf "[perfbench] add-up %s flow: stages %.1f%% of flow wall (%.1f%% unaccounted)%s\n%!"
    cfg.Flow.bench.Bench_suite.bname (100.0 *. stage_share) (100.0 *. (1.0 -. stage_share))
    (if stage_share < 0.9 then "  WARNING: less than 90% accounted for" else "");
  [
    ("netlist.gen_s", med snd gens);
    ("flow.place_s", med (fun s -> stage_s s Place) traced);
    ("flow.replace_s", med (fun s -> stage_s s Replace) traced);
    ("flow.assign_s", med (fun s -> stage_s s Assign) traced);
    ("flow.schedule_s", med (fun s -> stage_s s Schedule) traced);
    ("flow.evaluate_s", med (fun s -> stage_s s Evaluate) traced);
    ("flow.iterations", float_of_int reference.iterations);
    ("flow.stage_share", stage_share);
    ("cg.iterations", c "sparse.cg.iterations");
    ( "cg.us_per_iter",
      med (fun s -> 1e6 *. Stats.ratio (stage_s s Place +. stage_s s Replace) (c "sparse.cg.iterations")) traced );
    ("mcmf.dijkstra_scans", c "netflow.mcmf.dijkstra_scans");
    ("mcmf.augmentations", c "netflow.mcmf.augmentations");
    ("mcmf.ns_per_scan", med (fun s -> 1e9 *. Stats.ratio (stage_s s Assign) (c "netflow.mcmf.dijkstra_scans")) traced);
    ("tap.candidate_solves", c "assign.candidate_solves");
    ("tapcache.hit_ratio", Stats.ratio hits (hits +. misses));
    ("sta.pairs", c "timing.sta.pairs");
    ("sta.cone_reuse_ratio", Stats.ratio reuses (reuses +. recomputes));
    ("skew.minmax_probes", c "skew.minmax.probes");
    ("pool.speedup_j2", untraced_p50 /. med (fun s -> s.wall) j2);
    ("pool.cpu_util_j2", sum (fun s -> s.cpu) j2 /. (2.0 *. sum (fun s -> s.wall) j2));
    ("gc.minor_mwords_per_op", med (fun s -> s.minor_words /. 1e6) traced);
    ("gc.major_collections_per_op", med (fun s -> float_of_int s.major) traced);
    ("checkpoint.save_s", med (fun (s, _, _) -> s) ckpt);
    ("checkpoint.load_s", med (fun (_, l, _) -> l) ckpt);
    ("checkpoint.bytes", med (fun (_, _, b) -> b) ckpt);
    ("trace.overhead_share", (traced_p50 /. untraced_p50) -. 1.0);
  ]
