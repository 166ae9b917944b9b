(* The served workloads, both against the supervised tier over the wire
   protocol (shm transport, default checkpoint cadence), from one thread
   with two connections and one request in flight on each.

   A tier keeps one speed for its whole lifetime, so one tier per run
   would be a single draw: each run spawns [tiers] tiers in turn, gives
   each an equal slice of the window, and pools the samples.

   serve_tiny: stateless tiny netflow flows; compute is small, so the
   serving path (front door, supervisor, ring/arena, worker scheduler,
   per-iteration checkpoint, JSON) is a large share of latency.

   eco_s9234: each connection holds one s9234 session open and streams
   seeded edit batches; every batch re-runs stages through
   Flow.apply_edits and writes a checkpoint escrow.  Every session is
   replayed in-process afterwards and must reproduce the served digest
   after every batch. *)

open Rc_core
module Json = Rc_util.Json
module Checkpoint = Rc_serve.Checkpoint
module Protocol = Rc_serve.Protocol
module Shm = Rc_serve.Shm

let now = Flow_layers.now
let run_dir = Printf.sprintf ".perfbench/run-%d" (Unix.getpid ())
let tier_dir k = Filename.concat run_dir (string_of_int k)

let str name j = Option.bind (Json.member name j) Json.to_string_opt
let num name j = Option.bind (Json.member name j) Json.to_float_opt
let int name j = Option.bind (Json.member name j) Json.to_int_opt
let get what = function Some v -> v | None -> failwith ("reply lacks " ^ what)

(* per-tier counters from the shm worker rows *)
type shm_counts = { messages : int; fallbacks : int; ckpt_saves : int }

let shm_counts (t : Tier.t) =
  Array.fold_left
    (fun a w ->
      {
        messages = a.messages + w.Shm.shm_jobs + w.Shm.shm_responses + w.Shm.shm_fallbacks;
        fallbacks = a.fallbacks + w.Shm.shm_fallbacks;
        ckpt_saves = a.ckpt_saves + w.Shm.ckpt_saves;
      })
    { messages = 0; fallbacks = 0; ckpt_saves = 0 }
    (Tier.worker_rows t.Tier.shm)

(* what one tier's window measured *)
type window = {
  w_ready_s : float;
  w_ready_speed : float;  (** Speed factor of the spawn; 1 when not rescaled *)
  w_s : float;
  w_ops : int;  (** timed operations attempted *)
  w_speed : float;  (** the window's time-weighted Speed factor; 1 when not rescaled *)
  w_cpu_sup : float;
  w_cpu_workers : float;
  w_rss_mb : float;
  w_threads_sup : int;
  w_shm0 : shm_counts;
  w_shm1 : shm_counts;
  w_status_rtt : float list;
}

let status_pings conn n =
  List.init n (fun i ->
      match Client.rpc conn (Printf.sprintf {|{"id":"ping-%d","op":"status"}|} i) with
      | Ok _, lat -> lat
      | Error e, _ -> failwith ("status: " ^ e))

(* Run [body prepared conns ~deadline] in a fresh tier and measure the
   tier around it; [body] returns the operations it timed and its
   window's Speed factor.  [prepare] runs on the tier before the window
   (session opens).  With [speed], the spawn runs between two probes.
   A failing tier's log goes to stderr. *)
let in_tier ?speed ~k ~slice ~traced ~prepare ~body () =
  let spawn () = Tier.spawn ~dir:(tier_dir k) in
  let t, ready_speed = match speed with Some sp -> Speed.around sp spawn | None -> (spawn (), 1.0) in
  let conns = t.Tier.conns in
  let measure () =
    let rtt = if traced then status_pings conns.(0) 30 else [] in
    let prepared = prepare conns in
    let shm0 = shm_counts t and sup0, wk0 = Tier.cpu t in
    let t0 = now () in
    let ops, speed = body prepared conns ~deadline:(t0 +. slice) in
    let w_s = now () -. t0 in
    let sup1, wk1 = Tier.cpu t in
    ( prepared,
      {
        w_ready_s = t.Tier.ready_s;
        w_ready_speed = ready_speed;
        w_s;
        w_ops = ops;
        w_speed = speed;
        w_cpu_sup = sup1 -. sup0;
        w_cpu_workers = wk1 -. wk0;
        w_rss_mb = Tier.peak_rss_mb t;
        w_threads_sup = Procfs.threads t.Tier.pid;
        w_shm0 = shm0;
        w_shm1 = shm_counts t;
        w_status_rtt = rtt;
      } )
  in
  Fun.protect
    ~finally:(fun () -> Tier.stop t)
    (fun () ->
      try measure ()
      with e ->
        Tier.dump_log t.Tier.dir;
        raise e)

let total f ws = List.fold_left (fun a w -> a +. f w) 0.0 ws
let ops_of ws = float_of_int (List.fold_left (fun a w -> a + w.w_ops) 0 ws)
let arr = Array.of_list
let med_of f ws = Stats.median (arr (List.map f ws))

(* rows common to both served workloads; [lats] and [setup] come
   rescaled when the workload rescales, and window time and CPU are
   rescaled here by each window's factor *)
let tier_rows ws ~lats ~ok_in_slo ~setup =
  let ops = ops_of ws in
  [
    ("setup_s", Stats.median (arr setup));
    ("op_p50_s", Stats.median lats);
    ("op_p90_s", Stats.percentile lats 90.0);
    ("ops_per_s", float_of_int (Array.length lats) /. total (fun w -> w.w_s *. w.w_speed) ws);
    ("slo_ok_ratio", float_of_int ok_in_slo /. ops);
    ("cpu_s_per_op", total (fun w -> (w.w_cpu_sup +. w.w_cpu_workers) *. w.w_speed) ws /. ops);
    ("peak_rss_mb", med_of (fun w -> w.w_rss_mb) ws);
  ]

let status_rtt_p50 ws = Stats.median (arr (List.concat_map (fun w -> w.w_status_rtt) ws))

(* The add-up report: how much of the served p50 the measured layers
   explain.  Warns when less than 90% is accounted for. *)
let add_up ~workload ~p50 parts =
  let accounted = List.fold_left (fun a (_, v) -> a +. v) 0.0 parts in
  let share = accounted /. p50 in
  Printf.eprintf "[perfbench] add-up %s: p50 %.6f s = %s + unaccounted %.6f s (%.1f%% unaccounted)%s\n%!"
    workload p50
    (String.concat " + " (List.map (fun (n, v) -> Printf.sprintf "%s %.6f s" n v) parts))
    (p50 -. accounted)
    (100.0 *. (1.0 -. share))
    (if share < 0.9 then "  WARNING: less than 90% accounted for" else "")

(* ---------------- serve_tiny ---------------- *)

let serve_slo_s = 0.25

(* serve_tiny's window runs in blocks this long, each followed by a
   host-speed probe (see Speed) *)
let speed_block_s = 1.0

let tiny_reference () =
  match Protocol.parse_request (Streams.tiny_flow_line ~seed:0 0) with
  | Ok { Protocol.op = Protocol.Flow_op r; _ } ->
      Protocol.outcome_of_flow_request r (Rc_serve.Cancel.none ())
  | _ -> failwith "tiny flow request does not parse"

type result = { rows : (string * float) list; layers : (string * float) list }

let serve_tiny tally ~seed ~seconds ~tiers ~traced =
  let reference = tiny_reference () in
  let digest = Checkpoint.digest_of_outcome reference in
  (* traced: the same request's in-process time, and what one
     per-iteration checkpoint costs the worker before the store (the
     codec on tiny's boundary contexts) *)
  let inproc, save_s =
    if not traced then (0.0, 0.0)
    else begin
      let ctxs = ref [] in
      ignore (Flow.run ~on_iteration:(fun c -> ctxs := c :: !ctxs) reference.Flow.cfg);
      ( Stats.median (Array.init 7 (fun _ -> snd (Flow_layers.time tiny_reference))),
        Stats.median (arr (List.map (fun c -> snd (Flow_layers.time (fun () -> Checkpoint.to_blob c))) !ctxs)) )
    end
  in
  let slice = seconds /. float_of_int tiers in
  let speed = Speed.create () in
  let next_id = ref 0 and lats = ref [] and raw_lats = ref [] and in_slo = ref 0 in
  let ws =
    List.init tiers (fun k ->
        snd
          (in_tier ~speed ~k ~slice ~traced
             ~prepare:(fun _ -> ())
             ~body:(fun () conns ~deadline ->
               (* blocks of [speed_block_s], each drained and followed by
                  a probe while the tier is idle; a block's latencies are
                  rescaled by its factor *)
               let ops = ref 0 and weighted = ref 0.0 and span = ref 0.0 in
               while now () < deadline do
                 let block = ref [] and t0 = now () in
                 let (), f =
                   Speed.around speed (fun () ->
                       Client.closed_loop conns
                         ~deadline:(Float.min deadline (t0 +. speed_block_s))
                         ~next:(fun _ ->
                           incr next_id;
                           Some (Streams.tiny_flow_line ~seed !next_id))
                         ~on_reply:(fun _ line lat ->
                           incr ops;
                           match Client.result_of line with
                           | Error e -> Tally.op tally ~ok:false ("served tiny flow: " ^ e)
                           | Ok r ->
                               let d = str "digest" r in
                               let ok = d = Some digest in
                               Tally.op tally ~ok
                                 (Printf.sprintf "served tiny digest %s, in-process %s"
                                    (Option.value d ~default:"-") digest);
                               block := lat :: !block;
                               if ok && lat <= serve_slo_s then incr in_slo))
                 in
                 let d = now () -. t0 in
                 weighted := !weighted +. (d *. f);
                 span := !span +. d;
                 raw_lats := !block @ !raw_lats;
                 lats := List.map (fun l -> l *. f) !block @ !lats
               done;
               (!ops, Stats.ratio !weighted !span))
             ()))
  in
  (* the per-layer rows and the add-up compare raw times *)
  let raw_p50 = Stats.median (arr !raw_lats) in
  Printf.eprintf "[perfbench] serve_tiny raw (not rescaled): op p50 %.6f s, p90 %.6f s; probe median %.4f s (reference %.4f s)\n%!"
    raw_p50 (Stats.percentile (arr !raw_lats) 90.0) (Speed.median_probe_s speed) Speed.reference_s;
  let lats = arr !lats in
  let ops = ops_of ws in
  let rows =
    tier_rows ws ~lats ~ok_in_slo:!in_slo ~setup:(List.map (fun w -> w.w_ready_s *. w.w_ready_speed) ws)
    @ [
        ("tapping_wl_um", reference.Flow.final.Flow.tapping_wl);
        ("total_mw", reference.Flow.final.Flow.total_mw);
      ]
  in
  let d f = float_of_int (List.fold_left (fun a w -> a + f w.w_shm1 - f w.w_shm0) 0 ws) in
  let layers =
    if not traced then []
    else
      [
        ("serve.status_rtt_p50_s", status_rtt_p50 ws);
        ("serve.flow_inproc_s", inproc);
        ("serve.overhead_p50_s", raw_p50 -. inproc);
        ("serve.cpu_supervisor_s_per_op", total (fun w -> w.w_cpu_sup) ws /. ops);
        ("serve.cpu_workers_s_per_op", total (fun w -> w.w_cpu_workers) ws /. ops);
        ("serve.threads_supervisor", med_of (fun w -> float_of_int w.w_threads_sup) ws);
        ("serve.fallback_ratio", Stats.ratio (d (fun c -> c.fallbacks)) (d (fun c -> c.messages)));
        ("checkpoint.per_request", d (fun c -> c.ckpt_saves) /. ops);
      ]
  in
  if traced then
    add_up ~workload:"serve_tiny" ~p50:raw_p50
      [
        ("in-process flow", inproc);
        ("status round trip", status_rtt_p50 ws);
        ("checkpoints", d (fun c -> c.ckpt_saves) /. ops *. save_s);
      ];
  { rows; layers }

(* ---------------- eco_s9234 ---------------- *)

let eco_slo_s = 0.25

(* The run's quality figures average the state after each of the first
   [quality_batches] batches of every session: deterministic for a seed,
   and steadier than one batch's state, which swings with whether that
   batch retargeted a flip-flop.  Every session reaches it well within
   its slice. *)
let quality_batches = 10

type session = {
  open_line : string;
  rng : Rc_util.Rng.t;
  mutable sid : int;
  mutable open_digest : string;
  mutable open_lat : float;
  mutable geom : Streams.geom option;
  mutable sent : string list;  (** answered batch lines, newest first *)
  mutable served : (string * int * float) list;
      (** (digest, stages re-run, latency) per answered batch, newest first *)
  mutable quality : (float * float) list;  (** state after each of the first [quality_batches] *)
}

let geom_of r =
  let chip = get "chip" (Json.member "chip" r) in
  {
    Streams.n_cells = get "n_cells" (int "n_cells" r);
    n_ffs = get "n_ffs" (int "n_ffs" r);
    n_rings = get "n_rings" (int "n_rings" r);
    xmin = get "xmin" (num "xmin" chip);
    ymin = get "ymin" (num "ymin" chip);
    xmax = get "xmax" (num "xmax" chip);
    ymax = get "ymax" (num "ymax" chip);
  }

(* open both sessions at once, one per connection *)
let open_sessions tally sessions conns =
  let asked = Array.make (Array.length conns) false in
  Client.closed_loop conns ~deadline:Float.infinity
    ~next:(fun i ->
      if asked.(i) then None
      else begin
        asked.(i) <- true;
        Some sessions.(i).open_line
      end)
    ~on_reply:(fun i line lat ->
      match Client.result_of line with
      | Error e -> Tally.op tally ~ok:false ("session_open: " ^ e)
      | Ok r ->
          let s = sessions.(i) in
          s.sid <- get "session" (int "session" r);
          s.open_digest <- get "digest" (str "digest" r);
          s.open_lat <- lat;
          s.geom <- Some (geom_of r))

(* stream batches on every open session until [deadline], then close *)
let stream_edits tally sessions conns ~deadline =
  let ops = ref 0 in
  Client.closed_loop conns ~deadline
    ~next:(fun i ->
      let s = sessions.(i) in
      Option.map
        (fun g ->
          let id = Printf.sprintf "edit-%d-%d" s.sid (List.length s.sent + 1) in
          let line = Streams.edit_line s.rng g ~id ~sid:s.sid in
          s.sent <- line :: s.sent;
          line)
        s.geom)
    ~on_reply:(fun i line lat ->
      incr ops;
      let s = sessions.(i) in
      match Client.result_of line with
      | Error e ->
          (* the session can no longer be replayed past this point *)
          s.geom <- None;
          s.sent <- List.tl s.sent;
          Tally.op tally ~ok:false ("session_edit: " ^ e)
      | Ok r ->
          let n_stages =
            match Option.bind (Json.member "stages" r) Json.to_list_opt with
            | Some l -> List.length l
            | None -> 0
          in
          s.served <- (get "digest" (str "digest" r), n_stages, lat) :: s.served;
          if List.length s.served <= quality_batches then begin
            let after = get "after" (Json.member "after" r) in
            s.quality <-
              (get "tapping_wl_um" (num "tapping_wl_um" after), get "total_mw" (num "total_mw" after))
              :: s.quality
          end);
  Array.iteri
    (fun i s ->
      if s.sid >= 0 then
        match Client.rpc conns.(i) (Streams.session_close_line ~id:(Printf.sprintf "close-%d" s.sid) ~sid:s.sid) with
        | Ok _, _ -> ()
        | Error e, _ -> Tally.op tally ~ok:false ("session_close: " ^ e))
    sessions;
  !ops

type replay_timing = {
  apply : float list;
  escrow : float list;
  escrow_bytes : float list;
  rehydrate : float list;
  open_s : float;
}

(* Replay one session in-process from the exact lines it sent: the open
   and every batch must give the served digest.  Escrow and rehydration
   costs are measured on the replayed contexts when [traced]. *)
let replay ~traced s =
  let parse line =
    match Protocol.parse_request line with Ok r -> r.Protocol.op | Error (_, _, e) -> failwith e
  in
  let ctx, open_s =
    Flow_layers.time (fun () ->
        match parse s.open_line with
        | Protocol.Session_open_op so ->
            Flow.context_of_outcome
              (Protocol.outcome_of_flow_request so.Protocol.so_flow (Rc_serve.Cancel.none ()))
        | _ -> failwith "not a session_open")
  in
  let verdicts = ref [ Checkpoint.digest_of_ctx ctx = s.open_digest ] in
  let apply = ref [] and escrow = ref [] and bytes = ref [] and rehydrate = ref [] in
  let ctx = ref ctx in
  List.iteri
    (fun i (line, (served, _, _)) ->
      match parse line with
      | Protocol.Session_edit_op se ->
          let (c, _), dt = Flow_layers.time (fun () -> Flow.apply_edits !ctx se.Protocol.se_edits) in
          apply := dt :: !apply;
          ctx := c;
          verdicts := (Checkpoint.digest_of_ctx c = served) :: !verdicts;
          if traced then begin
            let (_, blob), es = Flow_layers.time (fun () -> Checkpoint.to_blob c) in
            escrow := es :: !escrow;
            bytes := float_of_int (String.length blob) :: !bytes;
            if i < 3 then
              rehydrate := snd (Flow_layers.time (fun () -> ignore (Checkpoint.load_blob blob))) :: !rehydrate
          end
      | _ -> failwith "not a session_edit")
    (List.combine (List.rev s.sent) (List.rev s.served));
  ( List.rev !verdicts,
    { apply = !apply; escrow = !escrow; escrow_bytes = !bytes; rehydrate = !rehydrate; open_s } )

(* replay sessions two at a time, one domain each, sequential kernels *)
let replay_all ~traced sessions =
  let one s = Rc_par.Pool.sequential_scope (fun () -> replay ~traced s) in
  let rec go = function
    | [] -> []
    | [ s ] -> [ one s ]
    | a :: b :: rest ->
        let d = Domain.spawn (fun () -> one b) in
        let ra = one a in
        let rb = Domain.join d in
        ra :: rb :: go rest
  in
  go sessions

let eco tally ~seed ~seconds ~tiers ~traced =
  let slice = seconds /. float_of_int tiers in
  let runs =
    List.init tiers (fun k ->
        let sessions =
          Array.init 2 (fun c ->
              let session = (2 * k) + c in
              {
                open_line = Streams.session_open_line ~id:(Printf.sprintf "open-%d" session);
                rng = Streams.edit_rng ~seed ~session;
                sid = -1;
                open_digest = "";
                open_lat = Float.nan;
                geom = None;
                sent = [];
                served = [];
                quality = [];
              })
        in
        in_tier ~k ~slice ~traced
          ~prepare:(fun conns ->
            open_sessions tally sessions conns;
            sessions)
          ~body:(fun sessions conns ~deadline -> (stream_edits tally sessions conns ~deadline, 1.0))
          ())
  in
  let ws = List.map snd runs in
  let sessions = List.concat_map (fun (s, _) -> List.filter (fun s -> s.sid >= 0) (Array.to_list s)) runs in
  let replays = replay_all ~traced sessions in
  let in_slo = ref 0 and batch_lats = ref [] in
  List.iter2
    (fun s (verdicts, _) ->
      match verdicts with
      | open_ok :: batch_oks ->
          Tally.op tally ~ok:open_ok (Printf.sprintf "session %d: in-process open digest differs" s.sid);
          List.iteri
            (fun i (ok, (_, _, lat)) ->
              Tally.op tally ~ok (Printf.sprintf "session %d batch %d: replay digest differs" s.sid (i + 1));
              batch_lats := lat :: !batch_lats;
              if ok && lat <= eco_slo_s then incr in_slo)
            (List.combine batch_oks (List.rev s.served))
      | [] -> assert false)
    sessions replays;
  let lats = arr !batch_lats in
  if List.exists (fun s -> List.length s.quality < quality_batches) sessions then
    failwith (Printf.sprintf "a session answered fewer than %d batches" quality_batches);
  let quality = List.concat_map (fun s -> s.quality) sessions in
  let mean f = Stats.mean (arr (List.map f quality)) in
  let rows =
    tier_rows ws ~lats ~ok_in_slo:!in_slo ~setup:(List.map (fun s -> s.open_lat) sessions)
    @ [ ("tapping_wl_um", mean fst); ("total_mw", mean snd) ]
  in
  let timing f = arr (List.concat_map (fun (_, t) -> f t) replays) in
  let layers =
    if not traced then []
    else
      let apply_p50 = Stats.median (timing (fun t -> t.apply)) in
      [
        ("eco.apply_s", apply_p50);
        ("eco.escrow_s", Stats.median (timing (fun t -> t.escrow)));
        ("eco.escrow_bytes", Stats.median (timing (fun t -> t.escrow_bytes)));
        ("eco.rehydrate_s", Stats.median (timing (fun t -> t.rehydrate)));
        ( "eco.stages_per_batch",
          Stats.mean (arr (List.concat_map (fun s -> List.map (fun (_, n, _) -> float_of_int n) s.served) sessions)) );
        ("eco.overhead_p50_s", Stats.median lats -. apply_p50);
        ("eco.open_inproc_s", Stats.median (timing (fun t -> [ t.open_s ])));
      ]
  in
  if traced then
    add_up ~workload:"eco_s9234" ~p50:(Stats.median lats)
      [
        ("in-process apply", Stats.median (timing (fun t -> t.apply)));
        ("escrow", Stats.median (timing (fun t -> t.escrow)));
        ("status round trip", status_rtt_p50 ws);
      ];
  { rows; layers }
