(* A supervised worker process: the exec'd side of one supervisor
   socketpair (`rotary_cli serve-worker`, socketpair dup2'd to stdin).
   Runs a full Server/Scheduler internally — a fresh image, so domain
   creation here has none of the fork hazards — and speaks the same
   NDJSON protocol over the inherited fd, plus two control forms:

     {"ctl": "drain"}   finish queued + running jobs, flush responses,
                        write a final shm row, _exit 0
     {"ctl": "ring"}    doorbell: descriptors were published into this
                        slot's shm job ring (shm transport only)

   Under `--transport shm` the fd is a doorbell + fallback channel:
   jobs normally arrive as ring descriptors with arena payloads, and
   responses leave the same way (falling back to NDJSON lines on the
   fd when an arena or ring is full).  The worker also registers the
   "shm:" checkpoint blob store so injected checkpoints and crash
   resumes go through the shared checkpoint arena, not the filesystem.

   A heartbeat thread publishes liveness, scheduler counts, transport
   counters and the fixed solver-metric table into this slot's shm
   worker region every [heartbeat_interval_s].  Exit is always
   Unix._exit so the response fd is never double-flushed by at_exit
   machinery. *)

module Json = Rc_util.Json
module Timer = Rc_util.Timer
module Metrics = Rc_obs.Metrics

let heartbeat_interval_s = 0.05

(* stderr via Unix.write: no channel locks, safe post-fork *)
let logf fmt =
  Printf.ksprintf
    (fun s ->
      let line = s ^ "\n" in
      ignore (Unix.write_substring Unix.stderr line 0 (String.length line)))
    fmt

let job_wall_ms () =
  match Metrics.value_of "serve.job.wall" with
  | Some (Metrics.Timer { total_s; _ }) ->
      int_of_float (Float.round (total_s *. 1000.0))
  | _ -> 0

let worker_row ~slot:_ ~started_ns ~requests ~responses ~core ~tr srv : Shm.worker_row =
  let c = Scheduler.counts (Server.scheduler srv) in
  let shm_jobs, shm_responses, shm_fallbacks, ckpt_saves, ckpt_skips =
    match tr with Some w -> Transport.counters w | None -> (0, 0, 0, 0, 0)
  in
  {
    Shm.pid = Unix.getpid ();
    state = (if Server.stopping srv then Shm.W_draining else Shm.W_serving);
    started_ns;
    heartbeat_ns = Int64.to_int (Timer.now_ns ());
    requests = Atomic.get requests;
    responses = Atomic.get responses;
    submitted = c.Scheduler.submitted;
    completed = c.Scheduler.completed;
    failed = c.Scheduler.failed;
    cancelled = c.Scheduler.cancelled;
    rejected = c.Scheduler.rejected;
    queue_depth = c.Scheduler.pending;
    running = c.Scheduler.running;
    job_wall_ms = job_wall_ms ();
    core;
    shm_jobs;
    shm_responses;
    shm_fallbacks;
    ckpt_saves;
    ckpt_skips;
    solver = Metrics.export_values ();
  }

let run ?workers ?max_pending ?(transport = Shm.Ndjson) ?pin_core
    ?session_capacity ?session_dir ~shm ~slot ~restarts ~fd () =
  (* the supervisor owns signal policy; a worker dies by drain ctl,
     socket EOF, or SIGKILL — a ^C on the supervisor's terminal must
     not take the workers down before they can drain *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  (try Sys.set_signal Sys.sigint Sys.Signal_ignore with Invalid_argument _ -> ());
  (try Sys.set_signal Sys.sighup Sys.Signal_ignore with Invalid_argument _ -> ());
  (* a spawned image inherits the supervisor's blocked signal mask;
     unblock so SIGTERM keeps its default action here *)
  ignore (Thread.sigmask Unix.SIG_UNBLOCK [ Sys.sigterm; Sys.sigint; Sys.sighup ]);
  (* the export table this worker publishes into its shm row is only
     live if the registry records; recording is sharded per domain and
     contention-free, so a dedicated worker always pays it *)
  Metrics.set_enabled true;
  let core =
    match pin_core with
    | None -> -1
    | Some c -> (
        match Affinity.pin_self c with
        | Affinity.Pinned -> c mod Affinity.ncores ()
        | Affinity.Failed ->
            logf "rotary worker[%d]: sched_setaffinity(core %d) failed, running unpinned" slot c;
            -1
        | Affinity.Unsupported ->
            logf "rotary worker[%d]: CPU pinning unsupported on this platform" slot;
            -1)
  in
  let started_ns = Int64.to_int (Timer.now_ns ()) in
  let requests = Atomic.make 0 and responses = Atomic.make 0 in
  let tr =
    match transport with
    | Shm.Shm_rings ->
        let w = Transport.worker_side shm ~slot in
        Checkpoint.register_blob_store ~prefix:"shm:" (Transport.blob_store w);
        Some w
    | Shm.Ndjson -> None
  in
  Shm.write_worker shm ~slot
    {
      Shm.empty_worker_row with
      Shm.pid = Unix.getpid ();
      state = Shm.W_starting;
      started_ns;
      heartbeat_ns = started_ns;
      core;
    };
  (* ECO session escrow: every worker shares [session_dir] so a sibling
     can rehydrate a crashed worker's sessions; under the shm transport
     the checkpoint arena is the hot tier with files as fallback *)
  let file_escrow =
    Session.file_tier
      ~dir:
        (match session_dir with
        | Some d -> d
        | None -> Filename.concat (Filename.get_temp_dir_name ()) "rotary-eco")
  in
  let session_tier =
    match tr with
    | None -> file_escrow
    | Some w ->
        let bs = Transport.blob_store w in
        let shm_escrow =
          {
            Session.t_save =
              (fun ~sid ~iteration bytes ->
                match
                  bs.Checkpoint.bs_save ~key:(Transport.key_of_sid sid)
                    ~iteration bytes
                with
                | Ok _ -> Ok ()
                | Error e -> Error e);
            t_load =
              (fun ~sid -> bs.Checkpoint.bs_load (Transport.key_of_sid sid));
            t_free = (fun ~sid -> Transport.ckpt_free shm ~sid);
          }
        in
        Session.chain shm_escrow file_escrow
  in
  let srv =
    Server.create ?workers ?max_pending
      ~identity:{ Server.worker_id = slot; restarts }
      ?session_capacity ~session_tier ()
  in
  let publish () =
    Shm.write_worker shm ~slot (worker_row ~slot ~started_ns ~requests ~responses ~core ~tr srv)
  in
  let stopped = Atomic.make false in
  let heartbeat () =
    while not (Atomic.get stopped) do
      publish ();
      Thread.delay heartbeat_interval_s
    done
  in
  let hb = Thread.create heartbeat () in
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let wlock = Mutex.create () in
  let write_line line =
    Mutex.protect wlock (fun () ->
        output_string oc line;
        output_char oc '\n';
        flush oc)
  in
  let respond_fd j =
    try
      write_line (Json.to_line j);
      Atomic.incr responses
    with Sys_error _ | Unix.Unix_error _ -> ()
  in
  (* shm-transport respond: serialize once (session id first, so the
     supervisor can splice the client id without parsing), publish via
     the response ring, degrade to the fd on arena/ring exhaustion *)
  let respond =
    match tr with
    | None -> respond_fd
    | Some w ->
        fun j ->
          let line = Json.to_line j in
          let sid = match Json.member "id" j with Some (Json.Int s) -> s | _ -> 0 in
          if sid <= 0 then respond_fd j
          else (
            match Transport.send_response w ~sid line with
            | `Sent true -> (
                try write_line Transport.doorbell_line
                with Sys_error _ | Unix.Unix_error _ -> ())
            | `Sent false -> ()
            | `Full -> (
                try
                  write_line line;
                  Atomic.incr responses
                with Sys_error _ | Unix.Unix_error _ -> ()))
  in
  let finish code =
    Server.drain srv;
    Atomic.set stopped true;
    Thread.join hb;
    Shm.write_worker shm ~slot
      {
        (worker_row ~slot ~started_ns ~requests ~responses ~core ~tr srv) with
        Shm.state = Shm.W_stopped;
      };
    (try flush oc with Sys_error _ -> ());
    Unix._exit code
  in
  let ctl_of line =
    match Json.of_string line with
    | Ok j -> Option.bind (Json.member "ctl" j) Json.to_string_opt
    | Error _ -> None
  in
  let handle_line line =
    Atomic.incr requests;
    Server.handle_line srv ~respond line
  in
  (* consume everything currently published in the job ring; a torn
     descriptor means the transport is compromised — exit nonzero and
     let the supervisor reset the rings and redispatch *)
  let drain_ring w =
    let d = Transport.recv_jobs w in
    List.iter (fun (_sid, body) -> handle_line body) d.Transport.items;
    if d.Transport.torn then begin
      logf "rotary worker[%d]: torn job-ring descriptor, exiting for respawn" slot;
      finish 3
    end
  in
  logf "rotary worker[%d]: up (pid %d, restarts %d%s)" slot (Unix.getpid ()) restarts
    (if core >= 0 then Printf.sprintf ", core %d" core else "");
  (try
     match tr with
     | None ->
         (* classic NDJSON loop: one request line in, responses out *)
         let rec loop () =
           match input_line ic with
           | line ->
               let line = String.trim line in
               (if line <> "" then
                  match ctl_of line with
                  | Some "drain" ->
                      logf "rotary worker[%d]: draining" slot;
                      Server.request_stop srv;
                      publish ()
                  | Some _ -> ()
                  | None -> handle_line line);
               if Server.stopping srv then () else loop ()
           | exception End_of_file -> ()
         in
         loop ()
     | Some w ->
         (* shm loop: drain the ring, arm the waiting flag, block on
            the fd for a doorbell / fallback request / drain ctl *)
         let ring = Shm.job_ring shm slot in
         let rec loop () =
           drain_ring w;
           if not (Ring.arm ring) then loop ()
           else
             match input_line ic with
             | line ->
                 Ring.disarm ring;
                 let line = String.trim line in
                 (if line <> "" then
                    match ctl_of line with
                    | Some "ring" -> ()
                    | Some "drain" ->
                        (* dispatches to this slot stopped before the
                           ctl was sent; take what's still in the ring,
                           then stop *)
                        logf "rotary worker[%d]: draining" slot;
                        drain_ring w;
                        Server.request_stop srv;
                        publish ()
                    | Some _ -> ()
                    | None -> handle_line line);
                 if Server.stopping srv then () else loop ()
             | exception End_of_file -> Ring.disarm ring
         in
         loop ()
   with Sys_error _ | Unix.Unix_error _ -> ());
  finish 0
