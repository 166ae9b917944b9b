(* One supervised service tier: `rotary_cli serve --workers-proc 2
   --workers 1` at jobs=1, spawned from the checkout's build, timed from
   spawn to ready, and torn down with every process reaped. *)

module Shm = Rc_serve.Shm

let cli = Filename.concat "_build" (Filename.concat "default" (Filename.concat "bin" "rotary_cli.exe"))

type t = {
  pid : int;  (** supervisor *)
  dir : string;
  sock : string;
  shm : Shm.t;
  workers : int array;  (** worker pids at ready time *)
  conns : Client.conn array;  (** the two client connections, open until [stop] *)
  ready_s : float;  (** spawn to ready *)
}

let live : t list ref = ref []

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf p =
  match (Unix.lstat p).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Unix.unlink p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let worker_rows shm = Array.map (fun r -> r.Shm.worker) (Shm.read_all shm)

(* Ready: every worker row reports serving and the front door answers
   a status request.  The tier's two client connections are opened here
   and held until [stop]: the supervisor closes each finished
   connection's descriptor twice (close_out_noerr then close_in_noerr in
   Supervisor.serve_conn), which can kill a connection accepted in
   between, so the benchmark does not churn connections. *)
let wait_ready ~sock ~t0 =
  let deadline = t0 +. 60.0 in
  let rec retry f =
    if Client.now () > deadline then failwith "tier not ready within 60 s";
    match f () with
    | Some v -> v
    | None ->
        Unix.sleepf 0.0005;
        retry f
  in
  let shm =
    retry (fun () -> match Shm.attach ~path:(sock ^ ".shm") () with Ok shm -> Some shm | Error _ -> None)
  in
  let pids =
    retry (fun () ->
        let rows = worker_rows shm in
        if Array.length rows > 0
           && Array.for_all (fun w -> w.Shm.pid > 0 && w.Shm.state = Shm.W_serving) rows
        then Some (Array.map (fun w -> w.Shm.pid) rows)
        else None)
  in
  let conns =
    Array.init 2 (fun _ -> retry (fun () -> try Some (Client.connect sock) with Unix.Unix_error _ -> None))
  in
  (match Client.rpc conns.(0) {|{"id":0,"op":"status"}|} with
  | Ok _, _ -> ()
  | Error e, _ -> failwith ("tier status: " ^ e));
  (shm, pids, conns)

(* the tier's stderr, for a tier that misbehaved *)
let dump_log dir =
  Option.iter
    (fun log -> Printf.eprintf "[perfbench] tier %s log:\n%s%!" dir log)
    (Procfs.read_file (Filename.concat dir "tier.log"))

let spawn ~dir =
  rm_rf dir;
  mkdir_p dir;
  let sock = Filename.concat dir "s.sock" in
  let exe = Filename.concat (Sys.getcwd ()) cli in
  let env =
    Array.append [| "ROTARY_JOBS=1" |]
      (Array.of_list
         (List.filter
            (fun s -> not (String.starts_with ~prefix:"ROTARY_JOBS=" s))
            (Array.to_list (Unix.environment ()))))
  in
  let log = Unix.openfile (Filename.concat dir "tier.log") [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let t0 = Client.now () in
  let pid =
    Unix.create_process_env exe
      [| exe; "serve"; "--socket"; sock; "--workers-proc"; "2"; "--workers"; "1"; "--jobs"; "1" |]
      env null null log
  in
  Unix.close log;
  Unix.close null;
  let shm, workers, conns =
    try wait_ready ~sock ~t0
    with e ->
      dump_log dir;
      (* workers see their supervisor's end of the job socket close *)
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      raise e
  in
  let t = { pid; dir; sock; shm; workers; conns; ready_s = Client.now () -. t0 } in
  live := t :: !live;
  t

let wait_gone pids ~within =
  let deadline = Client.now () +. within in
  while List.exists Procfs.alive pids && Client.now () < deadline do
    Unix.sleepf 0.002
  done;
  List.filter Procfs.alive pids

(* The shutdown op, sent on the tier's own connection, drains the tier
   (an idle supervisor does not always act on SIGTERM); anything still
   up after the grace is killed.
   Returns only once every process of the tier has ended. *)
let stop t =
  let t0 = Client.now () in
  live := List.filter (fun x -> x != t) !live;
  (try ignore (Client.rpc t.conns.(0) {|{"id":"shutdown","op":"shutdown"}|})
   with Unix.Unix_error _ | Failure _ -> ());
  Array.iter Client.close t.conns;
  let deadline = Client.now () +. 10.0 in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] t.pid with
    | 0, _ when Client.now () < deadline ->
        Unix.sleepf 0.002;
        reap ()
    | 0, _ ->
        Printf.eprintf "[perfbench] tier %s did not drain; killing it\n%!" t.dir;
        dump_log t.dir;
        (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] t.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  reap ();
  let left = wait_gone (Array.to_list t.workers) ~within:5.0 in
  List.iter (fun p -> try Unix.kill p Sys.sigkill with Unix.Unix_error _ -> ()) left;
  ignore (wait_gone left ~within:5.0);
  rm_rf t.dir;
  Printf.eprintf "[perfbench] tier %s: ready in %.1f ms, stopped in %.1f ms\n%!" t.dir (1e3 *. t.ready_s)
    (1e3 *. (Client.now () -. t0))

let stop_all () = List.iter stop !live

(* CPU seconds so far of the supervisor and of the workers *)
let cpu t = (Procfs.cpu_s t.pid, Array.fold_left (fun a p -> a +. Procfs.cpu_s p) 0.0 t.workers)

let peak_rss_mb t = Array.fold_left (fun a p -> a +. Procfs.peak_rss_mb p) (Procfs.peak_rss_mb t.pid) t.workers
