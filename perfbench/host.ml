(* Host fingerprint printed with every result, so a run on a noisy or
   throttled host can be told apart afterwards. *)

module Json = Rc_util.Json

let loadavg () =
  match Procfs.read_file "/proc/loadavg" with
  | None -> []
  | Some s -> (
      match String.split_on_char ' ' s with
      | a :: b :: c :: _ -> List.map float_of_string [ a; b; c ]
      | _ -> [])

(* a fixed integer burn that no optimiser can drop *)
let spin n =
  let r = ref 1 in
  for i = 1 to n do
    r := (!r * 1_103_515_245) + i
  done;
  ignore (Sys.opaque_identity !r)

let time f =
  let t0 = Rc_util.Timer.now_s () in
  f ();
  Rc_util.Timer.now_s () -. t0

(* Parallelism the host actually delivers to two domains: the same burn
   on one domain, then on two at once; 2.0 means two free cores.  The
   burn size is calibrated to about 40 ms per domain. *)
let two_domain_parallelism () =
  let n = ref 1_000_000 in
  while time (fun () -> spin !n) < 0.01 do
    n := !n * 2
  done;
  let n = !n * 4 in
  let one = time (fun () -> spin n) in
  let two =
    time (fun () ->
        let d = Domain.spawn (fun () -> spin n) in
        spin n;
        Domain.join d)
  in
  2.0 *. one /. two

(* git rev from the checkout's .git, when there is one *)
let git_rev () =
  let trim s = String.trim s in
  match Procfs.read_file ".git/HEAD" with
  | None -> "none"
  | Some head -> (
      let head = trim head in
      match String.index_opt head ' ' with
      | Some i when String.sub head 0 i = "ref:" -> (
          let r = trim (String.sub head (i + 1) (String.length head - i - 1)) in
          match Procfs.read_file (Filename.concat ".git" r) with
          | Some h -> trim h
          | None -> "unresolved " ^ r)
      | _ -> head)

(* Host-wide CPU contention counters, both cumulative: steal (the
   hypervisor ran someone else on our vCPUs; /proc/stat, USER_HZ) and
   CPU pressure stall (some task waited for a CPU; /proc/pressure/cpu,
   microseconds).  Their deltas over a run tell a contended run apart. *)
let steal_s () =
  match Procfs.read_file "/proc/stat" with
  | None -> 0.0
  | Some s -> (
      match String.split_on_char ' ' (List.hd (String.split_on_char '\n' s)) |> List.filter (( <> ) "") with
      | "cpu" :: _user :: _nice :: _sys :: _idle :: _iowait :: _irq :: _softirq :: steal :: _ ->
          float_of_string steal /. Procfs.clock_ticks
      | _ -> 0.0)

let cpu_stall_s () =
  match Procfs.read_file "/proc/pressure/cpu" with
  | None -> 0.0
  | Some s -> (
      match String.split_on_char ' ' (List.hd (String.split_on_char '\n' s)) with
      | _ :: _ :: _ :: _ :: total :: _ when String.starts_with ~prefix:"total=" total ->
          float_of_string (String.sub total 6 (String.length total - 6)) /. 1e6
      | _ -> 0.0)

type t = { before : float list; steal0 : float; stall0 : float; parallelism : float; probe_s : float }

(* the host-speed probe's median time over five walks, to read against
   Speed.reference_s *)
let probe_s () =
  let sp = Speed.create () in
  for _ = 1 to 4 do
    ignore (Speed.sample sp)
  done;
  Speed.median_probe_s sp

let start () =
  let before = loadavg () and steal0 = steal_s () and stall0 = cpu_stall_s () in
  { before; steal0; stall0; parallelism = two_domain_parallelism (); probe_s = probe_s () }

let to_json t =
  let floats l = Json.List (List.map (fun f -> Json.Float f) l) in
  Json.Obj
    [
      ( "host",
        Json.Obj
          [
            ("nproc", Json.Int (Domain.recommended_domain_count ()));
            ("two_domain_parallelism", Json.Float t.parallelism);
            ("speed_probe_s", Json.Float t.probe_s);
            ("ocaml", Json.String Sys.ocaml_version);
            ("git_rev", Json.String (git_rev ()));
            ("loadavg_before", floats t.before);
            ("loadavg_after", floats (loadavg ()));
            ("steal_s", Json.Float (steal_s () -. t.steal0));
            ("cpu_stall_s", Json.Float (cpu_stall_s () -. t.stall0));
          ] );
    ]
