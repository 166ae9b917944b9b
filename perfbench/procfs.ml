(* CPU and memory of the tier's processes, read from /proc. *)

let read_file path =
  try Some (In_channel.with_open_bin path In_channel.input_all) with Sys_error _ -> None

(* USER_HZ: the unit of utime/stime in /proc/<pid>/stat; 100 on every
   Linux ABI this runs on *)
let clock_ticks = 100.0

(* utime + stime of the whole thread group, seconds; 0 once the process
   is gone *)
let cpu_s pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | None -> 0.0
  | Some s -> (
      (* the command name may contain spaces: fields restart after ')' *)
      let rest = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
      match String.split_on_char ' ' rest with
      | _state :: _ppid :: _pgrp :: _sess :: _tty :: _tpgid :: _flags :: _minflt :: _cminflt
        :: _majflt :: _cmajflt :: utime :: stime :: _ ->
          (float_of_string utime +. float_of_string stime) /. clock_ticks
      | _ -> 0.0)

(* a numeric field of /proc/<pid>/status ("VmHWM:  1234 kB" -> 1234) *)
let status_field pid key =
  match read_file (Printf.sprintf "/proc/%d/status" pid) with
  | None -> 0
  | Some s ->
      List.fold_left
        (fun acc line ->
          match String.index_opt line ':' with
          | Some i when String.sub line 0 i = key -> (
              match String.split_on_char ' ' (String.trim (String.sub line (i + 1) (String.length line - i - 1))) with
              | v :: _ -> ( match int_of_string_opt v with Some n -> n | None -> acc)
              | [] -> acc)
          | _ -> acc)
        0 (String.split_on_char '\n' s)

let peak_rss_mb pid = float_of_int (status_field pid "VmHWM") /. 1024.0
let threads pid = status_field pid "Threads"
(* running, or stopped: anything but gone or a zombie *)
let alive pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | None -> false
  | Some s -> (
      match String.rindex_opt s ')' with
      | Some i when i + 2 < String.length s -> s.[i + 2] <> 'Z' && s.[i + 2] <> 'X'
      | _ -> false)

(* CPU seconds of this process, all domains *)
let self_cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime
