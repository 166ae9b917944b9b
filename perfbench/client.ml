(* The benchmark's side of the wire protocol: line-delimited JSON over
   Unix-domain sockets, driven from one thread.  A closed loop keeps at
   most one request in flight per connection and times each from write
   completion to reply arrival. *)

module Json = Rc_util.Json

let now = Rc_util.Timer.now_s

type conn = { fd : Unix.file_descr; buf : Buffer.t; chunk : Bytes.t; lines : string Queue.t }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     Unix.close fd;
     raise e);
  { fd; buf = Buffer.create 4096; chunk = Bytes.create 65536; lines = Queue.create () }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c line =
  let s = line ^ "\n" in
  let rec go off =
    if off < String.length s then go (off + Unix.write_substring c.fd s off (String.length s - off))
  in
  go 0

(* read what the socket holds and queue every complete line *)
let fill c =
  let n = Unix.read c.fd c.chunk 0 (Bytes.length c.chunk) in
  if n = 0 then failwith "server closed the connection";
  Buffer.add_subbytes c.buf c.chunk 0 n;
  let s = Buffer.contents c.buf in
  match String.rindex_opt s '\n' with
  | None -> ()
  | Some last ->
      List.iter
        (fun l -> if String.trim l <> "" then Queue.push l c.lines)
        (String.split_on_char '\n' (String.sub s 0 last));
      Buffer.clear c.buf;
      Buffer.add_string c.buf (String.sub s (last + 1) (String.length s - last - 1))

let reply_timeout_s = 120.0

let rec next_line c =
  if not (Queue.is_empty c.lines) then Queue.pop c.lines
  else
    match Unix.select [ c.fd ] [] [] reply_timeout_s with
    | [], _, _ -> failwith "no reply within the timeout"
    | _ ->
        fill c;
        next_line c

let result_of line =
  match Json.of_string line with
  | Error e -> Error ("unparseable reply: " ^ e)
  | Ok j -> (
      match (Json.member "ok" j, Json.member "result" j) with
      | Some (Json.Bool true), Some r -> Ok r
      | _ ->
          Error
            (Option.value ~default:"error reply"
               (Option.bind (Json.member "error" j) Json.to_string_opt)))

(* one blocking round trip; returns the result document and latency *)
let rpc c line =
  send c line;
  let t0 = now () in
  let reply = next_line c in
  (result_of reply, now () -. t0)

(* The closed loop.  [next i] gives connection [i]'s next request line
   (None: that connection is done); [on_reply i line latency] sees each
   reply.  No request is issued after [deadline]; requests in flight
   then are waited for and counted. *)
let closed_loop conns ~deadline ~next ~on_reply =
  let n = Array.length conns in
  let sent_at = Array.make n Float.nan in
  let issue i =
    if now () < deadline then
      match next i with
      | Some line ->
          send conns.(i) line;
          sent_at.(i) <- now ()
      | None -> ()
  in
  for i = 0 to n - 1 do
    issue i
  done;
  let in_flight () = List.filter (fun i -> not (Float.is_nan sent_at.(i))) (List.init n Fun.id) in
  let rec loop () =
    match in_flight () with
    | [] -> ()
    | busy ->
        let fds = List.map (fun i -> conns.(i).fd) busy in
        let ready, _, _ = Unix.select fds [] [] reply_timeout_s in
        let arrived = now () in
        if ready = [] then failwith "no reply within the timeout";
        List.iter
          (fun i ->
            let c = conns.(i) in
            if List.mem c.fd ready then begin
              fill c;
              if not (Queue.is_empty c.lines) then begin
                let line = Queue.pop c.lines in
                let lat = arrived -. sent_at.(i) in
                sent_at.(i) <- Float.nan;
                on_reply i line lat;
                issue i
              end
            end)
          busy;
        loop ()
  in
  loop ()
