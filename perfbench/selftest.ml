(* Self-tests of the benchmark's own code: order statistics, seeded
   stream reproducibility, and the declared metric set against
   BENCHMARK.json (path given as the first argument). *)

open Perfbench_lib
module Json = Rc_util.Json

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end
  else Printf.printf "ok   %s\n" name

let close a b = Float.abs (a -. b) < 1e-12

let stats () =
  check "median of odd sample" (close (Stats.median [| 3.; 1.; 2. |]) 2.0);
  check "median of even sample" (close (Stats.median [| 4.; 1.; 3.; 2. |]) 2.5);
  check "median of one" (close (Stats.median [| 7. |]) 7.0);
  let ten = Array.init 10 (fun i -> float_of_int (i + 1)) in
  check "p90 interpolates" (close (Stats.percentile ten 90.0) 9.1);
  check "p0 is the minimum" (close (Stats.percentile ten 0.0) 1.0);
  check "p100 is the maximum" (close (Stats.percentile ten 100.0) 10.0);
  check "p25 of 1..10" (close (Stats.percentile ten 25.0) 3.25);
  check "input left unsorted" (ten.(0) = 1.0 && ten.(9) = 10.0);
  check "empty sample rejected"
    (match Stats.median [||] with _ -> false | exception Invalid_argument _ -> true)

let geom =
  { Streams.n_cells = 1645; n_ffs = 135; n_rings = 16; xmin = 0.; ymin = 0.; xmax = 2400.; ymax = 2400. }

let edit_stream ~seed ~session n =
  let rng = Streams.edit_rng ~seed ~session in
  String.concat "\n" (List.init n (fun i -> Streams.edit_line rng geom ~id:(string_of_int i) ~sid:3))

let flow_stream ~seed n = String.concat "\n" (List.init n (fun i -> Streams.tiny_flow_line ~seed i))

let streams () =
  check "same seed, same edit stream" (edit_stream ~seed:7 ~session:0 200 = edit_stream ~seed:7 ~session:0 200);
  check "other seed, other edit stream" (edit_stream ~seed:7 ~session:0 200 <> edit_stream ~seed:8 ~session:0 200);
  check "other session, other edit stream" (edit_stream ~seed:7 ~session:0 200 <> edit_stream ~seed:7 ~session:1 200);
  check "same seed, same request stream" (flow_stream ~seed:7 100 = flow_stream ~seed:7 100);
  check "other seed, other request stream" (flow_stream ~seed:7 100 <> flow_stream ~seed:8 100);
  (* every generated edit is accepted by the server's own parser *)
  let rng = Streams.edit_rng ~seed:11 ~session:0 in
  check "edit batches parse as session_edit with 1-3 edits"
    (List.for_all
       (fun i ->
         match Rc_serve.Protocol.parse_request (Streams.edit_line rng geom ~id:(string_of_int i) ~sid:3) with
         | Ok { Rc_serve.Protocol.op = Rc_serve.Protocol.Session_edit_op se; _ } ->
             let n = List.length se.Rc_serve.Protocol.se_edits in
             n >= 1 && n <= 3
         | _ -> false)
       (List.init 300 Fun.id))

let declared path =
  let j = Json.of_string_exn (In_channel.with_open_bin path In_channel.input_all) in
  let list key = Option.value ~default:[] (Option.bind (Json.member key j) Json.to_list_opt) in
  let pairs key =
    List.sort compare
      (List.map
         (fun m ->
           ( Option.get (Option.bind (Json.member "name" m) Json.to_string_opt),
             Option.get (Option.bind (Json.member "unit" m) Json.to_string_opt) ))
         (list key))
  in
  check "end_to_end metrics match BENCHMARK.json" (pairs "end_to_end" = List.sort compare Decl.end_to_end);
  check "per_layer metrics match BENCHMARK.json" (pairs "per_layer" = List.sort compare Decl.per_layer);
  check "workloads match BENCHMARK.json"
    (List.sort compare
       (List.map (fun w -> Option.get (Option.bind (Json.member "name" w) Json.to_string_opt)) (list "workloads"))
    = List.sort compare Decl.workloads);
  let rows = List.map (fun (n, _) -> (n, 1.0)) Decl.end_to_end in
  check "result line carries every declared metric"
    (match Json.of_string (Decl.result_line ~attempted:1 ~failed:0 ~trace:false rows) with
    | Ok r ->
        let m = Option.get (Json.member "metrics" r) in
        List.for_all (fun (n, _) -> Json.member n m <> None) Decl.end_to_end
    | Error _ -> false);
  check "result line refuses a missing metric"
    (match Decl.result_line ~attempted:1 ~failed:0 ~trace:false (List.tl rows) with
    | _ -> false
    | exception Failure _ -> true);
  check "result line refuses an undeclared metric"
    (match Decl.result_line ~attempted:1 ~failed:0 ~trace:true (("extra", 1.0) :: rows) with
    | _ -> false
    | exception Failure _ -> true)

let () =
  stats ();
  streams ();
  declared Sys.argv.(1);
  if !failures > 0 then exit 1
