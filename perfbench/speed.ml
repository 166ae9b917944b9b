(* Host speed, measured by a fixed probe run between the operations it
   rescales.

   The reference host is a shared VM on which the program's code runs up
   to ~50% slower in phases lasting seconds to minutes, while a pure ALU
   loop barely moves.  Tiny, s9234 and s15850 flows all slow by the same
   share, so the median flow time of a 40 s run measures the phase mix
   more than the program.  The probe builds and folds integer maps, so it
   allocates, promotes and chases pointers as the program's OCaml code
   does, and it slows in the same phases by the same share.  An
   operation's time times [reference_s] / (mean of the probe times just
   before and just after it) is its time at the reference host's usual
   speed; a change to the program moves it one for one, since the probe
   is the benchmark's own code.

   Measured on the reference host, 552 flows cycling over 8 netlists for
   508 s, in 40 s windows: the spread (IQR / median) of the windows'
   flow times fell from 18.6% raw to 2.3% rescaled, their range from 54%
   to 7%.  Random walks over 1-32 MiB buffers tracked the phases less
   well (3.2-4.3%, ranges to 17%), an ALU loop not at all. *)

module M = Map.Make (Int)

let rounds = 3
let keys = 20_000

(* the probe's time in the faster phases of the reference host (2-vCPU
   Xeon VM); slow phases read 0.025-0.035 s *)
let reference_s = 0.020

type t = { mutable last : float; mutable times : float list }

let walk () =
  let t0 = Rc_util.Timer.now_s () in
  let sum = ref 0 in
  for r = 1 to rounds do
    let m = ref M.empty in
    for i = 1 to keys do
      m := M.add (((i * 7919) + r) land 0xffff) i !m
    done;
    sum := M.fold (fun _ v a -> a + v) !m !sum
  done;
  ignore (Sys.opaque_identity !sum);
  Rc_util.Timer.now_s () -. t0

let sample t =
  let s = walk () in
  t.last <- s;
  t.times <- s :: t.times;
  s

(* the first walk only warms the code and heap and is not kept *)
let create () =
  ignore (walk ());
  let t = { last = 0.0; times = [] } in
  ignore (sample t);
  t

(* [around t f] runs [f] and then the probe, and returns [f]'s result
   with the factor that rescales times measured in [f] to reference
   speed *)
let around t f =
  let before = t.last in
  let r = f () in
  let after = sample t in
  (r, reference_s /. ((before +. after) /. 2.0))

let median_probe_s t = Stats.median (Array.of_list t.times)
