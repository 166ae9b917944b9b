(* The request and edit streams the served workloads send, as exact
   wire lines.  Both are pure functions of the benchmark seed, so a
   seed reproduces a byte-identical stream.

   The wire protocol names a circuit, not a netlist, so serve_tiny's
   seed can only set request identity: every request is the same tiny
   netflow flow.  ECO batches draw their edits (1-3 of move / shift /
   retarget; no period edits, which drop every cache) from a generator
   seeded per session. *)

module Json = Rc_util.Json
module Rng = Rc_util.Rng

let tiny_flow_line ~seed i =
  Json.to_line
    (Json.Obj
       [
         ("id", Json.String (Printf.sprintf "%d-%d" seed i));
         ("op", Json.String "flow");
         ("bench", Json.String "tiny");
         ("mode", Json.String "netflow");
       ])

let eco_bench = "s9234"

let session_open_line ~id =
  Json.to_line
    (Json.Obj
       [
         ("id", Json.String id);
         ("op", Json.String "session_open");
         ("bench", Json.String eco_bench);
         ("mode", Json.String "netflow");
       ])

let session_close_line ~id ~sid =
  Json.to_line
    (Json.Obj
       [ ("id", Json.String id); ("op", Json.String "session_close"); ("session", Json.Int sid) ])

(* what the edit generator needs to know about a session's design,
   read from the session_open response *)
type geom = {
  n_cells : int;
  n_ffs : int;
  n_rings : int;
  xmin : float;
  ymin : float;
  xmax : float;
  ymax : float;
}

let edit rng g =
  let w = g.xmax -. g.xmin and h = g.ymax -. g.ymin in
  match Rng.int rng 3 with
  | 0 ->
      Json.Obj
        [
          ("kind", Json.String "move");
          ("cell", Json.Int (Rng.int rng g.n_cells));
          ("x", Json.Float (g.xmin +. Rng.float rng w));
          ("y", Json.Float (g.ymin +. Rng.float rng h));
        ]
  | 1 ->
      let bx = g.xmin +. Rng.float rng (0.8 *. w) and by = g.ymin +. Rng.float rng (0.8 *. h) in
      Json.Obj
        [
          ("kind", Json.String "shift");
          ("xmin", Json.Float bx);
          ("ymin", Json.Float by);
          ("xmax", Json.Float (bx +. (0.2 *. w)));
          ("ymax", Json.Float (by +. (0.2 *. h)));
          ("dx", Json.Float (Rng.float_in rng (-0.02) 0.02 *. w));
          ("dy", Json.Float (Rng.float_in rng (-0.02) 0.02 *. h));
        ]
  | _ ->
      Json.Obj
        [
          ("kind", Json.String "retarget");
          ("ff", Json.Int (Rng.int rng g.n_ffs));
          ("ring", Json.Int (Rng.int rng g.n_rings));
        ]

(* one generator per (seed, session): sessions of a run get distinct
   streams, and a session's stream does not depend on how many
   batches its siblings managed *)
let edit_rng ~seed ~session = Rng.create ((seed * 1_000_003) + session)

let edit_line rng g ~id ~sid =
  let n = Rng.int_in rng 1 3 in
  Json.to_line
    (Json.Obj
       [
         ("id", Json.String id);
         ("op", Json.String "session_edit");
         ("session", Json.Int sid);
         ("edits", Json.List (List.init n (fun _ -> edit rng g)));
       ])
