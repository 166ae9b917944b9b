open Rc_geom
open Rc_netlist

type pseudo_net = { cell : int; anchor : Point.t; weight : float }

type result = {
  positions : Point.t array;
  hpwl : float;
  solver_iterations : int;
}

(* ---- quadratic system assembly ------------------------------------- *)

type system = {
  movable : int array;  (* movable cell ids *)
  index : int array;  (* cell id -> movable index or -1 *)
  matrix : Rc_sparse.Csr.t;
  rhs_x : float array;
  rhs_y : float array;
}

let center_anchor_weight = 1e-6

let m_template_builds = Rc_obs.Metrics.counter "place.template_builds"
let m_tie_nodes = Rc_obs.Metrics.counter "place.spread_tie_nodes"

(* growable parallel entry buffer of (i, j, v) triplets *)
type ebuf = {
  mutable ei : int array;
  mutable ej : int array;
  mutable ev : float array;
  mutable en : int;
}

let ebuf_create () = { ei = Array.make 1024 0; ej = Array.make 1024 0; ev = Array.make 1024 0.0; en = 0 }

let ebuf_push b i j v =
  if b.en = Array.length b.ei then begin
    let c = 2 * b.en in
    let gi = Array.make c 0 and gj = Array.make c 0 and gv = Array.make c 0.0 in
    Array.blit b.ei 0 gi 0 b.en;
    Array.blit b.ej 0 gj 0 b.en;
    Array.blit b.ev 0 gv 0 b.en;
    b.ei <- gi;
    b.ej <- gj;
    b.ev <- gv
  end;
  b.ei.(b.en) <- i;
  b.ej.(b.en) <- j;
  b.ev.(b.en) <- v;
  b.en <- b.en + 1

let movable_index netlist =
  let n = Netlist.n_cells netlist in
  let index = Array.make n (-1) in
  let m = ref 0 in
  for c = 0 to n - 1 do
    if Netlist.movable netlist c then incr m
  done;
  let movable = Array.make !m 0 in
  let i = ref 0 in
  for c = 0 to n - 1 do
    if Netlist.movable netlist c then begin
      movable.(!i) <- c;
      index.(c) <- !i;
      incr i
    end
  done;
  (movable, index)

(* A system's spring-independent part, assembled once.  A system is the
   pushes: connectivity (pair and pad terms, in net order), then one
   anchor term per row, then the springs.  Springs touch only the
   diagonal and the right-hand side, so [structure]'s off-diagonal
   values are final.  Csr.of_entries sums a diagonal's pushes in reverse
   push order (springs last to first, the anchor, connectivity last to
   first); [assemble_system] replays exactly that order from [conn_w],
   so its matrix is bit for bit the one of_entries builds from the full
   push list.  The right-hand side starts from the pad and anchor sums
   and adds spring terms in push order, as the pushes did. *)
type template = {
  t_movable : int array;
  t_index : int array;  (* cell id -> row or -1 *)
  structure : Rc_sparse.Csr.t;  (* diagonal slots are overwritten per assembly *)
  diag_slot : int array;  (* row -> slot of (i, i) in [structure] *)
  anchor : float array;  (* row -> anchor weight *)
  conn_ptr : int array;  (* row -> its connectivity diagonal terms in [conn_w] *)
  conn_w : float array;  (* grouped by row, push order within a row *)
  rhs_x0 : float array;
  rhs_y0 : float array;
}

(* [pairs] holds the off-diagonal pushes, [terms] the connectivity
   diagonal pushes (i, i, w), each in push order *)
let make_template ~movable ~index ~pairs ~terms ~anchor ~rhs_x0 ~rhs_y0 =
  let m = Array.length anchor in
  (* one placeholder per row keeps every diagonal slot in the structure *)
  for i = 0 to m - 1 do
    ebuf_push pairs i i 1.0
  done;
  let structure = Rc_sparse.Csr.of_entries ~rows:m ~cols:m ~len:pairs.en pairs.ei pairs.ej pairs.ev in
  let conn_ptr = Array.make (m + 1) 0 in
  for k = 0 to terms.en - 1 do
    conn_ptr.(terms.ei.(k) + 1) <- conn_ptr.(terms.ei.(k) + 1) + 1
  done;
  for i = 1 to m do
    conn_ptr.(i) <- conn_ptr.(i) + conn_ptr.(i - 1)
  done;
  let conn_w = Array.make terms.en 0.0 and fill = Array.sub conn_ptr 0 m in
  for k = 0 to terms.en - 1 do
    let i = terms.ei.(k) in
    conn_w.(fill.(i)) <- terms.ev.(k);
    fill.(i) <- fill.(i) + 1
  done;
  Rc_obs.Metrics.incr m_template_builds;
  {
    t_movable = movable;
    t_index = index;
    structure;
    diag_slot = Array.init m (fun i -> Rc_sparse.Csr.slot structure i i);
    anchor;
    conn_ptr;
    conn_w;
    rhs_x0;
    rhs_y0;
  }

(* star model over every net: each sink ties to the driver with weight
   2/k; pads are fixed anchors; the die centre is every row's (very
   weak) regularising anchor *)
let template netlist ~chip =
  let movable, index = movable_index netlist in
  let m = Array.length movable in
  let pairs = ebuf_create () and terms = ebuf_create () in
  let rhs_x0 = Array.make m 0.0 and rhs_y0 = Array.make m 0.0 in
  let add_fixed i w (p : Point.t) =
    ebuf_push terms i i w;
    rhs_x0.(i) <- rhs_x0.(i) +. (w *. p.Point.x);
    rhs_y0.(i) <- rhs_y0.(i) +. (w *. p.Point.y)
  in
  let connect a b w =
    match (index.(a), index.(b)) with
    | -1, -1 -> ()
    | ia, -1 -> add_fixed ia w (Netlist.pad_position netlist b)
    | -1, ib -> add_fixed ib w (Netlist.pad_position netlist a)
    | ia, ib ->
        if ia <> ib then begin
          ebuf_push terms ia ia w;
          ebuf_push terms ib ib w;
          ebuf_push pairs ia ib (-.w);
          ebuf_push pairs ib ia (-.w)
        end
  in
  Netlist.iter_nets netlist (fun _ net ->
      let k = 1 + Array.length net.sinks in
      let w = 2.0 /. float_of_int k in
      Array.iter (fun s -> connect net.driver s w) net.sinks);
  let c = Rect.center chip in
  for i = 0 to m - 1 do
    rhs_x0.(i) <- rhs_x0.(i) +. (center_anchor_weight *. c.Point.x);
    rhs_y0.(i) <- rhs_y0.(i) +. (center_anchor_weight *. c.Point.y)
  done;
  make_template ~movable ~index ~pairs ~terms ~anchor:(Array.make m center_anchor_weight)
    ~rhs_x0 ~rhs_y0

type springs = { cells : int array; sx : float array; sy : float array; sw : float array }

let uniform_springs cells ~sx ~sy w = { cells; sx; sy; sw = Array.make (Array.length cells) w }

(* O(nnz + springs): copy the template's values, group the spring
   weights by row (stable), and rebuild each diagonal in of_entries'
   summation order *)
let assemble_system t groups =
  let m = Array.length t.anchor in
  let start = Array.make (m + 1) 0 in
  List.iter
    (fun s ->
      Array.iter
        (fun c ->
          let r = t.t_index.(c) in
          if r >= 0 then start.(r + 1) <- start.(r + 1) + 1)
        s.cells)
    groups;
  for i = 1 to m do
    start.(i) <- start.(i) + start.(i - 1)
  done;
  let ws = Array.make start.(m) 0.0 and fill = Array.sub start 0 m in
  let rhs_x = Array.copy t.rhs_x0 and rhs_y = Array.copy t.rhs_y0 in
  List.iter
    (fun s ->
      Array.iteri
        (fun k c ->
          let r = t.t_index.(c) in
          if r >= 0 then begin
            let w = s.sw.(k) in
            ws.(fill.(r)) <- w;
            fill.(r) <- fill.(r) + 1;
            rhs_x.(r) <- rhs_x.(r) +. (w *. s.sx.(k));
            rhs_y.(r) <- rhs_y.(r) +. (w *. s.sy.(k))
          end)
        s.cells)
    groups;
  let template_values = Rc_sparse.Csr.values t.structure in
  let values = Rc_sparse.Vec.create (Rc_sparse.Vec.length template_values) in
  Rc_sparse.Vec.blit template_values values;
  for r = 0 to m - 1 do
    let lo = start.(r) and hi = start.(r + 1) in
    let acc = ref (if hi > lo then ws.(hi - 1) else t.anchor.(r)) in
    if hi > lo then begin
      for k = hi - 2 downto lo do
        acc := !acc +. ws.(k)
      done;
      acc := !acc +. t.anchor.(r)
    end;
    for k = t.conn_ptr.(r + 1) - 1 downto t.conn_ptr.(r) do
      acc := !acc +. t.conn_w.(k)
    done;
    values.{t.diag_slot.(r)} <- !acc
  done;
  {
    movable = t.t_movable;
    index = t.t_index;
    matrix = Rc_sparse.Csr.with_values t.structure values;
    rhs_x;
    rhs_y;
  }

let assemble t groups =
  let sys = assemble_system t groups in
  (sys.matrix, sys.rhs_x, sys.rhs_y)

(* The x and y systems share the matrix but are otherwise independent —
   the flow's first hot kernel.  With jobs > 1 the two CG solves run on
   two domains (each on its own workspace); each solve is sequential
   internally, so the results are bit-identical to the one-domain path.
   Below ~512 unknowns one CG solve finishes faster than the pool
   region starts, so small systems stay in the calling domain. *)
let solve_system ?wsx ?wsy ?x0 ?y0 sys =
  let rx, ry =
    Rc_par.Pool.both
      ~parallel:(Array.length sys.rhs_x >= 512)
      (fun () -> Rc_sparse.Cg.solve ?ws:wsx ?x0 ~tol:1e-7 sys.matrix sys.rhs_x)
      (fun () -> Rc_sparse.Cg.solve ?ws:wsy ?x0:y0 ~tol:1e-7 sys.matrix sys.rhs_y)
  in
  (rx.Rc_sparse.Cg.x, ry.Rc_sparse.Cg.x, rx.Rc_sparse.Cg.iterations + ry.Rc_sparse.Cg.iterations)

let assemble_positions netlist sys xs ys =
  let n = Netlist.n_cells netlist in
  Array.init n (fun c ->
      if sys.index.(c) >= 0 then Point.make xs.(sys.index.(c)) ys.(sys.index.(c))
      else Netlist.pad_position netlist c)

(* ---- recursive-bisection spreading targets -------------------------- *)

(* Each node sorts its members along its axis with Array.sort and
   halves them; leaves of one or two draw jittered targets in their
   node's order.  Array.sort is not stable, so the order of tied keys,
   and with it the leaves' RNG draws, depends on the node's input order.
   Instead of sorting at every node, the members are kept in two
   presorted lists (by x, by y) that are stably partitioned into the two
   halves.  A node whose keys are strictly increasing along its presorted
   list has exactly one ascending order, which is therefore what
   Array.sort returns; only a node with tied (or NaN) keys sorts its
   current order the old way. *)
let spreading_targets rng chip (xs : float array) (ys : float array) =
  let m = Array.length xs in
  let tx = Array.make m 0.0 and ty = Array.make m 0.0 in
  (* indices into the movable arrays *)
  let idx = Array.init m Fun.id in
  let presorted (keys : float array) =
    let p = Array.init m Fun.id in
    Array.stable_sort (fun a b -> Float.compare keys.(a) keys.(b)) p;
    p
  in
  (* over a node's range, its members in ascending x / y order *)
  let px = presorted xs and py = presorted ys in
  let is_left = Bytes.create m and spill = Array.make m 0 in
  let partition p lo hi =
    let l = ref lo and r = ref 0 in
    for k = lo to hi - 1 do
      let e = p.(k) in
      if Bytes.get is_left e = '\001' then begin
        p.(!l) <- e;
        incr l
      end
      else begin
        spill.(!r) <- e;
        incr r
      end
    done;
    Array.blit spill 0 p !l !r
  in
  let strictly_increasing (keys : float array) p lo hi =
    let k = ref (lo + 1) in
    while !k < hi && keys.(p.(!k - 1)) < keys.(p.(!k)) do
      incr k
    done;
    !k >= hi
  in
  let rec go (region : Rect.t) lo hi horizontal =
    let count = hi - lo in
    if count <= 2 then
      for k = lo to hi - 1 do
        let jx = Rc_util.Rng.float_in rng 0.3 0.7 and jy = Rc_util.Rng.float_in rng 0.3 0.7 in
        tx.(idx.(k)) <- region.Rect.xmin +. (jx *. Rect.width region);
        ty.(idx.(k)) <- region.Rect.ymin +. (jy *. Rect.height region)
      done
    else begin
      let keys = if horizontal then xs else ys and p = if horizontal then px else py in
      if strictly_increasing keys p lo hi then Array.blit p lo idx lo count
      else begin
        Rc_obs.Metrics.incr m_tie_nodes;
        let sub = Array.sub idx lo count in
        Array.sort (fun a b -> compare keys.(a) keys.(b)) sub;
        Array.blit sub 0 idx lo count
      end;
      let mid = lo + (count / 2) in
      for k = lo to hi - 1 do
        Bytes.set is_left idx.(k) (if k < mid then '\001' else '\000')
      done;
      partition px lo hi;
      partition py lo hi;
      let frac = float_of_int (mid - lo) /. float_of_int count in
      if horizontal then begin
        let split = region.Rect.xmin +. (frac *. Rect.width region) in
        go (Rect.make ~xmin:region.Rect.xmin ~ymin:region.Rect.ymin ~xmax:split
              ~ymax:region.Rect.ymax) lo mid (not horizontal);
        go (Rect.make ~xmin:split ~ymin:region.Rect.ymin ~xmax:region.Rect.xmax
              ~ymax:region.Rect.ymax) mid hi (not horizontal)
      end
      else begin
        let split = region.Rect.ymin +. (frac *. Rect.height region) in
        go (Rect.make ~xmin:region.Rect.xmin ~ymin:region.Rect.ymin ~xmax:region.Rect.xmax
              ~ymax:split) lo mid (not horizontal);
        go (Rect.make ~xmin:region.Rect.xmin ~ymin:split ~xmax:region.Rect.xmax
              ~ymax:region.Rect.ymax) mid hi (not horizontal)
      end
    end
  in
  go chip 0 m (Rect.width chip >= Rect.height chip);
  (tx, ty)

(* ---- legalization ---------------------------------------------------- *)

let legalize netlist ~chip ~site positions =
  if site <= 0.0 then invalid_arg "Qplace.legalize: non-positive site pitch";
  let nx = max 1 (int_of_float (Rect.width chip /. site)) in
  let ny = max 1 (int_of_float (Rect.height chip /. site)) in
  let occupied = Hashtbl.create 1024 in
  let site_center ix iy =
    Point.make
      (chip.Rect.xmin +. ((float_of_int ix +. 0.5) *. site))
      (chip.Rect.ymin +. ((float_of_int iy +. 0.5) *. site))
  in
  let clamp v lo hi = max lo (min hi v) in
  let out = Array.copy positions in
  let n = Netlist.n_cells netlist in
  for c = 0 to n - 1 do
    if Netlist.movable netlist c then begin
      let p = positions.(c) in
      let ix0 = clamp (int_of_float ((p.Point.x -. chip.Rect.xmin) /. site)) 0 (nx - 1) in
      let iy0 = clamp (int_of_float ((p.Point.y -. chip.Rect.ymin) /. site)) 0 (ny - 1) in
      (* spiral outward over Chebyshev rings until a free in-bounds site *)
      let placed = ref false and r = ref 0 in
      while not !placed do
        let best = ref None in
        let consider ix iy =
          if ix >= 0 && ix < nx && iy >= 0 && iy < ny && not (Hashtbl.mem occupied (ix, iy))
          then begin
            let d = Point.manhattan p (site_center ix iy) in
            match !best with
            | Some (bd, _, _) when bd <= d -> ()
            | _ -> best := Some (d, ix, iy)
          end
        in
        if !r = 0 then consider ix0 iy0
        else begin
          for dx = - !r to !r do
            consider (ix0 + dx) (iy0 - !r);
            consider (ix0 + dx) (iy0 + !r)
          done;
          for dy = - !r + 1 to !r - 1 do
            consider (ix0 - !r) (iy0 + dy);
            consider (ix0 + !r) (iy0 + dy)
          done
        end;
        (match !best with
        | Some (_, ix, iy) ->
            Hashtbl.replace occupied (ix, iy) ();
            out.(c) <- site_center ix iy;
            placed := true
        | None ->
            incr r;
            if !r > nx + ny then failwith "Qplace.legalize: no free site found")
      done
    end
  done;
  out

(* ---- multilevel V-cycle (mPL-style clustered placement) -------------- *)

(* Above this many movable cells [initial] switches from the flat
   solve-and-spread schedule to the V-cycle below; every Table II
   circuit sits far under it, so the paper path stays bit-identical. *)
let multilevel_threshold = 50_000

(* stop coarsening once a level is this small: CG is cheap there and
   the bisection spreading still has room to work.  Scaled down for
   circuits (or tests) that enter the V-cycle near the threshold, so
   they still see a real cluster hierarchy. *)
let coarse_target m = max 2_000 (min 12_000 (m / 8))

(* A placement level: the star-model connectivity graph over movable
   vertices plus per-vertex fixed-anchor accumulators (pad connections,
   center regularization).  Fixed anchors are stored pre-multiplied
   (Σw, Σw·x, Σw·y) so coarsening them is pure accumulation. *)
type mgraph = {
  gm : int;  (* vertices *)
  ges : int array;  (* undirected edge endpoints, one slot per edge *)
  ged : int array;
  gew : float array;
  gne : int;
  gfw : float array;  (* per-vertex Σ anchor weight *)
  gfx : float array;  (* per-vertex Σ weight · anchor.x *)
  gfy : float array;
}

let mgraph_of_netlist netlist ~chip ~index ~m =
  let buf = ebuf_create () in
  let gfw = Array.make m 0.0 and gfx = Array.make m 0.0 and gfy = Array.make m 0.0 in
  let fixed i w (p : Point.t) =
    gfw.(i) <- gfw.(i) +. w;
    gfx.(i) <- gfx.(i) +. (w *. p.Point.x);
    gfy.(i) <- gfy.(i) +. (w *. p.Point.y)
  in
  let connect a b w =
    match (index.(a), index.(b)) with
    | -1, -1 -> ()
    | ia, -1 -> fixed ia w (Netlist.pad_position netlist b)
    | -1, ib -> fixed ib w (Netlist.pad_position netlist a)
    | ia, ib -> if ia <> ib then ebuf_push buf ia ib w
  in
  Netlist.iter_nets netlist (fun _ net ->
      let k = 1 + Array.length net.sinks in
      let w = 2.0 /. float_of_int k in
      Array.iter (fun s -> connect net.driver s w) net.sinks);
  let c = Rect.center chip in
  for i = 0 to m - 1 do
    fixed i center_anchor_weight c
  done;
  { gm = m; ges = buf.ei; ged = buf.ej; gew = buf.ev; gne = buf.en; gfw; gfx; gfy }

(* the quadratic system template of one level: the edges are its pair
   terms and each vertex's accumulated fixed anchor is its row's anchor
   term (a spreading spring adds to that anchor commutatively, so
   alpha + Σw is the old single push Σw + alpha) *)
let template_of_mgraph g =
  let pairs = ebuf_create () and terms = ebuf_create () in
  for e = 0 to g.gne - 1 do
    let i = g.ges.(e) and j = g.ged.(e) and w = g.gew.(e) in
    ebuf_push terms i i w;
    ebuf_push terms j j w;
    ebuf_push pairs i j (-.w);
    ebuf_push pairs j i (-.w)
  done;
  let ids = Array.init g.gm Fun.id in
  make_template ~movable:ids ~index:ids ~pairs ~terms ~anchor:g.gfw ~rhs_x0:g.gfx
    ~rhs_y0:g.gfy

(* one level of first-choice / heavy-edge coarsening: match each vertex
   (in index order) to its heaviest still-unmatched neighbor, merge the
   pairs, remap edges and accumulate anchors.  Cross-cluster multi-edges
   are merged by a keyed sort so every level's graph stays canonical. *)
let coarsen g =
  let m = g.gm in
  (* adjacency CSR over both edge directions *)
  let ptr = Array.make (m + 1) 0 in
  for e = 0 to g.gne - 1 do
    ptr.(g.ges.(e) + 1) <- ptr.(g.ges.(e) + 1) + 1;
    ptr.(g.ged.(e) + 1) <- ptr.(g.ged.(e) + 1) + 1
  done;
  for i = 1 to m do
    ptr.(i) <- ptr.(i) + ptr.(i - 1)
  done;
  let adj_v = Array.make (2 * g.gne) 0 and adj_w = Array.make (2 * g.gne) 0.0 in
  let cursor = Array.copy ptr in
  for e = 0 to g.gne - 1 do
    let u = g.ges.(e) and v = g.ged.(e) and w = g.gew.(e) in
    adj_v.(cursor.(u)) <- v;
    adj_w.(cursor.(u)) <- w;
    cursor.(u) <- cursor.(u) + 1;
    adj_v.(cursor.(v)) <- u;
    adj_w.(cursor.(v)) <- w;
    cursor.(v) <- cursor.(v) + 1
  done;
  let mate = Array.make m (-1) in
  for v = 0 to m - 1 do
    if mate.(v) < 0 then begin
      let best = ref (-1) and best_w = ref neg_infinity in
      for k = ptr.(v) to ptr.(v + 1) - 1 do
        let u = adj_v.(k) in
        if u <> v && mate.(u) < 0 && adj_w.(k) > !best_w then begin
          best := u;
          best_w := adj_w.(k)
        end
      done;
      if !best >= 0 then begin
        mate.(v) <- !best;
        mate.(!best) <- v
      end
      else mate.(v) <- v
    end
  done;
  let map = Array.make m (-1) in
  let mc = ref 0 in
  for v = 0 to m - 1 do
    if map.(v) < 0 then begin
      map.(v) <- !mc;
      if mate.(v) <> v then map.(mate.(v)) <- !mc;
      incr mc
    end
  done;
  let mc = !mc in
  let gfw = Array.make mc 0.0 and gfx = Array.make mc 0.0 and gfy = Array.make mc 0.0 in
  for v = 0 to m - 1 do
    let c = map.(v) in
    gfw.(c) <- gfw.(c) +. g.gfw.(v);
    gfx.(c) <- gfx.(c) +. g.gfx.(v);
    gfy.(c) <- gfy.(c) +. g.gfy.(v)
  done;
  (* surviving cross-cluster edges, normalized u < v and keyed for the
     duplicate merge *)
  let keep = Array.make g.gne 0 and nkeep = ref 0 in
  for e = 0 to g.gne - 1 do
    if map.(g.ges.(e)) <> map.(g.ged.(e)) then begin
      keep.(!nkeep) <- e;
      incr nkeep
    end
  done;
  let nkeep = !nkeep in
  let perm = Array.sub keep 0 nkeep in
  let key e =
    let u = map.(g.ges.(e)) and v = map.(g.ged.(e)) in
    if u < v then (u * mc) + v else (v * mc) + u
  in
  Array.sort
    (fun a b ->
      let c = compare (key a) (key b) in
      if c <> 0 then c else compare a b)
    perm;
  let ces = Array.make nkeep 0 and ced = Array.make nkeep 0 and cew = Array.make nkeep 0.0 in
  let out = ref 0 and k = ref 0 in
  while !k < nkeep do
    let ka = key perm.(!k) in
    let acc = ref g.gew.(perm.(!k)) in
    incr k;
    while !k < nkeep && key perm.(!k) = ka do
      acc := !acc +. g.gew.(perm.(!k));
      incr k
    done;
    ces.(!out) <- ka / mc;
    ced.(!out) <- ka mod mc;
    cew.(!out) <- !acc;
    incr out
  done;
  (map, { gm = mc; ges = ces; ged = ced; gew = cew; gne = !out; gfw; gfx; gfy })

(* the V-cycle: coarsen to [coarse_target], solve and spread there, then
   interpolate down the chain with one warm-started spreading relaxation
   per level (two at the finest, ending on the flat schedule's final
   anchor strength 0.01·2⁵) *)
let initial_multilevel ~seed netlist ~chip =
  let rng = Rc_util.Rng.create seed in
  let movable, index = movable_index netlist in
  let m = Array.length movable in
  let g0 = mgraph_of_netlist netlist ~chip ~index ~m in
  let coarse_target = coarse_target m in
  let rec chain acc g =
    if g.gm <= coarse_target then (acc, g)
    else
      let map, gc = coarsen g in
      (* a stalled level (under 10% reduction) would only add cost *)
      if gc.gm * 10 >= g.gm * 9 then (acc, g) else chain ((g, map) :: acc) gc
  in
  let levels, coarsest = chain [] g0 in
  let iters = ref 0 in
  let xs = ref [||] and ys = ref [||] in
  Rc_par.Pool.region (fun () ->
      let relax t ~wsx ~wsy ~springs ~warm =
        let x0, y0 = if warm then (Some !xs, Some !ys) else (None, None) in
        let x, y, it = solve_system ~wsx ~wsy ?x0 ?y0 (assemble_system t springs) in
        iters := !iters + it;
        xs := x;
        ys := y
      in
      let spread t ~wsx ~wsy alpha =
        let sx, sy = spreading_targets rng chip !xs !ys in
        relax t ~wsx ~wsy ~springs:[ uniform_springs t.t_movable ~sx ~sy alpha ] ~warm:true
      in
      (* coarsest level: cold connectivity solve + early spreading *)
      let t = template_of_mgraph coarsest in
      let wsx = Rc_sparse.Cg.workspace coarsest.gm
      and wsy = Rc_sparse.Cg.workspace coarsest.gm in
      relax t ~wsx ~wsy ~springs:[] ~warm:false;
      List.iter (spread t ~wsx ~wsy) [ 0.02; 0.04 ];
      (* refinement sweep, finest level last *)
      List.iter
        (fun (g, map) ->
          let xf = Array.make g.gm 0.0 and yf = Array.make g.gm 0.0 in
          for i = 0 to g.gm - 1 do
            xf.(i) <- !xs.(map.(i));
            yf.(i) <- !ys.(map.(i))
          done;
          xs := xf;
          ys := yf;
          let t = template_of_mgraph g in
          let wsx = Rc_sparse.Cg.workspace g.gm and wsy = Rc_sparse.Cg.workspace g.gm in
          List.iter (spread t ~wsx ~wsy) (if g == g0 then [ 0.16; 0.32 ] else [ 0.08 ]))
        levels);
  let n = Netlist.n_cells netlist in
  let spread =
    Array.init n (fun c ->
        if index.(c) >= 0 then Point.make !xs.(index.(c)) !ys.(index.(c))
        else Netlist.pad_position netlist c)
  in
  let legal = legalize netlist ~chip ~site:10.0 spread in
  { positions = legal; hpwl = Wirelength.total netlist legal; solver_iterations = !iters }

(* ---- top-level entry points ------------------------------------------ *)

(* a caller-held template (the flow keeps one per netlist) or a fresh one *)
let template_for ?template:held netlist ~chip =
  match held with
  | None -> template netlist ~chip
  | Some t ->
      if Array.length t.t_index <> Netlist.n_cells netlist then
        invalid_arg "Qplace: template built for another netlist";
      t

let initial_flat ?template ~seed ~spread_rounds netlist ~chip =
  let rng = Rc_util.Rng.create seed in
  let iters = ref 0 in
  let t = template_for ?template netlist ~chip in
  (* pass 1: pure connectivity solve *)
  let sys0 = assemble_system t [] in
  (* every round solves the same-size system: share two CG workspaces
     (one per axis — the solves run concurrently) across all rounds *)
  let m = Array.length sys0.movable in
  let wsx = Rc_sparse.Cg.workspace m and wsy = Rc_sparse.Cg.workspace m in
  let xs = ref [||] and ys = ref [||] in
  (* one batch region for the whole spreading stage: every round's x/y
     solve pair publishes a sub-job to the captive workers instead of
     waking the pool per solve *)
  Rc_par.Pool.region (fun () ->
      let x0, y0, it0 = solve_system ~wsx ~wsy sys0 in
      xs := x0;
      ys := y0;
      iters := !iters + it0;
      (* spreading rounds with growing anchor strength *)
      for round = 1 to spread_rounds do
        let sx, sy = spreading_targets rng chip !xs !ys in
        let alpha = 0.01 *. (2.0 ** float_of_int round) in
        let sys = assemble_system t [ uniform_springs t.t_movable ~sx ~sy alpha ] in
        let x, y, it = solve_system ~wsx ~wsy ~x0:!xs ~y0:!ys sys in
        xs := x;
        ys := y;
        iters := !iters + it
      done);
  let spread = assemble_positions netlist sys0 !xs !ys in
  let legal = legalize netlist ~chip ~site:10.0 spread in
  { positions = legal; hpwl = Wirelength.total netlist legal; solver_iterations = !iters }

(* [initial] keeps the paper circuits (well under the threshold) on the
   flat schedule byte for byte; the scaling suite takes the V-cycle *)
let initial ?(seed = 7) ?(spread_rounds = 5)
    ?(multilevel_threshold = multilevel_threshold) ?template netlist ~chip =
  let n = Netlist.n_cells netlist in
  let m = ref 0 in
  for c = 0 to n - 1 do
    if Netlist.movable netlist c then incr m
  done;
  if !m >= multilevel_threshold then initial_multilevel ~seed netlist ~chip
  else initial_flat ?template ~seed ~spread_rounds netlist ~chip

let incremental ?(stability = 0.004) ?template netlist ~chip ~prev ~pseudo =
  let n = Netlist.n_cells netlist in
  if Array.length prev <> n then invalid_arg "Qplace.incremental: prev length mismatch";
  let rng = Rc_util.Rng.create 23 in
  let t = template_for ?template netlist ~chip in
  let m = Array.length t.t_movable in
  (* stability springs to every movable cell's previous location, then
     the pseudo-nets, in that push order *)
  let x0 = Array.map (fun c -> prev.(c).Point.x) t.t_movable
  and y0 = Array.map (fun c -> prev.(c).Point.y) t.t_movable in
  let pseudo : pseudo_net array = Array.of_list pseudo in
  let base =
    [
      uniform_springs t.t_movable ~sx:x0 ~sy:y0 stability;
      {
        cells = Array.map (fun pn -> pn.cell) pseudo;
        sx = Array.map (fun (pn : pseudo_net) -> pn.anchor.Point.x) pseudo;
        sy = Array.map (fun (pn : pseudo_net) -> pn.anchor.Point.y) pseudo;
        sw = Array.map (fun pn -> pn.weight) pseudo;
      };
    ]
  in
  let sys0 = assemble_system t base in
  let wsx = Rc_sparse.Cg.workspace m and wsy = Rc_sparse.Cg.workspace m in
  let xs = ref x0 and ys = ref y0 and iters = ref 0 in
  (* same batch-region discipline as [initial] *)
  Rc_par.Pool.region (fun () ->
      let x, y, it = solve_system ~wsx ~wsy ~x0:!xs ~y0:!ys sys0 in
      xs := x;
      ys := y;
      iters := !iters + it;
      (* keep the density profile of the initial placement: the same
         bisection-spreading rounds, ending at the strength the initial
         pass ends with (0.01·2⁵), so incremental results stay
         comparable *)
      for round = 3 to 5 do
        let sx, sy = spreading_targets rng chip !xs !ys in
        let alpha = 0.01 *. (2.0 ** float_of_int round) in
        let sys = assemble_system t (base @ [ uniform_springs t.t_movable ~sx ~sy alpha ]) in
        let x, y, it = solve_system ~wsx ~wsy ~x0:!xs ~y0:!ys sys in
        xs := x;
        ys := y;
        iters := !iters + it
      done);
  let spread = assemble_positions netlist sys0 !xs !ys in
  let legal = legalize netlist ~chip ~site:10.0 spread in
  { positions = legal; hpwl = Wirelength.total netlist legal; solver_iterations = !iters }

let relocate netlist ~chip ~site ~prev ~pseudo =
  if site <= 0.0 then invalid_arg "Qplace.relocate: non-positive site pitch";
  let n = Netlist.n_cells netlist in
  if Array.length prev <> n then invalid_arg "Qplace.relocate: prev length mismatch";
  let pos = Array.copy prev in
  let nx = max 1 (int_of_float (Rect.width chip /. site)) in
  let ny = max 1 (int_of_float (Rect.height chip /. site)) in
  let clampi v hi = max 0 (min hi v) in
  let site_of (p : Point.t) =
    ( clampi (int_of_float ((p.Point.x -. chip.Rect.xmin) /. site)) (nx - 1),
      clampi (int_of_float ((p.Point.y -. chip.Rect.ymin) /. site)) (ny - 1) )
  in
  let site_center ix iy =
    Point.make
      (chip.Rect.xmin +. ((float_of_int ix +. 0.5) *. site))
      (chip.Rect.ymin +. ((float_of_int iy +. 0.5) *. site))
  in
  let occ = Hashtbl.create 1024 in
  for c = 0 to n - 1 do
    if Netlist.movable netlist c then Hashtbl.replace occ (site_of pos.(c)) c
  done;
  List.iter
    (fun { cell; anchor; weight } ->
      if cell < 0 || cell >= n || not (Netlist.movable netlist cell) then
        invalid_arg "Qplace.relocate: bad pseudo-net cell";
      let lambda = Float.max 0.0 weight /. (Float.max 0.0 weight +. 1.0) in
      let target =
        Rect.clamp_point chip
          (Point.add (Point.scale (1.0 -. lambda) pos.(cell)) (Point.scale lambda anchor))
      in
      (* free the old site, spiral to a free site near the target *)
      Hashtbl.remove occ (site_of pos.(cell));
      let tix, tiy = site_of target in
      let placed = ref false and r = ref 0 in
      while not !placed do
        let best = ref None in
        let consider ix iy =
          if ix >= 0 && ix < nx && iy >= 0 && iy < ny && not (Hashtbl.mem occ (ix, iy))
          then begin
            let d = Point.manhattan target (site_center ix iy) in
            match !best with
            | Some (bd, _, _) when bd <= d -> ()
            | _ -> best := Some (d, ix, iy)
          end
        in
        if !r = 0 then consider tix tiy
        else begin
          for dx = - !r to !r do
            consider (tix + dx) (tiy - !r);
            consider (tix + dx) (tiy + !r)
          done;
          for dy = - !r + 1 to !r - 1 do
            consider (tix - !r) (tiy + dy);
            consider (tix + !r) (tiy + dy)
          done
        end;
        (match !best with
        | Some (_, ix, iy) ->
            Hashtbl.replace occ (ix, iy) cell;
            pos.(cell) <- site_center ix iy;
            placed := true
        | None ->
            incr r;
            if !r > nx + ny then failwith "Qplace.relocate: no free site")
      done)
    pseudo;
  pos
