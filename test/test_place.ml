(* Tests for Rc_place: HPWL arithmetic, quadratic placement quality and
   legality, incremental stability, pseudo-net pull, and bit-identity of
   the template assembly and presorted spreading against their one-shot
   reference twins. *)

open Rc_netlist
open Netlist
open Rc_geom

let chip = Rect.make ~xmin:0.0 ~ymin:0.0 ~xmax:1200.0 ~ymax:1200.0

let gen_cfg seed =
  {
    Rc_netlist.Generator.default_config with
    Rc_netlist.Generator.name = "place";
    n_logic = 120;
    n_ffs = 16;
    n_nets = 132;
    n_inputs = 6;
    n_outputs = 6;
    chip;
    seed;
  }

let check_float eps = Alcotest.(check (float eps))

let test_hpwl_single_net () =
  let kinds = [| Input_pad; Logic; Logic |] in
  let nets = [| { driver = 0; sinks = [| 1; 2 |] } |] in
  let nl = Netlist.make ~name:"h" ~kinds ~nets ~pad_positions:[ (0, Point.make 0.0 0.0) ] in
  let positions = [| Point.zero; Point.make 30.0 40.0; Point.make 10.0 100.0 |] in
  (* bbox (0..30, 0..100) -> hpwl 130 *)
  check_float 1e-9 "hpwl" 130.0 (Rc_place.Wirelength.net_hpwl nl positions 0);
  check_float 1e-9 "total" 130.0 (Rc_place.Wirelength.total nl positions);
  (* star: |(0,0)-(30,40)| + |(0,0)-(10,100)| = 70 + 110 *)
  check_float 1e-9 "star" 180.0 (Rc_place.Wirelength.net_star_length nl positions 0)

let test_initial_inside_chip () =
  let nl = Rc_netlist.Generator.generate (gen_cfg 5) in
  let r = Rc_place.Qplace.initial nl ~chip in
  let n = Netlist.n_cells nl in
  for c = 0 to n - 1 do
    if Netlist.movable nl c then
      Alcotest.(check bool) "inside die" true (Rect.contains chip r.Rc_place.Qplace.positions.(c))
  done

let test_initial_no_overlap () =
  let nl = Rc_netlist.Generator.generate (gen_cfg 6) in
  let r = Rc_place.Qplace.initial nl ~chip in
  let seen = Hashtbl.create 64 in
  let n = Netlist.n_cells nl in
  for c = 0 to n - 1 do
    if Netlist.movable nl c then begin
      let p = r.Rc_place.Qplace.positions.(c) in
      let key = (int_of_float p.Point.x, int_of_float p.Point.y) in
      Alcotest.(check bool) "distinct site" false (Hashtbl.mem seen key);
      Hashtbl.replace seen key ()
    end
  done

let test_initial_beats_random () =
  (* the placer should clearly beat a uniform random placement on HPWL *)
  let nl = Rc_netlist.Generator.generate (gen_cfg 7) in
  let r = Rc_place.Qplace.initial nl ~chip in
  let rng = Rc_util.Rng.create 99 in
  let n = Netlist.n_cells nl in
  let random =
    Array.init n (fun c ->
        if Netlist.movable nl c then
          Point.make (Rc_util.Rng.float rng 1200.0) (Rc_util.Rng.float rng 1200.0)
        else Netlist.pad_position nl c)
  in
  let hr = Rc_place.Wirelength.total nl random in
  Alcotest.(check bool)
    (Printf.sprintf "placed %.0f < 0.8 * random %.0f" r.Rc_place.Qplace.hpwl hr)
    true
    (r.Rc_place.Qplace.hpwl < 0.8 *. hr)

let test_initial_deterministic () =
  let nl = Rc_netlist.Generator.generate (gen_cfg 8) in
  let a = Rc_place.Qplace.initial nl ~chip and b = Rc_place.Qplace.initial nl ~chip in
  Alcotest.(check bool) "same result" true
    (a.Rc_place.Qplace.positions = b.Rc_place.Qplace.positions)

let test_incremental_stability () =
  (* with no pseudo-nets and strong stability, cells should barely move *)
  let nl = Rc_netlist.Generator.generate (gen_cfg 9) in
  let r0 = Rc_place.Qplace.initial nl ~chip in
  let r1 =
    Rc_place.Qplace.incremental ~stability:10.0 nl ~chip ~prev:r0.Rc_place.Qplace.positions
      ~pseudo:[]
  in
  let n = Netlist.n_cells nl in
  let moved = ref 0.0 and count = ref 0 in
  for c = 0 to n - 1 do
    if Netlist.movable nl c then begin
      moved :=
        !moved +. Point.manhattan r0.Rc_place.Qplace.positions.(c) r1.Rc_place.Qplace.positions.(c);
      incr count
    end
  done;
  let avg = !moved /. float_of_int !count in
  Alcotest.(check bool) (Printf.sprintf "avg move %.1f um small" avg) true (avg < 40.0)

let test_pseudo_net_pull () =
  (* a strong pseudo-net on one flip-flop drags it toward the anchor *)
  let nl = Rc_netlist.Generator.generate (gen_cfg 10) in
  let r0 = Rc_place.Qplace.initial nl ~chip in
  let ff = (Netlist.flip_flops nl).(0) in
  let anchor = Point.make 1100.0 1100.0 in
  let before = Point.manhattan r0.Rc_place.Qplace.positions.(ff) anchor in
  let r1 =
    Rc_place.Qplace.incremental nl ~chip ~prev:r0.Rc_place.Qplace.positions
      ~pseudo:[ { Rc_place.Qplace.cell = ff; anchor; weight = 20.0 } ]
  in
  let after = Point.manhattan r1.Rc_place.Qplace.positions.(ff) anchor in
  Alcotest.(check bool)
    (Printf.sprintf "pulled toward anchor: %.0f -> %.0f" before after)
    true
    (after < 0.5 *. before)

let test_legalize_site_grid () =
  let nl = Rc_netlist.Generator.generate (gen_cfg 11) in
  let r = Rc_place.Qplace.initial nl ~chip in
  (* all movable cells sit at site centers of the 10 um grid *)
  let n = Netlist.n_cells nl in
  for c = 0 to n - 1 do
    if Netlist.movable nl c then begin
      let p = r.Rc_place.Qplace.positions.(c) in
      let fx = Float.rem (p.Point.x -. 5.0) 10.0 in
      let fy = Float.rem (p.Point.y -. 5.0) 10.0 in
      Alcotest.(check bool) "on site center" true
        (Float.abs fx < 1e-6 && Float.abs fy < 1e-6)
    end
  done

let test_legalize_rejects_bad_site () =
  let nl = Rc_netlist.Generator.generate (gen_cfg 12) in
  let r = Rc_place.Qplace.initial nl ~chip in
  Alcotest.check_raises "bad pitch" (Invalid_argument "Qplace.legalize: non-positive site pitch")
    (fun () -> ignore (Rc_place.Qplace.legalize nl ~chip ~site:0.0 r.Rc_place.Qplace.positions))

let prop_incremental_inside_chip =
  QCheck.Test.make ~name:"incremental placement stays inside the die" ~count:10
    QCheck.small_int (fun seed ->
      let nl = Rc_netlist.Generator.generate (gen_cfg (seed + 100)) in
      let r0 = Rc_place.Qplace.initial nl ~chip in
      let ffs = Netlist.flip_flops nl in
      let pseudo =
        Array.to_list
          (Array.map
             (fun f ->
               { Rc_place.Qplace.cell = f; anchor = Point.make 600.0 600.0; weight = 1.0 })
             ffs)
      in
      let r1 =
        Rc_place.Qplace.incremental nl ~chip ~prev:r0.Rc_place.Qplace.positions ~pseudo
      in
      let ok = ref true in
      Array.iteri
        (fun c p -> if Netlist.movable nl c && not (Rect.contains chip p) then ok := false)
        r1.Rc_place.Qplace.positions;
      !ok)

(* --- system assembly and spreading: reference twins --- *)

(* The one-shot assembly the system template replaced: every term pushed
   into one entry list (star connectivity in net order, the centre anchor
   of every movable cell, then the springs) and summed by a single
   Csr.of_entries call. *)
let reference_system nl ~chip springs =
  let n = Netlist.n_cells nl in
  let index = Array.make n (-1) and m = ref 0 in
  for c = 0 to n - 1 do
    if Netlist.movable nl c then begin
      index.(c) <- !m;
      incr m
    end
  done;
  let m = !m in
  let pushes = ref [] in
  let push i j v = pushes := (i, j, v) :: !pushes in
  let rhs_x = Array.make m 0.0 and rhs_y = Array.make m 0.0 in
  let add_fixed i w (p : Point.t) =
    push i i w;
    rhs_x.(i) <- rhs_x.(i) +. (w *. p.Point.x);
    rhs_y.(i) <- rhs_y.(i) +. (w *. p.Point.y)
  in
  Netlist.iter_nets nl (fun _ net ->
      let w = 2.0 /. float_of_int (1 + Array.length net.sinks) in
      Array.iter
        (fun s ->
          match (index.(net.driver), index.(s)) with
          | -1, -1 -> ()
          | ia, -1 -> add_fixed ia w (Netlist.pad_position nl s)
          | -1, ib -> add_fixed ib w (Netlist.pad_position nl net.driver)
          | ia, ib ->
              if ia <> ib then begin
                push ia ia w;
                push ib ib w;
                push ia ib (-.w);
                push ib ia (-.w)
              end)
        net.sinks);
  let c = Rect.center chip in
  for i = 0 to m - 1 do
    add_fixed i 1e-6 c
  done;
  List.iter (fun (cell, p, w) -> if index.(cell) >= 0 then add_fixed index.(cell) w p) springs;
  let es = Array.of_list (List.rev !pushes) in
  let matrix =
    Rc_sparse.Csr.of_entries ~rows:m ~cols:m ~len:(Array.length es)
      (Array.map (fun (i, _, _) -> i) es)
      (Array.map (fun (_, j, _) -> j) es)
      (Array.map (fun (_, _, v) -> v) es)
  in
  (matrix, rhs_x, rhs_y)

let bits_of_csr a =
  List.init (Rc_sparse.Csr.rows a) (fun i ->
      let row = ref [] in
      Rc_sparse.Csr.iter_row a i (fun j v -> row := (j, Int64.bits_of_float v) :: !row);
      List.rev !row)

let bits_of_array = Array.map Int64.bits_of_float

(* random spring groups: cells drawn with repeats (fixed pads included,
   which assembly must ignore), a few hot cells carrying many springs,
   zero weights allowed *)
let random_springs st n =
  List.init
    (1 + Random.State.int st 3)
    (fun _ ->
      let k = Random.State.int st (2 * n) in
      let hot = Array.init 3 (fun _ -> Random.State.int st n) in
      let cells =
        Array.init k (fun _ ->
            if Random.State.int st 4 = 0 then hot.(Random.State.int st 3)
            else Random.State.int st n)
      in
      let coord () = Random.State.float st 1200.0 in
      {
        Rc_place.Qplace.cells;
        sx = Array.init k (fun _ -> coord ());
        sy = Array.init k (fun _ -> coord ());
        sw =
          Array.init k (fun _ ->
              if Random.State.int st 8 = 0 then 0.0 else Random.State.float st 2.0);
      })

let prop_template_matches_reference =
  QCheck.Test.make ~name:"template assembly is bitwise the one-shot of_entries assembly"
    ~count:60
    QCheck.(pair small_nat small_nat)
    (fun (seed, sseed) ->
      let nl = Rc_netlist.Generator.generate (gen_cfg (seed + 200)) in
      let st = Random.State.make [| sseed |] in
      let groups = random_springs st (Netlist.n_cells nl) in
      let t = Rc_place.Qplace.template nl ~chip in
      let a, bx, by = Rc_place.Qplace.assemble t groups in
      let flat =
        List.concat_map
          (fun g ->
            List.init (Array.length g.Rc_place.Qplace.cells) (fun k ->
                ( g.Rc_place.Qplace.cells.(k),
                  Point.make g.Rc_place.Qplace.sx.(k) g.Rc_place.Qplace.sy.(k),
                  g.Rc_place.Qplace.sw.(k) )))
          groups
      in
      let ra, rx, ry = reference_system nl ~chip flat in
      (* a second assembly from the same template must not see the first *)
      let a2, _, _ = Rc_place.Qplace.assemble t groups in
      bits_of_csr a = bits_of_csr ra
      && bits_of_csr a2 = bits_of_csr ra
      && bits_of_array bx = bits_of_array rx
      && bits_of_array by = bits_of_array ry)

(* The bisection spreading as it was before presorting: every node
   heap-sorts its members with the polymorphic comparison. *)
let legacy_spreading_targets rng chip m xs ys =
  let targets = Array.make m Point.zero in
  let idx = Array.init m Fun.id in
  let rec go (region : Rect.t) lo hi horizontal =
    let count = hi - lo in
    if count <= 2 then
      for k = lo to hi - 1 do
        let jx = Rc_util.Rng.float_in rng 0.3 0.7 and jy = Rc_util.Rng.float_in rng 0.3 0.7 in
        targets.(idx.(k)) <-
          Point.make
            (region.Rect.xmin +. (jx *. Rect.width region))
            (region.Rect.ymin +. (jy *. Rect.height region))
      done
    else begin
      let sub = Array.sub idx lo count in
      if horizontal then Array.sort (fun a b -> compare xs.(a) xs.(b)) sub
      else Array.sort (fun a b -> compare ys.(a) ys.(b)) sub;
      Array.blit sub 0 idx lo count;
      let mid = lo + (count / 2) in
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
  targets

(* coordinates on a coarse grid (one level = all keys equal) so that
   most bisection nodes hold ties; tiny point sets included *)
let prop_spreading_matches_legacy =
  QCheck.Test.make ~name:"presorted bisection matches the heap-sort bisection" ~count:300
    QCheck.(
      make
        Gen.(
          quad
            (oneof [ int_range 0 2; int_range 3 90 ])
            (int_range 1 6) small_nat
            (oneofl [ (1200.0, 1200.0); (1800.0, 600.0); (400.0, 900.0) ])))
    (fun (m, levels, seed, (w, h)) ->
      let die = Rect.make ~xmin:0.0 ~ymin:0.0 ~xmax:w ~ymax:h in
      let st = Random.State.make [| seed; m; levels |] in
      let key () = float_of_int (Random.State.int st levels) *. (w /. 7.0) in
      let xs = Array.init m (fun _ -> key ()) and ys = Array.init m (fun _ -> key ()) in
      let r1 = Rc_util.Rng.create seed and r2 = Rc_util.Rng.create seed in
      let tx, ty = Rc_place.Qplace.spreading_targets r1 die xs ys in
      let legacy = legacy_spreading_targets r2 die m xs ys in
      bits_of_array tx = bits_of_array (Array.map (fun (p : Point.t) -> p.Point.x) legacy)
      && bits_of_array ty = bits_of_array (Array.map (fun (p : Point.t) -> p.Point.y) legacy)
      && Rc_util.Rng.float r1 1.0 = Rc_util.Rng.float r2 1.0)

(* a held template gives the same placements as a per-call one *)
let test_held_template_identical () =
  let nl = Rc_netlist.Generator.generate (gen_cfg 40) in
  let t = Rc_place.Qplace.template nl ~chip in
  let a = Rc_place.Qplace.initial nl ~chip and b = Rc_place.Qplace.initial ~template:t nl ~chip in
  Alcotest.(check bool) "initial" true (a.Rc_place.Qplace.positions = b.Rc_place.Qplace.positions);
  let ff = (Netlist.flip_flops nl).(0) in
  let pseudo = [ { Rc_place.Qplace.cell = ff; anchor = Point.make 900.0 100.0; weight = 3.0 } ] in
  let prev = a.Rc_place.Qplace.positions in
  let c = Rc_place.Qplace.incremental nl ~chip ~prev ~pseudo
  and d = Rc_place.Qplace.incremental ~template:t nl ~chip ~prev ~pseudo in
  Alcotest.(check bool) "incremental" true
    (c.Rc_place.Qplace.positions = d.Rc_place.Qplace.positions);
  let other =
    Rc_netlist.Generator.generate { (gen_cfg 41) with Generator.n_logic = 90; n_nets = 102 }
  in
  Alcotest.check_raises "foreign template"
    (Invalid_argument "Qplace: template built for another netlist") (fun () ->
      ignore (Rc_place.Qplace.initial ~template:t other ~chip))

(* --- detailed placement --- *)

let test_detail_improves_hpwl () =
  let nl = Rc_netlist.Generator.generate (gen_cfg 20) in
  let r = Rc_place.Qplace.initial nl ~chip in
  let refined, st = Rc_place.Detail.refine nl ~chip ~site:10.0 r.Rc_place.Qplace.positions in
  Alcotest.(check bool)
    (Printf.sprintf "hpwl %.0f <= %.0f" st.Rc_place.Detail.final_hpwl st.Rc_place.Detail.initial_hpwl)
    true
    (st.Rc_place.Detail.final_hpwl <= st.Rc_place.Detail.initial_hpwl);
  Alcotest.(check (float 1.0)) "final matches recomputed"
    (Rc_place.Wirelength.total nl refined) st.Rc_place.Detail.final_hpwl

let test_detail_preserves_legality () =
  let nl = Rc_netlist.Generator.generate (gen_cfg 21) in
  let r = Rc_place.Qplace.initial nl ~chip in
  let refined, _ = Rc_place.Detail.refine nl ~chip ~site:10.0 r.Rc_place.Qplace.positions in
  let seen = Hashtbl.create 64 in
  Array.iteri
    (fun c p ->
      if Netlist.movable nl c then begin
        Alcotest.(check bool) "inside chip" true (Rect.contains chip p);
        let key = (int_of_float p.Point.x, int_of_float p.Point.y) in
        Alcotest.(check bool) "distinct sites" false (Hashtbl.mem seen key);
        Hashtbl.replace seen key ()
      end)
    refined

let test_detail_frozen_cells_stay () =
  let nl = Rc_netlist.Generator.generate (gen_cfg 22) in
  let r = Rc_place.Qplace.initial nl ~chip in
  let is_ff = Netlist.is_ff nl in
  let refined, _ =
    Rc_place.Detail.refine ~frozen:is_ff nl ~chip ~site:10.0 r.Rc_place.Qplace.positions
  in
  Array.iter
    (fun f ->
      Alcotest.(check bool) "frozen ff unmoved" true
        (Point.equal refined.(f) r.Rc_place.Qplace.positions.(f)))
    (Netlist.flip_flops nl)

let test_relocate_moves_toward_anchor () =
  let nl = Rc_netlist.Generator.generate (gen_cfg 23) in
  let r = Rc_place.Qplace.initial nl ~chip in
  let ff = (Netlist.flip_flops nl).(0) in
  let anchor = Point.make 1100.0 100.0 in
  let before = Point.manhattan r.Rc_place.Qplace.positions.(ff) anchor in
  (* weight 3 -> moves 75% of the way *)
  let moved =
    Rc_place.Qplace.relocate nl ~chip ~site:10.0 ~prev:r.Rc_place.Qplace.positions
      ~pseudo:[ { Rc_place.Qplace.cell = ff; anchor; weight = 3.0 } ]
  in
  let after = Point.manhattan moved.(ff) anchor in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f -> %.0f (75%% step)" before after)
    true
    (after < (0.35 *. before) +. 21.0);
  (* everything else untouched *)
  let others_same = ref true in
  Array.iteri
    (fun c p ->
      if c <> ff && Netlist.movable nl c && not (Point.equal p r.Rc_place.Qplace.positions.(c))
      then others_same := false)
    moved;
  Alcotest.(check bool) "others untouched" true !others_same

let test_relocate_keeps_legality () =
  let nl = Rc_netlist.Generator.generate (gen_cfg 24) in
  let r = Rc_place.Qplace.initial nl ~chip in
  let pseudo =
    Array.to_list
      (Array.map
         (fun f -> { Rc_place.Qplace.cell = f; anchor = Point.make 600.0 600.0; weight = 50.0 })
         (Netlist.flip_flops nl))
  in
  let moved =
    Rc_place.Qplace.relocate nl ~chip ~site:10.0 ~prev:r.Rc_place.Qplace.positions ~pseudo
  in
  let seen = Hashtbl.create 64 in
  Array.iteri
    (fun c p ->
      if Netlist.movable nl c then begin
        let key = (int_of_float p.Point.x, int_of_float p.Point.y) in
        Alcotest.(check bool) "distinct sites after relocation" false (Hashtbl.mem seen key);
        Hashtbl.replace seen key ()
      end)
    moved

(* --- Steiner wirelength --- *)

let test_steiner_trivial () =
  check_float 1e-9 "empty" 0.0 (Rc_place.Steiner.length []);
  check_float 1e-9 "single" 0.0 (Rc_place.Steiner.length [ Point.make 3.0 4.0 ]);
  check_float 1e-9 "pair = manhattan" 7.0
    (Rc_place.Steiner.length [ Point.make 0.0 0.0; Point.make 3.0 4.0 ])

let test_steiner_plus_shape () =
  (* four arms of a plus: the Steiner point at the center turns an MST of
     6 into a tree of 4 *)
  let pts = [ Point.make 1.0 0.0; Point.make 0.0 1.0; Point.make 2.0 1.0; Point.make 1.0 2.0 ] in
  check_float 1e-9 "mst" 6.0 (Rc_place.Steiner.mst_length pts);
  check_float 1e-9 "rsmt" 4.0 (Rc_place.Steiner.length pts)

let test_steiner_three_pins () =
  (* L-shaped trio: Steiner point at the median *)
  let pts = [ Point.make 0.0 0.0; Point.make 4.0 0.0; Point.make 2.0 3.0 ] in
  (* median point (2,0): total = 2 + 2 + 3 = 7 *)
  check_float 1e-9 "median tree" 7.0 (Rc_place.Steiner.length pts)

let test_steiner_tree_edges () =
  let pts = [ Point.make 1.0 0.0; Point.make 0.0 1.0; Point.make 2.0 1.0; Point.make 1.0 2.0 ] in
  let edges = Rc_place.Steiner.tree pts in
  (* 4 pins + 1 steiner point -> 4 edges *)
  Alcotest.(check int) "edges" 4 (List.length edges);
  let len = List.fold_left (fun acc (a, b) -> acc +. Point.manhattan a b) 0.0 edges in
  check_float 1e-9 "edges sum to length" 4.0 len

let test_steiner_net_totals () =
  let nl = Rc_netlist.Generator.generate (gen_cfg 30) in
  let r = Rc_place.Qplace.initial nl ~chip in
  let hp = Rc_place.Wirelength.total nl r.Rc_place.Qplace.positions in
  let st = Rc_place.Steiner.total nl r.Rc_place.Qplace.positions in
  let star = Rc_place.Wirelength.total_star nl r.Rc_place.Qplace.positions in
  Alcotest.(check bool)
    (Printf.sprintf "hpwl %.0f <= steiner %.0f <= star %.0f" hp st star)
    true
    (hp <= st +. 1e-6 && st <= star +. 1e-6)

let prop_steiner_bounds =
  QCheck.Test.make ~name:"hpwl <= rsmt <= mst <= 1.5 rsmt" ~count:150
    QCheck.(list_of_size Gen.(int_range 2 7)
              (pair (float_range 0.0 100.0) (float_range 0.0 100.0)))
    (fun coords ->
      let pts = List.map (fun (x, y) -> Point.make x y) coords in
      let distinct =
        List.fold_left (fun acc p -> if List.exists (Point.equal p) acc then acc else p :: acc) [] pts
      in
      if List.length distinct < 2 then true
      else begin
        let hp = Rect.half_perimeter (Rect.of_points distinct) in
        let st = Rc_place.Steiner.length distinct in
        let mst = Rc_place.Steiner.mst_length distinct in
        hp <= st +. 1e-6 && st <= mst +. 1e-6 && mst <= (1.5 *. st) +. 1e-6
      end)

let () =
  Alcotest.run "rc_place"
    [
      ("wirelength", [ Alcotest.test_case "hpwl and star" `Quick test_hpwl_single_net ]);
      ( "initial",
        [
          Alcotest.test_case "inside chip" `Quick test_initial_inside_chip;
          Alcotest.test_case "no overlap after legalization" `Quick test_initial_no_overlap;
          Alcotest.test_case "beats random placement" `Quick test_initial_beats_random;
          Alcotest.test_case "deterministic" `Quick test_initial_deterministic;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "stability" `Quick test_incremental_stability;
          Alcotest.test_case "pseudo-net pull" `Quick test_pseudo_net_pull;
          QCheck_alcotest.to_alcotest prop_incremental_inside_chip;
        ] );
      ( "assembly",
        [
          QCheck_alcotest.to_alcotest prop_template_matches_reference;
          QCheck_alcotest.to_alcotest prop_spreading_matches_legacy;
          Alcotest.test_case "held template is identical" `Quick test_held_template_identical;
        ] );
      ( "legalize",
        [
          Alcotest.test_case "site grid" `Quick test_legalize_site_grid;
          Alcotest.test_case "rejects bad site" `Quick test_legalize_rejects_bad_site;
        ] );
      ( "detail",
        [
          Alcotest.test_case "improves hpwl" `Quick test_detail_improves_hpwl;
          Alcotest.test_case "preserves legality" `Quick test_detail_preserves_legality;
          Alcotest.test_case "frozen cells stay" `Quick test_detail_frozen_cells_stay;
        ] );
      ( "relocate",
        [
          Alcotest.test_case "moves toward anchor" `Quick test_relocate_moves_toward_anchor;
          Alcotest.test_case "keeps legality" `Quick test_relocate_keeps_legality;
        ] );
      ( "steiner",
        [
          Alcotest.test_case "trivial cases" `Quick test_steiner_trivial;
          Alcotest.test_case "plus shape gains" `Quick test_steiner_plus_shape;
          Alcotest.test_case "three pins exact" `Quick test_steiner_three_pins;
          Alcotest.test_case "tree edges" `Quick test_steiner_tree_edges;
          Alcotest.test_case "net totals ordered" `Quick test_steiner_net_totals;
          QCheck_alcotest.to_alcotest prop_steiner_bounds;
        ] );
    ]
