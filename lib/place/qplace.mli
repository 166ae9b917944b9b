(** Analytic global placement in the style of quadratic placers
    (mPL/FastPlace family): star/clique quadratic wirelength minimized by
    conjugate gradient, interleaved with recursive-bisection spreading,
    plus a greedy site legalizer.

    The incremental mode is the flow's stage 6: pseudo-nets pull
    flip-flops toward their assigned rotary-ring tapping positions while
    stability anchors keep the rest of the placement close to the
    previous iteration — exactly the "stable incremental placement" the
    paper requires. *)

type pseudo_net = {
  cell : int;  (** The flip-flop being pulled. *)
  anchor : Rc_geom.Point.t;  (** Its tapping target on the ring. *)
  weight : float;  (** Spring weight (grows over flow iterations). *)
}

type result = {
  positions : Rc_geom.Point.t array;  (** Indexed by cell id; pads included. *)
  hpwl : float;  (** Total signal HPWL of the result, µm. *)
  solver_iterations : int;  (** Total CG iterations spent. *)
}

(** {1 System assembly}

    Every placement solve is a quadratic system: star-model
    connectivity (each sink tied to its driver with weight 2/k, pads as
    fixed anchors), a very weak anchor of every movable cell to the die
    centre, and spreading springs.  Only the springs change between the
    solves of one netlist, so the rest is assembled once into a
    {!template}; each solve then costs one pass over the template. *)

type template
(** The spring-independent part of one netlist's system.  Immutable:
    one template serves any number of placement calls on its netlist
    and chip, from any domain. *)

val template : Rc_netlist.Netlist.t -> chip:Rc_geom.Rect.t -> template
(** Assemble the template.  Counts one [place.template_builds]. *)

type springs = {
  cells : int array;
  sx : float array;
  sy : float array;
  sw : float array;
}
(** A batch of springs as flat arrays: spring [k] pulls cell
    [cells.(k)] toward [(sx.(k), sy.(k))] with weight [sw.(k)].
    Springs on fixed cells are ignored. *)

val assemble :
  template -> springs list -> Rc_sparse.Csr.t * float array * float array
(** [assemble t groups] is the system matrix and the x and y
    right-hand sides with the springs of [groups] added in order (over
    movable cells, numbered in cell-id order).  Bit for bit the system
    one [Csr.of_entries] call builds from all the terms pushed in the
    order connectivity, centre anchors, springs (see
    [docs/performance.md]). *)

val spreading_targets :
  Rc_util.Rng.t -> Rc_geom.Rect.t -> float array -> float array -> float array * float array
(** [spreading_targets rng die xs ys] recursively halves the points
    [(xs.(i), ys.(i))] at the median, alternating axes from the die's
    longer side, and gives each point a jittered target
    [(tx.(i), ty.(i))] inside its leaf region of at most two points.
    Tied keys are ordered as [Array.sort] orders them, so the result
    depends only on the inputs and [rng]'s state. *)

(** {1 Placement} *)

val initial :
  ?seed:int ->
  ?spread_rounds:int ->
  ?multilevel_threshold:int ->
  ?template:template ->
  Rc_netlist.Netlist.t ->
  chip:Rc_geom.Rect.t ->
  result
(** Global placement from scratch (flow stage 1). [spread_rounds]
    (default 5) controls how many solve/spread rounds run before
    legalization.

    Circuits with at least [multilevel_threshold] movable cells
    (default 50 000 — far above every Table II circuit, so the paper
    path is untouched) are placed by a multilevel V-cycle instead of
    the flat schedule: first-choice/heavy-edge clustering coarsens the
    star connectivity graph to ~12k vertices, the coarsest level is
    solved cold and spread, and each finer level interpolates the
    cluster positions and runs one (two at the finest) warm-started
    spreading relaxation, ending on the flat schedule's final anchor
    strength.  Deterministic and jobs-invariant like the flat path.

    The flat path assembles from [template] when given (it must be
    {!template} of the same netlist and chip), else builds its own;
    the V-cycle builds its own per level and leaves [template] unused. *)

val incremental :
  ?stability:float ->
  ?template:template ->
  Rc_netlist.Netlist.t ->
  chip:Rc_geom.Rect.t ->
  prev:Rc_geom.Point.t array ->
  pseudo:pseudo_net list ->
  result
(** Re-place starting from [prev] with pseudo-nets added. [stability]
    (default 0.004) is the per-cell spring to its previous location —
    larger values give a more stable (less disturbed) placement.
    [template] as for {!initial}: the flow passes the one it holds for
    the whole run. *)

val relocate :
  Rc_netlist.Netlist.t ->
  chip:Rc_geom.Rect.t ->
  site:float ->
  prev:Rc_geom.Point.t array ->
  pseudo:pseudo_net list ->
  Rc_geom.Point.t array
(** Minimally-disturbing stage 6 for an already-refined placement: each
    pseudo-net's cell steps the fraction [weight / (weight + 1)] of the
    way to its anchor (weights grow over flow iterations, so the step
    approaches the anchor); every other cell stays put; the moved cells
    are re-legalized onto free sites. Pair with a flip-flop-frozen
    {!Detail.refine} pass to heal the signal wirelength around the
    moves. *)

val legalize :
  Rc_netlist.Netlist.t ->
  chip:Rc_geom.Rect.t ->
  site:float ->
  Rc_geom.Point.t array ->
  Rc_geom.Point.t array
(** Snap movable cells to distinct sites of a [site]-pitch grid,
    spiraling outward from the ideal site when occupied. *)
