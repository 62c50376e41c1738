(** Best-first branch & bound for mixed-integer linear programs, with
    warm-started LP re-solves.

    LP relaxations are solved by the sparse revised simplex
    ({!Sparse}); open nodes are kept in a min-heap ordered by
    relaxation bound so the most promising subtree is explored first
    (this mirrors how [lp_solve]'s branch-and-bound behaves on the
    Wishbone formulations and lets us reproduce the paper's Figure 6
    "time to discover" vs "time to prove" distinction).

    Each node stores the optimal basis of its LP relaxation, and both
    children re-solve from it: one refactorisation per expansion,
    shared by the two children through the search's one
    {!Sparse.session}, then a handful of dual pivots to repair the one
    bound change.  Warm starts change the work, not the answer.

    The search is sequential on the calling domain: pop the best open
    node, expand it, push its children.  The returned optimum and every
    statistic except wall-clock time are a pure function of the
    problem and options, reproducible run-to-run.  Tied incumbents are
    broken lexicographically.

    Every solve first runs {!Presolve}: bound propagation fixes
    columns and drops rows, the search runs on the reduced problem,
    and incumbents are lifted back and judged against the original
    problem, so the returned point, objective and root basis are in
    original space.  When propagation proves the problem infeasible,
    presolve reduces nothing and the root LP runs on the original
    problem, which settles the verdict ([lp_solves = 1]); answering
    without any LP is future work.

    Statistics record when the final incumbent was found
    ([time_to_incumbent]) separately from when optimality was proved
    ([time_total]). *)

type options = {
  max_nodes : int;
      (** open-node exploration budget — the deterministic {e node
          budget}: it counts work units, not seconds, so a bounded
          run stops at the same node on any machine (the CLI exposes
          it as [--node-budget]) *)
  int_tol : float;  (** how close to integral a relaxed value must be *)
  gap_tol : float;
      (** terminate when (incumbent - bound) / max(1, |incumbent|)
          falls below this; [0.] demands a full proof *)
  time_limit : float;  (** wall-clock seconds; [infinity] = unlimited *)
  pivot_budget : int;
      (** tree-wide simplex pivot budget ([max_int] = unlimited).
          Checked cooperatively at every node boundary and threaded
          into each LP solve as a per-solve pivot cap, so — unlike
          [time_limit] — a budgeted run is a pure function of the
          problem: the same machine-independent answer everywhere.
          [max_int] leaves every code path bit-identical to a build
          without the budget. *)
  on_node : (nodes:int -> pivots:int -> unit) option;
      (** cooperative checkpoint, called with the deterministic node
          and cumulative-pivot counters before the root solve and
          before each node expansion.  An exception raised
          here aborts the search and propagates to the caller —
          the fault-injection hook of the placement service's
          {!Wishbone.Service.Fault_plan}.  [None] (the default) adds
          no work at all. *)
  simplex : Simplex.options;
}

val default_options : options

type stats = {
  nodes_explored : int;
  lp_solves : int;
  hot_solves : int;
      (** always [0]: kept so that readers of the retired hot-tableau
          counter (the repository benchmark's [lp.bb.hot_solves])
          still build *)
  total_pivots : int;
      (** simplex pivots summed over every LP solve of the tree *)
  time_to_incumbent : float;
      (** seconds until the returned solution was first discovered *)
  time_total : float;  (** seconds until termination (proof or budget) *)
  proved_optimal : bool;
  best_bound : float;
      (** strongest dual bound at termination, in the problem's own
          direction *)
  incumbent_trace : (float * float) list;
      (** (time, objective) for each incumbent improvement, in
          chronological order *)
  root_basis : Basis.t option;
      (** optimal basis of the root relaxation, postsolved to the
          original problem's tableau layout; feed it back as
          [?root_basis] when re-solving a rescaled instance of the
          same problem (rate search), even when that instance's
          presolve fixes a different column set *)
  presolve : Presolve.stats;
      (** what presolve did to this solve's problem: rows and columns
          before and after, columns fixed, propagation rounds *)
}

val fractional_var : int_tol:float -> int list -> float array -> int option
(** The integer variable whose value is farthest from any integer
    (ties broken towards the lowest index), or [None] when all are
    within [int_tol] of integrality.  Exposed for testing. *)

type bound_delta = {
  bvar : int;  (** branching variable *)
  bup : bool;  (** [true]: raise [lo.(bvar)]; [false]: lower [hi.(bvar)] *)
  bval : float;
}
(** Open nodes store their bounds delta-encoded: one tightened bound
    per node plus a parent reference, materialised into full arrays
    only when the node is popped for expansion. *)

val materialise :
  lo0:float array ->
  hi0:float array ->
  bound_delta list ->
  float array * float array
(** [materialise ~lo0 ~hi0 deltas] replays a root-to-leaf delta chain
    over the root bounds with plain assignments and returns the
    leaf's [(lo, hi)].  Exposed for testing the round-trip against
    eagerly maintained bound arrays. *)

val solve :
  ?options:options ->
  ?initial:float array ->
  ?root_basis:Basis.t ->
  Problem.t ->
  Solution.status * stats
(** Solves the problem honouring the [integer] markers set through
    {!Problem.add_var}.  Never mutates the problem.

    [initial], when given and feasible, seeds the incumbent before the
    search starts — a valid primal bound that prunes every subtree
    whose relaxation cannot beat it.  [root_basis] warm-starts the
    root relaxation (useful across rate-search steps, where only the
    coefficients scale); it is mapped into the presolved problem and
    dropped when it does not fit there.  Both are performance hints: they never
    change the returned status or objective. *)
