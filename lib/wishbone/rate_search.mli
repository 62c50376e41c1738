(** Data rate as a free variable (§4.3).

    When no placement satisfies the budgets at the requested input
    rate, Wishbone binary-searches for the maximum rate multiplier
    that still admits a feasible placement.  Because CPU and network
    load grow monotonically with input rate, feasibility is monotone
    and binary search is exact (up to [tol]).  The search runs over
    any {!Placement.t}; the paper's node/server cut is
    [search_placement (Placement.of_spec spec)]. *)

type placement_result = {
  placement_multiplier : float;
      (** highest feasible multiple of the profiled input rate *)
  placement_report : Placement.report;  (** the placement at that rate *)
  placement_exact : bool;
      (** [true]: every probe that steered the search carried a proof —
          kept reports were proved optimal, rejections were proven
          infeasibilities — so the rate is the true maximum (up to
          [tol]).  [false]: some probe died on the solver budget
          (either returning an unproven incumbent, or no verdict at
          all, which the search conservatively treats as infeasible),
          so the returned rate is a {e safe lower bound} on the
          maximum: the reported placement is verified feasible at it,
          but a larger budget might have certified a higher rate. *)
}

val default_search_options : Lp.Branch_bound.options
(** A small optimality gap (0.5%) and a per-solve node budget of
    5000 nodes, with no wall-clock limit.
    Near the feasibility boundary the CPU constraint is a tight
    knapsack and exact proofs can take minutes (the paper's §7.1 tail);
    the search trades marginal optimality for bounded work, as the
    paper itself suggests ("use an approximate lower bound to establish
    a termination condition").  The budget counts nodes, not seconds,
    so the rate found is the same on every machine; set [time_limit]
    to add a wall-clock cap.  The worker count is inherited from
    {!Lp.Branch_bound.default_options} (sequential); override
    [workers] here to parallelise each solve — the rates found are
    identical either way. *)

val search_placement :
  ?encoding:Placement.encoding ->
  ?preprocess:bool ->
  ?options:Lp.Branch_bound.options ->
  ?tol:float ->
  ?max_multiplier:float ->
  ?initial_tiers:int array ->
  ?root_basis:Lp.Basis.t ->
  Placement.t ->
  placement_result option
(** Bracket and bisect the rate multiplier over any tier topology (a
    {!Placement.Topology.t} tree, of which the chain and the two-tier
    cut are special cases), solving each probe with {!Placement.solve}
    on {!Placement.scale_rate}.

    [None] when even a vanishing input rate has no feasible placement
    (contradictory pinning or zero budgets), or — under a finite
    budget — when no probe could be certified feasible.  [tol] is the
    relative precision of the search (default 0.01); [max_multiplier]
    caps the upward bracket (default 65536).  [options] defaults to
    {!default_search_options}.

    Each bracket/bisection step reuses the previous one: the last
    feasible tier assignment seeds the next solve's incumbent, and
    the root LP basis is carried across the rescaled instances.  On
    any instance a step solves to completion, reuse cannot change the
    feasibility verdict — warm starts are performance hints only.
    When a step instead dies on [options]' node or time budget, the
    carried incumbent may prove feasibility inside a budget a cold
    solve would exhaust, so on budget-bound instances the rate found
    depends on the sequence of probes before it (it is always
    {e genuinely feasible}).

    [initial_tiers] and [root_basis] pre-seed that carried state from
    a completed solve of the same placement structure at another
    rate — {!Service}'s near-repeat warm start.  Both are performance
    hints with the same caveats. *)
