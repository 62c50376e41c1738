(** The nine correctness oracles behind [bin/fuzz] (DESIGN.md §11).

    Each oracle takes one generated instance and either passes or
    fails with a human-readable explanation.  All randomness is drawn
    from the caller's {!Prng.t}, so a failing case replays exactly
    from its seed. *)

type outcome = Pass | Fail of string

val is_pass : outcome -> bool
val describe : outcome -> string

val lp_certificate : Prng.t -> Lp.Problem.t -> outcome
(** Ground truth for the LP engine.  Solve the LP relaxation cold with
    {!Lp.Sparse} and certify the answer with
    {!Certificate.check_result} — an optimal basis by its dual
    certificate, an infeasible verdict by the elastic LP, an unbounded
    one by a growing box.  Then perturb one variable's bounds and
    re-solve twice, cold and warm-started from the first solve's
    basis; each answer is certified the same way under the perturbed
    bounds.  Finally the unperturbed problem goes through
    {!Lp.Branch_bound.solve}, which presolves it: its status and
    objective must match the cold solve, and its postsolved point and
    root basis must certify against the {e original} rows under the
    presolved box ({!Lp.Presolve.bounds}).  Budget-limited solves are
    inconclusive and pass. *)

val ilp_brute : Lp.Problem.t -> outcome
(** Branch & bound versus exhaustive enumeration on a small all-integer
    program: statuses agree; optimal objectives match; the incumbent
    is feasible, integral, and its integer projection appears among
    {!Lp.Brute.optimal_points}.  Inconclusive solver budgets pass. *)

val cut_enumeration :
  ?resources:Wishbone.Placement.resource list -> Wishbone.Spec.t -> outcome
(** Run {!Wishbone.Placement.solve} on {!Wishbone.Placement.of_spec}
    under all four configurations ([Restricted]/[General] x
    preprocessing on/off) and compare each against an exhaustive
    enumeration of movable assignments filtered by
    {!Wishbone.Spec.feasible} (and the resource rows, checked
    directly).  The report's tier-0 cpu, link-0 net and objective
    must match {!Wishbone.Spec.cut_stats} on the returned assignment,
    and the general optimum can never be worse than the restricted
    one.  Specs with more than 16 movable operators pass trivially. *)

val degradation : Prng.t -> Wishbone.Spec.t -> outcome
(** Execute the same injected samples through {!Runtime.Exec.full} and
    through a two-tier {!Runtime.Multirun} with a bounded, shedding
    inter-half queue (random policy, capacity and service rate) along a random
    predecessor-closed cut.  Loss must be {e subtractive, never
    corrupting}: the shedding run's sink values must form a
    sub-multiset of the lossless run's, the per-operator drop counters
    must account for every shed crossing, and when nothing was shed
    the two runs must agree exactly.  Instances that place a stateful
    operator downstream of the queue (outside conservative placement's
    guarantee) pass trivially. *)

val service_equivalence : Prng.t -> Wishbone.Spec.t -> outcome
(** The fleet placement service against the direct solve path.  A
    random batch of queries — fixed-rate and rate-search, with repeats
    and near-repeats, over the spec's two-tier placement and a
    budget-perturbed sibling — is pushed through {!Wishbone.Service}
    (random LRU capacity), then through
    {!Wishbone.Service.solve_direct} with the same solver options.
    Every served answer must agree {e byte for byte} (status, chosen
    rate, objective, tier assignment, and the canonical digest); the
    batch is then replayed against the warm cache and must agree
    again; and the service counters must conserve
    ([hits + misses = queries], [inserts - evictions = resident <=
    capacity]).  Specs with more than 16 movable operators pass
    trivially, as does any query whose solver budget is exhausted on
    either path (warm starts legitimately change how far a budget
    reaches). *)

val degraded_soundness : Prng.t -> Wishbone.Spec.t -> outcome
(** Gap-certified degradation is sound.  The spec's two-tier placement
    is solved through {!Wishbone.Service.solve_direct} under a random
    {e work-unit} budget (a node budget of 0–5 and/or a tree-wide
    pivot budget of 1–40) as a random fixed-rate or rate-search query.
    A [Degraded] answer's incumbent must pass
    {!Wishbone.Placement.feasible} at its rate, its gap must equal the
    bound arithmetic bit-for-bit and be non-negative, and on these
    small instances the brute-force optimum must lie inside the
    certified interval [[best_bound, objective]] ({!tree_brute_force}
    on the rate-scaled instance).  A [Placed] answer must carry an
    optimality proof; a fixed-rate [Infeasible] must agree with
    enumeration (a search [Infeasible] under budget is
    conservative and passes).  Independently, a huge-but-finite pivot
    budget must reproduce the unbudgeted default path byte for byte.
    [Failed] (budget exhausted, no incumbent) is inconclusive.  Specs
    with more than 16 movable operators pass trivially. *)

val tree_brute_force :
  Wishbone.Placement.t ->
  contracted:bool ->
  monotone:bool ->
  (int array * float) option
(** The placement brute force every oracle and test checks
    {!Wishbone.Placement.solve} against: enumerate every tier for
    every supernode of {!Wishbone.Preprocess.contract} (when
    [contracted]) or of every operator (otherwise), judge each
    assignment by an independent root-path-walk evaluation of pins,
    budgets, monotone descent (when [monotone]) and the objective,
    and return the best per-operator tiers with their objective.
    [None] when no assignment is feasible.  Exponential: callers cap
    the instance size. *)

val tree_equivalence : Prng.t -> Wishbone.Spec.t -> outcome
(** The tree-topology placement core against {!tree_brute_force}.  A
    random rooted tier tree (2–5 tiers, topological parent numbering;
    two tiers is the classic node/server cut), random middle platforms (cheaper
    per-op CPU, random budgets), per-uplink budgets/weights, and an
    occasional tier pin are built over the spec; [Placement.solve]
    under both encodings must agree on feasibility and optimal
    objective with an exhaustive enumeration over the same supernode
    space (contracted under [Restricted] with no pins, the full graph
    otherwise), judged by an independent root-path-walk evaluation of
    monotonicity, budgets and objective.  The returned report must be
    internally consistent with [Placement.stats].  Additionally the
    chain-as-degenerate-tree property is checked byte-for-byte: a
    3-tier chain built with an explicit [Topology.of_parents]
    [[|1;2;-1|]] must encode the {e identical} ILP (variables, rows,
    names, objective) as the implicit-chain constructor.  Specs with
    more than 7 movable operators or 10 supernodes (16 and 12 for a
    two-tier draw) pass trivially, as do solves that exhaust the
    branch-and-bound budget. *)

val split_equivalence : Prng.t -> Wishbone.Spec.t -> outcome
(** Execute the same injected samples through {!Runtime.Exec.full} and
    through a two-tier {!Runtime.Multirun} split along a random
    predecessor-closed cut (plus, when {!Wishbone.Placement.solve}
    finds one, its own restricted-encoding cut): sink deliveries must match as
    multisets per injection, every operator must fire the same number
    of times, and the split runtime's crossing traffic must equal the
    full run's traffic over the cut edges. *)

val sim_determinism : Prng.t -> outcome
(** The simulated testbed on a random small fleet (2–12 nodes, random
    rate / payload / duration / seed, random fault and transport mix).
    The run must process at least one event (a vacuous case fails) and,
    under reliable transport, conserve messages:
    [sent = received + expired + pending].  A random cell decomposition
    must then give the identical {!Netsim.Testbed.result}, floats
    compared bit for bit, on one and on two simulation domains. *)
