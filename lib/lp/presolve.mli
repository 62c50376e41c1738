(** LP/ILP presolve and postsolve.

    {!run} shrinks a problem before any simplex work:

    - {b bound propagation} to a fixpoint: every row's activity bounds
      tighten the bounds of its integer columns (rounded to integers);
      a row whose other columns are all fixed (a {e singleton}) sets
      the bound of its last column, integer or continuous;
    - {b substitution}: columns with [lo = hi] leave the problem, their
      contribution moving into the row right-hand sides and into an
      objective constant ({!offset});
    - {b row removal}: empty rows, singleton rows (their bound now sits
      on the column) and rows that activity bounds prove redundant.

    If propagation meets [lo > hi] anywhere — or an activity bound
    that no point in the box can satisfy — the problem is infeasible.
    {!run} then flags it in {!stats} and reduces nothing, so that the
    simplex, run on the original problem, settles the verdict with its
    own tolerances (and its own pivot accounting).

    The reduced problem keeps the surviving columns and rows in their
    original order, so lifted points compare lexicographically as
    before (the fixed columns agree on every candidate).  Its feasible integer
    points are exactly the original's, projected: every removed row is
    implied by the reduced box and the fixed values, and every fixing
    or tightening is implied by the rows.  Continuous columns are only
    tightened through singleton rows, so the LP relaxation over the
    reduced box differs from the original one only by the rounding of
    integer bounds.

    {b Postsolve} maps answers back: {!lift} fills a reduced point's
    fixed columns in, {!lift_basis} turns a reduced simplex basis into
    one of the original tableau layout (a fixed column is nonbasic at
    its bound, a removed row has its slack basic — its artificial for
    an equality row), and {!restrict_basis} maps an original-space
    basis forward, so warm starts survive between problems that fix
    different column sets.  The caller's problem is never mutated. *)

type stats = {
  rows_before : int;
  cols_before : int;
  rows_after : int;
  cols_after : int;
  cols_fixed : int;  (** columns removed because [lo = hi] *)
  rounds : int;
      (** passes over the rows; the last one changed nothing unless
          the pass cap or an infeasibility ended propagation *)
  infeasible : bool;
      (** propagation proved the problem infeasible; nothing was
          reduced *)
}

type t
(** A presolved problem together with its postsolve maps. *)

val run : ?feas_tol:float -> Problem.t -> t
(** [run p] presolves [p] without mutating it.  [feas_tol] (default
    [1e-7], {!Simplex.default_options}' value) sets the tolerance by
    which a row may be violated before it counts as infeasible; it
    matches the slack the simplex grants a row when it checks the
    point it returns, so presolve and simplex agree on marginal
    rows. *)

val problem : t -> Problem.t
(** The reduced problem.  When presolve removes nothing this is the
    input problem itself. *)

val lo : t -> float array
val hi : t -> float array
(** Bounds of the reduced problem's columns after propagation: solve
    the reduced problem under these, not under its declared bounds. *)

val offset : t -> float
(** Objective contribution of the fixed columns, in the problem's own
    direction: an original objective value is a reduced one plus this. *)

val stats : t -> stats

val bounds : t -> float array * float array
(** The presolved bounds in original space (fixed columns at their
    value): the box under which {!lift}ed points and bases certify
    against the original problem. *)

val lift : t -> float array -> float array
(** Reduced point to original point (the argument itself when presolve
    removed nothing). *)

val lift_basis : t -> Basis.t -> Basis.t
(** Reduced basis to original-layout basis (likewise). *)

val restrict_basis : t -> Basis.t -> Basis.t option
(** Original-layout basis to reduced basis.  Columns and rows that
    presolve removed drop out; when the surviving basic columns number
    fewer than the reduced rows, slacks (artificials for equality rows)
    of rows without a basic slack fill the gap in row order.  [None]
    when the basis does not fit the original layout or keeps more
    basic columns than there are reduced rows: the caller then solves
    cold. *)

val pp_stats : Format.formatter -> stats -> unit
(** [rows 607 -> 548, cols 452 -> 434, 18 fixed, 3 rounds]. *)
