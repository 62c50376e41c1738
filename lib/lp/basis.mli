(** Simplex basis snapshots: the information needed to warm-start a
    bounded-variable simplex re-solve (see {!Sparse.solve_warm}).

    A snapshot records, for the tableau of a particular problem
    instance, which column is basic in each row and at which bound
    every nonbasic column rests.  It is valid for any problem with the
    same constraint/column structure — in particular for the same
    problem under different variable bounds (branch & bound children)
    or with uniformly rescaled coefficients (rate-search steps): the
    restoring solver refactorises the basis against the current
    coefficients, so only the {e structure} must match. *)

type cstat = At_lower | At_upper | Basic

type t = {
  rows : int array;  (** row index -> column basic in that row *)
  stat : cstat array;
      (** per tableau column (structural + slack + artificial) *)
}

val n_rows : t -> int
val n_cols : t -> int
val copy : t -> t

val compatible : t -> rows:int -> cols:int -> bool
(** Whether the snapshot can seed a tableau of [rows] x [cols]:
    dimensions match and every recorded basic column is in range. *)

val equal : t -> t -> bool
(** Structural equality: same basic column per row and same resting
    bound per column.  Two equal snapshots warm-start a re-solve
    identically, so caches (the placement service) may replace one
    with the other. *)

val digest : t -> string
(** Hex digest of the snapshot's canonical serialisation.  [equal a b]
    iff [digest a = digest b]; used by snapshot caches to key and
    cross-check stored bases without retaining a structural copy. *)
