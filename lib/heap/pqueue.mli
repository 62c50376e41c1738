(** Minimal binary min-heap keyed by floats.

    Two hot paths share it: branch & bound orders open nodes by their
    LP relaxation bound (best-first), and [Netsim.Testbed] pops its
    discrete events from one heap per collision domain — every
    simulator golden and digest pins this exact pop order.

    Entries with equal keys pop in an order determined by the heap's
    internal structure (deterministic for a given push/pop sequence,
    but not FIFO); callers that need a total order add their own
    tie-break key. *)

type 'a t

val create : ?capacity:int -> unit -> 'a t
(** [create ~capacity ()] preallocates room for [capacity] entries so
    hot loops do not regrow the arrays (default 16; values < 1 are
    clamped to 1). *)

val is_empty : 'a t -> bool
val length : 'a t -> int
val push : 'a t -> float -> 'a -> unit
val pop : 'a t -> (float * 'a) option
(** Removes and returns the entry with the smallest key. *)

val min_key : 'a t -> float option
