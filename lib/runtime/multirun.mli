(** Multi-tier split execution: N engine instances joined in a tier
    tree by bounded channels, driven from a placement.

    The operator graph is cut into [n_tiers] slices (tier 0 an
    embedded node, the last tier the central server at the tree root)
    and each slice runs in its own {!Exec} engine; tier 0 is
    replicated [n_nodes] times, deeper tiers host per-node state for
    [Node]-namespace operators relocated off the node.  Each non-root
    tier sheds into its parent over its {e uplink} (link [k] = uplink
    of tier [k]; for the default chain, link [k] joins tiers [k] and
    [k+1] as it always did): either perfect (lossless, zero-latency —
    crossings are executed at the parent immediately) or a bounded
    {!Shed} channel with a per-injection service rate and per-operator
    drop accounting, the overloaded-link semantics of §6.

    A crossing emitted at tier [p] for an operator on an ancestor tier
    [q] traverses the uplinks on the [p → q] rootward path in order:
    it is counted as offered on each, forwarded straight through
    lossless links, and parked in the first bounded channel on its way
    (service then moves it onwards).  Channels are serviced in
    ascending link order — every tier's parent has a larger index, so
    data drains leaf-most first.

    With [n_tiers = 2] this is the paper's split node/server runtime:
    tier 0 the node, tier 1 the server, link 0 the radio.  By default
    the channel is perfect — the invariant behind Wishbone's freedom
    to move stateless operators (§2.1.1).  A bounded link emulates the
    overloaded-node semantics of §6 instead: loss is subtractive (a
    shedding run's sink outputs are a sub-multiset of the lossless
    run's, the [degradation] fuzz oracle) provided no stateful operator
    sits downstream of the channel, which conservative-mode placement
    guarantees. *)

type link_config = {
  policy : Shed.policy;
  capacity : int;  (** channel bound *)
  service : int;
      (** crossings serviced from this channel per injection; [0]
          defers all service to explicit {!drain} calls *)
  seed : int;  (** for probabilistic policies *)
}

type t

val create :
  ?n_nodes:int ->
  ?links:link_config option list ->
  ?parents:int array ->
  n_tiers:int ->
  tier_of:(int -> int) ->
  Dataflow.Graph.t ->
  t
(** [tier_of op] places each operator on a tier in [0 .. n_tiers-1].
    [links] configures the [n_tiers - 1] uplinks ([None] = perfect,
    the default for all).  [parents] joins the tiers in a rooted tree
    (entry [k] is tier [k]'s parent, [> k]; the last entry must be
    [-1]); it defaults to the historical chain.
    @raise Invalid_argument on a bad tier count, a tier out of range,
    a [links] list of the wrong length, or an invalid parent array. *)

val reset : t -> unit
(** Reset every engine, flush every channel and zero the traffic and
    drop counters. *)

val inject :
  ?node:int -> t -> source:int -> Dataflow.Value.t -> Dataflow.Value.t list
(** Push one sensor sample into [source] on the given node (default
    0).  Sources live on non-root tiers: tier-0 sources address one
    of the [n_nodes] replicas; sources on a deeper tier (another leaf
    of a tier tree) have a single engine, so [node] must be 0.
    Crossings are routed as described above; each bounded channel
    then services up to its [service] quota.  Returns the values that
    reached sink operators, in order.
    @raise Invalid_argument when [source] sits on the root tier or
    [node] names no replica of its tier. *)

val drain : ?limit:int -> t -> Dataflow.Value.t list
(** Service up to [limit] parked crossings (default: all), ascending
    link order, returning the resulting sink values.  Always [[]]
    when every link is perfect. *)

val n_tiers : t -> int
val n_nodes : t -> int
val tier_of : t -> int -> int

val tier_exec : t -> tier:int -> int -> Exec.t
(** [tier_exec t ~tier replica]: the engine of a tier (for statistics
    inspection).  Tier 0 has [n_nodes] replicas; deeper tiers exactly
    one. *)

val link_traffic : t -> int -> int * int
(** Per link: total (elements, bytes) {e offered} so far, shed
    crossings included. *)

val link_dropped : t -> int -> int
(** Crossings shed on a link so far (0 for a perfect link). *)

val link_drop_counts : t -> int -> int array
(** Per-operator shed counts of one link: index [i] counts dropped
    crossings emitted by operator [i]. *)

val link_queued : t -> int -> int
(** Crossings currently parked in a link's channel. *)
