(** Discrete-event simulation of a deployed, partitioned program on a
    single-hop wireless testbed (the reproduction of §7.3's 20-TMote
    deployment), scalable to synthetic fleets of 10^5 nodes.

    Per node: sensor windows arrive periodically; if the CPU is still
    busy with an earlier traversal (beyond one buffered window) the
    input is {e missed}.  Completing a traversal turns every value
    crossing the node→server cut into a fragmented radio message.
    Nodes contend for one shared channel with CSMA + random backoff;
    two transmissions starting within the carrier-sense turnaround
    window collide.  A message is delivered only when all of its
    fragments arrive; delivered messages drive the server half of the
    graph, whose sink outputs are the application's goodput.

    The three measured quantities of Figure 9 map to
    {!result.input_fraction}, {!result.msg_fraction}, and their
    product {!result.goodput_fraction}.

    Two orthogonal extensions harden the deployment story:
    {!Faults.t} injects node crash/reboot, Gilbert–Elliott burst loss
    and clock drift; {!Transport.policy} optionally layers end-to-end
    ack/retry over the CSMA channel.  Both default to off, and with
    both off the simulation — including every PRNG draw — is
    identical to the pre-fault-injection testbed, so existing seeds
    reproduce bit-identical results.

    {2 Scale-out}

    Events pop from one float-keyed binary heap ({!Heap.Pqueue}) per
    collision domain.  Two independent knobs shard large fleets
    without moving any small-N result:

    - {!config.cells} partitions nodes into disjoint {e collision
      domains} (radio cells): nodes contend only within their cell,
      each cell draws from its own derived PRNG streams
      ([derive seed [2; cell(; k)]]), and the server half fires over
      the deterministically merged delivery log.  [None] (default) is
      the single shared channel of the paper's testbed with the
      historical stream layout.
    - {!config.domains} simulates cells in parallel on that many
      {!Domain}s.  Cells are joined in cell-index order, so the
      result is a pure function of the cell decomposition: domains
      1, 2 and 4 return identical results, bit for bit.  Under
      [domains > 1] every [source_spec.gen] closure must be
      thread-safe.

    Seed derivation: the config [seed] drives the primary
    channel/CSMA stream directly ([Prng.create seed]); fault
    processes use [Prng.derive seed [1; k]] with [k = 0] for clock
    drift, [k = 1] for the crash schedule and [k = 2] for the burst
    channel, so enabling one fault class never perturbs another's
    schedule.  Multi-cell runs give cell [c] the primary stream
    [derive seed [2; c]] and fault streams [derive seed [2; c; k]],
    making each cell's draws independent of the number of cells
    around it. *)

type source_spec = {
  source : int;  (** source operator id *)
  rate : float;  (** windows per second *)
  gen : node:int -> seq:int -> Dataflow.Value.t;
}

type config = {
  n_nodes : int;
  platform : Profiler.Platform.t;
  link : Link.t;
  duration : float;  (** simulated seconds *)
  seed : int;
  tx_queue_packets : int;  (** per-node radio queue capacity *)
  per_packet_cpu_s : float;
      (** node CPU consumed per transmitted packet (the "processor
          involvement in communication" the paper's additive model
          omits, §7.3.1) *)
  os_overhead : float;
      (** multiplier on traversal compute time for OS/task overheads *)
  faults : Faults.t;  (** injected failure processes *)
  transport : Transport.policy;  (** end-to-end reliability *)
  cells : int array option;
      (** [cells.(node)] = collision-domain id (dense, every cell
          nonempty); [None] = one shared channel (the paper's testbed) *)
  domains : int;  (** parallel simulation domains (>= 1) *)
}

val default_config :
  ?n_nodes:int -> ?duration:float -> ?seed:int ->
  ?faults:Faults.t -> ?transport:Transport.policy ->
  ?cells:int array -> ?domains:int ->
  platform:Profiler.Platform.t -> link:Link.t -> unit -> config
(** Defaults: no faults, unreliable transport, one shared collision
    domain, one simulation domain. *)

type result = {
  inputs_offered : int;
  inputs_processed : int;
  msgs_sent : int;  (** whole values crossing the cut *)
  msgs_received : int;
      (** fully reassembled at the basestation (unique messages —
          duplicate deliveries under reliable transport are counted in
          [msgs_duplicate] and do not re-fire the server half) *)
  packets_sent : int;
  packets_lost_collision : int;
  packets_lost_channel : int;
  packets_lost_queue : int;
  sink_outputs : int;
  input_fraction : float;
  msg_fraction : float;
  goodput_fraction : float;  (** input_fraction *. msg_fraction *)
  node_busy_fraction : float;  (** mean CPU utilisation across nodes *)
  offered_bytes_per_sec : float;
  msgs_duplicate : int;
      (** reliable transport: deliveries suppressed by the dedup layer
          (a retransmission whose earlier copy already arrived) *)
  msgs_expired : int;
      (** reliable transport: messages whose retry budget was
          exhausted (or whose sender crashed) without delivery — the
          accounted, non-silent end-to-end losses *)
  msgs_pending : int;
      (** reliable transport: undelivered messages still awaiting
          retry when the simulation ended *)
  retransmissions : int;  (** message-level retransmit attempts *)
  acks_sent : int;
  acks_lost : int;
  crashes : int;  (** node crash events that occurred *)
  inputs_lost_down : int;  (** inputs arriving at a crashed node *)
  edge_bytes_per_sec : float array;
      (** measured per-edge traffic (bytes/s, indexed by [eid]) across
          both halves — the {e observed} edge rates the adaptive
          controller feeds back into the partitioner, as opposed to
          the profiled rates the static plan was built from *)
  events_processed : int;
      (** discrete events handled inside the horizon, summed over
          cells — the numerator of the bench's events/sec *)
}

val run :
  config -> graph:Dataflow.Graph.t -> node_of:(int -> bool) ->
  sources:source_spec list -> result
(** Simulate the given partition.  [node_of] must place every source
    operator on the node.

    Under reliable transport every message ends in exactly one of
    [msgs_received], [msgs_expired] or [msgs_pending]:
    [msgs_sent = msgs_received + msgs_expired + msgs_pending]. *)

val routing_parents : n_nodes:int -> int array
(** The testbed's routing tree as a parent array: the single-hop CSMA
    channel is a depth-one star — motes [0 .. n_nodes-1] each route
    directly to the basestation, the last entry (parent [-1]).
    Suitable for [Placement.Topology.of_parents].
    @raise Invalid_argument when [n_nodes < 1]. *)

(** {2 Synthetic fleets} *)

type fleet = {
  graph : Dataflow.Graph.t;  (** probe program: node source → server sink *)
  source_op : int;
  sources : source_spec list;
  cells : int array;  (** radio cell per node, [cell_size] nodes each *)
  parents : int array;
      (** routing tree over cells, basestation root last (parent
          [-1]); [parents.(k) > k], suitable for
          [Placement.Topology.of_parents] *)
}

val synthetic :
  nodes:int -> seed:int -> ?cell_size:int -> ?rate:float ->
  ?payload_bytes:int -> ?shape:[ `Star | `Dary of int | `Random ] ->
  unit -> fleet
(** A generated fleet for scale testing: [nodes] motes grouped into
    radio cells of [cell_size] (default 16), each running the
    two-operator probe program at [rate] windows/s (default 2) with
    [payload_bytes] windows (default 110).  [shape] arranges the
    cells into a routing tree: a depth-one [`Star] (every cell under
    the basestation), a regular [`Dary d] tree (default [`Dary 4]),
    or a seeded [`Random] tree ([Prng.derive seed [3]]).  The shape
    is placement-layer metadata ({!fleet.parents}); radio contention
    is always within-cell.  The shared [gen] payload is immutable, so
    the fleet is safe under [domains > 1].
    @raise Invalid_argument when [nodes < 1], [cell_size < 1] or a
    tree arity is [< 1]. *)
