open Dataflow

type source_spec = {
  source : int;
  rate : float;
  gen : node:int -> seq:int -> Value.t;
}

type config = {
  n_nodes : int;
  platform : Profiler.Platform.t;
  link : Link.t;
  duration : float;
  seed : int;
  tx_queue_packets : int;
  per_packet_cpu_s : float;
  os_overhead : float;
  faults : Faults.t;
  transport : Transport.policy;
  cells : int array option;
  domains : int;
}

let default_config ?(n_nodes = 1) ?(duration = 60.) ?(seed = 1)
    ?(faults = Faults.none) ?(transport = Transport.Unreliable)
    ?cells ?(domains = 1) ~platform ~link () =
  {
    n_nodes;
    platform;
    link;
    duration;
    seed;
    tx_queue_packets = 24;
    (* copying and driving the radio costs a few thousand cycles per
       packet regardless of platform: ~0.75 ms on an 8 MHz mote, ~15 us
       on a 400 MHz Gumstix *)
    per_packet_cpu_s = 6000. /. platform.Profiler.Platform.clock_hz;
    os_overhead = 1.15;
    faults;
    transport;
    cells;
    domains;
  }

type result = {
  inputs_offered : int;
  inputs_processed : int;
  msgs_sent : int;
  msgs_received : int;
  packets_sent : int;
  packets_lost_collision : int;
  packets_lost_channel : int;
  packets_lost_queue : int;
  sink_outputs : int;
  input_fraction : float;
  msg_fraction : float;
  goodput_fraction : float;
  node_busy_fraction : float;
  offered_bytes_per_sec : float;
  msgs_duplicate : int;
  msgs_expired : int;
  msgs_pending : int;
  retransmissions : int;
  acks_sent : int;
  acks_lost : int;
  crashes : int;
  inputs_lost_down : int;
  edge_bytes_per_sec : float array;
  events_processed : int;
}

(* ---- internal simulation structures ---- *)

type message = {
  mid : int;
  from_node : int;  (* global node id: drives the server-half Exec *)
  from_local : int;  (* cell-local index: keys the per-cell tables *)
  edge : Graph.edge;
  value : Value.t;
  total_frags : int;
}

let dummy_edge = { Graph.eid = 0; src = 0; dst = 0; dst_port = 0 }

let dummy_msg =
  {
    mid = 0;
    from_node = 0;
    from_local = 0;
    edge = dummy_edge;
    value = Value.Unit;
    total_frags = 0;
  }

(* Events are packed into a single non-negative int (<= 62 bits), the
   payload of the float-keyed event heap:

     bits 0..2    tag
     bits 3..23   cell-local node index (21 bits)
     bits 24..    tag-specific payload:
                    Sample            source index (8 bits) then seq
                    Cpu_done/Attempt  node epoch
                    Rexmit/Ack        message id
                    Tx_end/Crash/Reboot  unused *)

let tag_sample = 0
let tag_cpu_done = 1
let tag_attempt = 2
let tag_tx_end = 3
let tag_crash = 4
let tag_reboot = 5
let tag_rexmit = 6
let tag_ack = 7
let node_bits = 21
let node_limit = 1 lsl node_bits

let mk tag node arg = tag lor (node lsl 3) lor (arg lsl 24)

let mk_sample node si seq =
  assert (seq < 1 lsl 30);
  tag_sample lor (node lsl 3) lor (si lsl 24) lor (seq lsl 32)

let ev_tag ev = ev land 7
let ev_node ev = (ev lsr 3) land (node_limit - 1)
let ev_arg ev = ev lsr 24
let ev_si ev = (ev lsr 24) land 0xFF
let ev_seq ev = ev lsr 32

(* Packed table keys.  [node < 2^21] (checked per cell), [mid < 2^31]
   and [attempt < 2^10] (asserted), so both packs stay within the 62
   non-negative bits of a 63-bit OCaml int. *)

let key2 node mid =
  assert (mid < 1 lsl 31);
  (node lsl 31) lor mid

let key2_node k = k lsr 31

let key3 node mid att =
  assert (mid < 1 lsl 31 && att < 1 lsl 10);
  (((node lsl 31) lor mid) lsl 10) lor att

let key3_node k = k lsr 41

(* sender-side retransmit buffer: a growable slot pool so the reliable
   path stores no boxed per-message records *)
type pool = {
  mutable pm : message array;
  mutable pt : int array;  (* transport attempts *)
  mutable pfree : int array;
  mutable pnfree : int;
  mutable ptop : int;
}

let pool_create () =
  {
    pm = Array.make 64 dummy_msg;
    pt = Array.make 64 0;
    pfree = Array.make 64 0;
    pnfree = 0;
    ptop = 0;
  }

let pool_alloc p msg =
  let slot =
    if p.pnfree > 0 then begin
      p.pnfree <- p.pnfree - 1;
      p.pfree.(p.pnfree)
    end
    else begin
      let cap = Array.length p.pm in
      if p.ptop = cap then begin
        let nm = Array.make (2 * cap) dummy_msg in
        let nt = Array.make (2 * cap) 0 in
        Array.blit p.pm 0 nm 0 cap;
        Array.blit p.pt 0 nt 0 cap;
        p.pm <- nm;
        p.pt <- nt
      end;
      let s = p.ptop in
      p.ptop <- p.ptop + 1;
      s
    end
  in
  p.pm.(slot) <- msg;
  p.pt.(slot) <- 1;
  slot

let pool_release p slot =
  p.pm.(slot) <- dummy_msg;
  let cap = Array.length p.pfree in
  if p.pnfree = cap then begin
    let nf = Array.make (2 * cap) 0 in
    Array.blit p.pfree 0 nf 0 cap;
    p.pfree <- nf
  end;
  p.pfree.(p.pnfree) <- slot;
  p.pnfree <- p.pnfree + 1

(* everything one cell's simulation produced, joined by [run] *)
type cell_out = {
  o_offered : int;
  o_processed : int;
  o_msent : int;
  o_mrecv : int;
  o_psent : int;
  o_coll : int;
  o_chan : int;
  o_queue : int;
  o_sink : int;
  o_offered_bytes : int;
  o_dup : int;
  o_exp : int;
  o_pend : int;
  o_rexmit : int;
  o_acks : int;
  o_acklost : int;
  o_crashes : int;
  o_down : int;
  o_busy : float;
  o_edge : int array;
  o_events : int;
  o_deliv : (float * message) list;  (* newest first; [] when inline *)
}

(* Simulate one collision domain.  [server = Some exec] is the
   single-cell legacy mode: the server half fires inline, and the PRNG
   streams are the historical ones, so the run is byte-identical to
   the pre-scale-out testbed.  [server = None] defers deliveries to
   the caller (which fires the server half after joining all cells)
   and derives the cell's streams as [derive seed [2; cell(; k)]]. *)
let sim_cell (config : config) ~graph ~node_mask ~sources_arr ~server ~cell
    ~(g_of_l : int array) =
  let m = Array.length g_of_l in
  if m > node_limit then
    invalid_arg "Testbed.run: a cell holds more than 2^21 nodes";
  let link = config.link in
  let faults = config.faults in
  let inline = match server with Some _ -> true | None -> false in
  (* Seed derivation (see prng.mli): in legacy single-cell mode the
     root seed drives the primary channel/CSMA stream exactly as it
     always has, with fault streams at [1; k]; sharded cells each get
     an independent family at [2; cell(; k)] so a cell's draws do not
     depend on how many cells or domains surround it. *)
  let rng, drift_rng, crash_rng, burst_rng =
    if inline then
      ( Prng.create config.seed,
        Prng.create (Prng.derive config.seed [ 1; 0 ]),
        Prng.create (Prng.derive config.seed [ 1; 1 ]),
        Prng.create (Prng.derive config.seed [ 1; 2 ]) )
    else
      ( Prng.create (Prng.derive config.seed [ 2; cell ]),
        Prng.create (Prng.derive config.seed [ 2; cell; 0 ]),
        Prng.create (Prng.derive config.seed [ 2; cell; 1 ]),
        Prng.create (Prng.derive config.seed [ 2; cell; 2 ]) )
  in
  let ge = Faults.channel burst_rng faults.Faults.burst in
  let drifts = Faults.drifts drift_rng faults ~n_nodes:m in
  let reliable =
    match config.transport with
    | Transport.Unreliable -> None
    | Transport.Reliable r -> Some r
  in
  let execs =
    Array.init m (fun _ ->
        Runtime.Exec.create ~member:(fun i -> node_mask.(i)) graph)
  in
  (* per-node state, struct-of-arrays: the event loop touches flat
     unboxed arrays only *)
  (* ring capacity is one beyond the admission bound: the in-flight
     packet is popped before new admissions and may be pushed back at
     the head of a full queue when its transmission collides *)
  let qcap = Int.max 1 config.tx_queue_packets + 1 in
  let q_msg = Array.make (m * qcap) dummy_msg in
  let q_att = Array.make (m * qcap) 0 in
  let q_tries = Array.make (m * qcap) 0 in
  let q_head = Array.make m 0 in
  let q_len = Array.make m 0 in
  let cpu_busy = Array.make m false in
  let buf_src = Array.make m (-1) in
  let buf_val = Array.make m Value.Unit in
  let waiting = Array.make m false in
  let cw = Array.make m 0 in
  let busy = Array.make m 0. in
  let next_mid = Array.make m 0 in
  let up = Array.make m true in
  let epoch = Array.make m 0 in
  let events = Heap.Pqueue.create ~capacity:(Int.max 64 (2 * m)) () in
  (* shared-channel state *)
  let busy_until = ref 0. in
  let tx_active = ref false in
  let tx_sender = ref 0 in
  let tx_epoch = ref 0 in
  let tx_msg = ref dummy_msg in
  let tx_att = ref 0 in
  let tx_tries = ref 0 in
  let tx_start = ref 0. in
  let tx_corrupted = ref false in
  (* reassembly: key3 (node, mid, transport attempt) -> fragments missing *)
  let missing = Itbl.create ~capacity:256 () in
  (* reliable transport: key2 (node, mid) -> pool slot / presence *)
  let inflight = Itbl.create ~capacity:64 () in
  let delivered = Itbl.create ~capacity:256 () in
  (* messages written off as expired whose last attempt is still in
     the air; a late delivery moves them back to received *)
  let expired = Itbl.create ~capacity:32 () in
  let pool = pool_create () in
  (* counters *)
  let inputs_offered = ref 0 in
  let inputs_processed = ref 0 in
  let msgs_sent = ref 0 in
  let msgs_received = ref 0 in
  let packets_sent = ref 0 in
  let lost_collision = ref 0 in
  let lost_channel = ref 0 in
  let lost_queue = ref 0 in
  let sink_outputs = ref 0 in
  let offered_bytes = ref 0 in
  let msgs_duplicate = ref 0 in
  let msgs_expired = ref 0 in
  let retransmissions = ref 0 in
  let acks_sent = ref 0 in
  let acks_lost = ref 0 in
  let crashes = ref 0 in
  let inputs_lost_down = ref 0 in
  let handled = ref 0 in
  let deliveries = ref [] in
  (* edge statistics survive crash-time Exec.reset in this array *)
  let edge_acc = Array.make (Graph.n_edges graph) 0 in
  (* schedule the first window of every (node, source) pair with a
     small per-node phase offset so nodes do not fire in lockstep *)
  Array.iteri
    (fun si (spec : source_spec) ->
      if spec.rate > 0. then
        for node = 0 to m - 1 do
          let phase = Prng.uniform rng 0. (1. /. spec.rate) in
          Heap.Pqueue.push events phase (mk_sample node si 0)
        done)
    sources_arr;
  (* the crash/reboot schedule is fixed up front from its own stream *)
  List.iter
    (fun (t, node, what) ->
      Heap.Pqueue.push events t
        (match what with
        | `Crash -> mk tag_crash node 0
        | `Reboot -> mk tag_reboot node 0))
    (Faults.crash_schedule crash_rng faults ~n_nodes:m
       ~duration:config.duration);
  let schedule t ev = Heap.Pqueue.push events t ev in
  (* congestion backoff: the contention window doubles each time a node
     finds the channel busy or collides, like the TinyOS CSMA layer *)
  let backoff n =
    let window = link.Link.backoff_s *. Float.of_int (1 lsl Int.min cw.(n) 6) in
    Prng.uniform rng 0. window
  in
  let ensure_attempt now n =
    if up.(n) && (not waiting.(n)) && q_len.(n) > 0 then begin
      waiting.(n) <- true;
      schedule (now +. backoff n) (mk tag_attempt n epoch.(n))
    end
  in
  let channel_loss now =
    Faults.channel_loss ge ~now ~base:link.Link.base_loss
  in
  (* radio-queue ring helpers *)
  let q_push_back n msg att tries =
    assert (q_len.(n) < qcap);
    let i = (n * qcap) + ((q_head.(n) + q_len.(n)) mod qcap) in
    q_msg.(i) <- msg;
    q_att.(i) <- att;
    q_tries.(i) <- tries;
    q_len.(n) <- q_len.(n) + 1
  in
  let q_push_front n msg att tries =
    assert (q_len.(n) < qcap);
    let h = (q_head.(n) + qcap - 1) mod qcap in
    q_head.(n) <- h;
    let i = (n * qcap) + h in
    q_msg.(i) <- msg;
    q_att.(i) <- att;
    q_tries.(i) <- tries;
    q_len.(n) <- q_len.(n) + 1
  in
  (* admit one transport attempt's fragments to the radio queue; on
     overflow the attempt cannot complete, but admitted siblings still
     burn airtime -- the §4.3 overload effect *)
  let enqueue_attempt n (msg : message) ~t_attempt =
    Itbl.set missing (key3 msg.from_local msg.mid t_attempt) msg.total_frags;
    let dropped = ref false in
    for _ = 1 to msg.total_frags do
      if q_len.(n) < config.tx_queue_packets then q_push_back n msg t_attempt 0
      else begin
        incr lost_queue;
        dropped := true
      end
    done;
    if !dropped then Itbl.remove missing (key3 msg.from_local msg.mid t_attempt);
    not !dropped
  in
  let start_processing now n source_op value =
    cpu_busy.(n) <- true;
    let g = g_of_l.(n) in
    let fired =
      Runtime.Exec.fire ~node:g execs.(n) ~op:source_op ~port:0 value
    in
    sink_outputs := !sink_outputs + List.length fired.sink_values;
    let crossings = fired.crossings in
    let n_packets =
      List.fold_left
        (fun acc (c : Runtime.Exec.crossing) ->
          acc + Link.packets_of_bytes link (Value.size_bytes c.value))
        0 crossings
    in
    let compute_s =
      (Profiler.Platform.seconds config.platform fired.workload
       *. config.os_overhead)
      +. (Float.of_int n_packets *. config.per_packet_cpu_s)
    in
    (* clip the accrual at the simulation horizon: a job admitted near
       the end keeps computing past [duration] but only the in-window
       part is utilisation, else the busy fraction can overshoot 1 by
       a whole job (not just ulps) on short runs *)
    busy.(n) <-
      busy.(n) +. Float.min compute_s (Float.max 0. (config.duration -. now));
    schedule (now +. compute_s) (mk tag_cpu_done n epoch.(n));
    (* queue the messages now; they go on air as the channel allows *)
    List.iter
      (fun (c : Runtime.Exec.crossing) ->
        let bytes = Value.size_bytes c.value in
        offered_bytes := !offered_bytes + bytes;
        let total_frags = Link.packets_of_bytes link bytes in
        let msg =
          {
            mid = next_mid.(n);
            from_node = g;
            from_local = n;
            edge = c.edge;
            value = c.value;
            total_frags;
          }
        in
        next_mid.(n) <- next_mid.(n) + 1;
        incr msgs_sent;
        (* fragments are admitted individually, like a per-packet send
           queue: losing any fragment makes the message undeliverable,
           but admitted siblings still burn airtime -- the §4.3
           overload effect where offering more data delivers less *)
        let admitted = enqueue_attempt n msg ~t_attempt:1 in
        ignore admitted;
        match reliable with
        | None -> ()
        | Some r ->
            (* keep a copy for end-to-end retry; even a queue-overflowed
               first attempt is retried from here *)
            Itbl.set inflight (key2 n msg.mid) (pool_alloc pool msg);
            schedule
              (now +. Transport.rto r ~attempt:1)
              (mk tag_rexmit n msg.mid))
      crossings;
    ensure_attempt now n
  in
  let deliver_to_server now (msg : message) =
    match server with
    | Some sx ->
        let fired =
          Runtime.Exec.fire ~node:msg.from_node sx ~op:msg.edge.dst
            ~port:msg.edge.dst_port msg.value
        in
        sink_outputs := !sink_outputs + List.length fired.sink_values
    | None -> deliveries := (now, msg) :: !deliveries
  in
  (* the basestation acks a fully reassembled message: the ack occupies
     the channel (it is short but not free) and is itself subject to
     the channel loss process *)
  let send_ack now (msg : message) =
    incr acks_sent;
    let air = Link.short_packet_airtime link ~bytes:Transport.ack_bytes in
    busy_until := Float.max !busy_until (now +. air);
    if Prng.bool rng (channel_loss now) then incr acks_lost
    else schedule (now +. air) (mk tag_ack msg.from_local msg.mid)
  in
  let deliver_fragment now (msg : message) t_attempt =
    let key = key3 msg.from_local msg.mid t_attempt in
    let left = Itbl.get missing key in
    if left < 0 then ()
    else if left <= 1 then begin
      Itbl.remove missing key;
      match reliable with
      | None ->
          incr msgs_received;
          deliver_to_server now msg
      | Some _ ->
          let dk = key2 msg.from_local msg.mid in
          if Itbl.mem delivered dk then incr msgs_duplicate
          else begin
            Itbl.set delivered dk 1;
            if Itbl.mem expired dk then begin
              (* the sender gave up, but the final attempt made it:
                 the message was received after all *)
              Itbl.remove expired dk;
              decr msgs_expired
            end;
            incr msgs_received;
            deliver_to_server now msg
          end;
          send_ack now msg
    end
    else Itbl.set missing key (left - 1)
  in
  let kill_message (msg : message) t_attempt =
    (* one lost fragment dooms this attempt; siblings already queued
       keep transmitting (a NACK-free stack cannot know) *)
    Itbl.remove missing (key3 msg.from_local msg.mid t_attempt)
  in
  let handle now ev =
    match ev_tag ev with
    | 0 (* Sample *) ->
        let n = ev_node ev in
        let si = ev_si ev in
        let seq = ev_seq ev in
        let spec : source_spec = sources_arr.(si) in
        (* next arrival; a drifted node clock stretches the period *)
        let next = now +. (drifts.(n) /. spec.rate) in
        if next < config.duration then schedule next (mk_sample n si (seq + 1));
        incr inputs_offered;
        let value = spec.gen ~node:g_of_l.(n) ~seq in
        if not up.(n) then incr inputs_lost_down
        else if not cpu_busy.(n) then begin
          incr inputs_processed;
          start_processing now n spec.source value
        end
        else if buf_src.(n) < 0 then begin
          (* double-buffered ADC: hold exactly one pending window *)
          incr inputs_processed;
          buf_src.(n) <- spec.source;
          buf_val.(n) <- value
        end
        (* else: missed input event *)
    | 1 (* Cpu_done *) ->
        let n = ev_node ev in
        if ev_arg ev = epoch.(n) then begin
          cpu_busy.(n) <- false;
          if buf_src.(n) >= 0 then begin
            let src = buf_src.(n) and v = buf_val.(n) in
            buf_src.(n) <- -1;
            buf_val.(n) <- Value.Unit;
            start_processing now n src v
          end
        end
    | 2 (* Attempt *) ->
        let n = ev_node ev in
        if ev_arg ev = epoch.(n) then begin
          waiting.(n) <- false;
          if q_len.(n) > 0 then begin
            if now +. 1e-12 >= !busy_until then begin
              (* channel idle: transmit the head-of-line packet *)
              let i = (n * qcap) + q_head.(n) in
              let msg = q_msg.(i) and att = q_att.(i) in
              let tries = q_tries.(i) + 1 in
              q_head.(n) <- (q_head.(n) + 1) mod qcap;
              q_len.(n) <- q_len.(n) - 1;
              incr packets_sent;
              let dur = Link.packet_airtime link in
              tx_active := true;
              tx_sender := n;
              tx_epoch := epoch.(n);
              tx_msg := msg;
              tx_att := att;
              tx_tries := tries;
              tx_start := now;
              tx_corrupted := false;
              busy_until := now +. dur;
              schedule (now +. dur) tag_tx_end
            end
            else begin
              (if !tx_active && now -. !tx_start < link.Link.turnaround_s
               then begin
                 (* carrier not yet detectable: we transmit blindly and
                    collide with the ongoing packet *)
                 tx_corrupted := true;
                 cw.(n) <- cw.(n) + 1;
                 let i = (n * qcap) + q_head.(n) in
                 let msg = q_msg.(i) and att = q_att.(i) in
                 let tries = q_tries.(i) + 1 in
                 q_head.(n) <- (q_head.(n) + 1) mod qcap;
                 q_len.(n) <- q_len.(n) - 1;
                 incr packets_sent;
                 incr lost_collision;
                 let dur = Link.packet_airtime link in
                 busy_until := Float.max !busy_until (now +. dur);
                 if tries <= link.Link.retries then
                   (* retry later, head of line *)
                   q_push_front n msg att tries
                 else kill_message msg att
               end
               else cw.(n) <- cw.(n) + 1);
              ensure_attempt (Float.max now !busy_until) n
            end
          end
        end
    | 3 (* Tx_end *) ->
        if !tx_active then begin
          tx_active := false;
          let n = !tx_sender in
          if !tx_epoch <> epoch.(n) then
            (* the sender crashed mid-packet; the fragment died with
               it (the Crash handler marked the tx corrupted and
               flushed the reassembly state) *)
            ()
          else begin
            (if !tx_corrupted then begin
               incr lost_collision;
               cw.(n) <- cw.(n) + 1;
               if !tx_tries <= link.Link.retries then
                 q_push_front n !tx_msg !tx_att !tx_tries
               else kill_message !tx_msg !tx_att
             end
             else begin
               cw.(n) <- 0;
               if Prng.bool rng (channel_loss now) then begin
                 (* clean-channel loss: no link-layer ack, no retry *)
                 incr lost_channel;
                 kill_message !tx_msg !tx_att
               end
               else deliver_fragment now !tx_msg !tx_att
             end);
            ensure_attempt now n
          end
        end
    | 4 (* Crash *) ->
        let n = ev_node ev in
        if up.(n) then begin
          incr crashes;
          up.(n) <- false;
          epoch.(n) <- epoch.(n) + 1;
          (* a dying radio corrupts its own in-flight packet *)
          if !tx_active && !tx_sender = n then tx_corrupted := true;
          q_len.(n) <- 0;
          buf_src.(n) <- -1;
          buf_val.(n) <- Value.Unit;
          cpu_busy.(n) <- false;
          waiting.(n) <- false;
          cw.(n) <- 0;
          (* volatile operator state is lost (§2.1.1); keep the edge
             statistics gathered so far *)
          Array.iteri
            (fun eid acc ->
              edge_acc.(eid) <- acc + Runtime.Exec.edge_bytes execs.(n) eid)
            edge_acc;
          Runtime.Exec.reset execs.(n);
          (* the retransmit buffer is volatile too: every unacked
             message from this node dies, accounted, not silent *)
          let dead =
            Itbl.fold
              (fun k _ acc -> if key2_node k = n then k :: acc else acc)
              inflight []
          in
          List.iter
            (fun k ->
              pool_release pool (Itbl.get inflight k);
              Itbl.remove inflight k;
              if not (Itbl.mem delivered k) then begin
                Itbl.set expired k 1;
                incr msgs_expired
              end)
            dead;
          (* partially reassembled messages from this node are dead *)
          let stale =
            Itbl.fold
              (fun k _ acc -> if key3_node k = n then k :: acc else acc)
              missing []
          in
          List.iter (Itbl.remove missing) stale
        end
    | 5 (* Reboot *) -> up.(ev_node ev) <- true
    | 6 (* Rexmit *) -> (
        let n = ev_node ev in
        let mid = ev_arg ev in
        let slot = Itbl.get inflight (key2 n mid) in
        if slot >= 0 then
          (* else: acked, expired, or lost to a crash *)
          match reliable with
          | None -> ()
          | Some r ->
              if pool.pt.(slot) > r.Transport.max_retries then begin
                Itbl.remove inflight (key2 n mid);
                pool_release pool slot;
                if not (Itbl.mem delivered (key2 n mid)) then begin
                  Itbl.set expired (key2 n mid) 1;
                  incr msgs_expired
                end
              end
              else begin
                pool.pt.(slot) <- pool.pt.(slot) + 1;
                incr retransmissions;
                ignore
                  (enqueue_attempt n pool.pm.(slot) ~t_attempt:pool.pt.(slot));
                schedule
                  (now +. Transport.rto r ~attempt:pool.pt.(slot))
                  (mk tag_rexmit n mid);
                ensure_attempt now n
              end)
    | _ (* Ack_arrive *) ->
        (* end-to-end ack: retire the retransmit entry *)
        let n = ev_node ev in
        let k = key2 n (ev_arg ev) in
        let slot = Itbl.get inflight k in
        if slot >= 0 then begin
          Itbl.remove inflight k;
          pool_release pool slot
        end
  in
  let rec loop () =
    match Heap.Pqueue.pop events with
    | Some (t, ev) when t <= config.duration ->
        incr handled;
        handle t ev;
        loop ()
    | _ -> ()
  in
  loop ();
  {
    o_offered = !inputs_offered;
    o_processed = !inputs_processed;
    o_msent = !msgs_sent;
    o_mrecv = !msgs_received;
    o_psent = !packets_sent;
    o_coll = !lost_collision;
    o_chan = !lost_channel;
    o_queue = !lost_queue;
    o_sink = !sink_outputs;
    o_offered_bytes = !offered_bytes;
    o_dup = !msgs_duplicate;
    o_exp = !msgs_expired;
    o_pend =
      Itbl.fold
        (fun k _ acc -> if Itbl.mem delivered k then acc else acc + 1)
        inflight 0;
    o_rexmit = !retransmissions;
    o_acks = !acks_sent;
    o_acklost = !acks_lost;
    o_crashes = !crashes;
    o_down = !inputs_lost_down;
    o_busy = Array.fold_left (fun acc b -> acc +. b) 0. busy;
    o_edge =
      Array.init (Graph.n_edges graph) (fun eid ->
          edge_acc.(eid)
          + Array.fold_left
              (fun acc ex -> acc + Runtime.Exec.edge_bytes ex eid)
              0 execs);
    o_events = !handled;
    o_deliv = !deliveries;
  }

let run config ~graph ~node_of ~sources =
  if config.n_nodes <= 0 then invalid_arg "Testbed.run: need at least one node";
  if config.domains < 1 then invalid_arg "Testbed.run: domains must be >= 1";
  List.iter
    (fun s ->
      if not (node_of s.source) then
        invalid_arg "Testbed.run: source operator not placed on the node")
    sources;
  let sources_arr = Array.of_list sources in
  if Array.length sources_arr > 256 then
    invalid_arg "Testbed.run: at most 256 sources";
  let node_mask = Array.init (Graph.n_ops graph) node_of in
  let replicated i =
    (Graph.op graph i).Op.namespace = Op.Node && not node_mask.(i)
  in
  let server =
    Runtime.Exec.create ~replicated ~member:(fun i -> not node_mask.(i)) graph
  in
  let inline, groups =
    match config.cells with
    | None -> (true, [| Array.init config.n_nodes (fun i -> i) |])
    | Some ca ->
        if Array.length ca <> config.n_nodes then
          invalid_arg "Testbed.run: cells length must equal n_nodes";
        let ncells =
          Array.fold_left
            (fun acc c ->
              if c < 0 then invalid_arg "Testbed.run: negative cell id";
              Int.max acc (c + 1))
            0 ca
        in
        let counts = Array.make ncells 0 in
        Array.iter (fun c -> counts.(c) <- counts.(c) + 1) ca;
        Array.iter
          (fun k -> if k = 0 then invalid_arg "Testbed.run: empty cell")
          counts;
        let out = Array.init ncells (fun c -> Array.make counts.(c) 0) in
        let fill = Array.make ncells 0 in
        Array.iteri
          (fun g c ->
            out.(c).(fill.(c)) <- g;
            fill.(c) <- fill.(c) + 1)
          ca;
        (false, out)
  in
  let ncells = Array.length groups in
  let sim c =
    sim_cell config ~graph ~node_mask ~sources_arr
      ~server:(if inline then Some server else None)
      ~cell:c ~g_of_l:groups.(c)
  in
  let outs = Array.make ncells None in
  let nd = Int.min config.domains ncells in
  (* Cells are mutually independent (disjoint nodes, own PRNG streams,
     own event heap and tables), so sharding them over Domains
     changes nothing but wall-clock time; the join below reads them
     back in cell-index order, which makes every aggregate and the
     server firing order a pure function of the cell decomposition. *)
  if nd <= 1 then
    for c = 0 to ncells - 1 do
      outs.(c) <- Some (sim c)
    done
  else begin
    let worker d () =
      let c = ref d in
      while !c < ncells do
        outs.(!c) <- Some (sim !c);
        c := !c + nd
      done
    in
    let spawned = Array.init (nd - 1) (fun i -> Domain.spawn (worker (i + 1))) in
    worker 0 ();
    Array.iter Domain.join spawned
  end;
  let outs =
    Array.map (function Some o -> o | None -> assert false) outs
  in
  let sum f = Array.fold_left (fun acc o -> acc + f o) 0 outs in
  let sink_outputs = ref (sum (fun o -> o.o_sink)) in
  (if not inline then begin
     (* fire the server half over the merged delivery log: cell logs
        are time-sorted already, so ordering by (time, cell, index) is
        the deterministic interleaving shared by every domain count *)
     let entries =
       Array.to_list outs
       |> List.mapi (fun c o ->
              List.rev o.o_deliv |> List.mapi (fun i (t, msg) -> (t, c, i, msg)))
       |> List.concat
     in
     let entries =
       List.sort
         (fun (t1, c1, i1, _) (t2, c2, i2, _) ->
           let ct = Float.compare t1 t2 in
           if ct <> 0 then ct
           else
             let cc = Int.compare c1 c2 in
             if cc <> 0 then cc else Int.compare i1 i2)
         entries
     in
     List.iter
       (fun (_, _, _, (msg : message)) ->
         let fired =
           Runtime.Exec.fire ~node:msg.from_node server ~op:msg.edge.dst
             ~port:msg.edge.dst_port msg.value
         in
         sink_outputs := !sink_outputs + List.length fired.sink_values)
       entries
   end);
  let inputs_offered = sum (fun o -> o.o_offered) in
  let inputs_processed = sum (fun o -> o.o_processed) in
  let msgs_sent = sum (fun o -> o.o_msent) in
  let msgs_received = sum (fun o -> o.o_mrecv) in
  let busy_total = Array.fold_left (fun acc o -> acc +. o.o_busy) 0. outs in
  let fdiv a b = if b = 0 then 0. else Float.of_int a /. Float.of_int b in
  let input_fraction = fdiv inputs_processed inputs_offered in
  let msg_fraction = fdiv msgs_received msgs_sent in
  let edge_bytes_per_sec =
    Array.init (Graph.n_edges graph) (fun eid ->
        let total =
          Runtime.Exec.edge_bytes server eid + sum (fun o -> o.o_edge.(eid))
        in
        Float.of_int total /. config.duration)
  in
  {
    inputs_offered;
    inputs_processed;
    msgs_sent;
    msgs_received;
    packets_sent = sum (fun o -> o.o_psent);
    packets_lost_collision = sum (fun o -> o.o_coll);
    packets_lost_channel = sum (fun o -> o.o_chan);
    packets_lost_queue = sum (fun o -> o.o_queue);
    sink_outputs = !sink_outputs;
    input_fraction;
    msg_fraction;
    goodput_fraction = input_fraction *. msg_fraction;
    node_busy_fraction =
      busy_total /. (config.duration *. Float.of_int config.n_nodes);
    offered_bytes_per_sec =
      Float.of_int (sum (fun o -> o.o_offered_bytes)) /. config.duration;
    msgs_duplicate = sum (fun o -> o.o_dup);
    msgs_expired = sum (fun o -> o.o_exp);
    msgs_pending = sum (fun o -> o.o_pend);
    retransmissions = sum (fun o -> o.o_rexmit);
    acks_sent = sum (fun o -> o.o_acks);
    acks_lost = sum (fun o -> o.o_acklost);
    crashes = sum (fun o -> o.o_crashes);
    inputs_lost_down = sum (fun o -> o.o_down);
    edge_bytes_per_sec;
    events_processed = sum (fun o -> o.o_events);
  }

(* The single-hop CSMA testbed routes every mote's messages directly
   to the basestation: a depth-one routing tree.  Exposed as a parent
   array (mote tiers 0..n-1, basestation root last) so the placement
   layer can build a [Placement.Topology.t] over the real topology
   without Netsim depending on the solver. *)
let routing_parents ~n_nodes =
  if n_nodes < 1 then
    invalid_arg "Testbed.routing_parents: need at least one mote";
  Array.init (n_nodes + 1) (fun k -> if k = n_nodes then -1 else n_nodes)

(* ---- synthetic fleets ---- *)

type fleet = {
  graph : Graph.t;
  source_op : int;
  sources : source_spec list;
  cells : int array;
  parents : int array;
}

let synthetic ~nodes ~seed ?(cell_size = 16) ?(rate = 2.)
    ?(payload_bytes = 110) ?(shape = `Dary 4) () =
  if nodes < 1 then invalid_arg "Testbed.synthetic: need at least one node";
  if cell_size < 1 then invalid_arg "Testbed.synthetic: cell_size must be >= 1";
  let b = Builder.create () in
  let s = Builder.in_node b (fun () -> Builder.source b ~name:"synthetic" ()) in
  Builder.sink b ~name:"collect" s;
  let graph = Builder.build b in
  let source_op = Builder.op_id s in
  (* one shared immutable payload: [gen] must be thread-safe because
     cells sample concurrently under [domains > 1] *)
  let payload =
    Value.Int16_arr (Array.make (Int.max 1 ((payload_bytes - 2) / 2)) 0)
  in
  let sources =
    [ { source = source_op; rate; gen = (fun ~node:_ ~seq:_ -> payload) } ]
  in
  let ncells = (nodes + cell_size - 1) / cell_size in
  let cells = Array.init nodes (fun i -> i / cell_size) in
  (* cell tier k parents strictly later tiers; basestation root last *)
  let parents = Array.make (ncells + 1) ncells in
  parents.(ncells) <- -1;
  (match shape with
  | `Star -> ()
  | `Dary d ->
      if d < 1 then invalid_arg "Testbed.synthetic: tree arity must be >= 1";
      (* reversed heap numbering keeps parents.(k) > k with the root
         at the end *)
      for i = 0 to ncells - 1 do
        let x = ncells - 1 - i in
        parents.(i) <-
          (if x = 0 then ncells else ncells - 1 - ((x - 1) / d))
      done
  | `Random ->
      let rng = Prng.create (Prng.derive seed [ 3 ]) in
      for i = 0 to ncells - 1 do
        parents.(i) <- i + 1 + Prng.int rng (ncells - i)
      done);
  { graph; source_op; sources; cells; parents }
