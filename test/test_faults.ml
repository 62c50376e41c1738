(* Fault-injection, reliable-transport, load-shedding and adaptive
   controller tests (DESIGN.md §12).

   The "regression" group pins exact pre-fault-injection counter values
   for existing seeds: with [faults = none] and unreliable transport
   the rewritten testbed must make exactly the same PRNG draws in the
   same order as the historical implementation, so these numbers are
   bit-identity checks, not tolerances. *)

open Dataflow

let link = Netsim.Link.cc2420

(* same probe app as test_netsim: node source -> server sink *)
let probe_app () =
  let b = Builder.create () in
  let s = Builder.in_node b (fun () -> Builder.source b ~name:"probe" ()) in
  Builder.sink b ~name:"collect" s;
  (Builder.build b, Builder.op_id s)

let run_probe ?(n_nodes = 1) ?(duration = 30.) ?(rate = 2.) ?(payload = 110)
    ?(seed = 7) ?(faults = Netsim.Faults.none)
    ?(transport = Netsim.Transport.Unreliable) ?(link = link) ?cells
    ?(domains = 1) () =
  let graph, src = probe_app () in
  let config =
    Netsim.Testbed.default_config ~n_nodes ~duration ~seed
      ~platform:Profiler.Platform.tmote_sky ~link ~faults ~transport ?cells
      ~domains ()
  in
  let sources =
    [
      {
        Netsim.Testbed.source = src;
        rate;
        gen =
          (fun ~node:_ ~seq:_ ->
            Value.Int16_arr (Array.make (Int.max 1 ((payload - 2) / 2)) 0));
      };
    ]
  in
  Netsim.Testbed.run config ~graph ~node_of:(fun i -> i = src) ~sources

let speech = lazy (Apps.Speech.build ())

let run_speech ?(faults = Netsim.Faults.none)
    ?(transport = Netsim.Transport.Unreliable) ?(duration = 60.) ?(seed = 5)
    ?(rate_mult = 1.0) ~cut () =
  let t = Lazy.force speech in
  let assignment = Apps.Speech.cut_assignment t cut in
  let config =
    Netsim.Testbed.default_config ~n_nodes:1 ~duration ~seed
      ~platform:Profiler.Platform.tmote_sky ~link ~faults ~transport ()
  in
  Netsim.Testbed.run config ~graph:t.Apps.Speech.graph
    ~node_of:(fun i -> assignment.(i))
    ~sources:(Apps.Speech.testbed_sources ~rate_mult t)

(* ---- bit-identical regression for existing seeds ---- *)

let check_counters name (r : Netsim.Testbed.result) ~offered ~processed
    ~msent ~mrecv ~psent ~coll ~chan ~queue ~sink ~busy =
  let ck what = Alcotest.(check int) (name ^ ": " ^ what) in
  ck "inputs offered" offered r.inputs_offered;
  ck "inputs processed" processed r.inputs_processed;
  ck "msgs sent" msent r.msgs_sent;
  ck "msgs received" mrecv r.msgs_received;
  ck "packets sent" psent r.packets_sent;
  ck "collisions" coll r.packets_lost_collision;
  ck "channel losses" chan r.packets_lost_channel;
  ck "queue drops" queue r.packets_lost_queue;
  ck "sink outputs" sink r.sink_outputs;
  Alcotest.(check bool)
    (name ^ ": busy fraction bit-identical")
    true
    (Float.abs (r.node_busy_fraction -. busy) < 1e-9);
  (* faults off: every fault/transport counter must stay zero *)
  ck "no duplicates" 0 r.msgs_duplicate;
  ck "no expirations" 0 r.msgs_expired;
  ck "no pending" 0 r.msgs_pending;
  ck "no retransmissions" 0 r.retransmissions;
  ck "no acks" 0 r.acks_sent;
  ck "no crashes" 0 r.crashes

let test_regression_probe_1n () =
  check_counters "probe 1n r10"
    (run_probe ~n_nodes:1 ~rate:10. ())
    ~offered:300 ~processed:300 ~msent:300 ~mrecv:270 ~psent:1200 ~coll:0
    ~chan:29 ~queue:0 ~sink:270 ~busy:0.030020125

let test_regression_probe_20n () =
  check_counters "probe 20n r4"
    (run_probe ~n_nodes:20 ~rate:4. ())
    ~offered:2400 ~processed:2400 ~msent:2400 ~mrecv:300 ~psent:2508
    ~coll:569 ~chan:61 ~queue:7171 ~sink:300 ~busy:0.012005529

let test_regression_speech_cut4 () =
  check_counters "speech cut4"
    (run_speech ~cut:4 ())
    ~offered:2400 ~processed:2400 ~msent:2400 ~mrecv:1 ~psent:4169 ~coll:2
    ~chan:125 ~queue:31810 ~sink:1 ~busy:0.485937500

(* ---- scale-out: domain sharding bit-identical ---- *)

(* every result field, floats compared bit-for-bit: the domain count
   must not move a single ULP *)
let check_same_result name (a : Netsim.Testbed.result)
    (b : Netsim.Testbed.result) =
  let ck what = Alcotest.(check int) (name ^ ": " ^ what) in
  let cf what x y =
    Alcotest.(check bool)
      (name ^ ": " ^ what ^ " bit-identical")
      true
      (Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
  in
  ck "inputs offered" a.inputs_offered b.inputs_offered;
  ck "inputs processed" a.inputs_processed b.inputs_processed;
  ck "msgs sent" a.msgs_sent b.msgs_sent;
  ck "msgs received" a.msgs_received b.msgs_received;
  ck "packets sent" a.packets_sent b.packets_sent;
  ck "collisions" a.packets_lost_collision b.packets_lost_collision;
  ck "channel losses" a.packets_lost_channel b.packets_lost_channel;
  ck "queue drops" a.packets_lost_queue b.packets_lost_queue;
  ck "sink outputs" a.sink_outputs b.sink_outputs;
  ck "duplicates" a.msgs_duplicate b.msgs_duplicate;
  ck "expired" a.msgs_expired b.msgs_expired;
  ck "pending" a.msgs_pending b.msgs_pending;
  ck "retransmissions" a.retransmissions b.retransmissions;
  ck "acks sent" a.acks_sent b.acks_sent;
  ck "acks lost" a.acks_lost b.acks_lost;
  ck "crashes" a.crashes b.crashes;
  ck "inputs lost down" a.inputs_lost_down b.inputs_lost_down;
  ck "events processed" a.events_processed b.events_processed;
  cf "input fraction" a.input_fraction b.input_fraction;
  cf "msg fraction" a.msg_fraction b.msg_fraction;
  cf "goodput fraction" a.goodput_fraction b.goodput_fraction;
  cf "busy fraction" a.node_busy_fraction b.node_busy_fraction;
  cf "offered bytes/s" a.offered_bytes_per_sec b.offered_bytes_per_sec;
  ck "edge array length"
    (Array.length a.edge_bytes_per_sec)
    (Array.length b.edge_bytes_per_sec);
  Array.iteri
    (fun i x -> cf (Printf.sprintf "edge %d bytes/s" i) x
        b.edge_bytes_per_sec.(i))
    a.edge_bytes_per_sec

let heavy_faults =
  { Netsim.Faults.burst = Some (Netsim.Faults.burst_of_loss 0.2);
    crash_rate = 0.02;
    reboot_s = 2.;
    clock_drift = 50e-6 }

let test_domains_identical () =
  let cells = Array.init 12 (fun i -> i / 4) in
  let go ~domains =
    run_probe ~n_nodes:12 ~rate:4. ~seed:13 ~faults:heavy_faults
      ~transport:(Netsim.Transport.default_reliable ())
      ~cells ~domains ()
  in
  let base = go ~domains:1 in
  check_same_result "domains 1 vs 2" base (go ~domains:2);
  check_same_result "domains 1 vs 4" base (go ~domains:4)

(* ---- fault injection ---- *)

let burst10 =
  { Netsim.Faults.none with
    Netsim.Faults.burst = Some (Netsim.Faults.burst_of_loss 0.1) }

let test_burst_loss_degrades () =
  let clean = run_probe ~rate:4. () in
  let heavy =
    run_probe ~rate:4.
      ~faults:
        { Netsim.Faults.none with
          Netsim.Faults.burst = Some (Netsim.Faults.burst_of_loss 0.3) }
      ()
  in
  Alcotest.(check bool) "burst loss loses messages" true
    (heavy.msgs_received < clean.msgs_received);
  Alcotest.(check bool) "loss is in the channel counter" true
    (heavy.packets_lost_channel > clean.packets_lost_channel)

let test_crash_accounting () =
  let faults =
    { Netsim.Faults.none with
      Netsim.Faults.crash_rate = 0.05; reboot_s = 2. }
  in
  let r = run_probe ~n_nodes:4 ~rate:4. ~faults () in
  Alcotest.(check bool) "crashes happened" true (r.crashes > 0);
  Alcotest.(check bool) "inputs lost while down" true
    (r.inputs_lost_down > 0);
  Alcotest.(check bool) "downtime shows up as missed inputs" true
    (r.inputs_processed + r.inputs_lost_down <= r.inputs_offered)

let test_deterministic_replay_under_faults () =
  let go () =
    run_probe ~n_nodes:4 ~rate:6.
      ~faults:
        { burst10 with Netsim.Faults.crash_rate = 0.02; clock_drift = 50e-6 }
      ~transport:(Netsim.Transport.default_reliable ())
      ()
  in
  let a = go () and b = go () in
  Alcotest.(check int) "received" a.msgs_received b.msgs_received;
  Alcotest.(check int) "duplicates" a.msgs_duplicate b.msgs_duplicate;
  Alcotest.(check int) "expired" a.msgs_expired b.msgs_expired;
  Alcotest.(check int) "retransmissions" a.retransmissions b.retransmissions;
  Alcotest.(check int) "acks lost" a.acks_lost b.acks_lost;
  Alcotest.(check int) "crashes" a.crashes b.crashes;
  Alcotest.(check int) "collisions" a.packets_lost_collision
    b.packets_lost_collision

let test_fault_streams_independent () =
  (* enabling the crash process must not perturb the burst channel's
     schedule: with crashes on, channel losses can only move because
     traffic moved, so compare against a crash process that never
     fires (rate 0 vs rate tiny-but-zero-crash outcome) *)
  let with_crash_stream =
    run_probe ~rate:4. ~faults:{ burst10 with Netsim.Faults.crash_rate = 0. }
      ()
  in
  let burst_only = run_probe ~rate:4. ~faults:burst10 () in
  Alcotest.(check int) "identical runs" with_crash_stream.msgs_received
    burst_only.msgs_received;
  Alcotest.(check int) "identical channel losses"
    with_crash_stream.packets_lost_channel burst_only.packets_lost_channel

(* ---- reliable transport ---- *)

let test_reliable_recovers_burst_loss () =
  let unreliable = run_probe ~rate:4. ~faults:burst10 () in
  let reliable =
    run_probe ~rate:4. ~faults:burst10
      ~transport:(Netsim.Transport.default_reliable ()) ()
  in
  Alcotest.(check bool) "ack/retry recovers messages" true
    (reliable.msgs_received > unreliable.msgs_received);
  Alcotest.(check bool) "recovery is not free" true
    (reliable.retransmissions > 0);
  Alcotest.(check bool) "acks were sent" true
    (reliable.acks_sent >= reliable.msgs_received)

let test_retry_budget_exhaustion_accounted () =
  (* a channel bad enough that some messages outlive a 1-retry budget:
     the losses must land in msgs_expired, never vanish *)
  let faults =
    { Netsim.Faults.none with
      Netsim.Faults.burst =
        Some (Netsim.Faults.burst_of_loss ~mean_burst_s:10. 0.45) }
  in
  let r =
    run_probe ~rate:4. ~faults
      ~transport:(Netsim.Transport.default_reliable ~max_retries:1 ())
      ()
  in
  Alcotest.(check bool) "some retry budgets exhausted" true
    (r.msgs_expired > 0);
  Alcotest.(check int) "every message accounted for" r.msgs_sent
    (r.msgs_received + r.msgs_expired + r.msgs_pending)

let test_reliable_conservation_invariant () =
  List.iter
    (fun (faults, rate) ->
      let r =
        run_probe ~rate ~n_nodes:3 ~faults
          ~transport:(Netsim.Transport.default_reliable ())
          ()
      in
      Alcotest.(check int)
        (Printf.sprintf "conservation at rate %.0f" rate)
        r.msgs_sent
        (r.msgs_received + r.msgs_expired + r.msgs_pending))
    [
      (Netsim.Faults.none, 2.);
      (burst10, 6.);
      ({ burst10 with Netsim.Faults.crash_rate = 0.03 }, 10.);
    ]

(* qcheck: clean channel + no faults => reliable transport delivers
   exactly what best-effort does.  The one unavoidable difference is
   the simulation horizon: ack airtime shifts the backoff draw
   sequence, so each run may leave a different (tiny) set of messages
   still in flight at t = duration.  On a lossless, uncongested
   channel those horizon stragglers are the only slack — for
   unreliable runs they are exactly [msgs_sent - msgs_received], for
   reliable runs exactly [msgs_pending]. *)
let qcheck_identity_on_clean_channel =
  let clean_link = { link with Netsim.Link.base_loss = 0. } in
  QCheck.Test.make ~count:30
    ~name:"reliable = unreliable on a lossless faultless channel"
    QCheck.(
      triple (int_range 1 40) (int_range 4 110) (int_range 0 10_000))
    (fun (rate10, payload, seed) ->
      let rate = Float.of_int rate10 /. 10. in
      let go transport =
        run_probe ~rate ~payload ~seed ~duration:20. ~link:clean_link
          ~transport ()
      in
      let u = go Netsim.Transport.Unreliable in
      let r = go (Netsim.Transport.default_reliable ()) in
      let u_in_flight = u.msgs_sent - u.msgs_received in
      u.msgs_sent = r.msgs_sent
      && u.inputs_processed = r.inputs_processed
      && r.msgs_expired = 0
      && r.msgs_received + r.msgs_pending = r.msgs_sent
      && u.sink_outputs = u.msgs_received
      && r.sink_outputs = r.msgs_received
      && abs (u.msgs_received - r.msgs_received)
         <= u_in_flight + r.msgs_pending)

(* ---- load shedding ---- *)

let test_shed_drop_newest () =
  let q = Runtime.Shed.create Runtime.Shed.Drop_newest ~capacity:2 in
  Alcotest.(check bool) "first queued" true
    (Runtime.Shed.push q 1 = Runtime.Shed.Queued);
  Alcotest.(check bool) "second queued" true
    (Runtime.Shed.push q 2 = Runtime.Shed.Queued);
  Alcotest.(check bool) "third dropped" true
    (Runtime.Shed.push q 3 = Runtime.Shed.Dropped);
  Alcotest.(check (option int)) "head survives" (Some 1)
    (Runtime.Shed.pop q);
  Alcotest.(check int) "one drop counted" 1 (Runtime.Shed.dropped q)

let test_shed_drop_oldest () =
  let q = Runtime.Shed.create Runtime.Shed.Drop_oldest ~capacity:2 in
  ignore (Runtime.Shed.push q 1);
  ignore (Runtime.Shed.push q 2);
  (match Runtime.Shed.push q 3 with
  | Runtime.Shed.Displaced 1 -> ()
  | _ -> Alcotest.fail "expected the oldest element displaced");
  Alcotest.(check (option int)) "fresh data kept" (Some 2)
    (Runtime.Shed.pop q);
  Alcotest.(check (option int)) "newest kept" (Some 3) (Runtime.Shed.pop q)

let test_shed_sample_hold_extremes () =
  let never = Runtime.Shed.create (Runtime.Shed.Sample_hold 0.) ~capacity:1 in
  ignore (Runtime.Shed.push never 1);
  Alcotest.(check bool) "keep=0 drops every overflow" true
    (Runtime.Shed.push never 2 = Runtime.Shed.Dropped);
  let always =
    Runtime.Shed.create (Runtime.Shed.Sample_hold 1.) ~capacity:1
  in
  ignore (Runtime.Shed.push always 1);
  (match Runtime.Shed.push always 2 with
  | Runtime.Shed.Displaced 1 -> ()
  | _ -> Alcotest.fail "keep=1 must displace")

let test_shed_accounting () =
  let q =
    Runtime.Shed.create ~seed:3 (Runtime.Shed.Sample_hold 0.5) ~capacity:4
  in
  let popped = ref 0 in
  for i = 1 to 200 do
    ignore (Runtime.Shed.push q i);
    if i mod 3 = 0 then
      match Runtime.Shed.pop q with Some _ -> incr popped | None -> ()
  done;
  Alcotest.(check int) "pushed = dropped + queued + popped" 200
    (Runtime.Shed.dropped q + Runtime.Shed.length q + !popped);
  Alcotest.(check bool) "capacity respected" true
    (Runtime.Shed.length q <= Runtime.Shed.capacity q)

let test_shed_rejects_bad_config () =
  Alcotest.check_raises "capacity 0"
    (Invalid_argument "Shed.create: capacity must be positive")
    (fun () ->
      ignore (Runtime.Shed.create Runtime.Shed.Drop_newest ~capacity:0));
  Alcotest.check_raises "keep > 1"
    (Invalid_argument "Shed.create: Sample_hold probability outside [0, 1]")
    (fun () ->
      ignore
        (Runtime.Shed.create (Runtime.Shed.Sample_hold 1.5) ~capacity:1))

(* a 3-op pipeline: node source -> server double -> server sink *)
let as_int = function Value.Int i -> i | _ -> Alcotest.fail "expected Int"

let pipeline_app () =
  let b = Builder.create () in
  let s = Builder.in_node b (fun () -> Builder.source b ~name:"s" ()) in
  let doubled =
    Builder.map b ~name:"double"
      (fun v -> (Value.Int (2 * as_int v), Workload.zero))
      s
  in
  Builder.sink b ~name:"k" doubled;
  (Builder.build b, Builder.op_id s)

(* a two-tier Multirun (source on the node, the rest on the server)
   whose radio link is a drop-newest channel *)
let shedding_split graph src ~capacity ~service =
  Runtime.Multirun.create
    ~links:
      [ Some { Runtime.Multirun.policy = Runtime.Shed.Drop_newest; capacity;
               service; seed = 0 } ]
    ~n_tiers:2
    ~tier_of:(fun i -> if i = src then 0 else 1)
    graph

let test_split_sheds_and_accounts () =
  let graph, src = pipeline_app () in
  let t = shedding_split graph src ~capacity:1 ~service:0 in
  for i = 1 to 5 do
    let out = Runtime.Multirun.inject t ~source:src (Value.Int i) in
    Alcotest.(check int)
      (Printf.sprintf "service=0: nothing emitted on inject %d" i)
      0 (List.length out)
  done;
  Alcotest.(check int) "queue holds one crossing" 1
    (Runtime.Multirun.link_queued t 0);
  Alcotest.(check int) "four crossings shed" 4
    (Runtime.Multirun.link_dropped t 0);
  Alcotest.(check int) "drops attributed to the source op" 4
    (Runtime.Multirun.link_drop_counts t 0).(src);
  let out = Runtime.Multirun.drain t in
  Alcotest.(check (list int)) "drop-newest kept the first value" [ 2 ]
    (List.map as_int out);
  Alcotest.(check int) "queue empty after drain" 0
    (Runtime.Multirun.link_queued t 0)

let test_split_lossless_when_capacity_suffices () =
  let graph, src = pipeline_app () in
  let t = shedding_split graph src ~capacity:16 ~service:1 in
  let outs = ref [] in
  for i = 1 to 5 do
    outs := !outs @ Runtime.Multirun.inject t ~source:src (Value.Int i)
  done;
  outs := !outs @ Runtime.Multirun.drain t;
  Alcotest.(check (list int)) "every value delivered doubled"
    [ 2; 4; 6; 8; 10 ]
    (List.map as_int !outs);
  Alcotest.(check int) "nothing shed" 0 (Runtime.Multirun.link_dropped t 0)

(* ---- adaptive controller ---- *)

let speech_spec =
  lazy
    (let t = Lazy.force speech in
     let raw = Apps.Speech.profile ~duration:5. t in
     match
       Wishbone.Spec.of_profile ~mode:Wishbone.Movable.Conservative
         ~node_platform:Profiler.Platform.tmote_sky raw
     with
     | Ok s -> s
     | Error m -> failwith m)

let test_adaptive_synthetic_bisection () =
  (* pure synthetic plant: goodput 1 iff rate <= 0.1; the controller
     must bracket and converge just above/below the knee *)
  let probe ~rate ~assignment:_ =
    {
      Wishbone.Adaptive.goodput = (if rate <= 0.1 then 1.0 else 0.1);
      input_fraction = 1.0;
      msg_fraction = 1.0;
      node_busy = 0.;
      edge_bytes_per_sec = [||];
    }
  in
  let out =
    Wishbone.Adaptive.run
      ~config:
        { Wishbone.Adaptive.default_config with repartition = false }
      ~spec:(Lazy.force speech_spec)
      ~assignment:[| true |] ~probe ()
  in
  Alcotest.(check bool) "converged" true out.Wishbone.Adaptive.converged;
  Alcotest.(check bool) "found the knee from below" true
    (out.Wishbone.Adaptive.rate <= 0.1
    && out.Wishbone.Adaptive.rate > 0.1 /. 1.2);
  Alcotest.(check bool) "final goodput meets target" true
    (out.Wishbone.Adaptive.goodput >= 0.9)

let test_adaptive_recovers_goodput () =
  (* the ISSUE acceptance demo: under a 10% burst-loss schedule the
     static full-rate deployment collapses; the controller recovers
     goodput to >= 90% *)
  let faults = burst10 in
  let transport = Netsim.Transport.default_reliable () in
  let static = run_speech ~cut:4 ~faults ~transport ~duration:10. () in
  Alcotest.(check bool) "static deployment below 60% goodput" true
    (static.goodput_fraction < 0.6);
  let t = Lazy.force speech in
  let assignment = Apps.Speech.cut_assignment t 4 in
  let probe ~rate ~assignment =
    Wishbone.Adaptive.observe
      (let config =
         Netsim.Testbed.default_config ~n_nodes:1 ~duration:10. ~seed:5
           ~platform:Profiler.Platform.tmote_sky ~link ~faults ~transport ()
       in
       Netsim.Testbed.run config ~graph:t.Apps.Speech.graph
         ~node_of:(fun i -> assignment.(i))
         ~sources:(Apps.Speech.testbed_sources ~rate_mult:rate t))
  in
  let out =
    Wishbone.Adaptive.run ~spec:(Lazy.force speech_spec) ~assignment ~probe ()
  in
  Alcotest.(check bool) "adaptive controller recovers >= 90% goodput" true
    (out.Wishbone.Adaptive.goodput >= 0.9);
  Alcotest.(check bool) "decision trace is non-trivial" true
    (List.length out.Wishbone.Adaptive.trace >= 2)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "faults"
    [
      ( "regression (faults off = bit-identical)",
        [
          tc "probe app, 1 node" test_regression_probe_1n;
          tc "probe app, 20 nodes" test_regression_probe_20n;
          tc "speech cut 4" test_regression_speech_cut4;
        ] );
      ( "scale-out (cells + domains bit-identical)",
        [ tc "domains 1/2/4 identical" test_domains_identical ] );
      ( "fault injection",
        [
          tc "burst loss degrades reception" test_burst_loss_degrades;
          tc "crash/reboot accounting" test_crash_accounting;
          tc "deterministic replay" test_deterministic_replay_under_faults;
          tc "fault streams independent" test_fault_streams_independent;
        ] );
      ( "reliable transport",
        [
          tc "recovers burst loss" test_reliable_recovers_burst_loss;
          tc "retry budget exhaustion accounted"
            test_retry_budget_exhaustion_accounted;
          tc "conservation invariant" test_reliable_conservation_invariant;
          QCheck_alcotest.to_alcotest qcheck_identity_on_clean_channel;
        ] );
      ( "load shedding",
        [
          tc "drop-newest" test_shed_drop_newest;
          tc "drop-oldest" test_shed_drop_oldest;
          tc "sample-and-hold extremes" test_shed_sample_hold_extremes;
          tc "accounting" test_shed_accounting;
          tc "invalid configs rejected" test_shed_rejects_bad_config;
          tc "splitrun sheds and accounts" test_split_sheds_and_accounts;
          tc "splitrun lossless when unconstrained"
            test_split_lossless_when_capacity_suffices;
        ] );
      ( "adaptive controller",
        [
          tc "synthetic bisection" test_adaptive_synthetic_bisection;
          tc "recovers goodput under burst loss"
            test_adaptive_recovers_goodput;
        ] );
    ]
