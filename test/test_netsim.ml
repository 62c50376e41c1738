(* Network simulator tests: link arithmetic, testbed behaviour under
   light load / CPU overload / network overload, congestion collapse,
   the network profiling tool. *)

open Dataflow

let link = Netsim.Link.cc2420

(* simple probe app: node source -> server sink, payload configurable *)
let probe_app () =
  let b = Builder.create () in
  let s = Builder.in_node b (fun () -> Builder.source b ~name:"probe" ()) in
  (* the sink is attached outside the node namespace *)
  Builder.sink b ~name:"collect" s;
  (Builder.build b, Builder.op_id s)

let run ?(n_nodes = 1) ?(duration = 30.) ?(rate = 2.) ?(payload = 20)
    ?(platform = Profiler.Platform.tmote_sky) () =
  let graph, src = probe_app () in
  let config =
    Netsim.Testbed.default_config ~n_nodes ~duration ~seed:7 ~platform ~link ()
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

(* ---- link arithmetic ---- *)

let test_link_packets_of_bytes () =
  Alcotest.(check int) "zero" 1 (Netsim.Link.packets_of_bytes link 0);
  Alcotest.(check int) "one" 1 (Netsim.Link.packets_of_bytes link 28);
  Alcotest.(check int) "two" 2 (Netsim.Link.packets_of_bytes link 29);
  Alcotest.(check int) "frame" 15 (Netsim.Link.packets_of_bytes link 402)

let test_link_airtime () =
  let t = Netsim.Link.packet_airtime link in
  Alcotest.(check bool) "airtime dominated by stack overhead" true
    (t > link.Netsim.Link.per_packet_overhead_s);
  let cap = Netsim.Link.saturation_msgs_per_sec link in
  Alcotest.(check bool) "TinyOS-like capacity" true (cap > 40. && cap < 120.)

(* ---- testbed ---- *)

let test_light_load_delivers () =
  let r = run ~rate:2. () in
  Alcotest.(check bool) "all inputs processed" true (r.input_fraction > 0.99);
  Alcotest.(check bool) "most messages arrive" true (r.msg_fraction > 0.9);
  Alcotest.(check bool) "sink saw them" true
    (r.sink_outputs = r.msgs_received);
  Alcotest.(check bool) "goodput is the product" true
    (Float.abs (r.goodput_fraction -. (r.input_fraction *. r.msg_fraction))
    < 1e-9)

let test_overload_collapses () =
  (* 402-byte messages at 40/s = 600 pkt/s >> 75 pkt/s capacity *)
  let r = run ~rate:40. ~payload:402 () in
  Alcotest.(check bool) "reception collapses" true (r.msg_fraction < 0.02);
  Alcotest.(check bool) "queue drops dominate" true
    (r.packets_lost_queue > r.packets_sent)

let test_goodput_not_monotone_in_rate () =
  (* §4.3's caveat: beyond saturation, offering more delivers less *)
  let delivered rate =
    let r = run ~rate ~payload:110 ~duration:30. () in
    Float.of_int r.msgs_received /. 30.
  in
  let low = delivered 8. in
  let high = delivered 200. in
  Alcotest.(check bool) "collapse beyond saturation" true (high < low)

let test_cpu_overload_drops_inputs () =
  (* a platform so slow it cannot keep up: most inputs missed *)
  let b = Builder.create () in
  let src = ref 0 in
  Builder.in_node b (fun () ->
      let s = Builder.source b ~name:"s" () in
      src := Builder.op_id s;
      let burn =
        Builder.map b ~name:"burn"
          (fun v -> (v, Workload.make ~float_ops:100_000. ()))
          s
      in
      Builder.sink b ~name:"k" burn);
  let graph = Builder.build b in
  let config =
    Netsim.Testbed.default_config ~n_nodes:1 ~duration:20. ~seed:3
      ~platform:Profiler.Platform.tmote_sky ~link ()
  in
  let sources =
    [
      {
        Netsim.Testbed.source = !src;
        rate = 10.;
        gen = (fun ~node:_ ~seq:_ -> Value.Int16_arr [| 1 |]);
      };
    ]
  in
  let r =
    Netsim.Testbed.run config ~graph
      ~node_of:(fun i -> i <> Graph.n_ops graph - 1)
      ~sources
  in
  (* 100k float ops = 1.5 s per input at 10 inputs/s *)
  Alcotest.(check bool) "inputs dropped" true (r.input_fraction < 0.15);
  Alcotest.(check bool) "node saturated" true (r.node_busy_fraction > 0.9);
  Alcotest.(check bool) "what is processed gets through" true
    (r.msg_fraction > 0.9)

let test_more_nodes_more_contention () =
  let single = run ~n_nodes:1 ~rate:4. ~payload:110 () in
  let many = run ~n_nodes:20 ~rate:4. ~payload:110 () in
  Alcotest.(check bool) "shared channel degrades reception" true
    (many.msg_fraction < single.msg_fraction -. 0.1)

let test_deterministic_given_seed () =
  let a = run ~rate:10. ~payload:110 () in
  let b = run ~rate:10. ~payload:110 () in
  Alcotest.(check int) "same receptions" a.msgs_received b.msgs_received;
  Alcotest.(check int) "same collisions" a.packets_lost_collision
    b.packets_lost_collision

let test_replicated_server_state () =
  (* stateful node-namespace op placed on the server: the server must
     keep one state instance per sending node *)
  let b = Builder.create () in
  let src = ref 0 in
  Builder.in_node b (fun () ->
      let s = Builder.source b ~name:"s" () in
      src := Builder.op_id s;
      let counted =
        Builder.stateful b ~name:"count"
          ~init:(fun () ->
            let n = ref 0 in
            fun ~port:_ _ ->
              incr n;
              ([ Value.Int !n ], Workload.zero))
          [ s ]
      in
      Builder.sink b ~name:"k" counted);
  let graph = Builder.build b in
  let config =
    {
      (Netsim.Testbed.default_config ~n_nodes:4 ~duration:20. ~seed:1
         ~platform:Profiler.Platform.gumstix ~link:Netsim.Link.wifi ())
      with
      Netsim.Testbed.per_packet_cpu_s = 0.;
    }
  in
  let sources =
    [
      {
        Netsim.Testbed.source = !src;
        rate = 1.;
        gen = (fun ~node:_ ~seq:_ -> Value.Int 0);
      };
    ]
  in
  (* "count" on the server: only the source stays on the node *)
  let r =
    Netsim.Testbed.run config ~graph ~node_of:(fun i -> i = !src) ~sources
  in
  (* with per-node state tables every node's stream counts from 1, so
     sink outputs equal messages received (no crash, no cross-talk) *)
  Alcotest.(check int) "every delivery produced output" r.msgs_received
    r.sink_outputs;
  Alcotest.(check bool) "deliveries happened" true (r.msgs_received > 40)

(* ---- netprofile ---- *)

let test_netprofile_sweep_shape () =
  let points =
    Netsim.Netprofile.sweep ~duration:15. ~n_nodes:1 ~link
      ~rates:[ 2.; 20.; 400. ] ()
  in
  match points with
  | [ low; mid; high ] ->
      Alcotest.(check bool) "low rate clean" true (low.reception > 0.9);
      Alcotest.(check bool) "mid rate ok" true (mid.reception > 0.8);
      Alcotest.(check bool) "overload collapses" true (high.reception < 0.5)
  | _ -> Alcotest.fail "expected 3 points"

let test_netprofile_max_send_rate () =
  let p =
    Netsim.Netprofile.max_send_rate ~duration:15. ~target:0.85 ~n_nodes:1 ~link ()
  in
  Alcotest.(check bool) "meets target" true (p.reception >= 0.85);
  Alcotest.(check bool) "single-packet rate near capacity" true
    (p.offered_msgs_per_sec > 20. && p.offered_msgs_per_sec < 120.)

let test_netprofile_shared_channel () =
  let p1 =
    Netsim.Netprofile.max_send_rate ~duration:15. ~n_nodes:1 ~link ()
  in
  let p20 =
    Netsim.Netprofile.max_send_rate ~duration:15. ~n_nodes:20 ~link ()
  in
  Alcotest.(check bool) "per-node share shrinks" true
    (p20.offered_msgs_per_sec < p1.offered_msgs_per_sec /. 4.)

let () =
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "netsim"
    [
      ( "link",
        [
          tc "fragmentation" test_link_packets_of_bytes;
          tc "airtime and capacity" test_link_airtime;
        ] );
      ( "testbed",
        [
          tc "light load delivers" test_light_load_delivers;
          tc "network overload collapses" test_overload_collapses;
          tc "goodput non-monotone in rate" test_goodput_not_monotone_in_rate;
          tc "cpu overload drops inputs" test_cpu_overload_drops_inputs;
          tc "contention scales with nodes" test_more_nodes_more_contention;
          tc "deterministic given seed" test_deterministic_given_seed;
          tc "replicated server state" test_replicated_server_state;
        ] );
      ( "netprofile",
        [
          tc "sweep shape" test_netprofile_sweep_shape;
          tc "max send rate" test_netprofile_max_send_rate;
          tc "shared channel" test_netprofile_shared_channel;
        ] );
    ]
