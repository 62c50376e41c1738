(* §9 extensions: in-network aggregation and three-tier partitioning
   (a three-tier Placement instance). *)

open Dataflow
open Wishbone

(* a small averaging app: node sources -> reduce(mean of 4) -> sink *)
let reduce_app () =
  let b = Builder.create () in
  let reduce = ref 0 in
  let src = ref 0 in
  Builder.in_node b (fun () ->
      let s = Builder.source b ~name:"sample" () in
      src := Builder.op_id s;
      let r =
        Aggregation.reduce_op b ~name:"mean4" ~window:4
          ~combine:(fun vs ->
            let total =
              List.fold_left
                (fun acc v ->
                  match v with Value.Float f -> acc +. f | _ -> acc)
                0. vs
            in
            ( Value.Float (total /. 4.),
              Workload.make ~float_ops:5. ~call_ops:1. () ))
          s
      in
      reduce := Builder.op_id r;
      Builder.sink b ~name:"log" r);
  (Builder.build b, !src, !reduce)

let test_reduce_op_windows () =
  let g, src, _ = reduce_app () in
  let exec = Runtime.Exec.full g in
  let outs = ref [] in
  for i = 1 to 8 do
    let fired =
      Runtime.Exec.fire exec ~op:src ~port:0 (Value.Float (Float.of_int i))
    in
    outs := !outs @ fired.sink_values
  done;
  (* two windows: mean(1..4) = 2.5, mean(5..8) = 6.5 *)
  Alcotest.(check bool) "two aggregates" true
    (!outs = [ Value.Float 2.5; Value.Float 6.5 ])

let test_aggregation_cost_annotation () =
  let g, src, reduce = reduce_app () in
  let events =
    Profiler.Profile.Trace.periodic ~source:src ~rate:8. ~duration:10.
      ~gen:(fun i -> Value.Float (Float.of_int i))
  in
  let raw = Profiler.Profile.collect ~duration:10. g events in
  match
    Spec.of_profile ~mode:Movable.Permissive
      ~node_platform:Profiler.Platform.tmote_sky raw
  with
  | Error m -> Alcotest.fail m
  | Ok spec ->
      let fanned = Aggregation.annotate_fan_in spec ~op:reduce ~fan_in:5. in
      Alcotest.(check (float 1e-12)) "cpu scaled by fan-in"
        (5. *. spec.Spec.cpu.(reduce))
        fanned.Spec.cpu.(reduce);
      (* aggregation saves bandwidth in-network: 4 floats in, 1 out *)
      Alcotest.(check bool) "positive in-network benefit" true
        (Aggregation.in_network_benefit spec ~op:reduce > 0.);
      Alcotest.check_raises "fan_in < 1"
        (Invalid_argument "Aggregation.annotate_fan_in: fan_in < 1")
        (fun () -> ignore (Aggregation.annotate_fan_in spec ~op:reduce ~fan_in:0.5))

let test_aggregation_changes_partition () =
  (* with high fan-in the reduce op becomes too expensive for the node
     and moves to the server *)
  let g, src, reduce = reduce_app () in
  let events =
    Profiler.Profile.Trace.periodic ~source:src ~rate:8. ~duration:10.
      ~gen:(fun i -> Value.Float (Float.of_int i))
  in
  let raw = Profiler.Profile.collect ~duration:10. g events in
  match
    Spec.of_profile ~mode:Movable.Permissive
      ~node_platform:Profiler.Platform.tmote_sky raw
  with
  | Error m -> Alcotest.fail m
  | Ok spec -> (
      (* make the reduce meaningfully expensive, then inflate by fan-in *)
      let cpu = Array.copy spec.Spec.cpu in
      cpu.(reduce) <- 0.3;
      let spec = { spec with Spec.cpu } in
      let solve spec = Placement.solve (Placement.of_spec spec) in
      let in_network = solve spec in
      let overloaded =
        solve (Aggregation.annotate_fan_in spec ~op:reduce ~fan_in:5.)
      in
      match (in_network, overloaded) with
      | Placement.Partitioned a, Placement.Partitioned b ->
          Alcotest.(check bool) "cheap reduce runs in-network" true
            (a.tier_of.(reduce) = 0);
          Alcotest.(check bool) "overloaded reduce moves to the server" true
            (b.tier_of.(reduce) = 1)
      | _ -> Alcotest.fail "partitioning failed")

(* The §9 three-tier sketch over speech at 8% of its native rate (where
   the mote tier can run the front end): TMote motes feed Meraki
   microservers, which feed an unbudgeted central server.  Mote radio
   bytes weigh 1 and microserver uplink bytes 0.3. *)
let three_tier_of_speech ~micro_net_budget =
  let speech = Apps.Speech.build () in
  let raw = Apps.Speech.profile ~duration:10. speech in
  let raw = Profiler.Profile.scale_rate raw 0.08 in
  match Spec.of_profile ~node_platform:Profiler.Platform.tmote_sky raw with
  | Error m -> Alcotest.fail m
  | Ok spec ->
      let pl = Placement.of_platforms spec raw [ Profiler.Platform.meraki ] in
      let uplink = { (pl.links.(1)) with net_budget = micro_net_budget } in
      (speech, { pl with links = [| pl.links.(0); uplink |] })

let meraki_radio = Profiler.Platform.meraki.radio_bytes_per_sec

let test_three_tier_pipeline () =
  let speech, pl = three_tier_of_speech ~micro_net_budget:meraki_radio in
  match Placement.solve pl with
  | Placement.Partitioned r ->
      Alcotest.(check int) "all ops placed" 9
        (List.length (List.concat_map (Placement.tier_ops r) [ 0; 1; 2 ]));
      (* source on the mote, sink central *)
      Alcotest.(check int) "source on mote" 0
        r.tier_of.(speech.Apps.Speech.source);
      let sink = List.hd (Graph.sinks speech.Apps.Speech.graph) in
      Alcotest.(check int) "sink central" 2 r.tier_of.(sink);
      (* tiers descend monotonically along the pipeline *)
      Array.iter
        (fun (e : Graph.edge) ->
          Alcotest.(check bool) "monotone descent" true
            (r.tier_of.(e.src) <= r.tier_of.(e.dst)))
        (Graph.edges speech.Apps.Speech.graph);
      (* budget respected on the mote radio *)
      Alcotest.(check bool) "mote net within budget" true
        (r.link_net.(0)
        <= Profiler.Platform.tmote_sky.Profiler.Platform.radio_bytes_per_sec
           +. 1e-6)
  | Placement.No_feasible_partition ->
      Alcotest.fail "expected a three-tier partition"
  | Placement.Solver_failure m -> Alcotest.fail m

let test_three_tier_uses_middle () =
  (* when the mote cannot afford a stage but the microserver can, the
     middle tier must actually be used; a tight uplink pushes work
     into the middle *)
  let _, pl = three_tier_of_speech ~micro_net_budget:300. in
  match Placement.solve pl with
  | Placement.Partitioned r ->
      Alcotest.(check bool) "microserver tier non-empty" true
        (Placement.tier_ops r 1 <> [])
  | Placement.No_feasible_partition -> Alcotest.fail "expected a partition"
  | Placement.Solver_failure m -> Alcotest.fail m

let check_three_tier_matches_brute ~micro_net_budget =
  let _, pl = three_tier_of_speech ~micro_net_budget in
  match
    ( Placement.solve pl,
      Check.Oracle.tree_brute_force pl ~contracted:true ~monotone:true )
  with
  | Placement.Partitioned r, Some (tiers, best) ->
      Alcotest.(check (float 1e-6)) "objective = brute force" best
        r.objective;
      Alcotest.(check int) "same tier count" (Array.length tiers)
        (Array.length r.tier_of)
  | Placement.Partitioned _, None ->
      Alcotest.fail "ILP found a partition but brute force did not"
  | Placement.No_feasible_partition, Some _ ->
      Alcotest.fail "brute force found a partition but the ILP did not"
  | Placement.No_feasible_partition, None -> ()
  | Placement.Solver_failure m, _ -> Alcotest.fail m

let test_three_tier_matches_brute_force () =
  check_three_tier_matches_brute ~micro_net_budget:meraki_radio

let test_three_tier_matches_brute_force_tight () =
  check_three_tier_matches_brute ~micro_net_budget:300.

let () =
  (* the pivot counter is process-wide; start every suite from a
     clean slate so no test depends on which suite ran before it
     (asserted centrally in test_check.ml) *)
  Lp.Simplex.reset_cumulative_pivots ();
  let tc name f = Alcotest.test_case name `Quick f in
  Alcotest.run "extensions"
    [
      ( "aggregation",
        [
          tc "windowed reduce" test_reduce_op_windows;
          tc "fan-in cost annotation" test_aggregation_cost_annotation;
          tc "fan-in changes the partition" test_aggregation_changes_partition;
        ] );
      ( "three_tier",
        [
          tc "speech pipeline tiers" test_three_tier_pipeline;
          tc "middle tier used" test_three_tier_uses_middle;
          tc "matches brute force" test_three_tier_matches_brute_force;
          tc "matches brute force (tight uplink)"
            test_three_tier_matches_brute_force_tight;
        ] );
    ]
