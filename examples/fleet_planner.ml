(* Heterogeneous deployment planning with the §9 extensions, all of
   them instances of Wishbone.Placement:

   - a mixed network (TMote motes + Meraki gateways) gets one physical
     partition per node class: one two-tier solve per class;
   - a three-tier architecture (motes -> microservers -> server) is a
     three-tier placement;
   - an in-network aggregation operator's fan-in cost is modelled with
     Wishbone.Aggregation.

     dune exec examples/fleet_planner.exe *)

open Dataflow

(* §9 mixed networks: run the partitioner once per node class, each
   with its platform's costs and an equal share of its channel; a
   class that does not fit is planned at its maximum sustainable rate *)
let plan_classes raw classes =
  List.map
    (fun ((platform : Profiler.Platform.t), n_nodes) ->
      let net_budget =
        platform.radio_bytes_per_sec /. Float.of_int (Int.max 1 n_nodes)
      in
      match
        Wishbone.Spec.of_profile ~net_budget ~node_platform:platform raw
      with
      | Error m -> Error m
      | Ok spec -> (
          let pl = Wishbone.Placement.of_spec spec in
          match Wishbone.Placement.solve pl with
          | Wishbone.Placement.Partitioned r -> Ok (platform, n_nodes, r)
          | Wishbone.Placement.No_feasible_partition -> (
              match Wishbone.Rate_search.search_placement pl with
              | Some r -> Ok (platform, n_nodes, r.placement_report)
              | None ->
                  Error
                    (Printf.sprintf "class %s: no feasible partition"
                       platform.name))
          | Wishbone.Placement.Solver_failure m -> Error m))
    classes

let () =
  let app = Apps.Speech.build () in
  let raw = Apps.Speech.profile ~duration:20. app in

  (* ---- mixed network: per-class physical partitions ---- *)
  print_endline "mixed network: 16 TMotes and 2 Meraki gateways";
  List.iter
    (function
      | Error m -> print_endline ("mixed plan failed: " ^ m)
      | Ok ((p : Profiler.Platform.t), n, (r : Wishbone.Placement.report)) ->
          Printf.printf "%s x%d: %d ops on node, cut %.1f B/s, cpu %.1f%%\n"
            p.name n
            (List.length (Wishbone.Placement.tier_ops r 0))
            r.link_net.(0)
            (100. *. r.tier_cpu.(0)))
    (plan_classes raw
       [ (Profiler.Platform.tmote_sky, 16); (Profiler.Platform.meraki, 2) ]);

  (* ---- three tiers: motes -> meraki microservers -> server ---- *)
  print_endline
    "\nthree-tier placement at 8% of the native rate (motes feed \
     microservers, microservers feed the server):";
  let slow = Profiler.Profile.scale_rate raw 0.08 in
  (match
     Wishbone.Spec.of_profile ~node_platform:Profiler.Platform.tmote_sky slow
   with
  | Error m -> print_endline m
  | Ok spec -> (
      (* mote radio bytes weigh 1, microserver uplink bytes 0.3; the
         uplink is squeezed to 300 B/s to push work into the middle *)
      let pl =
        Wishbone.Placement.of_platforms spec slow [ Profiler.Platform.meraki ]
      in
      let uplink = { (pl.links.(1)) with net_budget = 300. } in
      let pl = { pl with links = [| pl.links.(0); uplink |] } in
      match Wishbone.Placement.solve pl with
      | Wishbone.Placement.Partitioned r ->
          Array.iteri
            (fun i tier ->
              Printf.printf "  %-10s -> %s\n"
                (Graph.op app.Apps.Speech.graph i).Op.name
                [| "mote"; "microserver"; "server" |].(tier))
            r.tier_of;
          Printf.printf
            "mote radio %.1f B/s, microserver uplink %.1f B/s; mote cpu \
             %.1f%%, micro cpu %.1f%%\n"
            r.link_net.(0) r.link_net.(1) (100. *. r.tier_cpu.(0))
            (100. *. r.tier_cpu.(1))
      | Wishbone.Placement.No_feasible_partition ->
          print_endline "  no feasible three-tier placement"
      | Wishbone.Placement.Solver_failure m -> print_endline m));

  (* ---- in-network aggregation ---- *)
  print_endline "\nin-network aggregation: a mean-over-8-windows reducer";
  let b = Builder.create () in
  let reduce = ref 0 in
  Builder.in_node b (fun () ->
      let s = Builder.source b ~name:"sample" () in
      let r =
        Wishbone.Aggregation.reduce_op b ~name:"mean8" ~window:8
          ~combine:(fun vs ->
            let sum =
              List.fold_left
                (fun acc v ->
                  match v with Value.Float f -> acc +. f | _ -> acc)
                0. vs
            in
            (Value.Float (sum /. 8.), Workload.make ~float_ops:9. ~call_ops:1. ()))
          s
      in
      reduce := Builder.op_id r;
      Builder.sink b ~name:"collect" r);
  let graph = Builder.build b in
  let source = List.hd (Graph.sources graph) in
  let events =
    Profiler.Profile.Trace.periodic ~source ~rate:32. ~duration:20.
      ~gen:(fun i -> Value.Float (Float.of_int i))
  in
  let agg_raw = Profiler.Profile.collect ~duration:20. graph events in
  match
    Wishbone.Spec.of_profile ~mode:Wishbone.Movable.Permissive
      ~node_platform:Profiler.Platform.tmote_sky agg_raw
  with
  | Error m -> print_endline m
  | Ok spec ->
      Printf.printf "bandwidth saved per node when aggregating in-network: %.1f B/s\n"
        (Wishbone.Aggregation.in_network_benefit spec ~op:!reduce);
      List.iter
        (fun fan_in ->
          let annotated =
            Wishbone.Aggregation.annotate_fan_in spec ~op:!reduce ~fan_in
          in
          match
            Wishbone.Placement.solve (Wishbone.Placement.of_spec annotated)
          with
          | Wishbone.Placement.Partitioned r ->
              Printf.printf
                "  fan-in %4.0f: reduce runs %-10s (node cpu %5.1f%%, cut %.1f B/s)\n"
                fan_in
                (if r.tier_of.(!reduce) = 0 then "in-network" else "at server")
                (100. *. r.tier_cpu.(0)) r.link_net.(0)
          | _ -> Printf.printf "  fan-in %4.0f: no partition\n" fan_in)
        [ 1.; 8.; 64.; 512.; 4096. ]
