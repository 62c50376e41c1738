open Dataflow

type link_config = {
  policy : Shed.policy;
  capacity : int;
  service : int;
  seed : int;
}

type channel = {
  queue : (int * Exec.crossing) Shed.t;
  service : int;  (* crossings serviced per injection *)
}

type t = {
  tier_of : int array;
  n_tiers : int;
  parents : int array;  (* tier tree: parents.(root) = -1; chain default *)
  execs : Exec.t array array;  (* tier -> replicas; tier 0 has n_nodes *)
  channels : channel option array;  (* per link (= uplink of its tier);
                                       None = perfect *)
  cross_elems : int array;  (* per link: crossings offered *)
  cross_bytes : int array;
  drop_counts : int array array;  (* per link, per emitting operator *)
}

let create ?(n_nodes = 1) ?links ?parents ~n_tiers ~tier_of graph =
  if n_tiers < 2 then invalid_arg "Multirun.create: need at least two tiers";
  let parents =
    match parents with
    | None ->
        Array.init n_tiers (fun k -> if k = n_tiers - 1 then -1 else k + 1)
    | Some p ->
        if Array.length p <> n_tiers then
          invalid_arg "Multirun.create: need one parent entry per tier";
        Array.iteri
          (fun k pk ->
            if k = n_tiers - 1 then begin
              if pk <> -1 then
                invalid_arg
                  "Multirun.create: the last tier is the root and must have \
                   parent -1"
            end
            else if pk <= k || pk > n_tiers - 1 then
              invalid_arg
                (Printf.sprintf
                   "Multirun.create: tier %d needs a parent with a larger \
                    index"
                   k))
          p;
        Array.copy p
  in
  let n = Graph.n_ops graph in
  let tier_of = Array.init n tier_of in
  Array.iteri
    (fun i tier ->
      if tier < 0 || tier >= n_tiers then
        invalid_arg
          (Printf.sprintf "Multirun.create: op %d placed on tier %d of %d" i
             tier n_tiers))
    tier_of;
  let links =
    match links with
    | None -> Array.make (n_tiers - 1) None
    | Some l ->
        if List.length l <> n_tiers - 1 then
          invalid_arg "Multirun.create: need one link config per tier gap";
        Array.of_list l
  in
  let execs =
    Array.init n_tiers (fun tier ->
        let member i = tier_of.(i) = tier in
        if tier = 0 then
          Array.init n_nodes (fun _ -> Exec.create ~member graph)
        else
          (* Node-namespace operators relocated off the node keep
             per-node state instances *)
          let replicated i =
            (Graph.op graph i).Op.namespace = Op.Node && member i
          in
          [| Exec.create ~replicated ~member graph |])
  in
  {
    tier_of;
    n_tiers;
    parents;
    execs;
    channels =
      Array.map
        (Option.map (fun c ->
             {
               queue = Shed.create ~seed:c.seed c.policy ~capacity:c.capacity;
               service = c.service;
             }))
        links;
    cross_elems = Array.make (n_tiers - 1) 0;
    cross_bytes = Array.make (n_tiers - 1) 0;
    drop_counts = Array.init (n_tiers - 1) (fun _ -> Array.make n 0);
  }

let reset t =
  Array.iter (Array.iter Exec.reset) t.execs;
  Array.iter
    (function
      | Some ch ->
          let rec flush () =
            match Shed.pop ch.queue with Some _ -> flush () | None -> ()
          in
          flush ()
      | None -> ())
    t.channels;
  Array.fill t.cross_elems 0 (Array.length t.cross_elems) 0;
  Array.fill t.cross_bytes 0 (Array.length t.cross_bytes) 0;
  Array.iter (fun a -> Array.fill a 0 (Array.length a) 0) t.drop_counts

(* Fire a crossing's destination operator in its tier's engine,
   appending sink values (reversed — callers do one final [List.rev]),
   then route the resulting out-crossings further downstream. *)
let rec deliver t ~node (c : Exec.crossing) acc =
  let tier = t.tier_of.(c.edge.dst) in
  let fired =
    Exec.fire ~node t.execs.(tier).(0) ~op:c.edge.dst ~port:c.edge.dst_port
      c.value
  in
  acc := List.rev_append fired.Exec.sink_values !acc;
  route t ~node ~from_tier:tier fired.Exec.crossings acc

(* Offer each crossing leaving [from_tier] to link [from_tier] (its
   uplink): counted there, then pushed into the first bounded channel
   on its rootward path (shedding on overflow) or forwarded through
   perfect links until it reaches its destination tier.  Crossings to
   a tier that is not a strict ancestor are outside the
   monotone-descent contract and are ignored — for a chain ("strictly
   deeper tier") exactly the historical two-tier behaviour. *)
and route t ~node ~from_tier crossings acc =
  List.iter
    (fun (c : Exec.crossing) ->
      let dst = t.tier_of.(c.edge.dst) in
      let rec strict_ancestor x =
        let p = t.parents.(x) in
        p >= 0 && (p = dst || strict_ancestor p)
      in
      if strict_ancestor from_tier then send t ~node ~link:from_tier c acc)
    crossings

and send t ~node ~link (c : Exec.crossing) acc =
  t.cross_elems.(link) <- t.cross_elems.(link) + 1;
  t.cross_bytes.(link) <- t.cross_bytes.(link) + Value.size_bytes c.value;
  match t.channels.(link) with
  | Some ch -> (
      match Shed.push ch.queue (node, c) with
      | Shed.Queued -> ()
      | Shed.Dropped ->
          t.drop_counts.(link).(c.edge.src) <-
            t.drop_counts.(link).(c.edge.src) + 1
      | Shed.Displaced (_, old) ->
          t.drop_counts.(link).(old.Exec.edge.src) <-
            t.drop_counts.(link).(old.Exec.edge.src) + 1)
  | None ->
      if t.tier_of.(c.edge.dst) = t.parents.(link) then deliver t ~node c acc
      else send t ~node ~link:(t.parents.(link)) c acc

(* Pop one parked crossing off channel [link]; it either lands on the
   parent tier or continues across the parent's own uplink. *)
let service_one t ~link ch acc =
  match Shed.pop ch.queue with
  | None -> false
  | Some (node, c) ->
      if t.tier_of.(c.edge.dst) = t.parents.(link) then deliver t ~node c acc
      else send t ~node ~link:(t.parents.(link)) c acc;
      true

let drain ?limit t =
  let acc = ref [] in
  let budget = ref (match limit with None -> -1 | Some l -> l) in
  for link = 0 to t.n_tiers - 2 do
    match t.channels.(link) with
    | None -> ()
    | Some ch ->
        let rec go () =
          if !budget <> 0 then
            if service_one t ~link ch acc then begin
              decr budget;
              go ()
            end
        in
        go ()
  done;
  List.rev !acc

let inject ?(node = 0) t ~source value =
  (* sources live on any non-root tier: tier 0 addresses one of its
     [n_nodes] replicas, deeper tiers (e.g. another leaf of a tier
     tree) have a single engine *)
  let tier = t.tier_of.(source) in
  if tier = t.n_tiers - 1 then
    invalid_arg "Multirun.inject: source operator is on the root tier";
  if node < 0 || node >= Array.length t.execs.(tier) then
    invalid_arg "Multirun.inject: bad node id";
  let fired = Exec.fire t.execs.(tier).(node) ~op:source ~port:0 value in
  let sink_values = ref (List.rev fired.Exec.sink_values) in
  route t ~node ~from_tier:tier fired.Exec.crossings sink_values;
  (* service bounded channels, node-most first; crossings relayed into
     a deeper channel are picked up by that channel's own quota (a
     tier's parent always has a larger index, so ascending link order
     services every relay in the same pass) *)
  for link = 0 to t.n_tiers - 2 do
    match t.channels.(link) with
    | Some ch when ch.service > 0 ->
        let rec go budget =
          if budget > 0 && service_one t ~link ch sink_values then
            go (budget - 1)
        in
        go ch.service
    | _ -> ()
  done;
  List.rev !sink_values

let n_tiers t = t.n_tiers
let n_nodes t = Array.length t.execs.(0)
let tier_of t i = t.tier_of.(i)
let tier_exec t ~tier replica = t.execs.(tier).(replica)
let link_traffic t k = (t.cross_elems.(k), t.cross_bytes.(k))

let link_dropped t k =
  match t.channels.(k) with Some ch -> Shed.dropped ch.queue | None -> 0

let link_drop_counts t k = Array.copy t.drop_counts.(k)

let link_queued t k =
  match t.channels.(k) with Some ch -> Shed.length ch.queue | None -> 0
