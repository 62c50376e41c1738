(* In-memory spans and counters, recorded by the benchmark around its
   calls into each layer.  [None] is the untraced run: [span] calls
   straight through and [count] does nothing. *)

type span = {
  id : int;
  name : string;
  qid : int;  (** query the span belongs to, [-1] outside queries *)
  parent : int;  (** enclosing span id, [-1] at the top *)
  t0 : float;
  t1 : float;
}

type t = {
  mutable spans : span list;  (** most recent first *)
  mutable stack : (int * int) list;  (** open (id, qid), innermost first *)
  mutable next_id : int;
  counts : (string, float) Hashtbl.t;
}

let create () =
  { spans = []; stack = []; next_id = 0; counts = Hashtbl.create 32 }

let now = Unix.gettimeofday

let span tr ?qid name f =
  match tr with
  | None -> f ()
  | Some t ->
      let id = t.next_id in
      t.next_id <- id + 1;
      let parent, inherited =
        match t.stack with (p, q) :: _ -> (p, q) | [] -> (-1, -1)
      in
      let qid = Option.value qid ~default:inherited in
      t.stack <- (id, qid) :: t.stack;
      let t0 = now () in
      let close () =
        t.stack <- List.tl t.stack;
        t.spans <- { id; name; qid; parent; t0; t1 = now () } :: t.spans
      in
      Fun.protect ~finally:close f

(* a span whose interval was observed rather than wrapped (a B&B root
   seen through its hook), recorded under the innermost open span *)
let record tr name ~t0 ~t1 =
  match tr with
  | None -> ()
  | Some t ->
      let id = t.next_id in
      t.next_id <- id + 1;
      let parent, qid =
        match t.stack with (p, q) :: _ -> (p, q) | [] -> (-1, -1)
      in
      t.spans <- { id; name; qid; parent; t0; t1 } :: t.spans

let count tr name v =
  match tr with
  | None -> ()
  | Some t ->
      let old = Option.value (Hashtbl.find_opt t.counts name) ~default:0. in
      Hashtbl.replace t.counts name (old +. v)

let counter t name = Option.value (Hashtbl.find_opt t.counts name) ~default:0.

let duration s = s.t1 -. s.t0

(* Self time per span name, in ms: each span's duration minus the part
   its direct children cover. *)
let self_ms t =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let old = Option.value (Hashtbl.find_opt child s.parent) ~default:0. in
        Hashtbl.replace child s.parent (old +. duration s))
    t.spans;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let covered = Option.value (Hashtbl.find_opt child s.id) ~default:0. in
      let old = Option.value (Hashtbl.find_opt by_name s.name) ~default:0. in
      Hashtbl.replace by_name s.name (old +. ((duration s -. covered) *. 1000.)))
    t.spans;
  fun name -> Option.value (Hashtbl.find_opt by_name name) ~default:0.

let durations_ms t name =
  List.filter_map
    (fun s -> if s.name = name then Some (duration s *. 1000.) else None)
    t.spans

(* one JSON object per span, oldest first *)
let write t oc =
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\": %d, \"name\": \"%s\", \"qid\": %d, \"parent\": %d, \
         \"start\": %.6f, \"end\": %.6f}\n"
        s.id s.name s.qid s.parent s.t0 s.t1)
    (List.rev t.spans)
