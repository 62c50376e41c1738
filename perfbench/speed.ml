(* A fixed machine-speed probe.  On a 2-core 2.1 GHz VM whose host
   runs other tenants, the same search ran anywhere from 8 to 17 ms
   within one minute, the slowdowns coming and going within a second,
   while its ratio to this probe, run right before and after it, moved
   about half as much.  Every timed interval is therefore bracketed by
   probes and reported at the nominal probe speed: its raw time is
   scaled by [nominal_ms] over the mean of the two probes.

   Scaling removes drift in the host's speed; it is not exactly neutral
   to a change in the program.  The probe's table is small enough to
   stay in the first-level cache and is re-warmed before each timed
   probe, so a program that grows its working set does not slow the
   probe.  But the probe runs on one core while serve and deploy use
   two, so a change in how much the two cores contend moves the raw
   and scaled figures differently.  The raw figures are printed beside
   the scaled ones. *)

(* about the fastest one probe ran on that VM *)
let nominal_ms = 2.5

(* 16 KB *)
let table = Array.init (1 lsl 11) (fun i -> i * 7919)

(* integer hashing over [reps] passes of the table; it allocates
   nothing, so the garbage a workload leaves behind cannot slow it *)
let work reps =
  let mask = Array.length table - 1 in
  let s = ref 0 in
  for r = 0 to reps - 1 do
    for i = 0 to mask do
      s := ((!s * 31) + table.(((i * 97) + r) land mask)) land 0xFFFFFF
    done
  done;
  Sys.opaque_identity !s

let once () =
  ignore (work 1);
  let t0 = Unix.gettimeofday () in
  ignore (work 640);
  (Unix.gettimeofday () -. t0) *. 1000.

(* every probe of the run, and the latest one: back-to-back intervals
   share the probe between them *)
let probes = ref []
let last = ref None

let probe () =
  let p = once () in
  probes := p :: !probes;
  last := Some p;
  p

(* the latest probe no longer brackets what follows untimed work *)
let forget () = last := None

(* [measure f] runs [f] between two probes: its result, raw ms and the
   factor that scales raw times to the nominal speed *)
let measure f =
  let before = match !last with Some p -> p | None -> probe () in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let raw_ms = (Unix.gettimeofday () -. t0) *. 1000. in
  let after = probe () in
  (r, raw_ms, nominal_ms /. ((before +. after) /. 2.))
