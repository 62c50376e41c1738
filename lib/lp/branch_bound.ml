type options = {
  max_nodes : int;
  int_tol : float;
  gap_tol : float;
  time_limit : float;
  pivot_budget : int;
  on_node : (nodes:int -> pivots:int -> unit) option;
  workers : int;
  simplex : Simplex.options;
}

let default_options =
  {
    max_nodes = 200_000;
    int_tol = 1e-6;
    gap_tol = 0.;
    time_limit = infinity;
    pivot_budget = max_int;
    on_node = None;
    workers = 1;
    simplex = Simplex.default_options;
  }

type stats = {
  nodes_explored : int;
  lp_solves : int;
  hot_solves : int;
  total_pivots : int;
  time_to_incumbent : float;
  time_total : float;
  proved_optimal : bool;
  best_bound : float;
  incumbent_trace : (float * float) list;
  root_basis : Basis.t option;
  presolve : Presolve.stats;
}

(* Node bounds are delta-encoded: each node records only the single
   bound its branch tightened relative to its parent, and the full
   [lo]/[hi] arrays are materialised when the node is popped for
   expansion.  A tree of N open nodes then costs O(N) bound storage
   instead of O(N * vars), and pushing a child is O(1).  Bounds only
   tighten down a path, so replaying the deltas root-to-leaf with
   plain assignments reproduces the eager arrays exactly. *)
type bound_delta = {
  bvar : int;  (* branching variable; -1 on the root *)
  bup : bool;  (* true: raise lo to bval; false: lower hi to bval *)
  bval : float;
}

let no_delta = { bvar = -1; bup = false; bval = 0. }

let materialise ~lo0 ~hi0 deltas =
  let lo = Array.copy lo0 and hi = Array.copy hi0 in
  List.iter
    (fun d -> if d.bup then lo.(d.bvar) <- d.bval else hi.(d.bvar) <- d.bval)
    deltas;
  (lo, hi)

type node = {
  parent : node option;  (* branching chain up to the root *)
  delta : bound_delta;  (* the one bound this node tightened *)
  relax : Solution.t;
  basis : Basis.t option;  (* optimal basis of this node's relaxation *)
}

let deltas_of_node node =
  let rec go nd acc =
    match nd.parent with None -> acc | Some p -> go p (nd.delta :: acc)
  in
  go node []

(* Most fractional integer variable, or [None] when integral within
   [int_tol]: score each candidate by its distance to the nearest
   integer (so a fractional part of .5 scores highest) and take the
   maximum, breaking ties towards the lowest index so the branching
   choice is deterministic. *)
let fractional_var ~int_tol int_vars (x : float array) =
  let best = ref None in
  let best_score = ref int_tol in
  List.iter
    (fun v ->
      let f = x.(v) -. Float.floor x.(v) in
      let score = Float.min f (1. -. f) in
      if score > !best_score then begin
        best_score := score;
        best := Some v
      end)
    int_vars;
  !best

let snap ~int_tol int_vars (x : float array) =
  let x = Array.copy x in
  List.iter
    (fun v ->
      let r = Float.round x.(v) in
      if Float.abs (x.(v) -. r) <= int_tol *. 10. then x.(v) <- r)
    int_vars;
  x

(* Deterministic incumbent tie-breaking: when two feasible points have
   (numerically) the same objective, keep the lexicographically
   smallest.  With parallel waves, tied integral leaves can surface in
   the same batch in any exploration order; this makes the returned
   point a pure function of the *set* discovered, not the exploration
   order. *)
let lex_smaller (a : float array) (b : float array) =
  let n = Array.length a in
  let rec go i =
    if i >= n then false
    else if a.(i) < b.(i) -. 1e-9 then true
    else if a.(i) > b.(i) +. 1e-9 then false
    else go (i + 1)
  in
  go 0

(* One wave entry: a popped, non-stale open node.  Integral leaves
   carry no LP work; branch entries are expanded by a worker, results
   applied later in deterministic batch order. *)
type task = {
  t_node : node;
  t_var : int;
  mutable t_down : Simplex.result option;
  mutable t_up : Simplex.result option;
}

type entry = Leaf of node | Branch of task

(* The integral bound values either side of the branching variable's
   relaxed value; shared by the solve and apply phases so the bounds
   solved and the deltas recorded always agree. *)
let branch_vals (node : node) v =
  let xv = node.relax.x.(v) in
  ( Float.of_int (int_of_float (Float.floor xv)),
    Float.of_int (int_of_float (Float.ceil xv)) )

(* the search proper, over a presolved problem: LPs run on the
   reduced problem [pre], incumbents are lifted to and judged on the
   original [problem] *)
let search ~options ~t0 ?initial ?root_basis problem pre =
  let elapsed () = Unix.gettimeofday () -. t0 in
  let minimize = Problem.direction problem = Problem.Minimize in
  (* internal keys are always "minimize": smaller is better *)
  let key_of_obj obj = if minimize then obj else -.obj in
  let obj_of_key key = if minimize then key else -.key in
  (* relaxation objectives lack the fixed columns' constant *)
  let offset = Presolve.offset pre in
  let key_of_relax (s : Solution.t) =
    key_of_obj (s.Solution.objective +. offset)
  in
  let work = Presolve.problem pre in
  (* force every lazy accessor cache before any domain is spawned:
     workers treat both problems as strictly read-only *)
  List.iter
    (fun p ->
      ignore (Problem.vars p);
      ignore (Problem.constrs p);
      ignore (Problem.objective p))
    [ problem; work ];
  let int_vars = Problem.integer_vars work in
  let data = Sparse.of_problem work in
  let workers = Int.max 1 options.workers in
  let lp_solves = ref 0 in
  let pivots = ref 0 in
  let root_b = ref None in
  (* pure LP relaxation solve — no shared counters, so safe from any
     worker domain; accounting happens on the main thread via
     [account] when the result is applied.  [simplex] carries the
     per-solve pivot cap derived from the tree-wide budget. *)
  let relaxation ~session ~simplex ~warm ~lo ~hi =
    Sparse.solve_warm ~options:simplex ?warm ~lo ~hi ~session data
  in
  (* the tree-wide pivot budget, capped into each LP solve so a single
     relaxation cannot blow through it unboundedly.  With the default
     unlimited budget this returns [options.simplex] itself, keeping
     the budget-free path bit-identical. *)
  let budgeted_simplex ~remaining =
    if options.pivot_budget = max_int then options.simplex
    else
      { options.simplex with
        Simplex.max_pivots =
          Int.min options.simplex.Simplex.max_pivots (Int.max 1 remaining) }
  in
  (* cooperative checkpoint: deterministic counters out, exceptions
     (fault injection) propagate to the caller *)
  let on_node ~nodes ~pivots =
    match options.on_node with Some f -> f ~nodes ~pivots | None -> ()
  in
  (* one reusable sparse solve session per worker slot: state arrays
     are pooled across solves, and re-solving the warm basis the
     session last refactorised (the second child of every node)
     restores the snapshotted factorisation instead of rebuilding it.
     Sessions never change results, only the work to reach them. *)
  let sessions = Array.init workers (fun _ -> Sparse.session data) in
  let account (r : Simplex.result) =
    incr lp_solves;
    pivots := !pivots + r.Simplex.pivots
  in
  let lo0 = Presolve.lo pre and hi0 = Presolve.hi pre in
  let finish status ~proved ~best_bound ~t_inc ~nodes ~trace =
    ( status,
      {
        nodes_explored = nodes;
        lp_solves = !lp_solves;
        hot_solves = 0;
        total_pivots = !pivots;
        time_to_incumbent = t_inc;
        time_total = elapsed ();
        proved_optimal = proved;
        best_bound;
        incumbent_trace = List.rev trace;
        root_basis = !root_b;
        presolve = Presolve.stats pre;
      } )
  in
  let root =
    relaxation ~session:sessions.(0)
      ~simplex:(budgeted_simplex ~remaining:options.pivot_budget)
      ~warm:(Option.bind root_basis (Presolve.restrict_basis pre))
      ~lo:lo0 ~hi:hi0
  in
  account root;
  root_b := Option.map (Presolve.lift_basis pre) root.Simplex.basis;
  match root.Simplex.status with
  | Solution.Infeasible ->
      finish Solution.Infeasible ~proved:true ~best_bound:nan ~t_inc:0.
        ~nodes:0 ~trace:[]
  | Solution.Unbounded ->
      finish Solution.Unbounded ~proved:true ~best_bound:nan ~t_inc:0. ~nodes:0
        ~trace:[]
  | Solution.Iteration_limit ->
      finish Solution.Iteration_limit ~proved:false ~best_bound:nan ~t_inc:0.
        ~nodes:0 ~trace:[]
  | Solution.Optimal root_relax -> (
      let open_nodes : node Heap.Pqueue.t = Heap.Pqueue.create () in
      let root_node =
        { parent = None; delta = no_delta; relax = root_relax;
          basis = root.Simplex.basis }
      in
      Heap.Pqueue.push open_nodes (key_of_relax root_relax) root_node;
      let node_bounds node = materialise ~lo0 ~hi0 (deltas_of_node node) in
      let incumbent = ref None in
      let incumbent_key = ref infinity in
      let t_incumbent = ref 0. in
      let trace = ref [] in
      let nodes = ref 0 in
      let hit_budget = ref false in
      (* [x] in original space, integer columns snapped *)
      let consider x =
        let obj = Problem.objective_value problem x in
        let key = key_of_obj obj in
        if Problem.constraint_violation problem x <= 1e-5 then begin
          if key < !incumbent_key -. 1e-12 then begin
            incumbent := Some { Solution.x; objective = obj };
            incumbent_key := key;
            t_incumbent := elapsed ();
            trace := (!t_incumbent, obj) :: !trace
          end
          else if key <= !incumbent_key +. 1e-12 then
            match !incumbent with
            | Some cur when lex_smaller x cur.Solution.x ->
                (* numerically tied objective: keep the canonical
                   (lexicographically smallest) point *)
                incumbent := Some { Solution.x; objective = obj };
                incumbent_key := Float.min key !incumbent_key
            | _ -> ()
        end
      in
      let try_incumbent (sol : Solution.t) =
        consider
          (Presolve.lift pre (snap ~int_tol:options.int_tol int_vars sol.x))
      in
      (* incremental callers (rate search) seed the incumbent with the
         previous step's feasible point: a valid primal bound that lets
         best-first search prune most of the tree immediately *)
      (match initial with
      | Some x0 when Array.length x0 = Problem.n_vars problem ->
          consider
            (snap ~int_tol:options.int_tol (Problem.integer_vars problem) x0)
      | _ -> ());
      let gap_closed bound_key =
        match !incumbent with
        | None -> false
        | Some _ ->
            let gap = !incumbent_key -. bound_key in
            gap <= options.gap_tol *. Float.max 1. (Float.abs !incumbent_key)
                   +. 1e-9
      in
      (* expansion body run by a worker (or inline when [workers = 1]):
         both children, warm-started from the node's basis.  Writes
         only into its own task record; [Domain.join] publishes the
         writes to the applier. *)
      let run_task ~session ~simplex tk =
        let node = tk.t_node in
        let lo, hi = node_bounds node in
        let fl, ce = branch_vals node tk.t_var in
        let hi_down = Array.copy hi in
        hi_down.(tk.t_var) <- fl;
        let lo_up = Array.copy lo in
        lo_up.(tk.t_var) <- ce;
        tk.t_down <-
          Some (relaxation ~session ~simplex ~warm:node.basis ~lo ~hi:hi_down);
        tk.t_up <-
          Some (relaxation ~session ~simplex ~warm:node.basis ~lo:lo_up ~hi)
      in
      let continue = ref true in
      while !continue do
        (* ---- collect a wave of up to [workers] non-stale nodes ----
           The first collection attempt of a wave replays the
           sequential loop-head checks exactly (so [workers = 1]
           reproduces the sequential search verbatim); a trigger after
           the wave already has entries merely closes the wave, and
           the next wave's head re-evaluates it against the applied
           results. *)
        let batch = ref [] in
        let batch_n = ref 0 in
        let collecting = ref true in
        while !collecting do
          if !batch_n >= workers then collecting := false
          else
            match Heap.Pqueue.min_key open_nodes with
            | None ->
                if !batch_n = 0 then continue := false;
                collecting := false
            | Some bound_key when gap_closed bound_key ->
                if !batch_n = 0 then continue := false;
                collecting := false
            | Some _ ->
                (* cooperative checkpoint: counters are only mutated in
                   the sequential collect/apply phases, so the values
                   seen here are a pure function of the search history *)
                on_node ~nodes:!nodes ~pivots:!pivots;
                if
                  !nodes >= options.max_nodes
                  || !pivots >= options.pivot_budget
                  || elapsed () > options.time_limit
                then begin
                  if !batch_n = 0 then begin
                    hit_budget := true;
                    continue := false
                  end;
                  collecting := false
                end
                else begin
                  match Heap.Pqueue.pop open_nodes with
                  | None ->
                      if !batch_n = 0 then continue := false;
                      collecting := false
                  | Some (key, node) ->
                      (* stale-node pruning: the bound was checked when
                         the node was pushed, but the incumbent may
                         have improved since; discard without
                         branching *)
                      if not (key >= !incumbent_key -. 1e-12 || gap_closed key)
                      then begin
                        incr nodes;
                        match
                          fractional_var ~int_tol:options.int_tol int_vars
                            node.relax.x
                        with
                        | None ->
                            batch := Leaf node :: !batch;
                            incr batch_n
                        | Some v ->
                            batch :=
                              Branch
                                { t_node = node; t_var = v; t_down = None;
                                  t_up = None }
                              :: !batch;
                            incr batch_n
                      end
                end
        done;
        let batch = List.rev !batch in
        (* ---- expand all branch entries, in parallel past one ---- *)
        let tasks =
          List.filter_map
            (function Branch tk -> Some tk | Leaf _ -> None)
            batch
        in
        (* every task of a wave sees the same remaining budget — the
           value at wave entry — so the wave's results stay a pure
           function of the search history and [workers] *)
        let wave_simplex =
          budgeted_simplex ~remaining:(options.pivot_budget - !pivots)
        in
        (match tasks with
        | [] -> ()
        | [ tk ] -> run_task ~session:sessions.(0) ~simplex:wave_simplex tk
        | tk0 :: rest ->
            let doms =
              List.mapi
                (fun i tk ->
                  Domain.spawn (fun () ->
                      run_task ~session:sessions.(i + 1) ~simplex:wave_simplex
                        tk))
                rest
            in
            run_task ~session:sessions.(0) ~simplex:wave_simplex tk0;
            List.iter Domain.join doms);
        (* ---- apply results in deterministic batch order ---- *)
        List.iter
          (function
            | Leaf node -> try_incumbent node.relax
            | Branch tk ->
                let node = tk.t_node in
                let fl, ce = branch_vals node tk.t_var in
                let apply_child r ~bup ~bval =
                  account r;
                  match r.Simplex.status with
                  | Solution.Optimal relax ->
                      let key = key_of_relax relax in
                      if key < !incumbent_key -. 1e-12 then begin
                        let child =
                          { parent = Some node;
                            delta = { bvar = tk.t_var; bup; bval };
                            relax; basis = r.Simplex.basis }
                        in
                        Heap.Pqueue.push open_nodes key child
                      end
                  | Solution.Infeasible -> ()
                  | Solution.Unbounded ->
                      (* a bounded parent cannot have an unbounded
                         child; treat as numerical noise *)
                      ()
                  | Solution.Iteration_limit -> hit_budget := true
                in
                (match tk.t_down with
                | Some r -> apply_child r ~bup:false ~bval:fl
                | None -> ());
                (match tk.t_up with
                | Some r -> apply_child r ~bup:true ~bval:ce
                | None -> ()))
          batch
      done;
      let best_bound_key =
        match Heap.Pqueue.min_key open_nodes with
        | Some k -> Float.min k !incumbent_key
        | None -> !incumbent_key
      in
      match !incumbent with
      | Some sol ->
          let proved = (not !hit_budget) || gap_closed best_bound_key in
          finish (Solution.Optimal sol) ~proved
            ~best_bound:(obj_of_key best_bound_key) ~t_inc:!t_incumbent
            ~nodes:!nodes ~trace:!trace
      | None ->
          if !hit_budget then
            finish Solution.Iteration_limit ~proved:false
              ~best_bound:(obj_of_key best_bound_key) ~t_inc:0. ~nodes:!nodes
              ~trace:!trace
          else
            finish Solution.Infeasible ~proved:true ~best_bound:nan ~t_inc:0.
              ~nodes:!nodes ~trace:[])

let solve ?(options = default_options) ?initial ?root_basis problem =
  let t0 = Unix.gettimeofday () in
  Option.iter (fun f -> f ~nodes:0 ~pivots:0) options.on_node;
  search ~options ~t0 ?initial ?root_basis problem
    (Presolve.run ~feas_tol:options.simplex.Simplex.feas_tol problem)
