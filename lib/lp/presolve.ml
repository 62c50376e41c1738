type stats = {
  rows_before : int;
  cols_before : int;
  rows_after : int;
  cols_after : int;
  cols_fixed : int;
  rounds : int;
  infeasible : bool;
}

type t = {
  orig : Problem.t;
  reduced : Problem.t;
  r_lo : float array;  (* reduced-space bounds after propagation *)
  r_hi : float array;
  offset : float;
  o_lo : float array;  (* presolved bounds in original space; equal *)
  o_hi : float array;  (* for a fixed column, at its value *)
  col_map : int array;  (* original column -> reduced column, -1 when fixed *)
  col_back : int array;  (* reduced column -> original column *)
  row_map : int array;  (* original row -> reduced row, -1 when removed *)
  row_back : int array;
  st : stats;
}

(* Propagation stops after this many passes even without a fixpoint:
   unbounded integer columns can climb forever along an infeasible
   cycle (x >= y + 1, y >= x + 1), which the simplex then settles. *)
let max_rounds = 64

(* slack allowed when an implied integer bound is rounded: an implied
   [x <= 2.9999999] still admits [x = 3], which the row's own
   feasibility tolerance would accept *)
let int_tol = 1e-6

(* a coefficient this small cannot carry a singleton bound safely *)
let tiny = 1e-9

exception Infeasible_bounds

(* the presolve that removes nothing *)
let identity problem st =
  let vars = Problem.vars problem in
  let n = Array.length vars and m = Problem.n_constrs problem in
  let lo = Array.map (fun (v : Problem.var_info) -> v.lo) vars in
  let hi = Array.map (fun (v : Problem.var_info) -> v.hi) vars in
  let ids k = Array.init k Fun.id in
  { orig = problem; reduced = problem; r_lo = lo; r_hi = hi; offset = 0.;
    o_lo = lo; o_hi = hi; col_map = ids n; col_back = ids n;
    row_map = ids m; row_back = ids m; st }

let run ?(feas_tol = 1e-7) problem =
  let vars = Problem.vars problem in
  let constrs = Problem.constrs problem in
  let n = Array.length vars and m = Array.length constrs in
  let lo = Array.map (fun (v : Problem.var_info) -> v.lo) vars in
  let hi = Array.map (fun (v : Problem.var_info) -> v.hi) vars in
  (* duplicate terms summed, zero coefficients dropped, as the
     simplex row fill sees them *)
  let acc = Array.make (Int.max 1 n) 0. in
  let stamp = Array.make (Int.max 1 n) (-1) in
  let rows =
    Array.mapi
      (fun i (c : Problem.constr) ->
        let order = ref [] in
        List.iter
          (fun (v, a) ->
            if stamp.(v) <> i then begin
              stamp.(v) <- i;
              acc.(v) <- 0.;
              order := v :: !order
            end;
            acc.(v) <- acc.(v) +. a)
          c.terms;
        let cols = List.filter (fun v -> acc.(v) <> 0.) (List.rev !order) in
        (Array.of_list cols, Array.of_list (List.map (fun v -> acc.(v)) cols)))
      constrs
  in
  let alive = Array.make m true in
  let fixed j = lo.(j) = hi.(j) in
  (* the row tolerance of the simplex's own final check *)
  let row_tol (c : Problem.constr) =
    feas_tol *. 100. *. (1. +. (1e-6 *. Float.abs c.rhs))
  in
  let changed = ref false in
  (* [eps] is the row tolerance carried over to the column: an implied
     integer bound is rounded with that much slack, so presolve never
     rejects a point the simplex's own row check would accept *)
  let set_lo j v ~eps =
    let integer = vars.(j).integer in
    let v = if integer then Float.ceil (v -. eps) else v in
    if v > lo.(j) then begin
      if v > hi.(j) then begin
        if integer || v -. hi.(j) > eps then raise Infeasible_bounds;
        lo.(j) <- hi.(j)
      end
      else lo.(j) <- v;
      changed := true
    end
  in
  let set_hi j v ~eps =
    let integer = vars.(j).integer in
    let v = if integer then Float.floor (v +. eps) else v in
    if v < hi.(j) then begin
      if v < lo.(j) then begin
        if integer || lo.(j) -. v > eps then raise Infeasible_bounds;
        hi.(j) <- lo.(j)
      end
      else hi.(j) <- v;
      changed := true
    end
  in
  (* one row against the current box: drop it when empty, singleton or
     redundant; otherwise tighten its integer columns *)
  let visit i =
    let c = constrs.(i) in
    let cols, coefs = rows.(i) in
    let k = Array.length cols in
    (* activity bounds: finite parts plus counts of infinite terms *)
    let minact = ref 0. and maxact = ref 0. in
    let min_inf = ref 0 and max_inf = ref 0 in
    let free = ref 0 and last = ref (-1) in
    let fixed_act = ref 0. in
    for t = 0 to k - 1 do
      let j = cols.(t) and a = coefs.(t) in
      if fixed j then fixed_act := !fixed_act +. (a *. lo.(j))
      else begin
        incr free;
        last := t
      end;
      let at_min, at_max =
        if a > 0. then (lo.(j), hi.(j)) else (hi.(j), lo.(j))
      in
      if Float.is_finite at_min then minact := !minact +. (a *. at_min)
      else incr min_inf;
      if Float.is_finite at_max then maxact := !maxact +. (a *. at_max)
      else incr max_inf
    done;
    let tol = row_tol c in
    (* the sides the row bounds: [le] from above, [ge] from below *)
    let le = c.sense <> Problem.Ge and ge = c.sense <> Problem.Le in
    if
      (le && !min_inf = 0 && !minact > c.rhs +. tol)
      || (ge && !max_inf = 0 && !maxact < c.rhs -. tol)
    then raise Infeasible_bounds;
    if !free = 0 then alive.(i) <- false
    else if !free = 1 && Float.abs coefs.(!last) > tiny then begin
      let j = cols.(!last) and a = coefs.(!last) in
      let b = (c.rhs -. !fixed_act) /. a in
      let eps = Float.max int_tol (tol /. Float.abs a) in
      (* a x <= r is x <= r/a for a > 0, x >= r/a for a < 0 *)
      if le then if a > 0. then set_hi j b ~eps else set_lo j b ~eps;
      if ge then if a > 0. then set_lo j b ~eps else set_hi j b ~eps;
      alive.(i) <- false;
      changed := true
    end
    else begin
      let slack = 1e-12 *. (1. +. Float.abs c.rhs) in
      let redundant =
        (not ge) && !max_inf = 0 && !maxact <= c.rhs +. slack
        || (not le) && !min_inf = 0 && !minact >= c.rhs -. slack
      in
      if redundant then begin
        alive.(i) <- false;
        changed := true
      end
      else
        for t = 0 to k - 1 do
          let j = cols.(t) and a = coefs.(t) in
          if vars.(j).integer && not (fixed j) then begin
            (* the activity of the other terms, when finite *)
            let rest act n_inf bound =
              if Float.is_finite bound then
                if n_inf = 0 then Some (act -. (a *. bound)) else None
              else if n_inf = 1 then Some act
              else None
            in
            let lo_j = lo.(j) and hi_j = hi.(j) in
            let eps = Float.max int_tol (tol /. Float.abs a) in
            let at_min, at_max =
              if a > 0. then (lo_j, hi_j) else (hi_j, lo_j)
            in
            (if le then
               match rest !minact !min_inf at_min with
               | Some r ->
                   let b = (c.rhs -. r) /. a in
                   if a > 0. then set_hi j b ~eps else set_lo j b ~eps
               | None -> ());
            if ge then
              match rest !maxact !max_inf at_max with
              | Some r ->
                  let b = (c.rhs -. r) /. a in
                  if a > 0. then set_lo j b ~eps else set_hi j b ~eps
              | None -> ()
          end
        done
    end
  in
  let rounds = ref 0 in
  let before = { rows_before = m; cols_before = n; rows_after = m;
                 cols_after = n; cols_fixed = 0; rounds = 0;
                 infeasible = false } in
  match
    changed := true;
    while !changed && !rounds < max_rounds do
      changed := false;
      incr rounds;
      for i = 0 to m - 1 do
        if alive.(i) then visit i
      done
    done
  with
  | exception Infeasible_bounds ->
      identity problem { before with rounds = !rounds; infeasible = true }
  | () ->
      let col_map = Array.make n (-1) in
      let n' = ref 0 in
      for j = 0 to n - 1 do
        if not (fixed j) then begin
          col_map.(j) <- !n';
          incr n'
        end
      done;
      let col_back = Array.make !n' 0 in
      Array.iteri (fun j j' -> if j' >= 0 then col_back.(j') <- j) col_map;
      let row_map = Array.make m (-1) in
      let m' = ref 0 in
      for i = 0 to m - 1 do
        if alive.(i) then begin
          row_map.(i) <- !m';
          incr m'
        end
      done;
      let row_back = Array.make !m' 0 in
      Array.iteri (fun i i' -> if i' >= 0 then row_back.(i') <- i) row_map;
      let n' = !n' and m' = !m' in
      let st =
        { before with rows_after = m'; cols_after = n'; cols_fixed = n - n';
          rounds = !rounds }
      in
      let offset =
        List.fold_left
          (fun s (v, a) -> if fixed v then s +. (a *. lo.(v)) else s)
          0. (Problem.objective problem)
      in
      let reduced =
        if n' = n && m' = m then problem
        else begin
          let p = Problem.create () in
          Array.iter
            (fun j ->
              let v = vars.(j) in
              ignore
                (Problem.add_var ~name:v.vname ~lo:lo.(j) ~hi:hi.(j)
                   ~integer:v.integer p))
            col_back;
          let free_terms terms =
            List.filter_map
              (fun (v, a) -> if fixed v then None else Some (col_map.(v), a))
              terms
          in
          Array.iter
            (fun i ->
              let c = constrs.(i) in
              let rhs =
                List.fold_left
                  (fun r (v, a) -> if fixed v then r -. (a *. lo.(v)) else r)
                  c.rhs c.terms
              in
              Problem.add_constr ~name:c.cname p (free_terms c.terms) c.sense
                rhs)
            row_back;
          Problem.set_objective p (Problem.direction problem)
            (free_terms (Problem.objective problem));
          p
        end
      in
      {
        orig = problem;
        reduced;
        r_lo = Array.map (fun j -> lo.(j)) col_back;
        r_hi = Array.map (fun j -> hi.(j)) col_back;
        offset;
        o_lo = lo;
        o_hi = hi;
        col_map;
        col_back;
        row_map;
        row_back;
        st;
      }

let problem t = t.reduced
let lo t = t.r_lo
let hi t = t.r_hi
let offset t = t.offset
let stats t = t.st
let bounds t = (Array.copy t.o_lo, Array.copy t.o_hi)

let lift t x =
  if t.reduced == t.orig then x
  else
    Array.mapi
      (fun j j' -> if j' >= 0 then x.(j') else t.o_lo.(j))
      t.col_map

(* ---- tableau layouts: structural, one slack per inequality row in
   row order, one artificial per row ---- *)

type layout = {
  n : int;
  m : int;
  slack_of : int array;  (* row -> slack column, -1 for an equality *)
  slack_row : int array;  (* slack column - n -> row *)
}

let layout p =
  let constrs = Problem.constrs p in
  let n = Problem.n_vars p in
  let next = ref n in
  let slack_of =
    Array.map
      (fun (c : Problem.constr) ->
        match c.sense with
        | Problem.Eq -> -1
        | _ ->
            let s = !next in
            incr next;
            s)
      constrs
  in
  let slack_row = Array.make (!next - n) 0 in
  Array.iteri (fun i s -> if s >= 0 then slack_row.(s - n) <- i) slack_of;
  { n; m = Array.length constrs; slack_of; slack_row }

let n_cols l = l.n + Array.length l.slack_row + l.m
let artificial l i = l.n + Array.length l.slack_row + i

(* a reduced tableau column in the original layout *)
let col_up t ~orig ~red c =
  let ns = Array.length red.slack_row in
  if c < red.n then t.col_back.(c)
  else if c < red.n + ns then
    orig.slack_of.(t.row_back.(red.slack_row.(c - red.n)))
  else artificial orig t.row_back.(c - red.n - ns)

let lift_basis t (b : Basis.t) =
  if t.reduced == t.orig then b
  else begin
    let orig = layout t.orig and red = layout t.reduced in
    let stat = Array.make (n_cols orig) Basis.At_lower in
    Array.iteri
      (fun j j' ->
        stat.(j) <-
          (if j' >= 0 then b.Basis.stat.(j')
           else if t.o_lo.(j) > (Problem.vars t.orig).(j).lo then Basis.At_upper
           else Basis.At_lower))
      t.col_map;
    let rows =
      Array.init orig.m (fun i ->
          let i' = t.row_map.(i) in
          if i' >= 0 then begin
            let s = orig.slack_of.(i) in
            if s >= 0 then stat.(s) <- b.Basis.stat.(red.slack_of.(i'));
            stat.(artificial orig i) <- b.Basis.stat.(artificial red i');
            col_up t ~orig ~red b.Basis.rows.(i')
          end
          else begin
            (* a removed row keeps its slack basic; an equality row, whose
               residual is zero, its artificial *)
            let s = orig.slack_of.(i) in
            let c = if s >= 0 then s else artificial orig i in
            stat.(c) <- Basis.Basic;
            c
          end)
    in
    { Basis.rows; stat }
  end

let restrict_basis t (b : Basis.t) =
  let orig = layout t.orig in
  if not (Basis.compatible b ~rows:orig.m ~cols:(n_cols orig)) then None
  else if t.reduced == t.orig then Some b
  else begin
    let red = layout t.reduced in
    let ncols = n_cols red in
    (* original column -> reduced column, -1 when presolve removed it *)
    let down = Array.make (n_cols orig) (-1) in
    for c = 0 to ncols - 1 do
      down.(col_up t ~orig ~red c) <- c
    done;
    let stat =
      Array.init ncols (fun c ->
          match b.Basis.stat.(col_up t ~orig ~red c) with
          | Basis.Basic -> Basis.At_lower
          | s -> s)
    in
    let basic = ref [] and count = ref 0 in
    Array.iter
      (fun c ->
        let c' = down.(c) in
        if c' >= 0 && stat.(c') <> Basis.Basic then begin
          stat.(c') <- Basis.Basic;
          basic := c' :: !basic;
          incr count
        end)
      b.Basis.rows;
    (* too few: logicals of rows whose own logical is nonbasic *)
    let i = ref 0 in
    while !count < red.m && !i < red.m do
      let s = red.slack_of.(!i) in
      let c = if s >= 0 then s else artificial red !i in
      if stat.(c) <> Basis.Basic then begin
        stat.(c) <- Basis.Basic;
        basic := c :: !basic;
        incr count
      end;
      incr i
    done;
    if !count <> red.m then None
    else Some { Basis.rows = Array.of_list (List.rev !basic); stat }
  end

let pp_stats ppf s =
  Format.fprintf ppf "rows %d -> %d, cols %d -> %d, %d fixed, %d rounds%s"
    s.rows_before s.rows_after s.cols_before s.cols_after s.cols_fixed
    s.rounds
    (if s.infeasible then ", infeasible" else "")
