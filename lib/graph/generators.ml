let path n ~w =
  if n < 1 then invalid_arg "Generators.path: n >= 1 required";
  Graph.create ~n (List.init (n - 1) (fun i -> (i, i + 1, w)))

let cycle n ~w =
  if n < 3 then invalid_arg "Generators.cycle: n >= 3 required";
  Graph.create ~n (List.init n (fun i -> (i, (i + 1) mod n, w)))

let star n ~w =
  if n < 2 then invalid_arg "Generators.star: n >= 2 required";
  Graph.create ~n (List.init (n - 1) (fun i -> (0, i + 1, w)))

let complete n ~w =
  if n < 2 then invalid_arg "Generators.complete: n >= 2 required";
  let edges = ref [] in
  for u = 0 to n - 2 do
    for v = u + 1 to n - 1 do
      edges := (u, v, w) :: !edges
    done
  done;
  Graph.create ~n !edges

let grid rows cols ~w =
  if rows < 1 || cols < 1 then invalid_arg "Generators.grid: empty grid";
  let id r c = (r * cols) + c in
  let edges = ref [] in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then edges := (id r c, id r (c + 1), w) :: !edges;
      if r + 1 < rows then edges := (id r c, id (r + 1) c, w) :: !edges
    done
  done;
  Graph.create ~n:(rows * cols) !edges

let binary_tree n ~w =
  if n < 1 then invalid_arg "Generators.binary_tree: n >= 1 required";
  Graph.create ~n (List.init (n - 1) (fun i -> (i + 1, i / 2, w)))

let random_tree rng n ~wmax =
  if n < 1 then invalid_arg "Generators.random_tree: n >= 1 required";
  if wmax < 1 then invalid_arg "Generators.random_tree: wmax >= 1 required";
  (* Random attachment: vertex i > 0 hangs off a uniform earlier vertex,
     after a random relabelling so the shape is not biased toward low ids. *)
  let label = Array.init n (fun i -> i) in
  Rng.shuffle rng label;
  let edges = ref [] in
  for i = 1 to n - 1 do
    let p = Rng.int rng i in
    edges := (label.(i), label.(p), Rng.int_in rng 1 wmax) :: !edges
  done;
  Graph.create ~n !edges

let random_connected rng n ~extra_edges ~wmax =
  let tree = random_tree rng n ~wmax in
  let existing = Hashtbl.create (n + extra_edges) in
  Array.iter
    (fun (e : Graph.edge) -> Hashtbl.replace existing (e.u, e.v) ())
    (Graph.edges tree);
  let extras = ref [] in
  let added = ref 0 in
  let attempts = ref 0 in
  let max_possible = (n * (n - 1) / 2) - (n - 1) in
  let budget = min extra_edges max_possible in
  while !added < budget && !attempts < 100 * (budget + 1) do
    incr attempts;
    let u = Rng.int rng n and v = Rng.int rng n in
    let u, v = if u < v then (u, v) else (v, u) in
    if u <> v && not (Hashtbl.mem existing (u, v)) then begin
      Hashtbl.replace existing (u, v) ();
      extras := (u, v, Rng.int_in rng 1 wmax) :: !extras;
      incr added
    end
  done;
  let tree_edges =
    Array.to_list (Graph.edges tree)
    |> List.map (fun (e : Graph.edge) -> (e.u, e.v, e.w))
  in
  Graph.create ~n (tree_edges @ !extras)

(* The first [len] entries of [Array.init n Fun.id] sorted by
   [compare keys.(a) keys.(b)] with [Array.sort], without sorting: one
   pass keeps the [len + 1] smallest keys in an insertion buffer. When
   those keys are pairwise distinct, the first [len] positions are
   unique, so any sort agrees on them. Otherwise [Array.sort] (a heap
   sort, which orders equal keys by its own schedule) is run as is. *)
let sorted_prefix keys ~len =
  let n = Array.length keys in
  let len = min len n in
  let cap = min (len + 1) n in
  let ks = Array.make cap 0.0 and ids = Array.make cap 0 in
  let size = ref 0 in
  for j = 0 to n - 1 do
    let kj = keys.(j) in
    if !size < cap || kj < ks.(cap - 1) then begin
      let p = ref (if !size < cap then !size else cap - 1) in
      if !size < cap then incr size;
      while !p > 0 && ks.(!p - 1) > kj do
        ks.(!p) <- ks.(!p - 1);
        ids.(!p) <- ids.(!p - 1);
        decr p
      done;
      ks.(!p) <- kj;
      ids.(!p) <- j
    end
  done;
  let tie = ref false in
  for p = 0 to cap - 2 do
    if ks.(p) = ks.(p + 1) then tie := true
  done;
  if !tie then begin
    let order = Array.init n (fun j -> j) in
    Array.sort (fun a b -> compare (keys.(a) : float) keys.(b)) order;
    Array.sub order 0 len
  end
  else Array.sub ids 0 len

let random_geometric rng n ~degree ~scale =
  if n < 2 then invalid_arg "Generators.random_geometric: n >= 2 required";
  let xs = Array.init n (fun _ -> Rng.float rng) in
  let ys = Array.init n (fun _ -> Rng.float rng) in
  let dist2 i j =
    let dx = xs.(i) -. xs.(j) and dy = ys.(i) -. ys.(j) in
    (dx *. dx) +. (dy *. dy)
  in
  let weight i j =
    max 1 (int_of_float (Float.round (scale *. sqrt (dist2 i j))))
  in
  let existing = Hashtbl.create (n * degree) in
  let edges = ref [] and m = ref 0 in
  let add i j =
    let u, v = if i < j then (i, j) else (j, i) in
    if u <> v && not (Hashtbl.mem existing (u, v)) then begin
      Hashtbl.replace existing (u, v) ();
      edges := (u, v, weight u v) :: !edges;
      incr m
    end
  in
  (* Connectivity backbone: Euclidean MST via Prim on the complete graph. *)
  let in_tree = Array.make n false in
  let best = Array.make n infinity in
  let best_to = Array.make n (-1) in
  in_tree.(0) <- true;
  for j = 1 to n - 1 do
    best.(j) <- dist2 0 j;
    best_to.(j) <- 0
  done;
  for _ = 1 to n - 1 do
    let pick = ref (-1) in
    for j = 0 to n - 1 do
      if (not in_tree.(j)) && (!pick < 0 || best.(j) < best.(!pick)) then
        pick := j
    done;
    let j = !pick in
    in_tree.(j) <- true;
    add j best_to.(j);
    for k = 0 to n - 1 do
      if (not in_tree.(k)) && dist2 j k < best.(k) then begin
        best.(k) <- dist2 j k;
        best_to.(k) <- j
      end
    done
  done;
  (* Local links: round k connects each vertex to its k-th nearest
     neighbour (position 0 of the distance order is the vertex itself),
     until the requested average degree is reached. [near.(i)] holds the
     first [len] positions of vertex i's order; it is re-selected with
     [len] doubled when the rounds outgrow it. *)
  let target_edges = max (n - 1) (n * degree / 2) in
  let keys = Array.make n 0.0 in
  let near = Array.make n [||] and len = ref 0 in
  let k = ref 1 in
  while !m < target_edges && !k < n - 1 do
    if !k >= !len then begin
      len := min n (max (2 * !len) (degree + 2));
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          keys.(j) <- dist2 i j
        done;
        near.(i) <- sorted_prefix keys ~len:!len
      done
    end;
    for i = 0 to n - 1 do
      add i near.(i).(!k)
    done;
    incr k
  done;
  Graph.create ~n !edges

let lollipop clique_n path_n ~w =
  if clique_n < 2 then invalid_arg "Generators.lollipop: clique too small";
  let n = clique_n + path_n in
  let edges = ref [] in
  for u = 0 to clique_n - 2 do
    for v = u + 1 to clique_n - 1 do
      edges := (u, v, w) :: !edges
    done
  done;
  for i = 0 to path_n - 1 do
    let prev = if i = 0 then clique_n - 1 else clique_n + i - 1 in
    edges := (prev, clique_n + i, w) :: !edges
  done;
  Graph.create ~n !edges

let pow4 x = x * x * x * x

let lower_bound_gn n ~x =
  if n < 4 then invalid_arg "Generators.lower_bound_gn: n >= 4 required";
  if x < 2 then invalid_arg "Generators.lower_bound_gn: x >= 2 required";
  let heavy = pow4 x in
  let path_edges = List.init (n - 1) (fun i -> (i, i + 1, x)) in
  let bypass =
    List.init (n / 2) (fun i -> (i, n - 1 - i, heavy))
    |> List.filter (fun (u, v, _) -> u < v && v - u > 1)
  in
  Graph.create ~n (path_edges @ bypass)

let lower_bound_gn_i n ~i ~x =
  if i < 0 || i >= n / 2 then
    invalid_arg "Generators.lower_bound_gn_i: i out of range";
  let heavy = pow4 x in
  let base = lower_bound_gn n ~x in
  let partner = n - 1 - i in
  let kept =
    Array.to_list (Graph.edges base)
    |> List.filter (fun (e : Graph.edge) -> not (e.u = i && e.v = partner))
    |> List.map (fun (e : Graph.edge) -> (e.u, e.v, e.w))
  in
  (* Fresh pendant vertices n and n+1 replace the bypass edge. *)
  Graph.create ~n:(n + 2) (((i, n, heavy)) :: ((partner, n + 1, heavy)) :: kept)

let chorded_cycle n ~chord_w =
  if n < 5 then invalid_arg "Generators.chorded_cycle: n >= 5 required";
  if chord_w < 1 then invalid_arg "Generators.chorded_cycle: bad weight";
  let ring = List.init n (fun i -> (i, (i + 1) mod n, 1)) in
  let chords = List.init n (fun i -> (i, (i + 2) mod n, chord_w)) in
  let chords =
    List.filter
      (fun (u, v, _) ->
        let u, v = if u < v then (u, v) else (v, u) in
        v - u = 2 || (u = 0 && v = n - 2) || (u = 1 && v = n - 1))
      chords
  in
  (* Deduplicate: normalise and drop duplicates defensively. *)
  let seen = Hashtbl.create n in
  let uniq =
    List.filter
      (fun (u, v, _) ->
        let key = if u < v then (u, v) else (v, u) in
        if Hashtbl.mem seen key then false
        else begin
          Hashtbl.replace seen key ();
          true
        end)
      (ring @ chords)
  in
  Graph.create ~n uniq

(* ------------------------------------------------------------------ *)
(* Streaming builders: the million-vertex path.                        *)
(*                                                                     *)
(* Each generator below describes its family as a replayable edge      *)
(* stream fed to [Graph.of_stream]'s two-pass CSR construction — no    *)
(* (src, dst, w) tuple list ever exists. Randomness is re-derived per  *)
(* row from a pure seed mix so the count and fill passes replay the    *)
(* identical sequence. The [grid_stream] / [lower_bound_gn_stream]     *)
(* variants emit the exact edge-id order of their tuple-based          *)
(* counterparts (asserted by tests), so either construction yields     *)
(* interchangeable graphs.                                             *)
(* ------------------------------------------------------------------ *)

let grid_stream rows cols ~w =
  if rows < 1 || cols < 1 then invalid_arg "Generators.grid_stream: empty grid";
  let id r c = (r * cols) + c in
  (* [grid] conses right-then-down edges in scan order and hands the
     accumulated list (reverse push order) to [Graph.create]; replaying
     that exact id order means walking cells backwards, down-edge before
     right-edge. *)
  Graph.of_stream ~n:(rows * cols) (fun f ->
      for r = rows - 1 downto 0 do
        for c = cols - 1 downto 0 do
          if r + 1 < rows then f (id r c) (id (r + 1) c) w;
          if c + 1 < cols then f (id r c) (id r (c + 1)) w
        done
      done)

let lower_bound_gn_stream n ~x =
  if n < 4 then invalid_arg "Generators.lower_bound_gn_stream: n >= 4 required";
  if x < 2 then invalid_arg "Generators.lower_bound_gn_stream: x >= 2 required";
  let heavy = pow4 x in
  Graph.of_stream ~n (fun f ->
      for i = 0 to n - 2 do
        f i (i + 1) x
      done;
      for i = 0 to (n / 2) - 1 do
        let partner = n - 1 - i in
        if i < partner && partner - i > 1 then f i partner heavy
      done)

(* Per-row RNG: splitmix64's finalizer decorrelates consecutive seeds,
   so a cheap injective mix of (seed, row) is enough for independent
   replayable row streams. *)
let row_rng ~seed u = Rng.create ((seed * 1_000_003) + u)

(* Geometric skip to the next sampled neighbour: Bernoulli(p) per pair
   collapses to one logarithm per present edge. *)
let geometric_skip rng ~p =
  if p >= 1.0 then 1
  else
    let r = Rng.float rng in
    1 + int_of_float (log (1.0 -. r) /. log (1.0 -. p))

let gnp ?(connected = false) ~seed n ~p ~wmax =
  if n < 1 then invalid_arg "Generators.gnp: n >= 1 required";
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg "Generators.gnp: p must be in [0, 1]";
  if wmax < 1 then invalid_arg "Generators.gnp: wmax >= 1 required";
  Graph.of_stream ~n (fun f ->
      for u = 0 to n - 2 do
        if connected then begin
          (* Path backbone for guaranteed connectivity; skipped when row
             [u]'s own first edge is already {u, u+1} (the only possible
             duplicate, since row samples only move forward). *)
          let probe = row_rng ~seed:(seed + 1) u in
          let dup = p > 0.0 && geometric_skip (row_rng ~seed u) ~p = 1 in
          if not dup then f u (u + 1) (Rng.int_in probe 1 wmax)
        end;
        if p > 0.0 then begin
          let rng = row_rng ~seed u in
          let v = ref u in
          let continue = ref true in
          while !continue do
            v := !v + geometric_skip rng ~p;
            if !v < n then f u !v (Rng.int_in rng 1 wmax)
            else continue := false
          done
        end
      done)

let bkj_star_cycle k ~heavy =
  if k < 3 then invalid_arg "Generators.bkj_star_cycle: k >= 3 required";
  if heavy < 1 then invalid_arg "Generators.bkj_star_cycle: bad weight";
  let n = k + 1 in
  let spokes = List.init k (fun i -> (0, i + 1, heavy)) in
  let rim = List.init (k - 1) (fun i -> (i + 1, i + 2, 1)) in
  Graph.create ~n (spokes @ rim)
