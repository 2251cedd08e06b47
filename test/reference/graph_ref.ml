(* Slow, obviously-correct references for the graph layer: the tests
   check the production algorithms against these, and the
   micro-benchmarks time them as the "before" side of their pairs. *)

module G = Csap_graph.Graph
module P = Csap_graph.Paths

(* The pre-index edge lookup: a linear scan of [u]'s adjacency row. *)
let edge_id_scan g u v =
  let off = G.csr_offsets g and nbr = G.csr_neighbors g in
  let rec scan i =
    if i >= off.(u + 1) then -1
    else if nbr.(i) = v then (G.csr_edge_ids g).(i)
    else scan (i + 1)
  in
  scan off.(u)

(* [v]'s adjacency as a fresh array of boxed [(u, w, edge_id)] tuples,
   built on every call, as the graph's tuple API used to. *)
let tuple_row g v =
  let lo = (G.csr_offsets g).(v) in
  Array.init (G.degree g v) (fun i ->
      ( (G.csr_neighbors g).(lo + i),
        (G.csr_weights g).(lo + i),
        (G.csr_edge_ids g).(lo + i) ))

(* The pre-CSR indexed-heap Dijkstra: [P.dijkstra]'s algorithm with the
   relaxation scan walking [tuple_row]s. [P.dijkstra] must reproduce its
   [dist] and [parent] arrays exactly. *)
let dijkstra_tuple g ~src =
  let n = G.n g in
  let dist = Array.make n max_int in
  let parent = Array.make n (-1) in
  let heap = Csap_graph.Indexed_heap.create n in
  dist.(src) <- 0;
  Csap_graph.Indexed_heap.insert heap src 0;
  let rec loop () =
    let u = Csap_graph.Indexed_heap.pop_min heap in
    if u >= 0 then begin
      let du = dist.(u) in
      Array.iter
        (fun (v, w, _) ->
          let dv = du + w in
          if dv < dist.(v) then begin
            dist.(v) <- dv;
            parent.(v) <- u;
            Csap_graph.Indexed_heap.push heap v dv
          end
          else if dv = dist.(v) && u < parent.(v) then parent.(v) <- u)
        (tuple_row g u);
      loop ()
    end
  in
  loop ();
  { P.src; dist; parent }

(* The lazy-deletion Dijkstra over the generic [Heap] of (dist, vertex)
   pairs: settled vertices are skipped when popped again. *)
let dijkstra_lazy g ~src =
  let n = G.n g in
  let dist = Array.make n max_int in
  let parent = Array.make n (-1) in
  let settled = Array.make n false in
  let heap = Csap_graph.Heap.create ~cmp:compare in
  dist.(src) <- 0;
  Csap_graph.Heap.add heap (0, src);
  let rec loop () =
    match Csap_graph.Heap.pop_min heap with
    | None -> ()
    | Some (_, u) when settled.(u) -> loop ()
    | Some (du, u) ->
      settled.(u) <- true;
      G.iter_neighbors g u (fun v w _ ->
          let dv = du + w in
          if
            (not settled.(v))
            && (dv < dist.(v) || (dv = dist.(v) && u < parent.(v)))
          then begin
            dist.(v) <- dv;
            parent.(v) <- u;
            Csap_graph.Heap.add heap (dv, v)
          end);
      loop ()
  in
  loop ();
  { P.src; dist; parent }

(* Every distance parameter from an all-sources sweep: one Dijkstra per
   vertex, eccentricities reduced in vertex order so the centre is the
   smallest vertex attaining the radius. *)
let extrema g =
  if not (G.is_connected g) then
    invalid_arg "Graph_ref.extrema: graph is disconnected";
  let n = G.n g in
  let ecc = Array.make n 0 and max_neighbor = ref 0 in
  for v = 0 to n - 1 do
    let dist = (P.dijkstra g ~src:v).P.dist in
    ecc.(v) <- Array.fold_left max 0 dist;
    G.iter_neighbors g v (fun u _ _ ->
        max_neighbor := max !max_neighbor dist.(u))
  done;
  let radius = Array.fold_left min max_int ecc in
  let rec first v = if ecc.(v) = radius then v else first (v + 1) in
  {
    P.diameter = Array.fold_left max 0 ecc;
    radius;
    center = first 0;
    max_neighbor = !max_neighbor;
  }

(* The sort-per-round geometric builder: Euclidean MST backbone, then
   round k links every vertex to its k-th nearest neighbour, found by
   sorting all n vertices by distance. [Generators.random_geometric]
   must build the same edges, with the same ids. *)
let random_geometric rng n ~degree ~scale =
  let xs = Array.init n (fun _ -> Csap_graph.Rng.float rng) in
  let ys = Array.init n (fun _ -> Csap_graph.Rng.float rng) in
  let dist2 i j =
    let dx = xs.(i) -. xs.(j) and dy = ys.(i) -. ys.(j) in
    (dx *. dx) +. (dy *. dy)
  in
  let weight i j =
    max 1 (int_of_float (Float.round (scale *. sqrt (dist2 i j))))
  in
  let existing = Hashtbl.create (n * degree) in
  let edges = ref [] in
  let add i j =
    let u, v = if i < j then (i, j) else (j, i) in
    if u <> v && not (Hashtbl.mem existing (u, v)) then begin
      Hashtbl.replace existing (u, v) ();
      edges := (u, v, weight u v) :: !edges
    end
  in
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
  let target_edges = max (n - 1) (n * degree / 2) in
  let k = ref 1 in
  while List.length !edges < target_edges && !k < n - 1 do
    for i = 0 to n - 1 do
      let order = Array.init n (fun j -> j) in
      Array.sort (fun a b -> compare (dist2 i a) (dist2 i b)) order;
      if !k < n then add i order.(!k)
    done;
    incr k
  done;
  G.create ~n !edges
