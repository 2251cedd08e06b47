type sssp = {
  src : int;
  dist : int array;
  parent : int array;
}

(* The hot-path Dijkstra: indexed heap with decrease_key, so each vertex
   occupies at most one heap slot, relaxations allocate nothing, and the
   pop order matches the historical (dist, vertex) tuple order (the heap
   breaks priority ties by key). The relaxation scan reads the graph's
   raw CSR rows — three flat int arrays — instead of walking boxed
   adjacency tuples.

   A vertex popped from the heap is settled: every later relaxation
   reaching it offers dv = du + w > du >= dist(v) (weights are >= 1), so
   neither the improvement branch nor the equal-distance parent tie-break
   can fire for it — no explicit [settled] array is needed. *)
let dijkstra_into g ~src ~dist ~parent heap =
  let n = Graph.n g in
  Array.fill dist 0 n max_int;
  Array.fill parent 0 n (-1);
  Indexed_heap.clear heap;
  dist.(src) <- 0;
  Indexed_heap.insert heap src 0;
  let off = Graph.csr_offsets g in
  let nbr = Graph.csr_neighbors g in
  let wt = Graph.csr_weights g in
  let rec loop () =
    let u = Indexed_heap.pop_min heap in
    if u >= 0 then begin
      let du = dist.(u) in
      (* Row bounds come from [off] and neighbor ids are < n by the CSR
         shape invariant, so the unchecked reads stay in range. *)
      let hi = Array.unsafe_get off (u + 1) in
      for i = Array.unsafe_get off u to hi - 1 do
        let v = Array.unsafe_get nbr i in
        let dv = du + Array.unsafe_get wt i in
        let dcur = Array.unsafe_get dist v in
        if dv < dcur then begin
          Array.unsafe_set dist v dv;
          Array.unsafe_set parent v u;
          Indexed_heap.push heap v dv
        end
        else if dv = dcur && u < Array.unsafe_get parent v then
          Array.unsafe_set parent v u
      done;
      loop ()
    end
  in
  loop ()

let dijkstra g ~src =
  let n = Graph.n g in
  let dist = Array.make n max_int in
  let parent = Array.make n (-1) in
  dijkstra_into g ~src ~dist ~parent (Indexed_heap.create n);
  { src; dist; parent }

let bellman_ford g ~src =
  let n = Graph.n g in
  let dist = Array.make n max_int in
  let parent = Array.make n (-1) in
  dist.(src) <- 0;
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun (e : Graph.edge) ->
        let relax a b =
          if dist.(a) < max_int then begin
            let d = dist.(a) + e.w in
            if d < dist.(b) || (d = dist.(b) && a < parent.(b)) then begin
              dist.(b) <- d;
              parent.(b) <- a;
              changed := true
            end
          end
        in
        relax e.u e.v;
        relax e.v e.u)
      (Graph.edges g)
  done;
  { src; dist; parent }

let spt g ~src =
  let { dist; parent; _ } = dijkstra g ~src in
  Array.iter
    (fun d ->
      if d = max_int then invalid_arg "Paths.spt: graph is disconnected")
    dist;
  let n = Graph.n g in
  let weights =
    Array.init n (fun v -> if v = src then 0 else dist.(v) - dist.(parent.(v)))
  in
  Tree.of_parents ~root:src ~parents:parent ~weights

let dist g u v = (dijkstra g ~src:u).dist.(v)

let eccentricity g v =
  Array.fold_left max 0 (dijkstra g ~src:v).dist

type extrema = {
  diameter : int;
  radius : int;
  center : int;
  max_neighbor : int;
}

(* Diameter, radius and centre by bounding eccentricities, after Takes &
   Kosters' BoundingDiameters (2011). Every vertex w carries bounds
   lo.(w) <= ecc(w) <= hi.(w). A Dijkstra from a pivot v of
   eccentricity e tightens them for every w at distance d from v:
   ecc(w) >= max d (e - d) and ecc(w) <= e + d, by the triangle
   inequality.

   [d_lo] = max lo bounds the diameter from below; [r_hi] = min hi
   bounds the radius from above, and [center] is the smallest vertex
   with hi = r_hi. A candidate is finished once it is exact (lo = hi)
   or can change neither result: hi <= d_lo, so it cannot raise the
   diameter, and lo > r_hi (or lo = r_hi with an id above [center]), so
   it can neither lower the radius nor win the smallest-id centre
   tie-break. Bounds only tighten, so a finished vertex stays finished.
   With no candidate left, D = d_lo, R = r_hi and [center] is the
   smallest vertex attaining R (DESIGN.md §18 has the argument).

   Pivots alternate between the candidate with the largest hi and the
   one with the smallest lo, ties to the smallest id. A pivot is exact
   after its own Dijkstra, so the worst case is n Dijkstras — reached
   on vertex-transitive graphs, where every bound stays loose.

   Each pivot's Dijkstra also gives the exact distance to its
   neighbours; their maximum seeds [max_neighbor_pass]. *)
let bounded_eccentricities g ~dist ~parent heap =
  let n = Graph.n g in
  let lo = Array.make n 0 and hi = Array.make n max_int in
  let cand = Array.init n Fun.id and live = ref n in
  let d_lo = ref 0 and r_hi = ref max_int and center = ref 0 in
  let seed_d = ref 0 in
  let high = ref true in
  while !live > 0 do
    let v = ref cand.(0) in
    for i = 1 to !live - 1 do
      let w = cand.(i) in
      if (!high && hi.(w) > hi.(!v)) || ((not !high) && lo.(w) < lo.(!v))
      then v := w
    done;
    high := not !high;
    dijkstra_into g ~src:!v ~dist ~parent heap;
    let e = Array.fold_left Int.max 0 dist in
    Graph.iter_neighbors g !v (fun u _ _ ->
        if dist.(u) > !seed_d then seed_d := dist.(u));
    for w = 0 to n - 1 do
      let d = dist.(w) in
      lo.(w) <- Int.max lo.(w) (Int.max d (e - d));
      hi.(w) <- Int.min hi.(w) (e + d);
      if lo.(w) > !d_lo then d_lo := lo.(w);
      if hi.(w) < !r_hi || (hi.(w) = !r_hi && w < !center) then begin
        r_hi := hi.(w);
        center := w
      end
    done;
    (* Stable compaction keeps [cand] in id order, so the strict
       comparisons above break pivot ties toward the smallest id. *)
    let kept = ref 0 in
    for i = 0 to !live - 1 do
      let w = cand.(i) in
      let finished =
        lo.(w) = hi.(w)
        || hi.(w) <= !d_lo
           && (lo.(w) > !r_hi || (lo.(w) = !r_hi && w > !center))
      in
      if not finished then begin
        cand.(!kept) <- w;
        incr kept
      end
    done;
    live := !kept
  done;
  (!d_lo, !r_hi, !center, !seed_d)

(* [dist(src, dst)] for an edge {src, dst} of weight [bound], or some
   value <= [floor] once the distance is known not to exceed it. Vertices
   no closer than the current bound on [dist(src, dst)] are never queued
   (weights are >= 1, so no shortest path to [dst] runs through them),
   and the search stops when the queue's minimum reaches that bound.
   [dist] must be all [max_int] on entry and is restored on exit; the
   [touched] stack records what to reset. *)
let edge_distance g ~src ~dst ~bound ~floor ~dist ~touched heap =
  let off = Graph.csr_offsets g in
  let nbr = Graph.csr_neighbors g in
  let wt = Graph.csr_weights g in
  let count = ref 0 in
  let set v d =
    if dist.(v) = max_int then begin
      touched.(!count) <- v;
      incr count
    end;
    dist.(v) <- d
  in
  Indexed_heap.clear heap;
  set src 0;
  set dst bound;
  Indexed_heap.insert heap src 0;
  let rec loop () =
    let u = Indexed_heap.pop_min heap in
    if u >= 0 && dist.(u) < dist.(dst) && dist.(dst) > floor then begin
      let du = dist.(u) in
      for i = off.(u) to off.(u + 1) - 1 do
        let v = nbr.(i) in
        let dv = du + wt.(i) in
        if dv < dist.(v) && dv < dist.(dst) then begin
          set v dv;
          if v <> dst then Indexed_heap.push heap v dv
        end
      done;
      loop ()
    end
  in
  loop ();
  let d = dist.(dst) in
  for i = 0 to !count - 1 do
    dist.(touched.(i)) <- max_int
  done;
  d

(* The paper's d = max over edges {u, v} of dist(u, v). As
   dist(u, v) <= w(u, v), only edges heavier than the best d so far can
   raise it: they are taken by decreasing weight and the pass stops at
   the first one no heavier than [best]. *)
let max_neighbor_pass g ~seed ~dist heap =
  let n = Graph.n g in
  let edges = Graph.edges g in
  let heavy =
    Array.of_list
      (Array.fold_left
         (fun acc (e : Graph.edge) -> if e.w > seed then e :: acc else acc)
         [] edges)
  in
  Array.sort (fun (a : Graph.edge) (b : Graph.edge) -> compare b.w a.w) heavy;
  Array.fill dist 0 n max_int;
  let touched = Array.make n 0 in
  let best = ref seed and i = ref 0 in
  while !i < Array.length heavy && heavy.(!i).w > !best do
    let e = heavy.(!i) in
    let d =
      edge_distance g ~src:e.u ~dst:e.v ~bound:e.w ~floor:!best ~dist
        ~touched heap
    in
    if d > !best then best := d;
    incr i
  done;
  !best

let extrema g =
  if not (Graph.is_connected g) then
    invalid_arg "Paths.extrema: graph is disconnected";
  let n = Graph.n g in
  let dist = Array.make n max_int in
  let parent = Array.make n (-1) in
  let heap = Indexed_heap.create n in
  let diameter, radius, center, seed =
    bounded_eccentricities g ~dist ~parent heap
  in
  let max_neighbor = max_neighbor_pass g ~seed ~dist heap in
  { diameter; radius; center; max_neighbor }

let diameter g = (extrema g).diameter

let radius_and_center g =
  let e = extrema g in
  (e.radius, e.center)

let max_neighbor_distance g = (extrema g).max_neighbor
