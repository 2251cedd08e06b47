module P = Csap_graph.Paths
module G = Csap_graph.Graph
module Gen = Csap_graph.Generators

(* Weighted square with a diagonal: 0-1:1, 1-2:1, 2-3:1, 0-3:5, 0-2:10. *)
let square () =
  G.create ~n:4 [ (0, 1, 1); (1, 2, 1); (2, 3, 1); (0, 3, 5); (0, 2, 10) ]

let test_dijkstra_simple () =
  let { P.dist; parent; _ } = P.dijkstra (square ()) ~src:0 in
  Alcotest.(check (array int)) "distances" [| 0; 1; 2; 3 |] dist;
  Alcotest.(check int) "parent of 2 is 1" 1 parent.(2);
  Alcotest.(check int) "parent of 3 is 2" 2 parent.(3)

let test_dijkstra_unreachable () =
  let g = G.create ~n:3 [ (0, 1, 4) ] in
  let { P.dist; parent; _ } = P.dijkstra g ~src:0 in
  Alcotest.(check int) "unreachable dist" max_int dist.(2);
  Alcotest.(check int) "unreachable parent" (-1) parent.(2)

let test_spt_structure () =
  let t = P.spt (square ()) ~src:0 in
  Alcotest.(check bool) "spans" true
    (Csap_graph.Tree.is_spanning_tree_of (square ()) t);
  Alcotest.(check int) "depth of 3" 3 (Csap_graph.Tree.depth t 3)

let test_spt_disconnected () =
  let g = G.create ~n:3 [ (0, 1, 1) ] in
  Alcotest.check_raises "disconnected"
    (Invalid_argument "Paths.spt: graph is disconnected") (fun () ->
      ignore (P.spt g ~src:0))

let test_diameter () =
  Alcotest.(check int) "path diameter" 12
    (P.diameter (Gen.path 5 ~w:3));
  Alcotest.(check int) "cycle diameter" 6
    (P.diameter (Gen.cycle 6 ~w:2));
  Alcotest.(check int) "star diameter" 2 (P.diameter (Gen.star 5 ~w:1))

let test_radius_center () =
  let r, c = P.radius_and_center (Gen.path 5 ~w:1) in
  Alcotest.(check int) "radius" 2 r;
  Alcotest.(check int) "center" 2 c

let test_max_neighbor_distance () =
  (* Heavy edge 0-2 is bypassed by the light path, so d < W. *)
  let g = G.create ~n:3 [ (0, 1, 1); (1, 2, 1); (0, 2, 100) ] in
  Alcotest.(check int) "d" 2 (P.max_neighbor_distance g);
  Alcotest.(check int) "W" 100 (G.max_weight g);
  let chord = Gen.chorded_cycle 12 ~chord_w:50 in
  Alcotest.(check int) "chorded cycle d" 2 (P.max_neighbor_distance chord)

let test_dist () =
  Alcotest.(check int) "dist" 3 (P.dist (square ()) 0 3);
  Alcotest.(check int) "dist sym" 3 (P.dist (square ()) 3 0)

let prop_dijkstra_vs_bellman_ford =
  QCheck.Test.make ~count:120 ~name:"dijkstra = bellman-ford"
    (Gen_qcheck.graph_and_vertex ())
    (fun (g, src) ->
      let a = P.dijkstra g ~src and b = P.bellman_ford g ~src in
      a.P.dist = b.P.dist)

let prop_triangle_inequality =
  QCheck.Test.make ~count:60 ~name:"distances satisfy triangle inequality"
    (Gen_qcheck.connected_graph_gen ~max_n:14 ())
    (fun g ->
      let n = G.n g in
      let d = Array.init n (fun v -> (P.dijkstra g ~src:v).P.dist) in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          for k = 0 to n - 1 do
            if d.(i).(j) > d.(i).(k) + d.(k).(j) then ok := false
          done
        done
      done;
      !ok)

let prop_spt_depth_is_distance =
  QCheck.Test.make ~count:100 ~name:"SPT depth equals weighted distance"
    (Gen_qcheck.graph_and_vertex ())
    (fun (g, src) ->
      let t = P.spt g ~src in
      let { P.dist; _ } = P.dijkstra g ~src in
      let ok = ref true in
      for v = 0 to G.n g - 1 do
        if Csap_graph.Tree.depth t v <> dist.(v) then ok := false
      done;
      !ok)

let prop_spt_weight_bound =
  QCheck.Test.make ~count:80 ~name:"Fact 6.5: w(SPT) <= (n-1) * V"
    (Gen_qcheck.graph_and_vertex ())
    (fun (g, src) ->
      let t = P.spt g ~src in
      Csap_graph.Tree.total_weight t
      <= (G.n g - 1) * Csap_graph.Mst.weight g)

(* The indexed-heap Dijkstra must reproduce the historical lazy-deletion
   implementation bit for bit — distances AND the parent tie-breaking. *)
let check_dijkstra_matches_lazy g ~src =
  let a = P.dijkstra g ~src in
  let b = Csap_reference.Graph_ref.dijkstra_lazy g ~src in
  a.P.dist = b.P.dist && a.P.parent = b.P.parent

let test_dijkstra_regression_families () =
  let families =
    [
      ("grid", Csap_graph.Generators.grid 6 7 ~w:5);
      ("bkj", Csap_graph.Generators.bkj_star_cycle 24 ~heavy:40);
      ("chorded", Csap_graph.Generators.chorded_cycle 20 ~chord_w:64);
      ("gn", Csap_graph.Generators.lower_bound_gn 12 ~x:4);
      ("complete", Csap_graph.Generators.complete 12 ~w:3);
      ( "random",
        Csap_graph.Generators.random_connected (Csap_graph.Rng.create 42) 40
          ~extra_edges:60 ~wmax:9 );
    ]
  in
  List.iter
    (fun (name, g) ->
      for src = 0 to min 4 (G.n g - 1) do
        Alcotest.(check bool)
          (Printf.sprintf "%s src=%d dist+parent unchanged" name src)
          true
          (check_dijkstra_matches_lazy g ~src)
      done)
    families

let prop_dijkstra_matches_lazy =
  QCheck.Test.make ~count:150
    ~name:"indexed-heap dijkstra = lazy dijkstra (dist and parent)"
    (Gen_qcheck.graph_and_vertex ())
    (fun (g, src) -> check_dijkstra_matches_lazy g ~src)

let prop_extrema_consistent =
  QCheck.Test.make ~count:80
    ~name:"extrema agrees with per-vertex eccentricities"
    (Gen_qcheck.connected_graph_gen ())
    (fun g ->
      let e = P.extrema g in
      let ecc = Array.init (G.n g) (P.eccentricity g) in
      let diameter = Array.fold_left max 0 ecc in
      let radius = Array.fold_left min max_int ecc in
      e.P.diameter = diameter
      && e.P.radius = radius
      && ecc.(e.P.center) = radius
      && e.P.max_neighbor = (Csap_reference.Graph_ref.extrema g).P.max_neighbor)

(* One graph of each named family, n in [2, ~300], or a path with
   chords. Uniform-weight
   families (path, cycle, star, complete, grid) and small [w] make many
   vertices tie on eccentricity, exercising the smallest-id centre. *)
let family_graph (family, n, w, seed) =
  let rng = Csap_graph.Rng.create seed in
  let w = 1 + w in
  match family with
  | 0 -> ("path", Gen.path n ~w)
  | 1 -> ("cycle", Gen.cycle (max 3 n) ~w)
  | 2 -> ("star", Gen.star n ~w)
  | 3 -> ("complete", Gen.complete (min n 64) ~w)
  | 4 ->
    let rows = 1 + (seed mod 16) in
    ("grid", Gen.grid rows (max 2 (n / rows)) ~w)
  | 5 ->
    ( "random",
      Gen.random_connected rng n ~extra_edges:(seed mod (2 * n)) ~wmax:w )
  | 6 ->
    ( "geometric",
      Gen.random_geometric rng n ~degree:(2 + (seed mod 5))
        ~scale:(float_of_int (4 * w)) )
  | 7 -> ("gn", Gen.lower_bound_gn (max 4 n) ~x:(2 + (w mod 5)))
  | 8 -> ("chorded", Gen.chorded_cycle (max 5 n) ~chord_w:w)
  | 9 -> ("bkj", Gen.bkj_star_cycle (max 3 (n - 1)) ~heavy:w)
  | _ ->
    (* A light path with heavy random chords, most of them bypassed:
       d is set by some chord's detour, which only the edge pass of
       [extrema] can find. *)
    let seen = Hashtbl.create n in
    let chords = ref [] in
    for _ = 1 to 1 + (n / 4) do
      let u = Csap_graph.Rng.int rng n and v = Csap_graph.Rng.int rng n in
      let u, v = (min u v, max u v) in
      if v > u + 1 && not (Hashtbl.mem seen (u, v)) then begin
        Hashtbl.replace seen (u, v) ();
        chords := (u, v, Csap_graph.Rng.int_in rng 1 (50 * w)) :: !chords
      end
    done;
    let path = List.init (n - 1) (fun i -> (i, i + 1, 1 + (i mod 3))) in
    ("path+chords", G.create ~n (path @ !chords))

let family_graph_gen =
  let open QCheck in
  make
    ~print:(fun spec ->
      let name, g = family_graph spec in
      Format.asprintf "%s: %a" name G.pp g)
    Gen.(
      quad (int_bound 10)
        (map (fun n -> 2 + n) (int_bound 298))
        (oneof [ int_bound 2; int_bound 40 ])
        (int_bound 1_000_000))

let prop_extrema_matches_reference =
  QCheck.Test.make ~count:300
    ~name:"extrema = all-sources reference on every family"
    family_graph_gen
    (fun spec ->
      let _, g = family_graph spec in
      P.extrema g = Csap_reference.Graph_ref.extrema g)

let test_extrema_disconnected () =
  let g = G.create ~n:4 [ (0, 1, 2); (2, 3, 1) ] in
  List.iter
    (fun (name, f) ->
      Alcotest.check_raises name
        (Invalid_argument "Paths.extrema: graph is disconnected") f)
    [
      ("extrema", fun () -> ignore (P.extrema g));
      ("diameter", fun () -> ignore (P.diameter g));
      ("radius_and_center", fun () -> ignore (P.radius_and_center g));
      ("max_neighbor_distance", fun () -> ignore (P.max_neighbor_distance g));
    ]

let test_extrema_single_vertex () =
  let e = P.extrema (G.create ~n:1 []) in
  Alcotest.(check (list int))
    "diameter, radius, center, d" [ 0; 0; 0; 0 ]
    [ e.P.diameter; e.P.radius; e.P.center; e.P.max_neighbor ]

let suite =
  [
    Alcotest.test_case "dijkstra on square" `Quick test_dijkstra_simple;
    Alcotest.test_case "dijkstra regression vs lazy heap" `Quick
      test_dijkstra_regression_families;
    Alcotest.test_case "dijkstra unreachable" `Quick test_dijkstra_unreachable;
    Alcotest.test_case "SPT structure" `Quick test_spt_structure;
    Alcotest.test_case "SPT rejects disconnected" `Quick test_spt_disconnected;
    Alcotest.test_case "diameters" `Quick test_diameter;
    Alcotest.test_case "radius and center" `Quick test_radius_center;
    Alcotest.test_case "max neighbour distance d" `Quick
      test_max_neighbor_distance;
    Alcotest.test_case "pairwise dist" `Quick test_dist;
    QCheck_alcotest.to_alcotest prop_dijkstra_matches_lazy;
    QCheck_alcotest.to_alcotest prop_extrema_consistent;
    QCheck_alcotest.to_alcotest prop_extrema_matches_reference;
    Alcotest.test_case "extrema rejects disconnected" `Quick
      test_extrema_disconnected;
    Alcotest.test_case "extrema on one vertex" `Quick
      test_extrema_single_vertex;
    QCheck_alcotest.to_alcotest prop_dijkstra_vs_bellman_ford;
    QCheck_alcotest.to_alcotest prop_triangle_inequality;
    QCheck_alcotest.to_alcotest prop_spt_depth_is_distance;
    QCheck_alcotest.to_alcotest prop_spt_weight_bound;
  ]
