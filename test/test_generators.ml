module G = Csap_graph.Graph
module Gen = Csap_graph.Generators
module P = Csap_graph.Paths

let check_connected name g =
  Alcotest.(check bool) (name ^ " connected") true (G.is_connected g)

let test_path () =
  let g = Gen.path 6 ~w:3 in
  Alcotest.(check int) "m" 5 (G.m g);
  check_connected "path" g;
  Alcotest.(check int) "diameter" 15 (P.diameter g)

let test_cycle () =
  let g = Gen.cycle 8 ~w:2 in
  Alcotest.(check int) "m" 8 (G.m g);
  Alcotest.(check int) "all degree 2" 2 (G.degree g 5);
  check_connected "cycle" g

let test_star () =
  let g = Gen.star 7 ~w:4 in
  Alcotest.(check int) "hub degree" 6 (G.degree g 0);
  Alcotest.(check int) "leaf degree" 1 (G.degree g 3);
  check_connected "star" g

let test_complete () =
  let g = Gen.complete 6 ~w:1 in
  Alcotest.(check int) "m" 15 (G.m g);
  check_connected "complete" g

let test_grid () =
  let g = Gen.grid 3 4 ~w:1 in
  Alcotest.(check int) "n" 12 (G.n g);
  Alcotest.(check int) "m" 17 (G.m g);
  Alcotest.(check int) "diameter" 5 (P.diameter g);
  check_connected "grid" g

let test_binary_tree () =
  let g = Gen.binary_tree 7 ~w:1 in
  Alcotest.(check int) "m" 6 (G.m g);
  Alcotest.(check int) "root degree" 2 (G.degree g 0);
  check_connected "binary tree" g

let test_random_tree () =
  let rng = Csap_graph.Rng.create 42 in
  let g = Gen.random_tree rng 30 ~wmax:9 in
  Alcotest.(check int) "m = n-1" 29 (G.m g);
  Alcotest.(check bool) "weights in range" true
    (Array.for_all (fun (e : G.edge) -> e.w >= 1 && e.w <= 9) (G.edges g));
  check_connected "random tree" g

let test_random_connected () =
  let rng = Csap_graph.Rng.create 7 in
  let g = Gen.random_connected rng 20 ~extra_edges:15 ~wmax:5 in
  Alcotest.(check int) "m" 34 (G.m g);
  check_connected "random connected" g

let test_random_connected_deterministic () =
  let mk seed =
    Gen.random_connected (Csap_graph.Rng.create seed) 15 ~extra_edges:8 ~wmax:6
  in
  let fingerprint g =
    Array.to_list (G.edges g) |> List.map (fun (e : G.edge) -> (e.u, e.v, e.w))
  in
  Alcotest.(check bool) "same seed same graph" true
    (fingerprint (mk 99) = fingerprint (mk 99));
  Alcotest.(check bool) "different seed different graph" true
    (fingerprint (mk 99) <> fingerprint (mk 100))

let test_random_geometric () =
  let rng = Csap_graph.Rng.create 3 in
  let g = Gen.random_geometric rng 40 ~degree:4 ~scale:1000.0 in
  check_connected "geometric" g;
  Alcotest.(check bool) "enough edges" true (G.m g >= 39)

(* The selection builder must reproduce the sort-per-round builder edge
   for edge, ids included; degree 9 forces the nearest-neighbour prefix
   to be re-selected at a doubled length. *)
let test_random_geometric_matches_reference () =
  List.iter
    (fun (n, cases) ->
      List.iter
        (fun (seed, degree, scale) ->
          let g =
            Gen.random_geometric (Csap_graph.Rng.create seed) n ~degree ~scale
          in
          let r =
            Csap_reference.Graph_ref.random_geometric (Csap_graph.Rng.create seed) n ~degree
              ~scale
          in
          Alcotest.(check bool)
            (Printf.sprintf "n=%d seed=%d degree=%d" n seed degree)
            true
            (G.edges g = G.edges r))
        cases)
    (List.map
       (fun n ->
         ( n,
           [ (1, 4, 40.0); (2, 4, 90.0); (3, 2, 1000.0); (4, 9, 10.0) ] ))
       [ 2; 3; 16; 64; 257 ]
    @ [ (1024, [ (5, 4, 40.0) ]) ])

let heap_sorted_prefix keys ~len =
  let order = Array.init (Array.length keys) Fun.id in
  Array.sort (fun a b -> compare (keys.(a) : float) keys.(b)) order;
  Array.sub order 0 (min len (Array.length keys))

(* Equal keys send [sorted_prefix] to its [Array.sort] fallback, whose
   order among ties is the heap sort's own; distinct keys take the
   selection pass. Both must give [Array.sort]'s prefix. *)
let test_sorted_prefix_ties () =
  List.iter
    (fun (name, keys, len) ->
      Alcotest.(check (array int))
        name
        (heap_sorted_prefix keys ~len)
        (Gen.sorted_prefix keys ~len))
    [
      ("all equal", Array.make 9 1.0, 4);
      ("tie at the boundary", [| 0.0; 3.0; 1.0; 2.0; 2.0; 5.0 |], 3);
      ("tie inside", [| 4.0; 0.0; 1.0; 1.0; 9.0; 2.0; 7.0 |], 4);
      ("two zeros", [| 0.5; 0.0; 0.25; 0.0; 0.75 |], 2);
      ("distinct", [| 0.3; 0.1; 0.7; 0.2; 0.9; 0.4 |], 3);
      ("tie past the prefix", [| 0.1; 0.2; 0.3; 0.3; 0.0 |], 2);
      ("len beyond n", [| 2.0; 1.0; 2.0 |], 8);
      ("empty prefix", [| 1.0; 1.0 |], 0);
    ]

let prop_sorted_prefix_matches_sort =
  QCheck.Test.make ~count:300 ~name:"sorted_prefix = Array.sort prefix"
    QCheck.(
      pair
        (array_of_size Gen.(int_range 0 40) (map float_of_int (int_bound 12)))
        (int_bound 45))
    (fun (keys, len) ->
      Gen.sorted_prefix keys ~len = heap_sorted_prefix keys ~len)

let test_lollipop () =
  let g = Gen.lollipop 5 4 ~w:2 in
  Alcotest.(check int) "n" 9 (G.n g);
  Alcotest.(check int) "m" 14 (G.m g);
  check_connected "lollipop" g

let test_lower_bound_gn () =
  let n = 10 and x = 3 in
  let g = Gen.lower_bound_gn n ~x in
  check_connected "G_n" g;
  Alcotest.(check int) "path + bypass edges" (9 + 4) (G.m g);
  (* MST is the light path: script-V = (n-1) x. *)
  Alcotest.(check int) "script V" ((n - 1) * x) (Csap_graph.Mst.weight g);
  (* Bypass edges have weight x^4. *)
  (match G.edge_between g 0 (n - 1) with
  | Some (w, _) -> Alcotest.(check int) "bypass weight" 81 w
  | None -> Alcotest.fail "bypass edge 0..n-1 missing")

let test_lower_bound_gn_i () =
  let n = 10 and x = 2 in
  let g = Gen.lower_bound_gn_i n ~i:2 ~x in
  Alcotest.(check int) "two extra vertices" (n + 2) (G.n g);
  check_connected "G_n^i" g;
  (* Bypass (2, 7) replaced by pendants (2, 10) and (7, 11). *)
  Alcotest.(check bool) "bypass removed" true (G.edge_between g 2 7 = None);
  Alcotest.(check bool) "pendant v" true (G.edge_between g 2 10 <> None);
  Alcotest.(check bool) "pendant w" true (G.edge_between g 7 11 <> None)

let test_chorded_cycle () =
  let g = Gen.chorded_cycle 10 ~chord_w:100 in
  check_connected "chorded" g;
  Alcotest.(check int) "d stays 2" 2 (P.max_neighbor_distance g);
  Alcotest.(check int) "W is the chord" 100 (G.max_weight g)

let test_bkj_star_cycle () =
  let g = Gen.bkj_star_cycle 8 ~heavy:50 in
  check_connected "bkj" g;
  (* SPT from the hub uses all spokes: weight k * heavy = 400, while the MST
     uses one spoke + rim: weight 50 + 7. *)
  let spt_w =
    Csap_graph.Tree.total_weight (P.spt g ~src:0)
  in
  Alcotest.(check int) "SPT heavy" (8 * 50) spt_w;
  Alcotest.(check int) "MST light" 57 (Csap_graph.Mst.weight g)

(* ---- streaming CSR builders ------------------------------------------- *)

let same_graph name a b =
  Alcotest.(check int) (name ^ " n") (G.n a) (G.n b);
  Alcotest.(check int) (name ^ " m") (G.m a) (G.m b);
  for id = 0 to G.m a - 1 do
    let ea = G.edge a id and eb = G.edge b id in
    if (ea.G.u, ea.G.v, ea.G.w) <> (eb.G.u, eb.G.v, eb.G.w) then
      Alcotest.failf "%s: edge %d differs" name id
  done

let test_grid_stream_identical () =
  List.iter
    (fun (r, c) ->
      same_graph
        (Printf.sprintf "grid %dx%d" r c)
        (Gen.grid r c ~w:4) (Gen.grid_stream r c ~w:4))
    [ (1, 1); (1, 7); (5, 1); (4, 5); (13, 9) ]

let test_lower_bound_gn_stream_identical () =
  List.iter
    (fun (n, x) ->
      same_graph
        (Printf.sprintf "gn n=%d x=%d" n x)
        (Gen.lower_bound_gn n ~x)
        (Gen.lower_bound_gn_stream n ~x))
    [ (9, 2); (16, 3); (25, 4) ]

let test_gnp () =
  let g = Gen.gnp ~seed:42 300 ~p:0.03 ~wmax:7 in
  (* Deterministic in the seed, different across seeds. *)
  same_graph "gnp replay" g (Gen.gnp ~seed:42 300 ~p:0.03 ~wmax:7);
  let h = Gen.gnp ~seed:43 300 ~p:0.03 ~wmax:7 in
  Alcotest.(check bool)
    "seed changes the sample" true
    (G.m g <> G.m h
    ||
    try
      same_graph "" g h;
      false
    with _ -> true);
  (* Simple graph: ordered endpoints, no duplicates, weights in range. *)
  let seen = Hashtbl.create (G.m g) in
  for id = 0 to G.m g - 1 do
    let e = G.edge g id in
    Alcotest.(check bool) "ordered endpoints" true (e.G.u < e.G.v);
    Alcotest.(check bool) "weight in range" true (e.G.w >= 1 && e.G.w <= 7);
    if Hashtbl.mem seen (e.G.u, e.G.v) then Alcotest.failf "duplicate edge %d" id;
    Hashtbl.add seen (e.G.u, e.G.v) ()
  done;
  (* Density lands near the n*(n-1)/2 * p expectation. *)
  let expect = float_of_int (300 * 299 / 2) *. 0.03 in
  Alcotest.(check bool)
    "density plausible" true
    (float_of_int (G.m g) > 0.6 *. expect
    && float_of_int (G.m g) < 1.4 *. expect)

let test_gnp_connected () =
  (* Far below the connectivity threshold, the backbone still connects. *)
  let g = Gen.gnp ~connected:true ~seed:7 500 ~p:0.001 ~wmax:5 in
  check_connected "gnp backbone" g;
  (* The backbone only adds the path edges the sample missed. *)
  let plain = Gen.gnp ~seed:7 500 ~p:0.001 ~wmax:5 in
  Alcotest.(check bool)
    "at most n-1 extra edges" true
    (G.m g - G.m plain <= 499)

let test_of_stream_replay_validated () =
  let flaky grow =
    let calls = ref 0 in
    fun emit ->
      incr calls;
      emit 0 1 1;
      (* Second pass emits a different number of edges. *)
      if grow = (!calls > 1) then emit 1 2 1
  in
  List.iter
    (fun (label, grow, msg) ->
      Alcotest.check_raises label (Invalid_argument msg) (fun () ->
          ignore (G.of_stream ~n:3 (flaky grow))))
    [
      ("growing stream", true, "Graph.of_stream: stream grew between passes");
      ("shrinking stream", false, "Graph.of_stream: stream shrank between passes");
    ]

let prop_generated_graphs_connected =
  QCheck.Test.make ~count:100 ~name:"random_connected is connected"
    (Gen_qcheck.connected_graph_gen ())
    G.is_connected

let suite =
  [
    Alcotest.test_case "path" `Quick test_path;
    Alcotest.test_case "cycle" `Quick test_cycle;
    Alcotest.test_case "star" `Quick test_star;
    Alcotest.test_case "complete" `Quick test_complete;
    Alcotest.test_case "grid" `Quick test_grid;
    Alcotest.test_case "binary tree" `Quick test_binary_tree;
    Alcotest.test_case "random tree" `Quick test_random_tree;
    Alcotest.test_case "random connected" `Quick test_random_connected;
    Alcotest.test_case "determinism" `Quick test_random_connected_deterministic;
    Alcotest.test_case "random geometric" `Quick test_random_geometric;
    Alcotest.test_case "random geometric = sort-per-round reference" `Quick
      test_random_geometric_matches_reference;
    Alcotest.test_case "sorted_prefix ties fall back to Array.sort" `Quick
      test_sorted_prefix_ties;
    QCheck_alcotest.to_alcotest prop_sorted_prefix_matches_sort;
    Alcotest.test_case "lollipop" `Quick test_lollipop;
    Alcotest.test_case "lower-bound G_n" `Quick test_lower_bound_gn;
    Alcotest.test_case "lower-bound G_n^i" `Quick test_lower_bound_gn_i;
    Alcotest.test_case "chorded cycle" `Quick test_chorded_cycle;
    Alcotest.test_case "BKJ star-cycle" `Quick test_bkj_star_cycle;
    Alcotest.test_case "grid_stream = grid" `Quick test_grid_stream_identical;
    Alcotest.test_case "lower_bound_gn_stream = lower_bound_gn" `Quick
      test_lower_bound_gn_stream_identical;
    Alcotest.test_case "gnp determinism and simplicity" `Quick test_gnp;
    Alcotest.test_case "gnp connected backbone" `Quick test_gnp_connected;
    Alcotest.test_case "of_stream replay validated" `Quick
      test_of_stream_replay_validated;
    QCheck_alcotest.to_alcotest prop_generated_graphs_connected;
  ]
