module G = Csap_graph.Graph

let triangle () = G.create ~n:3 [ (0, 1, 2); (1, 2, 3); (0, 2, 7) ]

let test_create () =
  let g = triangle () in
  Alcotest.(check int) "n" 3 (G.n g);
  Alcotest.(check int) "m" 3 (G.m g);
  Alcotest.(check int) "total weight" 12 (G.total_weight g);
  Alcotest.(check int) "max weight" 7 (G.max_weight g);
  Alcotest.(check bool) "connected" true (G.is_connected g)

let test_normalisation () =
  let g = G.create ~n:3 [ (2, 0, 5) ] in
  let e = G.edge g 0 in
  Alcotest.(check int) "u" 0 e.G.u;
  Alcotest.(check int) "v" 2 e.G.v

let test_neighbors () =
  let g = triangle () in
  let nbrs =
    List.rev (G.fold_neighbors g 1 (fun acc v w _id -> (v, w) :: acc) [])
  in
  Alcotest.(check (list (pair int int)))
    "neighbors of 1"
    [ (0, 2); (2, 3) ]
    (List.sort compare nbrs);
  Alcotest.(check int) "degree" 2 (G.degree g 1)

let test_edge_between () =
  let g = triangle () in
  (match G.edge_between g 0 2 with
  | Some (w, _) -> Alcotest.(check int) "weight" 7 w
  | None -> Alcotest.fail "edge 0-2 should exist");
  let g2 = G.create ~n:4 [ (0, 1, 1) ] in
  Alcotest.(check bool)
    "missing edge" true
    (G.edge_between g2 2 3 = None)

let test_invalid () =
  let expect_invalid name f =
    Alcotest.check_raises name
      (Invalid_argument
         (match name with
         | "self-loop" -> "Graph.create: self-loop"
         | "duplicate" -> "Graph.create: duplicate edge"
         | "zero weight" -> "Graph.create: weight must be >= 1"
         | _ -> "Graph.create: endpoint out of range"))
      f
  in
  expect_invalid "self-loop" (fun () -> ignore (G.create ~n:3 [ (1, 1, 1) ]));
  expect_invalid "duplicate" (fun () ->
      ignore (G.create ~n:3 [ (0, 1, 1); (1, 0, 2) ]));
  expect_invalid "zero weight" (fun () ->
      ignore (G.create ~n:3 [ (0, 1, 0) ]));
  expect_invalid "range" (fun () -> ignore (G.create ~n:3 [ (0, 3, 1) ]))

let test_disconnected () =
  let g = G.create ~n:4 [ (0, 1, 1); (2, 3, 1) ] in
  Alcotest.(check bool) "disconnected" false (G.is_connected g)

let test_map_weights () =
  let g = triangle () in
  let doubled = G.map_weights g (fun e -> 2 * e.G.w) in
  Alcotest.(check int) "doubled total" 24 (G.total_weight doubled)

let test_subgraph () =
  let g = triangle () in
  let light = G.subgraph g ~keep_edge:(fun e -> e.G.w < 5) in
  Alcotest.(check int) "m" 2 (G.m light);
  Alcotest.(check int) "n preserved" 3 (G.n light)

let test_other_endpoint () =
  let e = { G.u = 3; v = 7; w = 1 } in
  Alcotest.(check int) "other of 3" 7 (G.other_endpoint e 3);
  Alcotest.(check int) "other of 7" 3 (G.other_endpoint e 7)

let test_compare_edges () =
  let a = { G.u = 0; v = 1; w = 5 } and b = { G.u = 0; v = 2; w = 5 } in
  Alcotest.(check bool) "w ties broken" true (G.compare_edges a b < 0);
  Alcotest.(check int) "equal" 0 (G.compare_edges a a)

(* The sorted per-vertex edge index must answer exactly like the plain
   adjacency scan, on edges and non-edges alike — including the
   binary-search path taken above the small-degree cutoff. *)
let check_index_agrees g =
  let n = G.n g in
  let ok = ref true in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      let scan = if u = v then -1 else Csap_reference.Graph_ref.edge_id_scan g u v in
      if G.edge_id_between g u v <> scan then ok := false;
      (* neighbor_index points back into u's CSR row. *)
      let i = G.neighbor_index g u v in
      if scan >= 0 then begin
        (* neighbor_index is an offset into u's row in iteration order. *)
        let entry = ref None in
        let j = ref 0 in
        G.iter_neighbors g u (fun x _ id ->
            if !j = i then entry := Some (x, id);
            incr j);
        match !entry with
        | Some (x, id) -> if x <> v || id <> scan then ok := false
        | None -> ok := false
      end
      else if i <> -1 then ok := false
    done
  done;
  !ok

let test_edge_index_high_degree () =
  (* Complete graphs force every lookup through the binary search. *)
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "complete %d" n)
        true
        (check_index_agrees (Csap_graph.Generators.complete n ~w:2)))
    [ 2; 9; 10; 17 ]

let prop_edge_index_agrees_with_scan =
  QCheck.Test.make ~count:100 ~name:"edge index = adjacency scan"
    (Gen_qcheck.connected_graph_gen ())
    check_index_agrees

let suite =
  [
    Alcotest.test_case "create and measures" `Quick test_create;
    Alcotest.test_case "endpoint normalisation" `Quick test_normalisation;
    Alcotest.test_case "neighbors" `Quick test_neighbors;
    Alcotest.test_case "edge_between" `Quick test_edge_between;
    Alcotest.test_case "invalid inputs rejected" `Quick test_invalid;
    Alcotest.test_case "disconnected detection" `Quick test_disconnected;
    Alcotest.test_case "map_weights" `Quick test_map_weights;
    Alcotest.test_case "subgraph" `Quick test_subgraph;
    Alcotest.test_case "other_endpoint" `Quick test_other_endpoint;
    Alcotest.test_case "canonical edge order" `Quick test_compare_edges;
    Alcotest.test_case "edge index on high degree" `Quick
      test_edge_index_high_degree;
    QCheck_alcotest.to_alcotest prop_edge_index_agrees_with_scan;
  ]
