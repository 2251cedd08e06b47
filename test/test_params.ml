module Params = Csap_graph.Params
module Gen = Csap_graph.Generators

let test_path_params () =
  let p = Params.compute (Gen.path 5 ~w:2) in
  Alcotest.(check int) "E" 8 p.Params.script_e;
  Alcotest.(check int) "V" 8 p.Params.script_v;
  Alcotest.(check int) "D" 8 p.Params.script_d;
  Alcotest.(check int) "d" 2 p.Params.d;
  Alcotest.(check int) "W" 2 p.Params.w_max

let test_star_params () =
  let p = Params.compute (Gen.star 6 ~w:3) in
  Alcotest.(check int) "E" 15 p.Params.script_e;
  Alcotest.(check int) "V" 15 p.Params.script_v;
  Alcotest.(check int) "D" 6 p.Params.script_d

let test_gn_params () =
  (* On G_n the weighted parameters separate: E >> n V. *)
  let p = Params.compute (Gen.lower_bound_gn 12 ~x:3) in
  Alcotest.(check int) "V" 33 p.Params.script_v;
  Alcotest.(check bool) "E dominates n*V" true
    (p.Params.script_e > p.Params.n * p.Params.script_v)

let test_chorded_params () =
  (* The chorded cycle separates d from W. *)
  let p = Params.compute (Gen.chorded_cycle 12 ~chord_w:77) in
  Alcotest.(check int) "d" 2 p.Params.d;
  Alcotest.(check int) "W" 77 p.Params.w_max

let test_cache_eviction () =
  let old = Params.cache_capacity () in
  Params.cache_clear ();
  Params.set_cache_capacity 3;
  Fun.protect
    ~finally:(fun () ->
      Params.set_cache_capacity old;
      Params.cache_clear ())
    (fun () ->
      let gs = Array.init 4 (fun i -> Gen.path (3 + i) ~w:1) in
      Array.iter (fun g -> ignore (Params.compute g)) gs;
      (* Capacity 3: the oldest insertion is gone, the newest three stay. *)
      Alcotest.(check int) "size bounded" 3 (Params.cache_size ());
      Alcotest.(check bool) "oldest evicted" false (Params.cached gs.(0));
      for i = 1 to 3 do
        Alcotest.(check bool)
          (Printf.sprintf "recent %d cached" i)
          true
          (Params.cached gs.(i))
      done;
      (* Recomputing an evicted graph re-enters it at the back of the
         FIFO, pushing out the now-oldest entry. *)
      ignore (Params.compute gs.(0));
      Alcotest.(check bool) "re-entered" true (Params.cached gs.(0));
      Alcotest.(check bool) "next-oldest evicted" false (Params.cached gs.(1));
      Alcotest.(check int) "still bounded" 3 (Params.cache_size ());
      (* Shrinking the capacity evicts down immediately. *)
      Params.set_cache_capacity 1;
      Alcotest.(check int) "shrunk" 1 (Params.cache_size ());
      Alcotest.(check bool) "newest survives" true (Params.cached gs.(0));
      Alcotest.check_raises "capacity must be >= 1"
        (Invalid_argument "Params.set_cache_capacity: capacity < 1")
        (fun () -> Params.set_cache_capacity 0))

(* The memo cache is shared mutable state behind a mutex; hammer it from
   several domains computing overlapping graphs and check every answer
   against a sequential recomputation. *)
let test_cache_domain_safe () =
  Params.cache_clear ();
  let gs =
    [|
      Gen.grid 5 6 ~w:3;
      Gen.lower_bound_gn 8 ~x:2;
      Gen.chorded_cycle 14 ~chord_w:9;
      Gen.random_connected (Csap_graph.Rng.create 7) 20 ~extra_edges:15 ~wmax:6;
    |]
  in
  let worker d () =
    (* Each domain walks the graphs in a different rotation so lookups
       and inserts interleave. *)
    Array.init 40 (fun i -> Params.compute gs.((d + i) mod Array.length gs))
  in
  let domains = List.init 4 (fun d -> Domain.spawn (worker d)) in
  let results = List.map Domain.join domains in
  Params.cache_clear ();
  let expected = Array.map Params.compute gs in
  List.iteri
    (fun d got ->
      Array.iteri
        (fun i p ->
          Alcotest.(check bool)
            (Printf.sprintf "domain %d compute %d" d i)
            true
            (p = expected.((d + i) mod Array.length gs)))
        got)
    results

let prop_invariants =
  QCheck.Test.make ~count:120 ~name:"paper parameter relations hold"
    (Gen_qcheck.connected_graph_gen ())
    (fun g -> Params.invariants_hold (Params.compute g))

(* Golden values at scale: the eight run-large benchmark shapes (family,
   n, w, seed as the benchmark generates them for its seed 5), built
   through the CLI's [Cell.graph]. The [graph:] lines and the radius and
   centre were recorded from the all-sources sweep, so this checks the
   bounded [Paths.extrema] at n = 1-4 k without running the sweep. *)
let run_large_goldens =
  [
    ( ("grid", 4096, 6, 676220),
      "n=4096 m=8064 E=48384 V=24570 D=756 d=6 W=6", (384, 2015) );
    ( ("random", 4096, 10, 231497),
      "n=4096 m=12287 E=67943 V=10369 D=53 d=10 W=10", (27, 3679) );
    ( ("random", 2048, 7, 161353),
      "n=2048 m=6143 E=24603 V=4000 D=32 d=7 W=7", (19, 411) );
    ( ("grid", 2048, 11, 269971),
      "n=2025 m=3960 E=43560 V=22264 D=968 d=11 W=11", (484, 1012) );
    ( ("geometric", 1024, 4, 53716),
      "n=1024 m=2495 E=3062 V=1064 D=65 d=3 W=3", (33, 735) );
    ( ("random", 2048, 11, 652051),
      "n=2048 m=6143 E=36403 V=5309 D=47 d=11 W=11", (26, 854) );
    ( ("grid", 2048, 4, 563981),
      "n=2025 m=3960 E=15840 V=8096 D=352 d=4 W=4", (176, 1012) );
    ( ("random", 2048, 7, 862303),
      "n=2048 m=6143 E=24674 V=3938 D=29 d=7 W=7", (18, 175) );
  ]

let test_run_large_goldens () =
  List.iter
    (fun ((family, n, w, seed), line, (radius, center)) ->
      let g =
        Csap_farm.Cell.graph (Csap_farm.Cell.make ~family ~n ~w ~seed "params")
      in
      let label = Printf.sprintf "%s n=%d seed=%d" family n seed in
      Alcotest.(check string)
        (label ^ " params") line
        (Format.asprintf "%a" Params.pp (Params.compute g));
      Alcotest.(check (pair int int))
        (label ^ " radius, centre") (radius, center)
        (Csap_graph.Paths.radius_and_center g))
    run_large_goldens

let suite =
  [
    Alcotest.test_case "path parameters" `Quick test_path_params;
    Alcotest.test_case "star parameters" `Quick test_star_params;
    Alcotest.test_case "lower-bound separation" `Quick test_gn_params;
    Alcotest.test_case "d vs W separation" `Quick test_chorded_params;
    Alcotest.test_case "memo cache FIFO eviction" `Quick test_cache_eviction;
    Alcotest.test_case "memo cache is domain-safe" `Quick test_cache_domain_safe;
    Alcotest.test_case "run-large shapes match golden values" `Quick
      test_run_large_goldens;
    QCheck_alcotest.to_alcotest prop_invariants;
  ]
