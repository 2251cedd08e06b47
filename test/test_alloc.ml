(* Allocation and identity tests of the engine's delivery hot path:
   (1) the engine performs (essentially) zero minor-heap allocation per
   delivered message, and (2) its executions are bit-identical to the
   boxed reference simulator's ([Csap_reference.Sim]) across graphs,
   delay models, faults and seeds. *)

module E = Csap_dsim.Engine
module Sim = Csap_reference.Sim
module D = Csap_dsim.Delay
module F = Csap_dsim.Fault
module M = Csap_dsim.Metrics
module Trace = Csap_dsim.Trace
module G = Csap_graph.Graph
module Gen = Csap_graph.Generators

(* Ping-pong [k] messages over the one edge of [eng]'s 2-vertex path
   and return the minor-heap words allocated by [S.run] with the
   messages it sent. The handlers are allocation-free themselves (int
   payload, int-ref countdown), so the delta is the simulator's own
   per-message cost plus a small per-[run] constant ([Gc.quick_stat]
   snapshots, loop-local refs). *)
module Pingpong (S : Sim.S) = struct
  let round eng k =
    let remaining = ref k in
    S.set_handler eng 0 (fun ~src:_ (_ : int) ->
        if !remaining > 0 then begin
          decr remaining;
          S.send eng ~src:0 ~dst:1 0
        end);
    S.set_handler eng 1 (fun ~src:_ (_ : int) ->
        if !remaining > 0 then begin
          decr remaining;
          S.send eng ~src:1 ~dst:0 0
        end);
    S.schedule eng ~delay:0.0 (fun () ->
        decr remaining;
        S.send eng ~src:0 ~dst:1 0);
    let sent = (S.metrics eng).M.messages in
    let before = Gc.minor_words () in
    ignore (S.run eng);
    let words = Gc.minor_words () -. before in
    (words, (S.metrics eng).M.messages - sent)

  (* A warm-up round first (handler installation, queue growth, first
     touch), then the measured round on the same, re-armed simulator. *)
  let words eng n =
    ignore (round eng 64);
    round eng n
end

module Pingpong_engine = Pingpong (E)
module Pingpong_sim = Pingpong (Sim)

let test_packed_send_path_alloc_free () =
  let n = 50_000 in
  let words, msgs = Pingpong_engine.words (E.create (Gen.path 2 ~w:3)) n in
  Alcotest.(check int) "all messages delivered" n msgs;
  (* Zero words per message; the allowance covers the constant per-run
     overhead only (two [Gc.quick_stat] records, a handful of loop
     refs), NOT a per-message budget: 2048 words over 50k messages is
     0.04 words/message, far below one field of one box. *)
  Alcotest.(check bool)
    (Printf.sprintf "packed run allocates O(1), got %.0f words for %d msgs"
       words n)
    true
    (words < 2048.0)

let test_boxed_oracle_allocates () =
  (* Detector sanity: the same workload on the boxed reference simulator
     allocates per message (event record + heap slot), so a hot-path
     regression cannot hide behind a broken measurement. *)
  let n = 50_000 in
  let words, msgs = Pingpong_sim.words (Sim.create (Gen.path 2 ~w:3)) n in
  Alcotest.(check int) "all messages delivered" n msgs;
  Alcotest.(check bool)
    (Printf.sprintf "boxed run allocates per message, got %.2f words/msg"
       (words /. float_of_int n))
    true
    (words > 2.0 *. float_of_int n)

(* ---- retention audit ---------------------------------------------------- *)
(* Popped payload and closure slots must be released: a long run must
   not keep earlier events' closures (and anything they capture) live.
   The probe is a large array reachable ONLY through queue-internal
   references — a timer closure and a delivery payload — watched
   through a [Weak] pointer while the simulator itself stays reachable.
   This holds for the packed SOA queue ([Event_queue.drop_min] nulls
   its slots) and for the generic [Heap] behind the reference
   simulator, whose [pop_min] once left popped events — closures
   included — in the backing array. *)

module Retention (S : Sim.S) = struct
  let probe (eng : float array S.t) =
    S.set_handler eng 0 (fun ~src:_ (_ : float array) -> ());
    S.set_handler eng 1 (fun ~src:_ (_ : float array) -> ());
    let w = Weak.create 1 in
    (* Inner scope so no stack slot of this frame keeps [big] alive. *)
    (let big = Array.make 4096 0.0 in
     Weak.set w 0 (Some big);
     (* The timer closure captures [big]; the delivery carries it as its
        payload. Both end up in queue slots and are popped by [run]. *)
     S.schedule eng ~delay:0.0 (fun () ->
         big.(0) <- 1.0;
         S.send eng ~src:0 ~dst:1 big));
    ignore (S.run eng);
    w
end

module Retention_engine = Retention (E)
module Retention_sim = Retention (Sim)

let check_collected ~what w =
  Gc.full_major ();
  Gc.full_major ();
  Alcotest.(check bool) (what ^ " collectable") false (Weak.check w 0)

let test_packed_queue_releases_popped () =
  let eng = E.create (Gen.path 2 ~w:2) in
  let w = Retention_engine.probe eng in
  check_collected ~what:"packed popped closure+payload" w;
  ignore (Sys.opaque_identity eng)

let test_boxed_queue_releases_popped () =
  let eng = Sim.create (Gen.path 2 ~w:2) in
  let w = Retention_sim.probe eng in
  check_collected ~what:"boxed popped closure+payload" w;
  ignore (Sys.opaque_identity eng)

let test_heap_pop_releases () =
  (* The raw generic heap: popped elements must leave no reference in
     the backing array (and growth must not pin an element as filler). *)
  let module H = Csap_graph.Heap in
  let h = H.create ~cmp:(fun (a, _) (b, _) -> Int.compare a b) in
  let w = Weak.create 1 in
  (let big = Array.make 4096 0.0 in
   Weak.set w 0 (Some big);
   for i = 0 to 20 do
     H.add h (i, fun () -> ignore big.(0))
   done);
  for _ = 0 to 20 do
    ignore (H.pop_min h)
  done;
  check_collected ~what:"popped heap elements" w;
  ignore (Sys.opaque_identity h)

let test_metrics_alloc_snapshot () =
  (* [run] records the GC footprint of everything it runs into the
     metrics: the engine's own path allocates nothing, so the handler
     allocates (one cons cell per delivery) to give it something to
     record. *)
  let g = Gen.path 2 ~w:1 in
  let eng = E.create g in
  let got = ref [] in
  E.set_handler eng 0 (fun ~src:_ (_ : int) -> ());
  E.set_handler eng 1 (fun ~src:_ k -> got := k :: !got);
  E.schedule eng ~delay:0.0 (fun () ->
      for _ = 1 to 10_000 do
        E.send eng ~src:0 ~dst:1 0
      done);
  ignore (E.run eng);
  Alcotest.(check int) "all delivered" 10_000 (List.length !got);
  let m = E.metrics eng in
  Alcotest.(check bool) "minor words recorded" true
    (m.M.alloc_minor_words > 10_000.0);
  Alcotest.(check bool) "promoted words non-negative" true
    (m.M.alloc_promoted_words >= 0.0);
  Alcotest.(check bool) "major collections non-negative" true
    (m.M.alloc_major_collections >= 0)

(* Protocol handlers' allocation, per message, on one fixed instance:
   the complete graph K32 with edges of weight 4, a full run including
   set-up after a warm-up run. Minor-word counts are deterministic for a
   given build. Measured in the dev profile (cross-module inlining off):
   mst-ghs 2003.5 and dfs-token 159.5 words/msg while both walked
   freshly built tuple rows for every port lookup, 68.6 and 9.9 words/msg
   reading the CSR rows in place. The ceilings sit between, with room
   for compiler and runtime drift. *)
let test_protocol_words_per_msg () =
  let g = Gen.complete 32 ~w:4 in
  List.iter
    (fun (name, ceiling) ->
      let entry = Csap.Protocol.find_exn name in
      ignore (Csap.Protocol.run entry g);
      let w0 = Gc.minor_words () in
      let o = Csap.Protocol.run entry g in
      let words = Gc.minor_words () -. w0 in
      let msgs = o.Csap.Protocol.Outcome.measures.Csap.Measures.messages in
      let per_msg = words /. float_of_int msgs in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.1f words/msg <= %.0f" name per_msg ceiling)
        true (per_msg <= ceiling))
    [ ("mst-ghs", 250.0); ("dfs-token", 40.0) ]

(* The instance, delay model and fault plan of one identity case, built
   afresh per call: the RNG-driven delay models are stateful, so each
   simulator needs its own copy. *)
let case ~gseed ~delay_ix ~fault_ix =
  let rng = Csap_graph.Rng.create (1000 + gseed) in
  let g = Gen.random_connected rng 18 ~extra_edges:24 ~wmax:9 in
  let delay =
    match delay_ix with
    | 0 -> D.Exact
    | 1 -> D.Scaled 0.5
    | 2 -> D.Near_zero
    | 3 -> D.seeded ((gseed * 7) + 1)
    | 4 -> D.Uniform (Csap_graph.Rng.create (gseed + 100))
    | _ -> D.Jitter (Csap_graph.Rng.create (gseed + 200))
  in
  let faults =
    match fault_ix with
    | 0 -> None
    | 1 -> Some (F.seeded ~loss:0.15 ~dup:0.15 (gseed + 3))
    | _ ->
      Some
        (F.seeded ~loss:0.05 ~dup:0.1
           ~crashes:
             [
               { F.vertex = 1; at = 2.0; restart = 9.0 };
               { F.vertex = 4; at = 5.0; restart = 30.0 };
             ]
           (gseed + 5))
  in
  (g, delay, faults)

(* One full faulty traced double flood: every vertex forwards the first
   two copies it receives, so most directed edges carry two messages and
   the FIFO clamp decides their arrival order under the random delay
   models. Everything observable is returned so polymorphic equality
   compares the two simulators field for field. The alloc_* metrics are
   deliberately excluded — differing allocation is the point of the
   packed queue. *)
module Flood_case (S : Sim.S) = struct
  let execute g (eng : int S.t) =
    let tr = Trace.create () in
    S.set_trace eng (Some tr);
    let seen = Array.make (G.n g) 0 in
    let log = ref [] in
    for v = 0 to G.n g - 1 do
      S.set_restart_handler eng v (fun () -> log := (-1, v, -1) :: !log);
      S.set_handler eng v (fun ~src k ->
          log := (v, src, k) :: !log;
          if seen.(v) < 2 then begin
            seen.(v) <- seen.(v) + 1;
            G.iter_neighbors g v (fun u _ _ ->
                if u <> src then S.send eng ~src:v ~dst:u (k + 1))
          end)
    done;
    S.schedule eng ~delay:0.0 (fun () ->
        seen.(0) <- 2;
        G.iter_neighbors g 0 (fun u _ _ -> S.send eng ~src:0 ~dst:u 0));
    ignore (S.run ~max_events:200_000 eng);
    let m = S.metrics eng in
    ( List.rev !log,
      m.M.messages,
      m.M.weighted_comm,
      m.M.events,
      m.M.completion_time,
      m.M.last_delivery_time,
      Array.to_list (S.edge_traffic eng),
      Trace.to_jsonl tr )
end

module Flood_on_engine = Flood_case (E)
module Flood_on_sim = Flood_case (Sim)

let prop_packed_equals_boxed =
  QCheck.Test.make ~count:60
    ~name:"packed execution = boxed oracle (graphs x delays x faults)"
    QCheck.(
      triple (int_range 0 10_000) (int_range 0 5) (int_range 0 2))
    (fun (gseed, delay_ix, fault_ix) ->
      let engine =
        let g, delay, faults = case ~gseed ~delay_ix ~fault_ix in
        Flood_on_engine.execute g (E.create ~delay ?faults g)
      in
      let reference =
        let g, delay, faults = case ~gseed ~delay_ix ~fault_ix in
        Flood_on_sim.execute g (Sim.create ~delay ?faults g)
      in
      engine = reference)

let suite =
  [
    Alcotest.test_case "packed send path allocates zero words/message"
      `Quick test_packed_send_path_alloc_free;
    Alcotest.test_case "boxed oracle allocates (detector sanity)" `Quick
      test_boxed_oracle_allocates;
    Alcotest.test_case "packed queue releases popped slots" `Quick
      test_packed_queue_releases_popped;
    Alcotest.test_case "boxed queue releases popped slots" `Quick
      test_boxed_queue_releases_popped;
    Alcotest.test_case "heap pop releases elements" `Quick
      test_heap_pop_releases;
    Alcotest.test_case "run records GC footprint in metrics" `Quick
      test_metrics_alloc_snapshot;
    Alcotest.test_case "protocol words/msg ceilings (mst-ghs, dfs-token)"
      `Quick test_protocol_words_per_msg;
    QCheck_alcotest.to_alcotest prop_packed_equals_boxed;
  ]
