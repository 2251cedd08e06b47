module Net = Csap_dsim.Net
module G = Csap_graph.Graph

type result = {
  tree : Csap_graph.Tree.t;
  arrival : float array;
  measures : Measures.t;
  transport : Net.stats;
}

type msg = Wave

(* One wave body for both transports. Over the plain transport a plan
   that drops a first-contact copy can leave the wave short of some
   vertices; through the reliable shim every survivable plan is covered,
   because the shim restores the exactly-once FIFO links the wave
   assumes. The wave state lives in stable storage — a crashed vertex
   keeps what it learned, and the only restart work is counting.
   Resetting [reached] instead would be unsound: copies delivered before
   the crash are never redelivered, and re-parenting on a late copy
   could close a cycle. *)
let run ?delay ?faults ?reliable g ~source =
  let n = G.n g in
  let net = Net.make ?reliable ?delay ?faults g in
  let stats = Net.monitor net in
  let parent = Array.make n (-1) in
  let parent_w = Array.make n 0 in
  let reached = Array.make n false in
  let arrival = Array.make n infinity in
  let forward v ~except =
    G.iter_neighbors g v (fun u _ _ ->
        if u <> except then net.Net.send ~src:v ~dst:u Wave)
  in
  for v = 0 to n - 1 do
    net.Net.set_handler v (fun ~src Wave ->
        if not reached.(v) then begin
          reached.(v) <- true;
          arrival.(v) <- net.Net.now ();
          parent.(v) <- src;
          (match G.edge_between g v src with
          | Some (w, _) -> parent_w.(v) <- w
          | None -> assert false);
          forward v ~except:src
        end)
  done;
  net.Net.schedule ~delay:0.0 (fun () ->
      reached.(source) <- true;
      arrival.(source) <- 0.0;
      forward source ~except:(-1));
  ignore (net.Net.run ());
  if not (Array.for_all Fun.id reached) then
    invalid_arg "Flood.run: wave did not cover the graph";
  let tree =
    Csap_graph.Tree.of_parents ~root:source ~parents:parent ~weights:parent_w
  in
  (* The broadcast completes when the last vertex is reached; duplicate
     copies still in flight afterwards cost communication but not time. *)
  let completion = Array.fold_left Float.max 0.0 arrival in
  let measures =
    {
      (Measures.of_metrics (net.Net.metrics ())) with
      Measures.time = completion;
    }
  in
  { tree; arrival; measures; transport = stats () }

(* The same wave on the partitioned engine: identical handler logic, so
   bit-identity with [run] follows from Pengine's order guarantee. The
   per-vertex arrays are safe to share unlocked — vertex [v]'s slots are
   written only inside [v]'s handler, which runs on [v]'s owning domain,
   and read by the caller only after [Pengine.run] joins. *)
let run_partitioned ?delay ?partition ~domains g ~source =
  let module P = Csap_dsim.Pengine in
  let n = G.n g in
  let eng = P.create ?delay ?partition ~domains g in
  let parent = Array.make n (-1) in
  let parent_w = Array.make n 0 in
  let reached = Array.make n false in
  let arrival = Array.make n infinity in
  let forward ctx v ~except =
    G.iter_neighbors g v (fun u _ _ ->
        if u <> except then P.send ctx ~src:v ~dst:u Wave)
  in
  for v = 0 to n - 1 do
    P.set_handler eng v (fun ctx ~src Wave ->
        if not reached.(v) then begin
          reached.(v) <- true;
          arrival.(v) <- P.now ctx;
          parent.(v) <- src;
          (match G.edge_between g v src with
          | Some (w, _) -> parent_w.(v) <- w
          | None -> assert false);
          forward ctx v ~except:src
        end)
  done;
  P.schedule eng ~vertex:source ~delay:0.0 (fun ctx ->
      reached.(source) <- true;
      arrival.(source) <- 0.0;
      forward ctx source ~except:(-1));
  ignore (P.run eng);
  if not (Array.for_all Fun.id reached) then
    invalid_arg "Flood.run_partitioned: graph is disconnected";
  let tree =
    Csap_graph.Tree.of_parents ~root:source ~parents:parent ~weights:parent_w
  in
  let completion = Array.fold_left Float.max 0.0 arrival in
  let measures =
    { (Measures.of_metrics (P.metrics eng)) with Measures.time = completion }
  in
  { tree; arrival; measures; transport = Net.no_stats }
