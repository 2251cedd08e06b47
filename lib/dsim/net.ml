type 'm t = {
  graph : Csap_graph.Graph.t;
  send : src:int -> dst:int -> 'm -> unit;
  set_handler : int -> (src:int -> 'm -> unit) -> unit;
  set_on_restart : int -> (unit -> unit) -> unit;
  schedule : delay:float -> (unit -> unit) -> unit;
  now : unit -> float;
  run : ?until:float -> ?max_events:int -> ?comm_budget:int -> unit -> int;
  quiescent : unit -> bool;
  metrics : unit -> Metrics.t;
  retransmissions : unit -> int;
}

type stats = {
  retransmissions : int;
  restarts : int;
}

let no_stats = { retransmissions = 0; restarts = 0 }

let of_engine eng =
  {
    graph = Engine.graph eng;
    send = (fun ~src ~dst m -> Engine.send eng ~src ~dst m);
    set_handler = (fun v f -> Engine.set_handler eng v f);
    set_on_restart = (fun v f -> Engine.set_restart_handler eng v f);
    schedule = (fun ~delay f -> Engine.schedule eng ~delay f);
    now = (fun () -> Engine.now eng);
    run =
      (fun ?until ?max_events ?comm_budget () ->
        Engine.run ?until ?max_events ?comm_budget eng);
    quiescent = (fun () -> Engine.quiescent eng);
    metrics = (fun () -> Engine.metrics eng);
    retransmissions = (fun () -> 0);
  }

let plain ?delay ?faults g = of_engine (Engine.create ?delay ?faults g)

let reliable ?delay ?faults ?rto ?max_rto g =
  let eng = Engine.create ?delay ?faults g in
  let shim = Reliable.create ?rto ?max_rto eng in
  {
    graph = g;
    send = (fun ~src ~dst m -> Reliable.send shim ~src ~dst m);
    set_handler = (fun v f -> Reliable.set_handler shim v f);
    set_on_restart = (fun v f -> Reliable.set_on_restart shim v f);
    schedule = (fun ~delay f -> Engine.schedule eng ~delay f);
    now = (fun () -> Engine.now eng);
    run =
      (fun ?until ?max_events ?comm_budget () ->
        Engine.run ?until ?max_events ?comm_budget eng);
    quiescent = (fun () -> Engine.quiescent eng);
    metrics = (fun () -> Engine.metrics eng);
    retransmissions = (fun () -> Reliable.retransmissions shim);
  }

let make ?reliable:(r = false) ?delay ?faults ?rto ?max_rto g =
  if r then reliable ?delay ?faults ?rto ?max_rto g
  else plain ?delay ?faults g

let monitor net =
  let restarts = ref 0 in
  (* One shared counting closure, not one per vertex. *)
  let count () = incr restarts in
  for v = 0 to Csap_graph.Graph.n net.graph - 1 do
    net.set_on_restart v count
  done;
  fun () -> { retransmissions = net.retransmissions (); restarts = !restarts }
