(** The flooding algorithm CON_flood (Section 6.1).

    Broadcasts a message from a source: each vertex forwards the first copy
    it receives to all its other neighbours. Communication [O(script-E)]
    (every edge carries at most two copies), time [O(script-D)] (the wave
    follows shortest paths). The first-contact edges form a spanning tree,
    which solves connected components / spanning tree (Section 7), at the
    [O(script-E)] end of the trade-off. *)

type result = {
  tree : Csap_graph.Tree.t;  (** the spanning tree of first contacts *)
  arrival : float array;  (** time the wave reached each vertex *)
  measures : Measures.t;
  transport : Csap_dsim.Net.stats;
      (** retransmissions and observed crash-restarts *)
}

(** [run ?delay ?faults ?reliable g ~source] floods from [source] over
    {!Csap_dsim.Net.make}'s transport; requires a connected graph.

    With [faults] on the plain transport ([reliable] unset), messages
    run over the raw (unreliable) engine: a plan that drops a
    first-contact copy can leave the wave short of some vertices, in
    which case [run] raises [Invalid_argument]. With [~reliable:true]
    the wave goes through the {!Csap_dsim.Reliable} shim: under any
    survivable fault plan (loss < 1, finite outages and crashes) it
    covers the graph and the first-contact tree is a valid spanning
    tree. The wave state is stable storage, so a restart only counts
    in [transport]. *)
val run :
  ?delay:Csap_dsim.Delay.t ->
  ?faults:Csap_dsim.Fault.plan ->
  ?reliable:bool ->
  Csap_graph.Graph.t ->
  source:int ->
  result

(** [run_partitioned ?delay ?partition ~domains g ~source] floods on the
    partitioned engine ({!Csap_dsim.Pengine}) across [domains] OCaml
    domains and returns a result {b bit-identical} to [run]'s: same
    tree, same arrival times, same measures. The delay model must be
    order-independent ({!Csap_dsim.Delay.order_independent}); no fault
    support, so [transport] is always {!Csap_dsim.Net.no_stats}. *)
val run_partitioned :
  ?delay:Csap_dsim.Delay.t ->
  ?partition:Csap_graph.Partition.t ->
  domains:int ->
  Csap_graph.Graph.t ->
  source:int ->
  result
