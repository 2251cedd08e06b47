(** A reference discrete-event simulator, written for readability and
    independence rather than speed.

    It implements the same model as {!Csap_dsim.Engine} — delays drawn
    by {!Csap_dsim.Delay.sample_on} in send order, FIFO links per
    direction, ties broken by send order, [comm = Σ w(e)] over sends,
    {!Csap_dsim.Fault.plan} dispositions with crash epochs and restart
    handlers, {!Csap_dsim.Trace} records — over a generic
    {!Csap_graph.Heap} of boxed [{time; seq; action}] events, and uses
    no engine internals. The test suite runs the same scenario on both
    and compares everything observable, trace JSONL included.

    Adaptive adversaries are not modelled. *)

(** The protocol-facing surface both simulators share, so a scenario
    can be written once (as a functor) and run on each. *)
module type S = sig
  type 'msg t

  val now : 'msg t -> float
  val set_handler : 'msg t -> int -> (src:int -> 'msg -> unit) -> unit
  val set_restart_handler : 'msg t -> int -> (unit -> unit) -> unit
  val send : 'msg t -> src:int -> dst:int -> 'msg -> unit
  val schedule : 'msg t -> delay:float -> (unit -> unit) -> unit

  val run :
    ?until:float -> ?max_events:int -> ?comm_budget:int -> 'msg t -> int

  val metrics : 'msg t -> Csap_dsim.Metrics.t
  val edge_traffic : 'msg t -> int array
  val set_trace : 'msg t -> Csap_dsim.Trace.t option -> unit
end

include S

(** [create ?delay ?faults ?lookup g] is an idle simulator over [g].
    [lookup g u v] resolves a send's edge id ([-1] when absent); the
    default is {!Csap_graph.Graph.edge_id_between}, and passing an
    O(degree) adjacency scan reproduces the engine's original send
    path for the micro-benchmarks. *)
val create :
  ?delay:Csap_dsim.Delay.t ->
  ?faults:Csap_dsim.Fault.plan ->
  ?lookup:(Csap_graph.Graph.t -> int -> int -> int) ->
  Csap_graph.Graph.t ->
  'msg t
