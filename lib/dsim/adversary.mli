(** Schedule adversaries: oblivious delay models and adaptive adversaries
    that observe engine state, under one interface.

    The paper's worst-case measures quantify over {e every} admissible
    schedule — including schedules chosen by an adversary who watches the
    protocol run and picks each delay to hurt the most. The oblivious
    {!Delay.t} models (seeded, slow-edge, race-crossing, replay oracles)
    fix the whole schedule before the run; an {e adaptive} adversary is
    instead consulted at each send with a read-only {!Obs} view of the
    engine (clock, per-edge in-flight counts, totals, queue head) and
    returns the next delay — still within the admissible window
    [(0, w(e)]] if it wants the run to stay a legal execution.

    Adaptivity is order-dependent, so the partitioned engine rejects it
    ({!Pengine} processes events out of global order inside a window);
    determinism is restored by {e replay}: every adaptive decision is
    recorded as a {!Trace.Decision} event, and {!Trace.recorded} turns
    the decision trace back into an oblivious oracle that reproduces the
    run event for event (DESIGN.md §17). *)

(** {2 The observation view} *)

module Obs : sig
  (** A read-only window onto a running engine: plain accessors over
      state the engine maintains anyway (shared arrays, no copying), so
      observing is O(1) per accessor — except the [busiest_edge] scan —
      and allocates nothing. *)
  type t

  (** Built by [Engine.create]; the arrays are shared with (and mutated
      by) the engine. Not for protocol code. *)
  val make :
    m:int ->
    clock:float array ->
    inflight:int array ->
    sent:int array ->
    counts:int array ->
    queue_size:(unit -> int) ->
    queue_min:(unit -> float) ->
    sent_total:(unit -> int) ->
    t

  (** Current simulated time. *)
  val now : t -> float

  (** Number of edges of the underlying graph. *)
  val edges : t -> int

  (** Deliveries currently in flight on the directed edge
      [(edge_id, dir)]. *)
  val pending_on : t -> edge_id:int -> dir:int -> int

  (** Deliveries in flight on [edge_id], both directions. *)
  val pending_edge : t -> edge_id:int -> int

  (** The edge with the most in-flight deliveries (ties to the lowest
      id); [-1] when nothing is in flight. O(edges). *)
  val busiest_edge : t -> int

  (** Messages sent so far on the directed edge [(edge_id, dir)]. *)
  val sent_on : t -> edge_id:int -> dir:int -> int

  (** Total paid transmissions so far (= the engine's message count). *)
  val sent_total : t -> int

  (** Messages delivered to handlers so far (drops excluded). *)
  val delivered_total : t -> int

  (** Events pending in the engine's queue (deliveries and timers). *)
  val queue_size : t -> int

  (** Time of the earliest pending event; [nan] when the queue is
      empty. *)
  val queue_min_time : t -> float
end

(** {2 Adversaries} *)

(** An adaptive adversary: consulted by the engine at each send.
    [next_delay] must return a finite, non-negative delay (the engine
    validates, exactly as for delay models); admissible schedules keep
    it within [(0, w]]. [next_disposition], when given, lets the
    adversary drop or duplicate messages — it is consulted only when no
    {!Fault.plan} is attached (a plan owns the disposition). *)
type adaptive = {
  name : string;
  next_delay : Obs.t -> edge_id:int -> dir:int -> nth:int -> w:int -> float;
  next_disposition :
    (Obs.t -> edge_id:int -> dir:int -> nth:int -> now:float ->
     Fault.disposition)
    option;
}

(** An adversary is either an oblivious delay model — the engine runs it
    on the unchanged zero-allocation path — or an adaptive decision
    procedure. *)
type t =
  | Oblivious of Delay.t
  | Adaptive of adaptive

val of_delay : Delay.t -> t

(** Display name ("oracle(seeded-7)", "greedy-commax", ...). *)
val name : t -> string

val is_adaptive : t -> bool

(** {2 Built-in adaptive adversaries}

    Both are deterministic functions of the observation, so their runs
    replay exactly from the decision trace. Fresh state per call — a
    returned adversary must not be shared across concurrent engines. *)

(** The greedy communication maximiser: stalls the edge that already has
    the most in-flight work by the full window [w] and rushes everything
    else, concentrating contention to force retries/echoes out of
    contention-sensitive protocols. *)
val greedy_commax : unit -> t

(** The time stretcher: lets a send extend the adversary's completion
    frontier by the full window [w] whenever it can, and rushes sends
    that cannot — every delivery lands just inside the allowed window or
    immediately, maximising the makespan a single chain can reach. *)
val time_stretcher : unit -> t

(** The built-in roster, by spec name (["greedy"; "stretch"]). *)
val builtin_specs : string list

(** [of_spec s] parses an adversary spec as accepted by
    [csap_cli --adversary] and farm cells: ["greedy"] and ["stretch"]
    build fresh built-ins. The error lists the vocabulary. *)
val of_spec : string -> (t, string) result

(** {2 Ambient adversary}

    Protocol entry points build their engines internally, so callers
    cannot thread an adversary in by hand. [with_ambient a f] runs [f]
    with [a] installed domain-locally: every engine created inside
    picks it up, exactly like {!Trace.with_collector}. Scopes
    nest and are domain-local, so pool workers never share one. *)

val with_ambient : adaptive -> (unit -> 'a) -> 'a

(** The installed adaptive adversary of the current scope, if any
    (read by [Engine.create] and guarded against by [Pengine]). *)
val ambient : unit -> adaptive option
