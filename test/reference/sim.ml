module G = Csap_graph.Graph
module Heap = Csap_graph.Heap
module Delay = Csap_dsim.Delay
module Fault = Csap_dsim.Fault
module Metrics = Csap_dsim.Metrics
module Trace = Csap_dsim.Trace

module type S = sig
  type 'msg t

  val now : 'msg t -> float
  val set_handler : 'msg t -> int -> (src:int -> 'msg -> unit) -> unit
  val set_restart_handler : 'msg t -> int -> (unit -> unit) -> unit
  val send : 'msg t -> src:int -> dst:int -> 'msg -> unit
  val schedule : 'msg t -> delay:float -> (unit -> unit) -> unit

  val run :
    ?until:float -> ?max_events:int -> ?comm_budget:int -> 'msg t -> int

  val metrics : 'msg t -> Metrics.t
  val edge_traffic : 'msg t -> int array
  val set_trace : 'msg t -> Trace.t option -> unit
end

type 'msg action =
  | Deliver of { src : int; dst : int; payload : 'msg; epoch : int }
      (* [epoch] is the receiver's crash epoch at send time: a delivery
         from before the receiver's last crash is stale and dropped. *)
  | Local of (unit -> unit)

type 'msg event = {
  time : float;
  seq : int;  (* send order: the tie-break between equal times *)
  action : 'msg action;
}

type 'msg t = {
  g : G.t;
  delay : Delay.t;
  faults : Fault.plan option;
  lookup : G.t -> int -> int -> int;
  queue : 'msg event Heap.t;
  handlers : (src:int -> 'msg -> unit) option array;
  restart_handlers : (unit -> unit) option array;
  down : bool array;
  epoch : int array;
  metrics : Metrics.t;
  traffic : int array;
  (* Per directed edge, indexed [2 * edge_id + dir]: the latest
     scheduled arrival (the FIFO clamp), and the sends and deliveries so
     far (the [nth] of delay samples and trace records). *)
  last_arrival : float array;
  sent : int array;
  delivered : int array;
  mutable clock : float;
  mutable seq : int;
  mutable trace : Trace.t option;
}

let by_time_then_seq a b =
  let c = Float.compare a.time b.time in
  if c <> 0 then c else Int.compare a.seq b.seq

let enqueue t time action =
  Heap.add t.queue { time; seq = t.seq; action };
  t.seq <- t.seq + 1

let record t kind ~seq ~edge ~dir ~nth ~src ~dst ~delay =
  match t.trace with
  | None -> ()
  | Some tr ->
    Trace.add tr
      { Trace.kind; time = t.clock; seq; edge; dir; nth; src; dst; delay }

(* The edge, direction and directed-edge slot of a [src -> dst] hop. *)
let hop t ~src ~dst =
  let id = t.lookup t.g src dst in
  if id < 0 then
    invalid_arg (Printf.sprintf "Sim.send: no edge between %d and %d" src dst);
  let e = G.edge t.g id in
  let dir = if src = e.G.u then 0 else 1 in
  (id, e.G.w, dir, (2 * id) + dir)

let create ?(delay = Delay.Exact) ?faults ?(lookup = G.edge_id_between) g =
  let n = G.n g and m = G.m g in
  let t =
    {
      g;
      delay;
      faults;
      lookup;
      queue = Heap.create ~cmp:by_time_then_seq;
      handlers = Array.make n None;
      restart_handlers = Array.make n None;
      down = Array.make n false;
      epoch = Array.make n 0;
      metrics = Metrics.create ();
      traffic = Array.make m 0;
      last_arrival = Array.make (2 * m) 0.0;
      sent = Array.make (2 * m) 0;
      delivered = Array.make (2 * m) 0;
      clock = 0.0;
      seq = 0;
      trace = None;
    }
  in
  (* Crashes are ordinary local events queued first, so they win
     same-time ties against everything the protocol schedules. *)
  (match faults with
  | None -> ()
  | Some plan ->
    List.iter
      (fun { Fault.vertex = v; at; restart } ->
        if v < 0 || v >= n then
          invalid_arg (Printf.sprintf "Sim: crash vertex %d out of range" v);
        enqueue t at
          (Local
             (fun () ->
               t.down.(v) <- true;
               t.epoch.(v) <- t.epoch.(v) + 1));
        enqueue t restart
          (Local
             (fun () ->
               t.down.(v) <- false;
               Option.iter (fun f -> f ()) t.restart_handlers.(v))))
      plan.Fault.crashes);
  t

let now t = t.clock
let set_handler t v f = t.handlers.(v) <- Some f
let set_restart_handler t v f = t.restart_handlers.(v) <- Some f
let set_trace t tr = t.trace <- tr
let metrics t = t.metrics
let edge_traffic t = Array.copy t.traffic

let valid_delay d = d >= 0.0 && d < infinity

(* Queue one copy of a message [d] after now, behind every earlier
   message on the same directed edge. *)
let transmit t ~slot ~src ~dst ~d payload =
  let arrival = Float.max (t.clock +. d) t.last_arrival.(slot) in
  t.last_arrival.(slot) <- arrival;
  enqueue t arrival (Deliver { src; dst; payload; epoch = t.epoch.(dst) })

let send t ~src ~dst payload =
  let id, w, dir, slot = hop t ~src ~dst in
  let nth = t.sent.(slot) in
  t.sent.(slot) <- nth + 1;
  let record kind ~delay =
    record t kind ~seq:t.seq ~edge:id ~dir ~nth ~src ~dst ~delay
  in
  let disposition =
    match t.faults with
    | None -> Fault.Pass
    | Some _ when t.down.(src) -> Fault.Drop
    | Some plan -> plan.Fault.disposition ~edge_id:id ~dir ~nth ~now:t.clock
  in
  (* A down sender transmits nothing; any other send is paid for, even
     one the network then loses. *)
  if not t.down.(src) then begin
    Metrics.add_send t.metrics ~w;
    t.traffic.(id) <- t.traffic.(id) + 1
  end;
  match disposition with
  | Fault.Drop -> record Trace.Dropped ~delay:0.0
  | Fault.Pass | Fault.Duplicate _ -> (
    let d = Delay.sample_on t.delay ~edge_id:id ~dir ~nth ~w in
    if not (valid_delay d) then
      invalid_arg (Printf.sprintf "Sim.send: invalid delay %g on edge %d" d id);
    record Trace.Send ~delay:d;
    transmit t ~slot ~src ~dst ~d payload;
    match disposition with
    | Fault.Duplicate u ->
      (* The network's extra copy: no communication cost, its own
         delay, FIFO-clamped like any other arrival. *)
      let d2 = u *. float_of_int w in
      if not (valid_delay d2) then
        invalid_arg
          (Printf.sprintf "Sim.send: invalid duplicate delay %g on edge %d" d2
             id);
      record Trace.Dup ~delay:d2;
      transmit t ~slot ~src ~dst ~d:d2 payload
    | _ -> ())

let schedule t ~delay f =
  if not (valid_delay delay) then
    invalid_arg (Printf.sprintf "Sim.schedule: invalid delay %g" delay);
  enqueue t (t.clock +. delay) (Local f)

(* Process one popped event at its time. *)
let dispatch t ev =
  t.clock <- Float.max t.clock ev.time;
  (match ev.action with
  | Local f ->
    record t Trace.Local ~seq:ev.seq ~edge:(-1) ~dir:(-1) ~nth:(-1) ~src:(-1)
      ~dst:(-1) ~delay:0.0;
    f ()
  | Deliver { src; dst; payload; epoch } ->
    (* Lost when the receiver is down, or crashed since the send. *)
    let lost = t.down.(dst) || epoch <> t.epoch.(dst) in
    let id, _, dir, slot = hop t ~src ~dst in
    let nth =
      if lost then -1
      else begin
        t.delivered.(slot) <- t.delivered.(slot) + 1;
        t.delivered.(slot) - 1
      end
    in
    record t
      (if lost then Trace.Dropped else Trace.Deliver)
      ~seq:ev.seq ~edge:id ~dir ~nth ~src ~dst ~delay:0.0;
    if not lost then begin
      (match t.handlers.(dst) with
      | Some f -> f ~src payload
      | None ->
        failwith (Printf.sprintf "Sim: no handler at vertex %d" dst));
      t.metrics.Metrics.last_delivery_time <- t.clock
    end);
  t.metrics.Metrics.events <- t.metrics.Metrics.events + 1;
  t.metrics.Metrics.completion_time <- t.clock

let run ?until ?(max_events = max_int) ?(comm_budget = max_int) t =
  let processed = ref 0 in
  let rec loop () =
    if
      !processed < max_events
      && t.metrics.Metrics.weighted_comm < comm_budget
    then
      match (Heap.peek_min t.queue, until) with
      | None, Some limit -> t.clock <- Float.max t.clock limit
      | None, None -> ()
      | Some ev, Some limit when ev.time > limit ->
        t.clock <- Float.max t.clock limit
      | Some _, _ ->
        let ev = Option.get (Heap.pop_min t.queue) in
        dispatch t ev;
        incr processed;
        loop ()
  in
  loop ();
  !processed
