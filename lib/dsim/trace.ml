type kind =
  | Send
  | Deliver
  | Local
  | Dropped
  | Dup
  | Decision

type event = {
  kind : kind;
  time : float;
  seq : int;
  edge : int;
  dir : int;
  nth : int;
  src : int;
  dst : int;
  delay : float;
}

let dummy_event =
  {
    kind = Local;
    time = 0.0;
    seq = 0;
    edge = -1;
    dir = -1;
    nth = -1;
    src = -1;
    dst = -1;
    delay = 0.0;
  }

(* [capacity = 0] is an unbounded append-only buffer (doubling array);
   [capacity > 0] is a ring keeping the last [capacity] events, with the
   overwritten prefix counted in [dropped]. *)
type t = {
  capacity : int;
  mutable buf : event array;
  mutable len : int;
  mutable start : int;
  mutable dropped : int;
}

let create ?(capacity = 0) () =
  if capacity < 0 then invalid_arg "Trace.create: negative capacity";
  { capacity; buf = [||]; len = 0; start = 0; dropped = 0 }

let length t = t.len
let dropped t = t.dropped
let capacity t = t.capacity

let add t ev =
  if t.capacity > 0 then begin
    if Array.length t.buf < t.capacity then begin
      let buf = Array.make t.capacity dummy_event in
      Array.blit t.buf 0 buf 0 t.len;
      t.buf <- buf
    end;
    if t.len < t.capacity then begin
      t.buf.((t.start + t.len) mod t.capacity) <- ev;
      t.len <- t.len + 1
    end
    else begin
      t.buf.(t.start) <- ev;
      t.start <- (t.start + 1) mod t.capacity;
      t.dropped <- t.dropped + 1
    end
  end
  else begin
    let cap = Array.length t.buf in
    if t.len = cap then begin
      let buf = Array.make (max 64 (2 * cap)) dummy_event in
      Array.blit t.buf 0 buf 0 t.len;
      t.buf <- buf
    end;
    t.buf.(t.len) <- ev;
    t.len <- t.len + 1
  end

let events t =
  Array.init t.len (fun i ->
      if t.capacity > 0 then t.buf.((t.start + i) mod t.capacity)
      else t.buf.(i))

let equal a b = a.len = b.len && events a = events b

(* An adaptive run's trace interleaves Decision records with the events
   proper; its oblivious replay emits none, so replay comparisons strip
   them first. Unbounded result: a stripped trace is a replay artifact,
   not a live ring. *)
let without_decisions t =
  let r = create () in
  Array.iter
    (fun ev -> match ev.kind with Decision -> () | _ -> add r ev)
    (events t);
  r.dropped <- t.dropped;
  r

let decisions t =
  Array.of_seq
    (Seq.filter (fun ev -> ev.kind = Decision) (Array.to_seq (events t)))

(* ---- JSONL ------------------------------------------------------------ *)

let kind_to_string = function
  | Send -> "send"
  | Deliver -> "deliver"
  | Local -> "local"
  | Dropped -> "dropped"
  | Dup -> "dup"
  | Decision -> "decision"

let kind_of_string = function
  | "send" -> Send
  | "deliver" -> Deliver
  | "local" -> Local
  | "dropped" -> Dropped
  | "dup" -> Dup
  | "decision" -> Decision
  | s -> invalid_arg (Printf.sprintf "unknown kind %S" s)

(* %.17g round-trips every finite double; the engine rejects non-finite
   delays so no nan/inf ever reaches the writer. *)
let event_to_json ev =
  Printf.sprintf
    "{\"kind\":\"%s\",\"time\":%.17g,\"seq\":%d,\"edge\":%d,\"dir\":%d,\"nth\":%d,\"src\":%d,\"dst\":%d,\"delay\":%.17g}"
    (kind_to_string ev.kind) ev.time ev.seq ev.edge ev.dir ev.nth ev.src
    ev.dst ev.delay

let event_of_json line =
  try
    Scanf.sscanf line
      "{\"kind\":%S,\"time\":%f,\"seq\":%d,\"edge\":%d,\"dir\":%d,\"nth\":%d,\"src\":%d,\"dst\":%d,\"delay\":%f}"
      (fun kind time seq edge dir nth src dst delay ->
        { kind = kind_of_string kind; time; seq; edge; dir; nth; src; dst;
          delay })
  with Scanf.Scan_failure _ | End_of_file | Failure _ ->
    invalid_arg (Printf.sprintf "unparsable line %S" line)

let to_jsonl t =
  let buf = Buffer.create (64 * (t.len + 1)) in
  Array.iter
    (fun ev ->
      Buffer.add_string buf (event_to_json ev);
      Buffer.add_char buf '\n')
    (events t);
  Buffer.contents buf

(* Parse errors carry the 1-based line number (and the filename, when the
   input came from a file): a checkpoint-resume reading a half-written
   JSONL must be able to say exactly where the corruption starts. *)
let of_jsonl ?file s =
  let t = create () in
  List.iteri
    (fun i raw ->
      let line = String.trim raw in
      if line <> "" then
        match event_of_json line with
        | ev -> add t ev
        | exception Invalid_argument msg ->
          let where =
            match file with
            | None -> Printf.sprintf "line %d" (i + 1)
            | Some f -> Printf.sprintf "%s: line %d" f (i + 1)
          in
          invalid_arg (Printf.sprintf "Trace.of_jsonl: %s: %s" where msg))
    (String.split_on_char '\n' s);
  t

let save_jsonl t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_jsonl t))

let load_jsonl path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      of_jsonl ~file:path (really_input_string ic n))

(* ---- replay ----------------------------------------------------------- *)

let recorded ?(name = "recorded") t =
  if t.dropped > 0 then
    invalid_arg
      (Printf.sprintf
         "Trace.recorded: trace is a ring that dropped %d events; replay \
          needs a full (unbounded) trace"
         t.dropped);
  let tbl = Hashtbl.create (max 16 t.len) in
  Array.iter
    (fun ev ->
      match ev.kind with
      (* Decision records (adaptive adversaries) carry the same delay as
         the Send they precede, so a trace filtered down to decisions
         alone still replays; on a full trace the Send overwrite is a
         no-op. *)
      | Send | Decision ->
        Hashtbl.replace tbl ((2 * ev.edge) + ev.dir, ev.nth) ev.delay
      (* Dropped sends never sampled the delay model and Dup copies take
         their delay from the fault plan, so neither feeds the oracle:
         replaying under the same plan reproduces both without it. *)
      | Deliver | Local | Dropped | Dup -> ())
    (events t);
  Delay.oracle ~name (fun ~edge_id ~dir ~nth ~w:_ ->
      match Hashtbl.find_opt tbl ((2 * edge_id) + dir, nth) with
      | Some d -> d
      | None ->
        invalid_arg
          (Printf.sprintf
             "Trace.recorded: no recorded send for edge %d dir %d nth %d \
              (replayed execution diverged from the recording)"
             edge_id dir nth))

(* ---- ambient collection ---------------------------------------------- *)

(* Protocol entry points build their engines internally, so the explorer
   cannot thread a trace in by hand. The collector is a domain-local
   scope: every engine created inside [with_collector f] registers a
   fresh buffer (see [Engine.create]) and the scope returns them in
   creation order. Domain-local (not global) so pool workers exploring
   different schedules never share a collector. *)
type collector = {
  cap : int option;
  mutable traces : t list;  (* reverse creation order *)
}

let collector_key : collector option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let register () =
  let slot = Domain.DLS.get collector_key in
  match !slot with
  | None -> None
  | Some c ->
    let tr = create ?capacity:c.cap () in
    c.traces <- tr :: c.traces;
    Some tr

let with_collector ?capacity f =
  let slot = Domain.DLS.get collector_key in
  let prev = !slot in
  let c = { cap = capacity; traces = [] } in
  slot := Some c;
  match f () with
  | r ->
    slot := prev;
    (r, List.rev c.traces)
  | exception e ->
    slot := prev;
    raise e
