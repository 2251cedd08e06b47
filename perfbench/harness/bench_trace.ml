(* In-process runner for the repository benchmark (perfbench/run.py).

   bench_trace.exe parity CELLS.jsonl
     Runs every cell exactly as a farm worker does ([Cell.run], oracle
     check as the cell says) and prints one result record per cell.

   bench_trace.exe trace CELLS.jsonl WORK_DIR
     Runs every cell sequentially on the main domain with a span around
     each call into a layer's public functions, then probes the farm's
     bookkeeping. Running on one domain keeps [Gc.minor_words] deltas
     exact, because OCaml 5 GC counters are domain-local.

   Output, one JSON object per line on stdout:
     {"kind":"result","cell":I,"state":"done","comm":..,"time":..,
      "messages":..,"retransmissions":..}
     {"kind":"result","cell":I,"state":"failed","code":C,"error":".."}
     {"kind":"span","span":NAME,"cell":I,"t0":S,"t1":S,"words":W,...}
   A span's [t0]/[t1] are seconds since the runner started, [words] the
   minor words allocated on the main domain inside the span, and any
   further fields are counts of work done inside it. Records are kept in
   memory and written when the run ends, so printing never lands inside
   a span. *)

module P = Csap.Protocol
module Cell = Csap_farm.Cell
module Jsonx = Csap_farm.Jsonx
module Manifest = Csap_farm.Manifest
module Farm = Csap_farm.Farm
module Graph = Csap_graph.Graph
module Params = Csap_graph.Params
module Engine = Csap_dsim.Engine

let epoch = Unix.gettimeofday ()
let records = ref []
let record fields = records := Jsonx.Obj fields :: !records

let span name ~cell ?(counts = fun _ -> []) f =
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let t1 = Unix.gettimeofday () in
  let w1 = Gc.minor_words () in
  record
    ([ ("kind", Jsonx.Str "span"); ("span", Jsonx.Str name);
       ("cell", Jsonx.Int cell); ("t0", Jsonx.Float (t0 -. epoch));
       ("t1", Jsonx.Float (t1 -. epoch)); ("words", Jsonx.Float (w1 -. w0)) ]
    @ counts r);
  r

let result ~cell = function
  | Ok (o : P.Outcome.t) ->
    let m = o.P.Outcome.measures in
    record
      [ ("kind", Jsonx.Str "result"); ("cell", Jsonx.Int cell);
        ("state", Jsonx.Str "done"); ("comm", Jsonx.Int m.Csap.Measures.comm);
        ("time", Jsonx.Float m.Csap.Measures.time);
        ("messages", Jsonx.Int m.Csap.Measures.messages);
        ("retransmissions", Jsonx.Int o.P.Outcome.retransmissions) ]
  | Error err ->
    record
      [ ("kind", Jsonx.Str "result"); ("cell", Jsonx.Int cell);
        ("state", Jsonx.Str "failed");
        ("code", Jsonx.Int (Cell.error_exit_code err));
        ("error", Jsonx.Str (Cell.error_message err)) ]

let read_cells path =
  In_channel.with_open_bin path In_channel.input_lines
  |> List.filter (fun l -> String.trim l <> "")
  |> List.mapi (fun i line ->
         match Cell.of_json line with
         | Ok c -> c
         | Error e ->
           failwith (Printf.sprintf "%s: line %d: %s" path (i + 1) e))

let messages_of (o : Cell.outcome) =
  match o.Cell.result with
  | Ok out -> out.P.Outcome.measures.Csap.Measures.messages
  | Error _ -> 0

(* The run configuration [Cell.run] builds, rebuilt so the oracle can be
   timed on its own. Only called after [Cell.run] accepted the cell, so
   every spec parses. *)
let cfg_of_cell (c : Cell.t) g =
  let ok = function Ok v -> v | Error e -> invalid_arg e in
  let delay = Option.map (fun s -> ok (Cell.delay_of_spec s)) c.Cell.delay in
  let adversary =
    Option.map (fun s -> ok (Csap_dsim.Adversary.of_spec s)) c.Cell.adversary
  in
  let faults =
    if c.Cell.loss > 0.0 || c.Cell.dup > 0.0 then
      Some
        (Csap_dsim.Fault.seeded ~loss:c.Cell.loss ~dup:c.Cell.dup
           c.Cell.fault_seed)
    else None
  in
  P.Run.make ~root:c.Cell.root ?delay ?adversary ?faults
    ~reliable:c.Cell.reliable ?pulses:c.Cell.pulses ?strip:c.Cell.strip
    ?k:c.Cell.k ?q:c.Cell.q ?domains:c.Cell.domains g

(* The engine core alone: a flood whose handlers only forward the first
   copy they see, over the clean engine with exact delays. The handlers
   read the CSR rows directly so they allocate nothing themselves. *)
let noop_flood g =
  let n = Graph.n g in
  let off = Graph.csr_offsets g and nbr = Graph.csr_neighbors g in
  let eng : unit Engine.t = Engine.create g in
  let seen = Array.make n false in
  let forward v ~src =
    for j = off.(v) to off.(v + 1) - 1 do
      if nbr.(j) <> src then Engine.send eng ~src:v ~dst:nbr.(j) ()
    done
  in
  for v = 0 to n - 1 do
    Engine.set_handler eng v (fun ~src () ->
        if not seen.(v) then begin
          seen.(v) <- true;
          forward v ~src
        end)
  done;
  seen.(0) <- true;
  forward 0 ~src:(-1);
  eng

let busy_total pool = Array.fold_left ( +. ) 0.0 (Csap_pool.busy_ms pool)

let trace_cell i (c : Cell.t) =
  match
    span "Cell.graph" ~cell:i
      ~counts:(fun g ->
        [ ("n", Jsonx.Int (Graph.n g)); ("m", Jsonx.Int (Graph.m g)) ])
      (fun () -> Cell.graph c)
  with
  | exception Invalid_argument msg ->
    result ~cell:i (Error (Cell.Bad_spec msg))
  | g ->
    (* Clear the memo first so a cache hit never reads as a fast compute. *)
    Params.cache_clear ();
    let pool = Csap_pool.default () in
    let busy0 = busy_total pool in
    ignore
      (span "Params.compute" ~cell:i
         ~counts:(fun _ ->
           [ ("sources", Jsonx.Int (Graph.n g));
             ("busy_ms", Jsonx.Float (busy_total pool -. busy0));
             ("domains", Jsonx.Int (Csap_pool.domains pool)) ])
         (fun () -> Params.compute g));
    let eng = noop_flood g in
    ignore
      (span "Engine.run" ~cell:i
         ~counts:(fun _ ->
           [ ("messages", Jsonx.Int (Engine.send_count eng)) ])
         (fun () -> Engine.run eng));
    let o =
      span "Protocol.execute" ~cell:i
        ~counts:(fun o ->
          [ ("protocol", Jsonx.Str c.Cell.protocol);
            ("reliable", Jsonx.Bool c.Cell.reliable);
            ("messages", Jsonx.Int (messages_of o));
            ( "retransmissions",
              Jsonx.Int
                (match o.Cell.result with
                | Ok out -> out.P.Outcome.retransmissions
                | Error _ -> 0) ) ])
        (fun () -> Cell.run ~graph:g { c with Cell.check = false })
    in
    (* The clean twin of a shimmed cell: shim off, no faults. *)
    (match o.Cell.result with
    | Ok _ when c.Cell.reliable ->
      ignore
        (span "Protocol.execute.clean" ~cell:i
           ~counts:(fun o -> [ ("messages", Jsonx.Int (messages_of o)) ])
           (fun () ->
             Cell.run ~graph:g
               {
                 c with
                 Cell.reliable = false;
                 loss = 0.0;
                 dup = 0.0;
                 check = false;
               }))
    | _ -> ());
    let checked =
      match o.Cell.result with
      | Ok out when c.Cell.check -> (
        let (module M : P.S) = P.find_exn c.Cell.protocol in
        let cfg = cfg_of_cell c g in
        match span "M.invariant" ~cell:i (fun () -> M.invariant cfg out) with
        | Ok () -> Ok out
        | Error msg -> Error (Cell.Invariant_failed msg)
        | exception e -> Error (Cell.Execution_error (Printexc.to_string e)))
      | r -> r
    in
    result ~cell:i checked

(* Cell codec, manifest and farm probes over the same cells. *)
let probe_farm cells dir =
  let ncells = List.length cells in
  let rounds = 20 in
  ignore
    (span "Cell.codec" ~cell:(-1)
       ~counts:(fun () -> [ ("cells", Jsonx.Int (rounds * ncells)) ])
       (fun () ->
         for _ = 1 to rounds do
           List.iter
             (fun c ->
               match Cell.of_json (Cell.to_json c) with
               | Ok c' -> ignore (Cell.digest c')
               | Error e -> failwith e)
             cells
         done));
  (* Every manifest line is fsync'd; a bounded sample keeps the probe
     short on slow disks. *)
  let sample = List.filteri (fun i _ -> i < 64) cells in
  let done_line =
    {
      Manifest.comm = 1;
      time = 1.0;
      messages = 1;
      retransmissions = 0;
      restarts = 0;
      wall_ms = 1.0;
    }
  in
  ignore
    (span "Manifest" ~cell:(-1)
       ~counts:(fun () -> [ ("cells", Jsonx.Int (List.length sample)) ])
       (fun () ->
         let man =
           Manifest.create (Filename.concat dir "probe-manifest.jsonl")
         in
         List.iter
           (fun c ->
             let e = Manifest.add man c in
             Manifest.set_state man e Manifest.Running;
             Manifest.set_state man e ~result:done_line Manifest.Done)
           sample;
         Manifest.close man));
  let farm_dir = Filename.concat dir "probe-farm" in
  ignore
    (span "Farm.sweep" ~cell:(-1)
       ~counts:(fun () ->
         (* The farm's own per-cell walls, i.e. its in-process Cell.run
            time; the rest of the sweep's wall is bookkeeping. *)
         let res = Filename.concat farm_dir "results" in
         let cell_ms =
           Array.fold_left
             (fun acc f ->
               let body =
                 In_channel.with_open_bin (Filename.concat res f)
                   In_channel.input_all
               in
               match Jsonx.parse body with
               | Ok j ->
                 acc
                 +. Option.value ~default:0.0
                      (Jsonx.to_float (Jsonx.member "wall_ms" j))
               | Error e -> failwith e)
             0.0 (Sys.readdir res)
         in
         [ ("cells", Jsonx.Int ncells); ("cell_ms", Jsonx.Float cell_ms) ])
       (fun () ->
         ignore (Farm.sweep (Farm.config ~workers:1 ~dir:farm_dir ()) cells)))

let () =
  (match Array.to_list Sys.argv with
  | [ _; "parity"; path ] ->
    List.iteri
      (fun i c -> result ~cell:i (Cell.run c).Cell.result)
      (read_cells path)
  | [ _; "trace"; path; dir ] ->
    let cells = read_cells path in
    List.iteri trace_cell cells;
    probe_farm cells dir
  | _ ->
    prerr_endline
      "usage: bench_trace.exe parity CELLS.jsonl\n\
      \       bench_trace.exe trace CELLS.jsonl WORK_DIR";
    exit 2);
  List.iter
    (fun r ->
      print_string (Jsonx.to_string r);
      print_char '\n')
    (List.rev !records)
