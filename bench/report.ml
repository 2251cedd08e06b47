(* Table-printing helpers shared by the per-figure benchmarks, plus the
   deferred-figure model that the parallel harness in [main.ml] runs.

   Each bench regenerates one of the paper's figures: it prints the same
   rows the figure states, with measured weighted costs next to the bound
   evaluated on the instance, so the *shape* (who wins, by what factor,
   where the crossovers fall) can be read off directly.

   A figure is declared as a list of independent *jobs* — one per
   (family, n) cell — and a render function that consumes the results in
   declaration order. Jobs carry no shared mutable state, so the pool in
   [main.ml] can run them on OCaml 5 domains in any order and the
   rendered tables are byte-identical to a sequential run. *)

let heading id title = Format.printf "@.==== %s: %s ====@." id title

let subheading text = Format.printf "-- %s@." text

type cell =
  | Int of int
  | Float of float
  | Str of string

let cell_to_string = function
  | Int i -> string_of_int i
  | Float f ->
    if Float.is_nan f then "-"
    else if Float.abs f >= 100.0 then Printf.sprintf "%.0f" f
    else Printf.sprintf "%.2f" f
  | Str s -> s

let table ~columns rows =
  let widths =
    List.mapi
      (fun i name ->
        List.fold_left
          (fun acc row ->
            max acc (String.length (cell_to_string (List.nth row i))))
          (String.length name) rows)
      columns
  in
  let print_row cells =
    List.iteri
      (fun i cell ->
        Format.printf "%*s  " (List.nth widths i) (cell_to_string cell))
      cells;
    Format.printf "@."
  in
  print_row (List.map (fun name -> Str name) columns);
  List.iter print_row rows

(* Ratio of a measurement against a bound: the headline number for shape
   checks ("stays flat across the sweep" = matching asymptotics). *)
let ratio measured bound = if bound <= 0.0 then nan else measured /. bound

let log2 x = log x /. log 2.0

(* ---- deferred figures ------------------------------------------------- *)

(* One independent unit of benchmark work: typically a single (family, n)
   table row. [run] must be self-contained — it may build graphs and run
   protocols but must not print or touch shared mutable state. It returns
   a list of rows (usually one). *)
type job = {
  label : string;
  run : unit -> cell list list;
}

type figure = {
  id : string;
  title : string;
  jobs : job list;
  (* [render results] prints the figure body (everything after the
     heading); [results.(i)] holds job [i]'s rows. *)
  render : cell list list array -> unit;
}

(* A timed job result, as recorded by the pool. The alloc_* fields are
   the GC delta over the job body, read from the worker domain's own
   counters (OCaml 5 GC stats are domain-local, and a job runs entirely
   on one domain): minor words allocated, words promoted to the major
   heap, and major collections finished. *)
type job_result = {
  job_label : string;
  rows : cell list list;
  wall_ms : float;
  alloc_minor_words : float;
  alloc_promoted_words : float;
  alloc_major_collections : int;
}

let job label run = { label; run }

(* A job wrapping a single row. *)
let row_job label run = { label; run = (fun () -> [ run () ]) }

(* Concatenate the rows of every job result, in job order: the common
   render pattern for figures that are exactly one table. *)
let all_rows results = List.concat (Array.to_list results)

(* ---- JSON emission ---------------------------------------------------- *)
(* Through the farm's codec: floats print as [%.17g] (round-tripping),
   and NaN/infinity — which JSON cannot express — as [null]. *)

module Jsonx = Csap_farm.Jsonx

let json_of_cell = function
  | Int i -> Jsonx.Int i
  | Float f -> Jsonx.Float f
  | Str s -> Jsonx.Str s

let json_of_job_result r =
  Jsonx.Obj
    [
      ("label", Jsonx.Str r.job_label);
      ("wall_ms", Jsonx.Float r.wall_ms);
      ("alloc_minor_words", Jsonx.Float r.alloc_minor_words);
      ("alloc_promoted_words", Jsonx.Float r.alloc_promoted_words);
      ("alloc_major_collections", Jsonx.Int r.alloc_major_collections);
      ( "rows",
        Jsonx.Arr
          (List.map (fun row -> Jsonx.Arr (List.map json_of_cell row)) r.rows)
      );
    ]

let json_of_figure ~id ~title results =
  Jsonx.Obj
    [
      ("id", Jsonx.Str id);
      ("title", Jsonx.Str title);
      ("cells", Jsonx.Arr (List.map json_of_job_result results));
    ]
