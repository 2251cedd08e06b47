(** The paper's weighted network parameters (Section 1.3).

    - [script_e]  = [w(G)], total edge weight — the cost of transmitting one
      message over every edge;
    - [script_v]  = [w(MST)] — the minimal cost of reaching all vertices;
    - [script_d]  = [Diam(G)], weighted diameter — the maximal cost of
      transmitting a message between a pair of vertices;
    - [d]         = the largest weighted distance between two neighbours;
    - [w_max]     = the maximal edge weight [W]. *)

type t = {
  n : int;
  m : int;
  script_e : int;
  script_v : int;
  script_d : int;
  d : int;
  w_max : int;
}

(** Compute every parameter; requires a connected graph. The first call
    costs one {!Paths.extrema} (a data-dependent number of Dijkstras, n
    at worst) plus an MST; results are memoized per graph instance
    (keyed by {!Graph.id}), so repeated calls on the same graph — one per
    benchmark row — are O(1).

    The cache is domain-safe: lookups and inserts are serialised behind a
    mutex while the computation itself runs outside the lock, so the
    bench harness's worker domains or a {!Csap_dsim.Pengine} run may
    call [compute] concurrently. Two domains racing on the same graph both
    compute the same pure result and the second insert is a no-op
    (asserted by a multi-domain stress test).

    The memo cache holds at most {!cache_capacity} entries; beyond that
    the oldest insertions are evicted (FIFO), so bench runs over
    thousands of generated graphs don't grow it without limit. *)
val compute : Graph.t -> t

(** {2 Memo-cache controls} *)

(** Current capacity bound (default 4096 entries). *)
val cache_capacity : unit -> int

(** [set_cache_capacity c] rebounds the cache to [c >= 1] entries,
    evicting oldest-first if it is currently over. Raises
    [Invalid_argument] on [c < 1]. *)
val set_cache_capacity : int -> unit

(** Number of memoized entries right now. *)
val cache_size : unit -> int

(** Whether [g]'s parameters are currently memoized. *)
val cached : Graph.t -> bool

(** Drop every memoized entry (used by tests). *)
val cache_clear : unit -> unit

val pp : Format.formatter -> t -> unit

(** Sanity relations from the paper: [script_v <= script_e],
    [script_d <= script_v] (any distance is at most some MST path),
    [script_d <= script_e], [d <= w_max], and Fact 6.3:
    [script_v <= (n-1) * script_d]. *)
val invariants_hold : t -> bool
