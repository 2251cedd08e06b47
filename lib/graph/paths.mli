(** Weighted shortest paths, shortest-path trees and distance parameters. *)

(** Distances and parent pointers from a single source. [dist.(v)] is
    [max_int] and [parent.(v) = -1] when [v] is unreachable. *)
type sssp = {
  src : int;
  dist : int array;
  parent : int array;
}

(** Dijkstra's algorithm over an indexed heap with [decrease_key]:
    O((m + n) log n) with no per-relaxation allocation and no duplicate
    heap entries. The relaxation scan reads the graph's flat CSR rows. *)
val dijkstra : Graph.t -> src:int -> sssp

(** Bellman-Ford, used as an independent reference in tests; O(nm). *)
val bellman_ford : Graph.t -> src:int -> sssp

(** [spt g ~src] is the shortest-path tree rooted at [src].

    Ties between equal-length paths are broken deterministically (smallest
    parent id). Raises [Invalid_argument] when [g] is disconnected. *)
val spt : Graph.t -> src:int -> Tree.t

(** [dist g u v] is the weighted distance; [max_int] when disconnected. *)
val dist : Graph.t -> int -> int -> int

(** Weighted eccentricity of a vertex. *)
val eccentricity : Graph.t -> int -> int

(** Every all-sources distance parameter of a connected graph. *)
type extrema = {
  diameter : int;  (** the paper's script-D *)
  radius : int;  (** [min_v Rad(v, G)] *)
  center : int;  (** the smallest vertex attaining the radius *)
  max_neighbor : int;  (** the paper's [d] *)
}

(** [extrema g] computes diameter, radius/centre and [d] exactly — the
    back-end of {!diameter}, {!radius_and_center},
    {!max_neighbor_distance} and the memoized [Params.compute]. Raises
    [Invalid_argument] when [g] is disconnected.

    Diameter, radius and centre come from bounding eccentricities
    (Takes & Kosters' BoundingDiameters): each Dijkstra from a pivot
    tightens a lower and an upper eccentricity bound on every vertex,
    and vertices whose bounds can no longer change any result drop out.
    [d] comes from a second pass over the edges by decreasing weight,
    each resolved by a Dijkstra truncated at the edge's weight, stopping
    at the first edge no heavier than the best [d] so far. The result
    equals an all-sources sweep's on every graph; the number of
    Dijkstras is data-dependent — a handful on grids and geometric
    graphs, a few hundred on random graphs of thousands of vertices, and
    n (each O((m + n) log n)) in the worst case, on vertex-transitive
    graphs such as cycles and uniform complete graphs. *)
val extrema : Graph.t -> extrema

(** Weighted diameter [Diam(G)]; the paper's script-D.
    [(extrema g).diameter]. *)
val diameter : Graph.t -> int

(** Weighted radius [min_v Rad(v, G)] and the smallest vertex attaining
    it; the [radius] and [center] of {!extrema}. *)
val radius_and_center : Graph.t -> int * int

(** The paper's [d = max_{(u,v) in E} dist(u,v)]: the largest weighted
    distance between two *neighbouring* vertices. Always [<= W].
    [(extrema g).max_neighbor], so it requires a connected graph. *)
val max_neighbor_distance : Graph.t -> int
