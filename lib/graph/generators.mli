(** Graph families used by the tests, examples and benchmark harness.

    Every generator returns a connected graph; randomised ones are seeded
    through {!Rng.t} and fully deterministic. *)

(** [path n ~w] is the path [0 - 1 - ... - n-1] with uniform weight [w]. *)
val path : int -> w:int -> Graph.t

(** [cycle n ~w] is the n-cycle with uniform weight [w]; requires [n >= 3]. *)
val cycle : int -> w:int -> Graph.t

(** [star n ~w] joins vertex [0] to every other vertex. *)
val star : int -> w:int -> Graph.t

(** [complete n ~w] is K_n with uniform weight [w]. *)
val complete : int -> w:int -> Graph.t

(** [grid rows cols ~w] is the rows x cols mesh with uniform weight [w]. *)
val grid : int -> int -> w:int -> Graph.t

(** [binary_tree n ~w] is the complete-binary-tree-shaped tree on [n]
    vertices (vertex [i]'s parent is [(i-1)/2]). *)
val binary_tree : int -> w:int -> Graph.t

(** [random_tree rng n ~wmax] is a uniform random labelled tree with
    independent uniform weights in [1, wmax]. *)
val random_tree : Rng.t -> int -> wmax:int -> Graph.t

(** [random_connected rng n ~extra_edges ~wmax] is a random tree plus
    [extra_edges] additional random non-duplicate edges, weights uniform in
    [1, wmax]. *)
val random_connected : Rng.t -> int -> extra_edges:int -> wmax:int -> Graph.t

(** [random_geometric rng n ~degree ~scale] places [n] points uniformly in
    the unit square, connects each point to its nearest neighbours until the
    average degree reaches [degree], adds a Euclidean-MST backbone so the
    result is connected, and weights each edge by
    [max 1 (round (scale * euclidean distance))]. A WAN-like family: edge
    weight correlates with geometric length.

    O(n{^2}) time: an O(n{^2}) Prim backbone, then each vertex's nearest
    neighbours are picked by one {!sorted_prefix} pass over the other
    vertices, repeated with a doubled prefix in the rare case the degree
    rounds outrun it. The edges (and their ids) are those of linking each
    vertex, in round k, to position k of its [Array.sort]ed distance
    order. *)
val random_geometric : Rng.t -> int -> degree:int -> scale:float -> Graph.t

(** [sorted_prefix keys ~len] is the first [min len n] entries of
    [Array.init n Fun.id] sorted with
    [Array.sort (fun a b -> compare keys.(a) keys.(b))], where
    [n = Array.length keys]. One O(n len) selection pass when the
    [len + 1] smallest keys are pairwise distinct; otherwise the full
    [Array.sort], since equal keys are ordered by the sort's own
    schedule. The k-nearest step of {!random_geometric}. *)
val sorted_prefix : float array -> len:int -> int array

(** [lollipop clique_n path_n ~w] is a clique with a path tail. *)
val lollipop : int -> int -> w:int -> Graph.t

(** The lower-bound family [G_n] of Section 7.1 (Figure 7): a path
    [1 - 2 - ... - n] with weight-[x] edges, plus bypass edges
    [(i, n+1-i)] for [1 <= i < n/2] with weight [x^4].

    Vertices are 0-based here: path edges [(i, i+1)] for [0 <= i < n-1] of
    weight [x], bypass edges [(i, n-1-i)] of weight [x^4]. The MST is the
    path, so script-V = (n-1) x, while script-E = Theta(n x^4). Requires
    [n >= 4] and [x >= 2]; the caller must keep [x^4] within [max_int]. *)
val lower_bound_gn : int -> x:int -> Graph.t

(** The modified family [G_n^i] of Figure 8: [G_n] where the bypass edge
    [(i, n-1-i)] (0-based) is replaced by pendant edges [(i, v)] and
    [(n-1-i, w)] to two fresh vertices [v = n], [w = n+1], both of weight
    [x^4]. Used by the indistinguishability experiment. *)
val lower_bound_gn_i : int -> i:int -> x:int -> Graph.t

(** [chorded_cycle n ~chord_w] is the weight-1 n-cycle plus heavy chords
    [(i, i+2)] of weight [chord_w]: a family where the paper's parameter
    [d] stays 2 while [W = chord_w] grows, separating clock synchronizers
    alpha* (Theta(W) pulse delay) from gamma* (O(d log^2 n)).
    Requires [n >= 5]. *)
val chorded_cycle : int -> chord_w:int -> Graph.t

(** [bkj_star_cycle k ~heavy] is the classical BKJ83-style family showing
    SPT weight Omega(n * V) and MST diameter Omega(n * D): a hub [0] joined
    to [k] rim vertices by spokes of weight [heavy], with consecutive rim
    vertices joined by weight-1 edges. *)
val bkj_star_cycle : int -> heavy:int -> Graph.t

(** {2 Streaming builders}

    Large-n variants built through {!Graph.of_stream}'s two-pass CSR
    construction: no [(src, dst, w)] tuple list is ever materialised, so
    a 10^6–10^7-vertex family costs O(E) flat-array words. Randomness is
    re-derived per row from pure seed mixes, making the two passes
    replay identically. *)

(** [grid_stream rows cols ~w] builds the {e identical} graph to
    [grid rows cols ~w] — same vertex ids, same edge-id order — without
    the intermediate edge list. *)
val grid_stream : int -> int -> w:int -> Graph.t

(** [lower_bound_gn_stream n ~x] builds the identical graph to
    [lower_bound_gn n ~x] (same edge-id order) without the intermediate
    edge list; the §7.1 family at million-vertex scale. *)
val lower_bound_gn_stream : int -> x:int -> Graph.t

(** [gnp ~seed n ~p ~wmax] is Gilbert's G(n, p) with independent uniform
    weights in [[1, wmax]], sampled by per-row geometric skips — O(E)
    work and allocation, never Theta(n^2) coin flips. Deterministic in
    [(seed, n, p, wmax)].

    With [~connected:true] (default [false]) a path backbone
    [(i, i+1)] is woven in wherever the row's own sample did not already
    produce that edge, guaranteeing connectivity (flood and SPT targets
    require it) at the cost of at most [n - 1] extra edges. *)
val gnp : ?connected:bool -> seed:int -> int -> p:float -> wmax:int -> Graph.t
