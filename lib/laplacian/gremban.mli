(** Gremban's reduction from SDD systems to Laplacian systems (Section 5,
    following Kelner et al.'s notation).

    A symmetric diagonally dominant matrix [M] with nonpositive off-diagonal
    entries splits as [M = C1 + C2 + M_n] where [C1(u,u) = sum_v |M(u,v)|]
    over off-diagonals, [M_n] is the off-diagonal part and [C2 >= 0] the
    diagonal slack.  The doubled Laplacian

    {[ L = [ C1 + C2/2 + M_n   -C2/2          ]
           [ -C2/2             C1 + C2/2 + M_n ] ]}

    is the Laplacian of a virtual graph on [2n] vertices; solving
    [L (x1, x2) = (y, -y)] yields [x = (x1 - x2)/2] with [M x = y].  In the
    Broadcast Congested Clique each real vertex simulates its two virtual
    copies, so rounds double (Lemma 5.1). *)

module Vec = Lbcc_linalg.Vec
module Dense = Lbcc_linalg.Dense
module Graph = Lbcc_graph.Graph

val is_sdd_nonpositive_offdiag : ?tol:float -> Dense.t -> bool
(** Symmetric, diagonally dominant, with all off-diagonal entries [<= 0]. *)

val virtual_graph : Dense.t -> Graph.t
(** The doubled graph whose Laplacian is [L] above.
    @raise Invalid_argument if [is_sdd_nonpositive_offdiag] fails, or if the
    matrix has zero slack everywhere and the reduction would disconnect
    (in that case the input is itself a Laplacian: solve it directly). *)

val solve : Dense.t -> Vec.t -> Vec.t
(** Exact solve of [M x = y] through the reduction (reference path). *)

val prepare : Dense.t -> Vec.t -> Vec.t
(** [prepare m] builds the doubled graph and factors its Laplacian once;
    the returned closure solves [M x = y] for any [y], bit-identically to
    [solve m y].  The closure reuses the factorization's scratch buffers,
    so it must be called sequentially.
    @raise Failure if the factorization finds a (numerically) singular
    pivot. *)

val solve_with :
  laplacian_solve:(Graph.t -> Vec.t -> Vec.t) -> Dense.t -> Vec.t -> Vec.t
(** Same, but delegating the doubled Laplacian system to the given solver —
    e.g. the Theorem 1.3 solver — as the min-cost-flow pipeline does. *)
