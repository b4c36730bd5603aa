(** Approximate leverage scores (Algorithm 6, [ComputeLeverageScores];
    Lemma 4.5).

    [sigma(M) = diag(M (M^T M)^{-1} M^T)].  Using
    [sigma(M)_i = ||M (M^T M)^{-1} M^T e_i||_2^2] and a seed-driven JL
    projection [Q], each probe [j] computes
    [p^(j) = M (M^T M)^{-1} M^T Q^(j)] with one [M^T]-matvec, one normal
    system solve, and one [M]-matvec; [sigma ≈ sum_j (p^(j))^2]. *)

module Vec = Lbcc_linalg.Vec
module Sparse = Lbcc_linalg.Sparse

type operator = {
  a : Sparse.t;  (** the [m x n] constraint matrix *)
  scale : Vec.t;  (** row scale [d]: the operator is [M = diag(d) a] *)
  solve_normal : Vec.t -> Vec.t;
      (** [(M^T M)^{-1} z] to high precision, as a fresh vector.  Must not
          keep [z]: {!exact} reuses one right-hand-side buffer across its
          solves and keeps every result. *)
  solve_rounds : int;
      (** the [T(n,m)] of Theorem 1.4: rounds charged per normal solve *)
}
(** A row-scaled sparse operator with its normal-system backend; [M x] and
    [M^T y] are derived from [a] and [scale]. *)

val of_row_scaled : ?solve_rounds:int -> Sparse.t -> Vec.t -> operator
(** [of_row_scaled a d] is the operator for [M = diag(d) * a], with the
    normal solves done by dense factorization of the Gram matrix (the
    reference backend; flow instances override with the Laplacian path). *)

val apply : operator -> Vec.t -> Vec.t
(** [M x]. *)

val apply_t : operator -> Vec.t -> Vec.t
(** [M^T y]. *)

val exact : operator -> Vec.t
(** Exact leverage scores from one normal solve per column: the [n] solves
    [(M^T M)^{-1} e_j] give the inverse column by column, and each score is
    read from its own row, [sigma_i = d_i^2 sum_{j,k} a_ij a_ik
    ((M^T M)^{-1})_jk] over the nonzeros of [a_i].  [n] solves per call
    instead of [m]; each entry equals [(M (M^T M)^{-1} M^T e_i)_i] up to
    rounding.  Charges nothing itself: the IPM charges an exact evaluation
    as [m] distributed probes (DESIGN.md §6).  Reference for tests and
    small instances. *)

val approximate :
  ?accountant:Lbcc_net.Rounds.t ->
  prng:Lbcc_util.Prng.t ->
  eta:float ->
  operator ->
  Vec.t
(** The distributed algorithm: the leader draws a seed ([Theta(log^2 m)]
    bits, charged as one broadcast), every vertex expands [Q], and
    [k = O(log(m)/eta^2)] probes are evaluated, each charged two vector
    exchanges plus [solve_rounds]. *)

val sum_check : Vec.t -> rank:int -> float
(** [sum sigma_i] must equal [rank(M)]; returns the relative deviation —
    a cheap global sanity certificate used by tests. *)
