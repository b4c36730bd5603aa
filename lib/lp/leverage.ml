open Lbcc_util
module Vec = Lbcc_linalg.Vec
module Dense = Lbcc_linalg.Dense
module Sparse = Lbcc_linalg.Sparse
module Rounds = Lbcc_net.Rounds

type operator = {
  a : Sparse.t;
  scale : Vec.t;
  solve_normal : Vec.t -> Vec.t;
  solve_rounds : int;
}

let of_row_scaled ?(solve_rounds = 1) a d =
  if Vec.dim d <> Sparse.rows a then
    invalid_arg "Leverage.of_row_scaled: dimension mismatch";
  (* Gram matrix (DA)^T (DA) = A^T D^2 A, factored once per operator. *)
  let gram = Sparse.gram a (Vec.mul d d) in
  let factor = lazy (Dense.factorize gram) in
  let solve_normal z = Dense.solve_factored (Lazy.force factor) z in
  { a; scale = d; solve_normal; solve_rounds }

let apply op x = Vec.mul op.scale (Sparse.matvec op.a x)
let apply_t op y = Sparse.matvec_t op.a (Vec.mul op.scale y)

(* sigma_i = e_i^T M (M^T M)^{-1} M^T e_i with M = diag(scale) a.  Row i of
   M is the only one [M^T e_i] touches, so the right-hand side is
   [scale_i * a_i] and only entry i of [M s] is read back.  Both are built
   with [Sparse.iter_row] in the accumulation order of [Sparse.matvec_t]
   and [Sparse.matvec], so each score is bit-identical to
   [apply (solve_normal (apply_t e_i))].(i) at O(nnz(a_i)) cost around the
   solve instead of O(nnz(a) + m).  One normal solve per row, as before. *)
let exact op =
  let a = op.a and scale = op.scale in
  let rhs = Vec.zeros (Sparse.cols a) in
  Vec.init (Sparse.rows a) (fun i ->
      let si = scale.(i) in
      Array.fill rhs 0 (Vec.dim rhs) 0.0;
      Sparse.iter_row a i (fun j v -> rhs.(j) <- rhs.(j) +. (v *. si));
      let s = op.solve_normal rhs in
      let acc = ref 0.0 in
      Sparse.iter_row a i (fun j v -> acc := !acc +. (v *. s.(j)));
      si *. !acc)

let approximate ?accountant ~prng ~eta op =
  if eta <= 0.0 then invalid_arg "Leverage.approximate: eta must be positive";
  let m = Sparse.rows op.a in
  (* Never use more probes than exact computation needs: for small [m]
     (simulation scale) the JL constants exceed [m], and [m] basis probes
     compute sigma exactly at the same communication pattern. *)
  let k_jl = Jl.rows_for ~m ~eta:(eta /. 4.0) in
  let k = Stdlib.min k_jl m in
  let use_basis = k >= m in
  (* The leader samples Theta(log^2 m) bits and broadcasts them: one
     broadcast superstep of that size. *)
  let seed = Int64.to_int (Prng.next_int64 prng) in
  (match accountant with
  | Some acc ->
      Rounds.charge_broadcast acc ~label:"leverage-seed" ~bits:(Jl.seed_bits ~m)
  | None -> ());
  let sigma = Vec.zeros m in
  for j = 0 to k - 1 do
    let q = if use_basis then Vec.basis m j else Jl.row ~seed ~k ~j ~m in
    (match accountant with
    | Some acc ->
        (* M^T q and M y are vector exchanges; the normal solve charges
           itself through the operator ([solve_rounds] documents it). *)
        Rounds.charge_vector acc ~label:"leverage-matvec" ~entry_bits:(Bits.float_bits ());
        Rounds.charge_vector acc ~label:"leverage-matvec" ~entry_bits:(Bits.float_bits ())
    | None -> ());
    let p = apply op (op.solve_normal (apply_t op q)) in
    for i = 0 to m - 1 do
      sigma.(i) <- sigma.(i) +. (p.(i) *. p.(i))
    done
  done;
  sigma

let sum_check sigma ~rank =
  let s = Vec.sum sigma in
  Float.abs (s -. float_of_int rank) /. float_of_int (Stdlib.max rank 1)
