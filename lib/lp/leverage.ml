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

(* sigma_i = e_i^T M (M^T M)^{-1} M^T e_i = d_i^2 a_i^T (M^T M)^{-1} a_i
   with M = diag(scale) a.  The n normal solves against the basis vectors
   give (M^T M)^{-1} column by column; each score then reads only the
   entries at row i's nonzero columns, O(nnz(a_i)^2) per row.  The n
   solves share one right-hand-side buffer. *)
let exact op =
  let a = op.a and scale = op.scale in
  let n = Sparse.cols a in
  let e = Vec.zeros n in
  let inv =
    Array.init n (fun j ->
        e.(j) <- 1.0;
        let col = op.solve_normal e in
        e.(j) <- 0.0;
        col)
  in
  Vec.init (Sparse.rows a) (fun i ->
      let acc = ref 0.0 in
      Sparse.iter_row a i (fun j aij ->
          let col = inv.(j) in
          Sparse.iter_row a i (fun k aik ->
              acc := !acc +. (aij *. aik *. col.(k))));
      let si = scale.(i) in
      si *. si *. !acc)

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
