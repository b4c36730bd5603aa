open Lbcc_util
module Vec = Lbcc_linalg.Vec
module Sparse = Lbcc_linalg.Sparse
module Rounds = Lbcc_net.Rounds

type weighting = Lewis | Unweighted
type weight_update = [ `Recompute | `Paper ]
type leverage_mode = [ `Exact | `Jl of float ]

type config = {
  weighting : weighting;
  weight_update : weight_update;
  leverage_mode : leverage_mode;
  step_scale : float;
  lewis_eta : float;
  final_centering : int;
  max_iterations : int;
  t1_c : float;
  delta_target : float;
  max_centering_per_step : int;
  verbose : bool;
}

let default_config =
  {
    weighting = Lewis;
    weight_update = `Recompute;
    leverage_mode = `Exact;
    step_scale = 0.5;
    lewis_eta = 0.05;
    final_centering = 6;
    max_iterations = 200_000;
    t1_c = 1.0;
    delta_target = 0.5;
    max_centering_per_step = 30;
    verbose = false;
  }

type trace = {
  iterations : int;
  centering_calls : int;
  rounds : int;
  max_eq_residual : float;
  final_delta : float;
}

type centering_state = {
  x : Vec.t;
  w : Vec.t;
  delta : float;
}

let p_lewis m = 1.0 -. (1.0 /. log (4.0 *. float_of_int m))
let c_k m = 2.0 *. log (4.0 *. float_of_int m)
let c_norm m = 24.0 *. sqrt 4.0 *. c_k m

(* Normal solves are the IPM's query-phase cost: the operator itself was
   prepared once by the caller (instance broadcast + solver workspaces), so
   the label mirrors the solver service's prepare/query split.  [probes]
   distributed solves are charged as one entry. *)
let charge_solver ?(probes = 1) acc (solver : Problem.normal_solver) =
  match acc with
  | Some a ->
      Rounds.charge a ~label:"query/normal-solve"
        ~rounds:(probes * solver.Problem.rounds)
  | None -> ()

let charge_vector acc label =
  match acc with
  | Some a -> Rounds.charge_vector a ~label ~entry_bits:(Bits.float_bits ())
  | None -> ()

(* Leverage oracle for [diag(d) A_x] with [A_x = diag(spp)^{-1} A]:
   row-scale [A] by [d / spp] and answer normal solves through the
   instance backend.  An exact evaluation is charged as the m basis-vector
   probes a distributed run makes (one T(n,m) solve each), whatever number
   of local solves [Leverage.exact] uses to get the same scores; JL probes
   charge themselves, one solve each. *)
let leverage_oracle ?accountant ~config ~prng ~(problem : Problem.t)
    ~(solver : Problem.normal_solver) ~spp d =
  let dd = Vec.div d spp in
  let d2 = Vec.mul dd dd in
  let op ~charged =
    {
      Leverage.a = problem.Problem.a;
      scale = dd;
      solve_normal =
        (fun z ->
          if charged then charge_solver accountant solver;
          solver.Problem.solve ~d:d2 ~rhs:z);
      solve_rounds = solver.Problem.rounds;
    }
  in
  match config.leverage_mode with
  | `Exact ->
      charge_solver ~probes:(Problem.m problem) accountant solver;
      Leverage.exact (op ~charged:false)
  | `Jl eta -> Leverage.approximate ?accountant ~prng ~eta (op ~charged:true)

(* Regularized Lewis weights at [x], warm-started from [w_prev]. *)
let lewis_weights ?accountant ~config ~prng ~problem ~solver ~x ~w_prev () =
  let m = Problem.m problem and n = Problem.n problem in
  let spp = Vec.map sqrt (Problem.phi'' problem x) in
  let leverage d =
    leverage_oracle ?accountant ~config ~prng ~problem ~solver ~spp d
  in
  let c0 = float_of_int n /. (2.0 *. float_of_int m) in
  let w0 = Vec.map (fun wi -> Float.max (wi -. c0) 1e-9) w_prev in
  let w, _ =
    Lewis.fixed_point ~leverage ~p:(p_lewis m) ~w0 ~eta:config.lewis_eta ()
  in
  Lewis.regularized w ~n ~m

(* P_{x,w} y = y - W^{-1} A_x (A_x^T W^{-1} A_x)^{-1} A_x^T y. *)
let project ?accountant ~(problem : Problem.t) ~(solver : Problem.normal_solver)
    ~w ~spp y =
  let a = problem.Problem.a in
  let z = Sparse.matvec_t a (Vec.div y spp) in
  let d = Vec.init (Vec.dim w) (fun i -> 1.0 /. (w.(i) *. spp.(i) *. spp.(i))) in
  charge_solver accountant solver;
  let s = solver.Problem.solve ~d ~rhs:z in
  let corr = Vec.div (Sparse.matvec a s) (Vec.mul w spp) in
  Vec.sub y corr

let mixed_norm ~w ~cnorm y = Vec.norm_inf y +. (cnorm *. Vec.weighted_norm w y)

let centering_inexact ?accountant ~config ~prng ~problem ~solver ~t ~cost state =
  let m = Problem.m problem in
  let x = state.x and w = state.w in
  let pp' = Problem.phi' problem x in
  let pp'' = Problem.phi'' problem x in
  let spp = Vec.map sqrt pp'' in
  let y =
    Vec.init m (fun i -> ((t *. cost.(i)) +. (w.(i) *. pp'.(i))) /. (w.(i) *. spp.(i)))
  in
  let py = project ?accountant ~problem ~solver ~w ~spp y in
  charge_vector accountant "ipm-step-exchange";
  let delta_paper = mixed_norm ~w ~cnorm:(c_norm m) py in
  let delta = mixed_norm ~w ~cnorm:1.0 py in
  (* Damped Newton step, with backtracking to preserve strict interiority
     (the theory keeps delta small enough that the full step is safe; the
     calibrated constants occasionally are not, so we guard). *)
  let step = Vec.div py spp in
  let damping = if delta <= 0.25 then 1.0 else 1.0 /. (1.0 +. delta) in
  let rec attempt eta_step tries =
    let x_new = Vec.sub x (Vec.scale eta_step step) in
    if Problem.interior problem x_new then x_new
    else if tries = 0 then x
    else attempt (eta_step /. 2.0) (tries - 1)
  in
  let x_new = attempt damping 60 in
  (* Feasibility restoration: inexact normal solves let [A^T x - b] drift;
     cancel the residual with a correction in the row space,
     [x -= D0 A s] with [A^T D0 A s = A^T x - b], backtracked to stay
     interior (a partial correction still shrinks the residual). *)
  let x_new =
    let a = problem.Problem.a in
    let r = Vec.sub (Sparse.matvec_t a x_new) problem.Problem.b in
    let scale = Float.max 1.0 (Vec.norm2 problem.Problem.b) in
    if Vec.norm2 r <= 1e-12 *. scale then x_new
    else begin
      let pp''_new = Problem.phi'' problem x_new in
      let d0 = Vec.init m (fun i -> 1.0 /. (w.(i) *. pp''_new.(i))) in
      charge_solver accountant solver;
      let s = solver.Problem.solve ~d:d0 ~rhs:r in
      let corr = Vec.mul d0 (Sparse.matvec a s) in
      let rnorm = Vec.norm2 r in
      (* Accept the largest backtracked step that stays interior AND
         shrinks the residual: with badly conditioned normal solves the
         "correction" can point the wrong way, and applying it blindly
         compounds the drift. *)
      let rec fix eta_fix tries =
        if tries = 0 then x_new
        else begin
          let cand = Vec.sub x_new (Vec.scale eta_fix corr) in
          if Problem.interior problem cand then begin
            let r_cand = Vec.sub (Sparse.matvec_t a cand) problem.Problem.b in
            if Vec.norm2 r_cand < rnorm then cand else fix (eta_fix /. 2.0) (tries - 1)
          end
          else fix (eta_fix /. 2.0) (tries - 1)
        end
      in
      fix 1.0 40
    end
  in
  let w_new =
    match config.weighting with
    | Unweighted -> w
    | Lewis -> (
        match config.weight_update with
        | `Recompute ->
            lewis_weights ?accountant ~config ~prng ~problem ~solver ~x:x_new
              ~w_prev:w ()
        | `Paper ->
            (* Algorithm 11, lines 4-6. *)
            let ck = c_k m in
            let r = 1.0 /. (768.0 *. ck *. ck *. log (36.0 *. float_of_int m)) in
            let eta = 1.0 /. (2.0 *. ck) in
            let spp_new = Vec.map sqrt (Problem.phi'' problem x_new) in
            let leverage d =
              leverage_oracle ?accountant ~config ~prng ~problem ~solver
                ~spp:spp_new d
            in
            let n = Problem.n problem in
            let c0 = float_of_int n /. (2.0 *. float_of_int m) in
            let w0 = Vec.map (fun wi -> Float.max (wi -. c0) 1e-9) w in
            let apx, _ =
              Lewis.compute_apx_weights ~leverage ~p:(p_lewis m) ~w0
                ~eta:(Float.max (Float.exp r -. 1.0) 1e-3)
                ()
            in
            let z = Vec.map log (Lewis.regularized apx ~n ~m) in
            let mu = eta /. (12.0 *. r) in
            let v = Vec.map2 (fun zi wi -> mu *. (zi -. log wi)) z w in
            let grad = Vec.map (fun vi -> Float.exp vi -. Float.exp (-.vi)) v in
            let l = Vec.map (fun wi -> c_norm m *. sqrt wi) w in
            let proj =
              Mixed_ball.maximize ?accountant ~a:(Vec.neg grad) ~l ()
            in
            let scale = (1.0 -. (6.0 /. (7.0 *. ck))) *. delta_paper in
            let u = Vec.scale scale proj.Mixed_ball.x in
            Vec.map2 (fun wi ui -> Float.max 1e-12 (wi *. Float.exp ui)) w u)
  in
  { x = x_new; w = w_new; delta }

let median3 a b c = Float.max (Float.min a b) (Float.min (Float.max a b) c)

let path_following ?accountant ~config ~prng ~problem ~solver ~x ~w ~t_start
    ~t_end ~eta ~cost () =
  if t_start <= 0.0 || t_end <= 0.0 then
    invalid_arg "Ipm.path_following: path parameters must be positive";
  let c1 = Float.max 1.0 (Vec.norm1 w) in
  let alpha = config.step_scale /. sqrt c1 in
  let state = ref { x; w; delta = 0.0 } in
  let t = ref t_start in
  let iterations = ref 0 and centering_calls = ref 0 in
  let max_eq = ref 0.0 in
  let observe () =
    max_eq := Float.max !max_eq (Problem.equality_residual problem !state.x)
  in
  let center_until_good t =
    (* One mandatory step, then repeat while the centrality measure exceeds
       the target (the theory's constants make one step suffice; the
       calibrated ones occasionally need more). *)
    let tries = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      incr tries;
      incr centering_calls;
      state :=
        centering_inexact ?accountant ~config ~prng ~problem ~solver ~t ~cost
          !state;
      observe ();
      if !state.delta <= config.delta_target || !tries >= config.max_centering_per_step
      then continue_ := false
    done
  in
  while !t <> t_end && !iterations < config.max_iterations do
    incr iterations;
    center_until_good !t;
    t := median3 ((1.0 -. alpha) *. !t) t_end ((1.0 +. alpha) *. !t);
    if config.verbose && !iterations mod 50 = 0 then
      Format.eprintf "  [pf] iter=%d t=%.3e delta=%.3f@." !iterations !t
        !state.delta
  done;
  let extra =
    Stdlib.min config.final_centering
      (Stdlib.max 1 (int_of_float (Float.ceil (4.0 *. log (1.0 /. Float.min 0.5 eta)))))
  in
  for _ = 1 to extra do
    incr centering_calls;
    state :=
      centering_inexact ?accountant ~config ~prng ~problem ~solver ~t:t_end
        ~cost !state;
    observe ()
  done;
  let trace =
    {
      iterations = !iterations;
      centering_calls = !centering_calls;
      rounds = (match accountant with Some a -> Rounds.rounds a | None -> 0);
      max_eq_residual = !max_eq;
      final_delta = !state.delta;
    }
  in
  (!state.x, !state.w, trace)

let initial_weights ?accountant ~config ~prng ~problem ~solver ~x0 () =
  let m = Problem.m problem and n = Problem.n problem in
  match config.weighting with
  | Unweighted -> (Vec.ones m, 0)
  | Lewis ->
      let spp = Vec.map sqrt (Problem.phi'' problem x0) in
      let leverage_for ~p:_ d =
        leverage_oracle ?accountant ~config ~prng ~problem ~solver ~spp d
      in
      let w, steps =
        Lewis.compute_initial_weights ~leverage_for ~m ~n
          ~p_target:(p_lewis m) ~eta:config.lewis_eta ()
      in
      (Lewis.regularized w ~n ~m, steps)

let lp_solve ?accountant ?(config = default_config) ~prng ~problem ~solver ~x0
    ~eps () =
  if eps <= 0.0 then invalid_arg "Ipm.lp_solve: eps must be positive";
  if not (Problem.interior problem x0) then
    invalid_arg "Ipm.lp_solve: x0 must be strictly interior";
  Rounds.with_phase_opt accountant "ipm" @@ fun () ->
  let m = float_of_int (Problem.m problem) in
  let u = Problem.big_u problem ~x0 in
  let w, _ = initial_weights ?accountant ~config ~prng ~problem ~solver ~x0 () in
  (* Auxiliary cost making x0 exactly central at t = 1. *)
  let d = Vec.neg (Vec.mul w (Problem.phi' problem x0)) in
  let logm = log (Float.max m 2.0) in
  let t1 =
    config.t1_c /. ((m ** 1.5) *. u *. u *. (logm ** 4.0)) |> Float.max 1e-300
  in
  let t2 = 2.0 *. m /. eps in
  let eta1 = 1e-2 in
  let eta2 = eps /. (8.0 *. u *. u) in
  if config.verbose then
    Format.eprintf "[lp_solve] m=%g U=%.3g t1=%.3e t2=%.3e@." m u t1 t2;
  let x', w', trace1 =
    path_following ?accountant ~config ~prng ~problem ~solver ~x:x0 ~w
      ~t_start:1.0 ~t_end:t1 ~eta:eta1 ~cost:d ()
  in
  let x_final, _, trace2 =
    path_following ?accountant ~config ~prng ~problem ~solver ~x:x' ~w:w'
      ~t_start:t1 ~t_end:t2 ~eta:eta2 ~cost:problem.Problem.c ()
  in
  let trace =
    {
      iterations = trace1.iterations + trace2.iterations;
      centering_calls = trace1.centering_calls + trace2.centering_calls;
      rounds = (match accountant with Some a -> Rounds.rounds a | None -> 0);
      max_eq_residual = Float.max trace1.max_eq_residual trace2.max_eq_residual;
      final_delta = trace2.final_delta;
    }
  in
  (x_final, trace)
