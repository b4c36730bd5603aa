open Lbcc_util
module Network = Lbcc_flow.Network
module Maxflow = Lbcc_flow.Maxflow
module Mcmf = Lbcc_flow.Mcmf
module Mcmf_lp = Lbcc_flow.Mcmf_lp
module Vec = Lbcc_linalg.Vec
module Problem = Lbcc_lp.Problem
module Leverage = Lbcc_lp.Leverage
module Lbcc = Lbcc_core.Lbcc

let diamond () =
  (* s=0, t=3; two parallel routes with different costs. *)
  Network.make ~n:4 ~source:0 ~sink:3
    [
      { Network.src = 0; dst = 1; capacity = 2; cost = 1 };
      { src = 0; dst = 2; capacity = 2; cost = 5 };
      { src = 1; dst = 3; capacity = 2; cost = 1 };
      { src = 2; dst = 3; capacity = 2; cost = 1 };
      { src = 1; dst = 2; capacity = 1; cost = 0 };
    ]

(* ------------------------------------------------------------------ *)
(* Network                                                             *)

let test_network_validation () =
  Alcotest.check_raises "source = sink" (Invalid_argument "Network.make: source = sink")
    (fun () -> ignore (Network.make ~n:2 ~source:0 ~sink:0 []));
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Network.make: negative capacity") (fun () ->
      ignore
        (Network.make ~n:2 ~source:0 ~sink:1
           [ { Network.src = 0; dst = 1; capacity = -1; cost = 0 } ]))

let test_network_flow_checks () =
  let net = diamond () in
  let good = [| 2.0; 1.0; 2.0; 1.0; 0.0 |] in
  Alcotest.(check bool) "valid flow" true (Network.is_flow net good);
  Alcotest.(check (float 1e-12)) "value" 3.0 (Network.flow_value net good);
  Alcotest.(check (float 1e-12)) "cost" 10.0 (Network.flow_cost net good);
  let over = [| 3.0; 0.0; 3.0; 0.0; 0.0 |] in
  Alcotest.(check bool) "capacity violation" false (Network.is_flow net over);
  let leak = [| 2.0; 0.0; 1.0; 0.0; 0.0 |] in
  Alcotest.(check bool) "conservation violation" false (Network.is_flow net leak)

let test_network_random_generator () =
  for seed = 1 to 5 do
    let prng = Prng.create seed in
    let net = Network.random prng ~n:12 ~density:0.2 ~max_capacity:5 ~max_cost:7 in
    Alcotest.(check bool) "positive max flow" true ((Maxflow.dinic net).Maxflow.value > 0);
    Array.iter
      (fun (a : Network.arc) ->
        Alcotest.(check bool) "bounds" true
          (a.capacity >= 1 && a.capacity <= 5 && a.cost >= 0 && a.cost <= 7))
      net.Network.arcs
  done

let test_network_layered_generator () =
  let prng = Prng.create 6 in
  let net = Network.layered prng ~layers:3 ~width:4 ~max_capacity:3 ~max_cost:5 in
  Alcotest.(check int) "vertex count" (2 + 12) net.Network.n;
  Alcotest.(check bool) "positive flow" true ((Maxflow.dinic net).Maxflow.value > 0)

let test_undirected_support () =
  let net = diamond () in
  let g = Network.undirected_support net in
  Alcotest.(check int) "n" 4 (Lbcc_graph.Graph.n g);
  Alcotest.(check int) "m (deduped)" 5 (Lbcc_graph.Graph.m g)

let test_transportation_known_optimum () =
  (* Two suppliers (3, 2), two consumers (2, 3); costs [[1, 4]; [2, 1]]:
     optimum ships 2 from s0->c0 (2), 1 from s0->c1 (4), 2 from s1->c1 (2)
     ... the true optimum is s0->c0:2 @1, s1->c1:2 @1, s0->c1:1 @4 = 8. *)
  let net =
    Network.transportation ~supplies:[| 3; 2 |] ~demands:[| 2; 3 |]
      ~costs:[| [| 1; 4 |]; [| 2; 1 |] |]
  in
  let r = Mcmf.solve net in
  Alcotest.(check int) "ships everything" 5 r.Mcmf.value;
  Alcotest.(check int) "optimal cost" 8 r.Mcmf.cost

let test_transportation_via_ipm () =
  let net =
    Network.transportation ~supplies:[| 2; 2 |] ~demands:[| 1; 3 |]
      ~costs:[| [| 3; 1 |]; [| 2; 2 |] |]
  in
  let r = Mcmf_lp.solve ~prng:(Prng.create 120) net in
  Alcotest.(check bool) "exact" true r.Mcmf_lp.matches_baseline

let test_transportation_validation () =
  Alcotest.check_raises "ragged"
    (Invalid_argument "Network.transportation: ragged cost matrix") (fun () ->
      ignore
        (Network.transportation ~supplies:[| 1; 1 |] ~demands:[| 2 |]
           ~costs:[| [| 1 |]; [| 1; 2 |] |]))

(* ------------------------------------------------------------------ *)
(* Dinic                                                               *)

let test_dinic_diamond () =
  let r = Maxflow.dinic (diamond ()) in
  Alcotest.(check int) "max flow" 4 r.Maxflow.value;
  Alcotest.(check bool) "flow is valid" true (Network.is_flow (diamond ()) r.Maxflow.flow);
  Alcotest.(check (float 1e-12)) "flow value matches" 4.0
    (Network.flow_value (diamond ()) r.Maxflow.flow)

let test_dinic_bottleneck () =
  let net =
    Network.make ~n:3 ~source:0 ~sink:2
      [
        { Network.src = 0; dst = 1; capacity = 10; cost = 0 };
        { src = 1; dst = 2; capacity = 3; cost = 0 };
      ]
  in
  Alcotest.(check int) "bottleneck" 3 (Maxflow.dinic net).Maxflow.value

let test_dinic_disconnected () =
  let net =
    Network.make ~n:4 ~source:0 ~sink:3
      [ { Network.src = 0; dst = 1; capacity = 5; cost = 0 } ]
  in
  Alcotest.(check int) "no path" 0 (Maxflow.dinic net).Maxflow.value

(* Max-flow = min-cut on small instances: check the flow value against a
   brute-force minimum cut. *)
let brute_force_min_cut (net : Network.t) =
  let n = net.Network.n in
  let best = ref max_int in
  for mask = 0 to (1 lsl n) - 1 do
    let side v = mask land (1 lsl v) <> 0 in
    if side net.Network.source && not (side net.Network.sink) then begin
      let cut = ref 0 in
      Array.iter
        (fun (a : Network.arc) ->
          if side a.src && not (side a.dst) then cut := !cut + a.capacity)
        net.Network.arcs;
      best := Stdlib.min !best !cut
    end
  done;
  !best

let test_dinic_equals_min_cut () =
  for seed = 1 to 8 do
    let prng = Prng.create (40 + seed) in
    let net = Network.random prng ~n:7 ~density:0.3 ~max_capacity:6 ~max_cost:3 in
    Alcotest.(check int)
      (Printf.sprintf "maxflow = mincut (seed %d)" seed)
      (brute_force_min_cut net)
      (Maxflow.dinic net).Maxflow.value
  done

(* ------------------------------------------------------------------ *)
(* SSP mcmf                                                            *)

let test_mcmf_diamond () =
  let r = Mcmf.solve (diamond ()) in
  Alcotest.(check int) "max flow" 4 r.Mcmf.value;
  (* Cheapest max flow: 2 units via 0-1-3 (cost 2 each) saturate; 1 unit
     0-1-2-3? cap(0,1)=2 already used; remaining 2 units via 0-2-3 at cost 6
     each: total 2*2 + 2*6 = 16. *)
  Alcotest.(check int) "min cost" 16 r.Mcmf.cost;
  Alcotest.(check bool) "valid" true (Network.is_flow (diamond ()) r.Mcmf.flow)

let test_mcmf_value_matches_dinic () =
  for seed = 1 to 8 do
    let prng = Prng.create (60 + seed) in
    let net = Network.random prng ~n:10 ~density:0.25 ~max_capacity:5 ~max_cost:9 in
    Alcotest.(check int)
      (Printf.sprintf "values agree (seed %d)" seed)
      (Maxflow.dinic net).Maxflow.value (Mcmf.solve net).Mcmf.value
  done

(* Optimality certificate: an optimal min-cost max-flow admits no negative
   cycle in its residual network (Bellman–Ford detection). *)
let has_negative_residual_cycle (net : Network.t) flow =
  let n = net.Network.n in
  let edges = ref [] in
  Array.iteri
    (fun i (a : Network.arc) ->
      if flow.(i) < float_of_int a.capacity -. 1e-9 then
        edges := (a.src, a.dst, float_of_int a.cost) :: !edges;
      if flow.(i) > 1e-9 then edges := (a.dst, a.src, -.float_of_int a.cost) :: !edges)
    net.Network.arcs;
  let dist = Array.make n 0.0 in
  let changed = ref true and rounds = ref 0 in
  while !changed && !rounds <= n do
    changed := false;
    incr rounds;
    List.iter
      (fun (u, v, c) ->
        if dist.(u) +. c < dist.(v) -. 1e-9 then begin
          dist.(v) <- dist.(u) +. c;
          changed := true
        end)
      !edges
  done;
  !changed

let test_mcmf_no_negative_residual_cycle () =
  for seed = 1 to 8 do
    let prng = Prng.create (80 + seed) in
    let net = Network.random prng ~n:10 ~density:0.3 ~max_capacity:4 ~max_cost:8 in
    let r = Mcmf.solve net in
    Alcotest.(check bool)
      (Printf.sprintf "optimal residual (seed %d)" seed)
      false
      (has_negative_residual_cycle net r.Mcmf.flow)
  done

let test_mcmf_rejects_negative_costs () =
  Alcotest.check_raises "negative costs"
    (Invalid_argument "Network.make: negative cost") (fun () ->
      ignore
        (Network.make ~n:2 ~source:0 ~sink:1
           [ { Network.src = 0; dst = 1; capacity = 1; cost = -1 } ]))

(* ------------------------------------------------------------------ *)
(* LP formulation                                                      *)

let test_lp_build_well_formed () =
  let prng = Prng.create 90 in
  let net = Network.random prng ~n:8 ~density:0.3 ~max_capacity:4 ~max_cost:4 in
  let inst = Mcmf_lp.build ~prng:(Prng.create 91) net in
  Alcotest.(check int) "n_lp = |V| - 1" (net.Network.n - 1) inst.Mcmf_lp.n_lp;
  Alcotest.(check int) "m_lp = |E| + 2(|V|-1) + 1"
    (Network.m net + (2 * (net.Network.n - 1)) + 1)
    inst.Mcmf_lp.m_lp;
  Alcotest.(check bool) "x0 interior" true
    (Problem.interior inst.Mcmf_lp.problem inst.Mcmf_lp.x0);
  Alcotest.(check bool) "x0 feasible" true
    (Problem.equality_residual inst.Mcmf_lp.problem inst.Mcmf_lp.x0 < 1e-9)

let test_lp_perturbation_preserves_order () =
  let prng = Prng.create 92 in
  let net = Network.random prng ~n:8 ~density:0.3 ~max_capacity:4 ~max_cost:6 in
  let inst = Mcmf_lp.build ~prng:(Prng.create 93) net in
  Array.iteri
    (fun e q ->
      let base = float_of_int net.Network.arcs.(e).Network.cost in
      Alcotest.(check bool) "q <= q~ < q + 1/2" true (q >= base && q < base +. 0.5))
    inst.Mcmf_lp.qtilde

let test_lp_normal_solver_matches_dense () =
  let prng = Prng.create 94 in
  let net = Network.random prng ~n:7 ~density:0.35 ~max_capacity:3 ~max_cost:3 in
  let inst = Mcmf_lp.build ~prng:(Prng.create 95) net in
  let lap = Mcmf_lp.laplacian_normal_solver inst in
  let dense = Problem.dense_normal_solver inst.Mcmf_lp.problem in
  let prng2 = Prng.create 96 in
  for _ = 1 to 5 do
    let d = Vec.init inst.Mcmf_lp.m_lp (fun _ -> 0.1 +. Prng.float prng2) in
    let rhs = Vec.init inst.Mcmf_lp.n_lp (fun _ -> Prng.gaussian prng2) in
    let x1 = lap.Problem.solve ~d ~rhs in
    let x2 = dense.Problem.solve ~d ~rhs in
    Alcotest.(check bool) "gremban = dense" true
      (Vec.dist2 x1 x2 < 1e-6 *. Float.max 1.0 (Vec.norm2 x2))
  done

(* The factor cache must be invisible: every call returns the bits a
   freshly built solver returns for the same [d], whatever came before. *)
let test_lp_normal_solver_cache backend () =
  let net =
    Network.random (Prng.create 2022) ~n:7 ~density:0.3 ~max_capacity:6
      ~max_cost:5
  in
  let inst = Mcmf_lp.build ~prng:(Prng.create 1) net in
  let m = inst.Mcmf_lp.m_lp and n = inst.Mcmf_lp.n_lp in
  let prng = Prng.create 99 in
  let draw () = Vec.init m (fun _ -> 10.0 ** (4.0 *. (Prng.float prng -. 0.5))) in
  let rhs = Vec.init n (fun _ -> Prng.gaussian prng) in
  let d1 = draw () and d2 = draw () in
  let fresh d =
    (Mcmf_lp.laplacian_normal_solver ~backend inst).Problem.solve ~d ~rhs
  in
  let cached = Mcmf_lp.laplacian_normal_solver ~backend inst in
  let check name d =
    Alcotest.(check bool) name true
      (Vec.equal_bits (fresh d) (cached.Problem.solve ~d ~rhs))
  in
  check "d1" d1;
  check "d2" d2;
  check "d1 again" d1;
  check "d1 hit" d1;
  (* The caller's array mutated in place between calls. *)
  let d = Vec.copy d1 in
  check "before mutation" d;
  d.(0) <- d.(0) *. 2.0;
  Alcotest.(check bool) "mutation moves the solution" false
    (Vec.equal_bits (fresh d) (fresh d1));
  check "after mutation" d;
  (* A one-ulp change must miss: pick an entry whose ulp moves the fresh
     solution, so that a stale factor would show. *)
  let bumped k =
    let d' = Vec.copy d1 in
    d'.(k) <- Float.succ d'.(k);
    d'
  in
  let k =
    List.find
      (fun k -> not (Vec.equal_bits (fresh (bumped k)) (fresh d1)))
      (List.init m Fun.id)
  in
  check "d1 before ulp" d1;
  check "one ulp up" (bumped k);
  check "one ulp back" d1;
  (* Zeros of either sign floor to the same positive key entry, so the
     sign of a zero in [d] never reaches the factor; the key comparison
     itself tells [0.0] from [-0.0] (see the Vec.equal_bits test). *)
  let zeroed z =
    let d' = Vec.copy d1 in
    d'.(0) <- z;
    d'
  in
  check "+0.0 entry" (zeroed 0.0);
  check "-0.0 entry" (zeroed (-0.0));
  check "+0.0 entry again" (zeroed 0.0)

(* Leverage.exact's column path against the textbook formula
   sigma_i = (M (M^T M)^{-1} M^T e_i)_i on the flow LP, with the Laplacian
   normal solver and with the dense reference backend: the scores agree to
   rounding, sum to rank(M) = n, and one evaluation makes exactly n normal
   solves (one per column of A), not one per row. *)
let test_leverage_column_solves () =
  let net =
    Network.random (Prng.create 2023) ~n:7 ~density:0.3 ~max_capacity:6
      ~max_cost:5
  in
  let inst = Mcmf_lp.build ~prng:(Prng.create 1) net in
  let a = inst.Mcmf_lp.problem.Problem.a in
  let m = inst.Mcmf_lp.m_lp and n = Lbcc_linalg.Sparse.cols a in
  let solver = Mcmf_lp.laplacian_normal_solver inst in
  let basis_formula op =
    Vec.init m (fun i ->
        let p =
          Leverage.apply op
            (op.Leverage.solve_normal (Leverage.apply_t op (Vec.basis m i)))
        in
        p.(i))
  in
  let check name op =
    let solves = ref 0 in
    let counted =
      {
        op with
        Leverage.solve_normal =
          (fun z ->
            incr solves;
            op.Leverage.solve_normal z);
      }
    in
    let sigma = Leverage.exact counted in
    Alcotest.(check int) (name ^ ": one normal solve per column") n !solves;
    let reference = basis_formula op in
    Array.iteri
      (fun i s ->
        let r = reference.(i) in
        if Float.abs (s -. r) > 1e-12 *. Float.abs r then
          Alcotest.failf "%s: sigma_%d = %.17g, basis formula %.17g" name i s r)
      sigma;
    Alcotest.(check bool) (name ^ ": sum = rank") true
      (Leverage.sum_check sigma ~rank:n <= 1e-12)
  in
  List.iter
    (fun seed ->
      let prng = Prng.create seed in
      let d = Vec.init m (fun _ -> 10.0 ** (6.0 *. (Prng.float prng -. 0.5))) in
      check
        (Printf.sprintf "laplacian backend, seed %d" seed)
        {
          Leverage.a;
          scale = d;
          solve_normal = (fun z -> solver.Problem.solve ~d:(Vec.mul d d) ~rhs:z);
          solve_rounds = 1;
        };
      check
        (Printf.sprintf "dense backend, seed %d" seed)
        (Leverage.of_row_scaled a d))
    [ 1; 2; 3; 4 ]

let test_lp_column_of_vertex () =
  let net = diamond () in
  let inst = Mcmf_lp.build ~prng:(Prng.create 97) net in
  Alcotest.(check int) "vertex 1" 0 (Mcmf_lp.column_of_vertex inst 1);
  Alcotest.(check int) "vertex 3" 2 (Mcmf_lp.column_of_vertex inst 3);
  Alcotest.check_raises "source" (Invalid_argument "Mcmf_lp: the source has no LP column")
    (fun () -> ignore (Mcmf_lp.column_of_vertex inst 0))

let test_lp_solve_diamond_exact () =
  let r = Mcmf_lp.solve ~prng:(Prng.create 98) (diamond ()) in
  Alcotest.(check bool) "feasible" true r.Mcmf_lp.feasible;
  Alcotest.(check int) "value" 4 r.Mcmf_lp.value;
  Alcotest.(check int) "cost" 16 r.Mcmf_lp.cost;
  Alcotest.(check bool) "matches baseline" true r.Mcmf_lp.matches_baseline

let test_lp_solve_random_exact () =
  for seed = 1 to 3 do
    let prng = Prng.create (100 + seed) in
    let net = Network.random prng ~n:7 ~density:0.25 ~max_capacity:4 ~max_cost:5 in
    let r = Mcmf_lp.solve ~prng:(Prng.create (200 + seed)) net in
    Alcotest.(check bool)
      (Printf.sprintf "exact (seed %d): v=%d c=%d" seed r.Mcmf_lp.value r.Mcmf_lp.cost)
      true r.Mcmf_lp.matches_baseline
  done

let test_lp_solve_charges_rounds () =
  let acc = Lbcc_net.Rounds.create ~bandwidth:8 in
  let r = Mcmf_lp.solve ~accountant:acc ~prng:(Prng.create 99) (diamond ()) in
  Alcotest.(check bool) "rounds charged" true (r.Mcmf_lp.rounds > 0)

let test_lp_solve_unit_capacities () =
  (* The regime of [FGLP+21]'s CONGEST algorithm; Theorem 1.1 needs no
     unit-capacity assumption but must of course handle it. *)
  let prng = Prng.create 110 in
  let net = Network.random prng ~n:7 ~density:0.3 ~max_capacity:1 ~max_cost:4 in
  let r = Mcmf_lp.solve ~prng:(Prng.create 111) net in
  Alcotest.(check bool) "unit capacities exact" true r.Mcmf_lp.matches_baseline

let test_lp_solve_zero_costs () =
  (* Pure max-flow as a degenerate min-cost instance. *)
  let prng = Prng.create 112 in
  let net = Network.random prng ~n:7 ~density:0.3 ~max_capacity:5 ~max_cost:0 in
  let r = Mcmf_lp.solve ~prng:(Prng.create 113) net in
  Alcotest.(check bool) "zero costs exact" true r.Mcmf_lp.matches_baseline;
  Alcotest.(check int) "cost zero" 0 r.Mcmf_lp.cost

let test_lp_solve_disconnected_sink () =
  (* No augmenting path: optimum is the zero flow. *)
  let net =
    Network.make ~n:5 ~source:0 ~sink:4
      [
        { Network.src = 0; dst = 1; capacity = 3; cost = 1 };
        { src = 1; dst = 2; capacity = 3; cost = 1 };
        { src = 4; dst = 3; capacity = 2; cost = 1 };
      ]
  in
  let r = Mcmf_lp.solve ~prng:(Prng.create 114) net in
  Alcotest.(check int) "zero flow" 0 r.Mcmf_lp.value;
  Alcotest.(check bool) "matches baseline" true r.Mcmf_lp.matches_baseline

let test_lp_solve_single_path () =
  let net =
    Network.make ~n:4 ~source:0 ~sink:3
      [
        { Network.src = 0; dst = 1; capacity = 5; cost = 2 };
        { src = 1; dst = 2; capacity = 3; cost = 1 };
        { src = 2; dst = 3; capacity = 7; cost = 3 };
      ]
  in
  let r = Mcmf_lp.solve ~prng:(Prng.create 115) net in
  Alcotest.(check int) "bottleneck value" 3 r.Mcmf_lp.value;
  Alcotest.(check int) "path cost" (3 * (2 + 1 + 3)) r.Mcmf_lp.cost;
  Alcotest.(check bool) "exact" true r.Mcmf_lp.matches_baseline

let test_lp_gremban_backend_end_to_end () =
  (* The paper's own normal-solver path, end to end on a small instance. *)
  let net = diamond () in
  let inst = Mcmf_lp.build ~prng:(Prng.create 116) net in
  let solver = Mcmf_lp.laplacian_normal_solver ~backend:`Gremban inst in
  let mm = 5.0 in
  let x_lp, _ =
    Lbcc_lp.Ipm.lp_solve ~prng:(Prng.create 117) ~problem:inst.Mcmf_lp.problem
      ~solver ~x0:inst.Mcmf_lp.x0
      ~eps:(1.0 /. (12.0 *. mm))
      ()
  in
  let flow = Mcmf_lp.round_flow inst x_lp in
  let base = Mcmf.solve net in
  Alcotest.(check bool) "feasible" true (Network.is_flow net flow);
  Alcotest.(check int) "value" base.Mcmf.value
    (int_of_float (Network.flow_value net flow))

(* ------------------------------------------------------------------ *)
(* Public API                                                          *)

let test_core_min_cost_max_flow () =
  let r = Lbcc_core.Lbcc.min_cost_max_flow (diamond ()) in
  Alcotest.(check bool) "exact" true r.Lbcc_core.Lbcc.exact;
  Alcotest.(check int) "value" 4 r.Lbcc_core.Lbcc.value

(* Networks whose late IPM iterates used to make LU cancel a pivot to zero
   (a grounding diagonal ~1e-40 under a Laplacian part ~1e19), raising an
   untyped Failure from the front door; the shifted refactorization now
   carries them to an exact, feasible flow. *)
let test_core_formerly_singular () =
  List.iter
    (fun (seed, n) ->
      let net =
        Network.random (Prng.create seed) ~n ~density:0.3 ~max_capacity:6
          ~max_cost:5
      in
      let r = Lbcc.min_cost_max_flow ~ctx:(Lbcc.Ctx.make ~seed:1 ()) net in
      let name = Printf.sprintf "seed %d, n=%d" seed n in
      Alcotest.(check bool) (name ^ ": exact") true r.Lbcc.exact;
      Alcotest.(check bool) (name ^ ": flow") true (Network.is_flow net r.Lbcc.flow))
    [ (6027, 6); (2040, 8); (2060, 8) ]

let test_core_sparsify_and_solve () =
  let prng = Prng.create 120 in
  let g = Lbcc_graph.Gen.erdos_renyi_connected prng ~n:32 ~p:0.4 ~w_max:4 in
  let s = Lbcc_core.Lbcc.sparsify ~epsilon:0.5 ~t:4 g in
  Alcotest.(check bool) "rounds" true (s.Lbcc_core.Lbcc.rounds.Lbcc_core.Lbcc.total > 0);
  let b = Vec.mean_center (Vec.init 32 (fun i -> float_of_int (i mod 5))) in
  let r = Lbcc_core.Lbcc.solve_laplacian g ~b in
  Alcotest.(check bool) "residual" true (r.Lbcc_core.Lbcc.residual < 1e-6)

let test_core_effective_resistance () =
  (* Series path of unit resistors: R(0, k) = k. *)
  let g =
    Lbcc_graph.Graph.create ~n:4
      [
        { Lbcc_graph.Graph.u = 0; v = 1; w = 1.0 };
        { u = 1; v = 2; w = 1.0 };
        { u = 2; v = 3; w = 1.0 };
      ]
  in
  let r = Lbcc_core.Lbcc.effective_resistance g ~s:0 ~t:3 in
  Alcotest.(check (float 1e-6)) "series resistance" 3.0
    r.Lbcc_core.Lbcc.resistance

let suites =
  [
    ( "flow.network",
      [
        Alcotest.test_case "validation" `Quick test_network_validation;
        Alcotest.test_case "flow checks" `Quick test_network_flow_checks;
        Alcotest.test_case "random generator" `Quick test_network_random_generator;
        Alcotest.test_case "layered generator" `Quick test_network_layered_generator;
        Alcotest.test_case "undirected support" `Quick test_undirected_support;
        Alcotest.test_case "transportation optimum" `Quick
          test_transportation_known_optimum;
        Alcotest.test_case "transportation via ipm" `Slow test_transportation_via_ipm;
        Alcotest.test_case "transportation validation" `Quick
          test_transportation_validation;
      ] );
    ( "flow.dinic",
      [
        Alcotest.test_case "diamond" `Quick test_dinic_diamond;
        Alcotest.test_case "bottleneck" `Quick test_dinic_bottleneck;
        Alcotest.test_case "disconnected" `Quick test_dinic_disconnected;
        Alcotest.test_case "equals min cut" `Quick test_dinic_equals_min_cut;
      ] );
    ( "flow.mcmf",
      [
        Alcotest.test_case "diamond" `Quick test_mcmf_diamond;
        Alcotest.test_case "value matches dinic" `Quick test_mcmf_value_matches_dinic;
        Alcotest.test_case "no negative residual cycle" `Quick
          test_mcmf_no_negative_residual_cycle;
        Alcotest.test_case "rejects negative costs" `Quick test_mcmf_rejects_negative_costs;
      ] );
    ( "flow.lp",
      [
        Alcotest.test_case "build well-formed" `Quick test_lp_build_well_formed;
        Alcotest.test_case "perturbation" `Quick test_lp_perturbation_preserves_order;
        Alcotest.test_case "normal solver vs dense" `Quick test_lp_normal_solver_matches_dense;
        Alcotest.test_case "normal solver cache (direct)" `Quick
          (test_lp_normal_solver_cache `Direct);
        Alcotest.test_case "normal solver cache (gremban)" `Quick
          (test_lp_normal_solver_cache `Gremban);
        Alcotest.test_case "leverage column solves" `Quick
          test_leverage_column_solves;
        Alcotest.test_case "column mapping" `Quick test_lp_column_of_vertex;
        Alcotest.test_case "diamond exact" `Slow test_lp_solve_diamond_exact;
        Alcotest.test_case "random exact" `Slow test_lp_solve_random_exact;
        Alcotest.test_case "charges rounds" `Slow test_lp_solve_charges_rounds;
        Alcotest.test_case "unit capacities" `Slow test_lp_solve_unit_capacities;
        Alcotest.test_case "zero costs" `Slow test_lp_solve_zero_costs;
        Alcotest.test_case "disconnected sink" `Slow test_lp_solve_disconnected_sink;
        Alcotest.test_case "single path" `Slow test_lp_solve_single_path;
        Alcotest.test_case "gremban backend e2e" `Slow test_lp_gremban_backend_end_to_end;
      ] );
    ( "flow.core_api",
      [
        Alcotest.test_case "min cost max flow" `Slow test_core_min_cost_max_flow;
        Alcotest.test_case "formerly singular networks" `Slow
          test_core_formerly_singular;
        Alcotest.test_case "sparsify and solve" `Slow test_core_sparsify_and_solve;
        Alcotest.test_case "effective resistance" `Quick test_core_effective_resistance;
      ] );
  ]
