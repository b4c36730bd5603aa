(* flow: a closed loop of Thm 1.1 min-cost max-flow calls
   ([Lbcc.min_cost_max_flow]) over a fixed panel of [Network.random]
   instances at the CLI defaults (density 0.3, capacity 6, cost 5).

   The IPM ([Ipm]) and the [Mcmf_lp] normal solve do nearly all the work
   here and none elsewhere.  The cost of one network is heavy-tailed, so a
   list drawn afresh per seed would make every mean a lottery; the panel is
   therefore fixed and the seed only sets the order the loop visits it in.
   The panel is also of one size and one cost class (see [heavy]): the
   median and the tail are order statistics, and over a panel whose costs
   spread 0.1-1 s they land on the two or three networks nearest that rank,
   so one run's value would rest on a handful of op timings.  Over ops of
   one cost they rest on every op of the run. *)

open Lbcc_util
open Common
module Lbcc = Lbcc_core.Lbcc
module Network = Lbcc_flow.Network
module Mcmf_lp = Lbcc_flow.Mcmf_lp
module Mcmf = Lbcc_flow.Mcmf
module Ipm = Lbcc_lp.Ipm
module Problem = Lbcc_lp.Problem
module Rounds = Lbcc_net.Rounds
module Model = Lbcc_net.Model
module Payload = Lbcc_net.Payload

let panel_seed = 2022
let size = 7

(* Networks [panel_seed + i] for i < 29 at |V| = 7, less these five: their
   Laplacian normal solves charge 155M-236M rounds against 24M-37M for the
   rest, and each costs 4-9x the panel's median time.  With them in, the
   tail would fall among these few networks and move with them. *)
let heavy = [ 11; 15; 20; 26; 28 ]
let panel = List.filter (fun i -> not (List.mem i heavy)) (List.init 29 Fun.id)

(* The solver's own seed is pinned so that the panel's counts do not move
   with the workload seed. *)
let solver_seed = 1

let network i =
  Network.random
    (Prng.create (panel_seed + i))
    ~n:size
    ~density:0.3 ~max_capacity:6 ~max_cost:5

type state = { nets : Network.t array }

let key ~rounds ~bits ~iterations ~value ~cost =
  Printf.sprintf "rounds=%d bits=%d ipm_iterations=%d value=%d cost=%d" rounds
    bits iterations value cost

(* The untraced op: the public front door. *)
let plain net =
  let t0 = now () in
  match Lbcc.min_cost_max_flow ~ctx:(Lbcc.Ctx.make ~seed:solver_seed ()) net with
  | r ->
      let lat = now () -. t0 in
      let rounds = r.Lbcc.rounds.Lbcc.total and bits = r.Lbcc.rounds.Lbcc.bits in
      op ~lat ~rounds ~bits
        ~ok:(r.Lbcc.exact && Network.is_flow net r.Lbcc.flow)
        (key ~rounds ~bits ~iterations:r.Lbcc.ipm_iterations ~value:r.Lbcc.value
           ~cost:r.Lbcc.cost)
  | exception e -> raised ~lat:(now () -. t0) e

(* The instance broadcast [Mcmf_lp.solve] charges before the IPM starts
   (every vertex announces its out-arcs), restated here so the traced
   pipeline charges what the front door charges; the fidelity check fails
   if the two drift apart. *)
let charge_instance acc (net : Network.t) =
  let nv = net.Network.n in
  let out_deg = Array.make nv 0 in
  Array.iter
    (fun (a : Network.arc) -> out_deg.(a.src) <- out_deg.(a.src) + 1)
    net.Network.arcs;
  let arc_bits =
    Payload.size
      [
        Payload.Vertex_id nv;
        Payload.Vertex_id nv;
        Payload.Int (Network.max_capacity net);
        Payload.Int (Network.max_cost net);
      ]
  in
  Rounds.charge_vector acc
    ~entries:(Array.fold_left Stdlib.max 1 out_deg)
    ~label:"flow-instance" ~entry_bits:arc_bits

(* The traced op: [Mcmf_lp.solve]'s pipeline assembled from its public
   parts, with a timer around each layer and around every normal solve. *)
let traced_op layers net =
  let t0 = now () and w0 = Gc.minor_words () in
  let acc = Rounds.create ~bandwidth:(Model.bandwidth ~n:net.Network.n) in
  let prng = Prng.create solver_seed in
  let solves = ref 0 in
  let r =
    Rounds.with_phase acc "mcmf" @@ fun () ->
    let inst, solver =
      Rounds.with_phase acc "prepare" @@ fun () ->
      Layers.time layers "mcmf_lp.build_s" (fun () ->
          let inst = Mcmf_lp.build ~prng net in
          charge_instance acc net;
          (inst, Mcmf_lp.laplacian_normal_solver ~accountant:acc inst))
    in
    let timed_solve ~d ~rhs =
      incr solves;
      Layers.time layers "ipm.normal_solve_s" (fun () ->
          solver.Problem.solve ~d ~rhs)
    in
    let mm =
      float_of_int
        (Stdlib.max (Network.max_capacity net) (Network.max_cost net))
    in
    let x_lp, trace =
      Layers.time layers "ipm.lp_solve_s" (fun () ->
          Ipm.lp_solve ~accountant:acc ~config:Ipm.default_config ~prng
            ~problem:inst.Mcmf_lp.problem
            ~solver:{ solver with Problem.solve = timed_solve }
            ~x0:inst.Mcmf_lp.x0
            ~eps:(1.0 /. (12.0 *. mm))
            ())
    in
    let flow, feasible =
      Layers.time layers "mcmf_lp.round_check_s" (fun () ->
          let flow = Mcmf_lp.round_flow inst x_lp in
          (flow, Network.is_flow net flow))
    in
    let baseline = Layers.time layers "mcmf.baseline_s" (fun () -> Mcmf.solve net) in
    let value = int_of_float (Network.flow_value net flow) in
    let cost = int_of_float (Network.flow_cost net flow) in
    Layers.add layers "ipm.iterations" (float_of_int trace.Ipm.iterations);
    Layers.add layers "ipm.centering_calls"
      (float_of_int trace.Ipm.centering_calls);
    ( feasible && value = baseline.Mcmf.value && cost = baseline.Mcmf.cost,
      trace.Ipm.iterations,
      value,
      cost )
  in
  let lat = now () -. t0 and words = Gc.minor_words () -. w0 in
  Layers.add layers "ipm.normal_solves" (float_of_int !solves);
  let ok, iterations, value, cost = r in
  let rounds = Rounds.rounds acc and bits = Rounds.bits acc in
  op ~lat ~rounds ~bits ~ok ~words (key ~rounds ~bits ~iterations ~value ~cost)

let setup ~seed ~seconds:_ =
  let nets = Array.of_list (List.map network panel) in
  Prng.shuffle (Prng.create seed) nets;
  (* Warm-up: one panel network, untimed by the measured phase. *)
  ignore (plain (network 0) : op);
  { nets }

let run st ~traced ~seconds =
  let layers = Layers.create () in
  let ops, wall =
    closed_loop ~seconds st.nets (fun _ net ->
        if not traced then plain net
        else try traced_op layers net with e -> raised ~lat:0.0 e)
  in
  let per_op name = Layers.get layers name /. float_of_int (Array.length ops) in
  let layer_values =
    if not traced then []
    else
      let lp = Layers.get layers "ipm.lp_solve_s"
      and ns = Layers.get layers "ipm.normal_solve_s"
      and calls = Layers.get layers "ipm.normal_solves" in
      [
        ("mcmf_lp.build_s", per_op "mcmf_lp.build_s");
        ("mcmf_lp.round_check_s", per_op "mcmf_lp.round_check_s");
        ("mcmf.baseline_s", per_op "mcmf.baseline_s");
        ("ipm.lp_solve_s", per_op "ipm.lp_solve_s");
        ("ipm.normal_solve_s", per_op "ipm.normal_solve_s");
        ("ipm.normal_solve_us", if calls > 0.0 then 1e6 *. ns /. calls else 0.0);
        ("ipm.other_s", (lp -. ns) /. float_of_int (Array.length ops));
        ("ipm.normal_solves", per_op "ipm.normal_solves");
        ("ipm.iterations", per_op "ipm.iterations");
        ("ipm.centering_calls", per_op "ipm.centering_calls");
      ]
  in
  {
    ops;
    wall;
    invalid = None;
    layers = layer_values;
    notes =
      [
        ("panel_seed", Lbcc_obs.Json.Int panel_seed);
        ("panel_size", Lbcc_obs.Json.Int size);
        ("panel_len", Lbcc_obs.Json.Int (List.length panel));
      ];
  }

(* Every answer is checked inline (exact against the combinatorial
   baseline, and a feasible flow), so nothing is deferred.  One pool lane:
   at |V| = 7 no matrix reaches the library's parallel thresholds, so a
   second lane would only add a parked domain for every minor collection to
   synchronise with — across a vCPU the single-lane host-speed kernel does
   not see. *)
let workload = W { lanes = 1; open_loop = false; setup; run; check = (fun _ _ -> []) }
