(* dist: a fixed seeded mix of [Bfs]/[Sssp]/[Leader] [run_reliable] runs
   (the Crash_safe tier) at drop probability 0.1, on Erdős–Rényi graphs, in
   the Broadcast CONGEST and Broadcast Congested Clique models.

   The only workload on [Engine] and [Reliable]: every op is a vertex
   program behind the ack/retransmit layer over a lossy engine.  Each pass
   runs [mix] once on every graph, so the mix is the same on every seed; the
   seed draws the graphs, sources and fault schedules. *)

open Lbcc_util
open Common
module Graph = Lbcc_graph.Graph
module Gen = Lbcc_graph.Gen
module Rounds = Lbcc_net.Rounds
module Model = Lbcc_net.Model
module Fault = Lbcc_net.Fault
module Bfs = Lbcc_dist.Bfs
module Sssp = Lbcc_dist.Sssp
module Leader = Lbcc_dist.Leader

let n = 56
let graphs = 6
let drop_prob = 0.1

type protocol = Bfs_p | Sssp_p | Leader_p

let bc = Model.broadcast_congest
let bcc = Model.broadcast_congested_clique

(* Per graph: (protocol, model, runs), each run with its own source and
   fault schedule.  The ops fall into three cost clusters — BFS and
   clique-model leader election (~10-30 ms), SSSP and leader election in
   Broadcast CONGEST (~0.1 s), clique-model SSSP (~0.5 s) — and the weights
   put the median inside the middle cluster and the tail inside the top one,
   never on a boundary between clusters, where they would jump. *)
let mix =
  [
    (Bfs_p, bc, 1);
    (Bfs_p, bcc, 1);
    (Leader_p, bcc, 1);
    (Sssp_p, bc, 3);
    (Leader_p, bc, 2);
    (Sssp_p, bcc, 1);
  ]

type input = {
  graph : Graph.t;
  source : int;
  protocol : protocol;
  model : Model.t;
  fault_seed : int;
}

(* [answers.(i)]: output digest and convergence of the first untraced run
   of input [i], for the deferred comparison with the lossless run. *)
type state = { inputs : input array; answers : (string * bool) option array }

(* One run of the protocol; [faults = None] is the raw lossless engine.
   Returns the output's digest and whether the run converged. *)
let execute ?accountant ?faults inp =
  let model = inp.model and graph = inp.graph and source = inp.source in
  let digest s = Digest.to_hex (Digest.string s) in
  let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  let floats a = String.concat "," (Array.to_list (Array.map (Printf.sprintf "%h") a)) in
  match (inp.protocol, faults) with
  | Bfs_p, None ->
      let r = Bfs.run ?accountant ~model ~graph ~source () in
      (digest (ints r.Bfs.dist), r.Bfs.converged)
  | Bfs_p, Some faults ->
      let r = Bfs.run_reliable ?accountant ~faults ~model ~graph ~source () in
      (digest (ints r.Bfs.dist), r.Bfs.converged)
  | Sssp_p, None ->
      let r = Sssp.run ?accountant ~model ~graph ~source () in
      (digest (floats r.Sssp.dist), r.Sssp.converged)
  | Sssp_p, Some faults ->
      let r = Sssp.run_reliable ?accountant ~faults ~model ~graph ~source () in
      (digest (floats r.Sssp.dist), r.Sssp.converged)
  | Leader_p, None ->
      let r = Leader.run ?accountant ~model ~graph () in
      (digest (string_of_int r.Leader.leader), r.Leader.converged)
  | Leader_p, Some faults ->
      let r = Leader.run_reliable ?accountant ~faults ~model ~graph () in
      (digest (string_of_int r.Leader.leader), r.Leader.converged)

let faults inp = Fault.create ~seed:inp.fault_seed (Fault.spec ~drop_prob ())

let key ~rounds ~bits (digest, converged) =
  Printf.sprintf "rounds=%d bits=%d output=%s converged=%b" rounds bits digest
    converged

(* The op: one reliable run under its fault schedule.  With [layers], the
   raw lossless run on the same input is timed first, and the op's
   allocation and retransmission share are recorded. *)
let run_op ?layers inp =
  let acc = Rounds.create ~bandwidth:(Model.bandwidth ~n:(Graph.n inp.graph)) in
  (match layers with
  | Some l ->
      Layers.time l "engine.lossless_s" (fun () -> ignore (execute inp : string * bool))
  | None -> ());
  let faults = faults inp in
  match measured (fun () -> execute ~accountant:acc ~faults inp) with
  | out, lat, words ->
      let rounds = Rounds.rounds acc and bits = Rounds.bits acc in
      (match layers with
      | Some l ->
          Layers.add l "rounds" (float_of_int rounds);
          Layers.add l "reliable_s" lat;
          Layers.add l "words" words;
          Layers.add l "retransmit_rounds"
            (float_of_int (rounds_matching "/retransmit" (Rounds.breakdown acc)))
      | None -> ());
      (op ~lat ~rounds ~bits ~ok:(snd out) ~words (key ~rounds ~bits out), out)
  | exception e -> (raised ~lat:0.0 e, ("", false))

let setup ~seed ~seconds:_ =
  let prng = Prng.create seed in
  let inputs =
    List.init graphs (fun _ ->
        let graph = Gen.erdos_renyi_connected prng ~n ~p:0.3 ~w_max:8 in
        List.concat_map
          (fun (protocol, model, runs) ->
            List.init runs (fun _ ->
                let source = Prng.int prng n in
                { graph; source; protocol; model; fault_seed = Prng.int prng 1_000_000 }))
          mix)
    |> List.concat |> Array.of_list
  in
  (* Warm-up: the first graph's clique-model SSSP, the mix's heaviest op. *)
  ignore
    (run_op
       (List.find
          (fun i -> i.protocol = Sssp_p && i.model = bcc)
          (Array.to_list inputs)));
  { inputs; answers = Array.make (Array.length inputs) None }

let run st ~traced ~seconds =
  let layers = Layers.create () in
  let ops, wall =
    closed_loop ~seconds st.inputs (fun i inp ->
        if traced then fst (run_op ~layers inp)
        else
          let o, out = run_op inp in
          if Option.is_none st.answers.(i) then st.answers.(i) <- Some out;
          o)
  in
  let nops = float_of_int (Array.length ops) in
  let rounds = Layers.get layers "rounds" in
  let per_round v = if rounds > 0.0 then v /. rounds else 0.0 in
  let lossless = Layers.get layers "engine.lossless_s" in
  let layer_values =
    if not traced then []
    else
      [
        ("engine.lossless_s", lossless /. nops);
        ("reliable.overhead_s", (Layers.get layers "reliable_s" -. lossless) /. nops);
        ("reliable.retransmit_share", per_round (Layers.get layers "retransmit_rounds"));
        ("engine.us_per_round", 1e6 *. per_round (Layers.get layers "reliable_s"));
        ("engine.minor_words_per_round", per_round (Layers.get layers "words"));
      ]
  in
  {
    ops;
    wall;
    invalid = None;
    layers = layer_values;
    notes =
      [
        ("n", Lbcc_obs.Json.Int n);
        ("graphs", Lbcc_obs.Json.Int graphs);
        ("drop_prob", Lbcc_obs.Json.Float drop_prob);
        ("ops_per_pass", Lbcc_obs.Json.Int (Array.length st.inputs));
      ];
  }

(* After the timed phase, once per distinct input: the reliable run's
   output equals the raw lossless run's, and both converged. *)
let check st (pass : pass) =
  let verdict inp answer =
    match (answer, execute inp) with
    | None, _ -> Some "no answer recorded"
    | Some (d, conv), (d0, conv0) ->
        if not (conv && conv0) then Some "run did not converge"
        else if d <> d0 then Some "output differs from the lossless run"
        else None
    | exception e -> Some (Printexc.to_string e)
  in
  let bad = Array.map2 verdict st.inputs st.answers in
  let k = Array.length st.inputs in
  List.filter_map
    (fun i -> Option.map (fun why -> (i, why)) bad.(i mod k))
    (List.init (Array.length pass.ops) Fun.id)

(* One pool lane, so the host-speed kernel, which runs on one lane, sees
   what the ops see: over ten runs the scaled median spread 9% of itself
   at two lanes and 6% at one (each op is ~25% slower at one). *)
let workload = W { lanes = 1; open_loop = false; setup; run; check }
