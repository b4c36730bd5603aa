(* serve: an in-process [Daemon] driven from one thread through
   [handle]/[tick]/[take_output] — no sockets, no fork — serving a warm
   [Fleet] of Erdős–Rényi graphs.

   Requests follow an open-loop seeded schedule (one request per slot of a
   fixed rate, due at a seeded instant of it): zipf-distributed reads
   ([Solve], and [Resistance] for a quarter of them) over the first
   [read_graphs] graphs, plus a few percent [Update]
   writes built by [Gen.delta] against the remaining graphs.  Reads and
   writes touch disjoint graphs so every count is a function of the seed,
   while a write still holds the single daemon thread and delays the reads
   queued behind it.  Every request is timed from its due time, so a stall
   is charged to all the requests it delays; how late the generator itself
   ran is reported, and a run where it fell behind is invalid.

   [Sched] coalescing, the query path of [Prepared.solve_many] and
   [Sparsify.update] do the work here; [Proto] frames every request and
   response as a socket client would. *)

open Lbcc_util
open Common
module Graph = Lbcc_graph.Graph
module Gen = Lbcc_graph.Gen
module Vec = Lbcc_linalg.Vec
module Json = Lbcc_obs.Json
module Ctx = Lbcc_service.Ctx
module Prepared = Lbcc_service.Prepared
module Fingerprint = Lbcc_service.Fingerprint
module Fleet = Lbcc_serve.Fleet
module Daemon = Lbcc_serve.Daemon
module Proto = Lbcc_serve.Proto
module Workload = Lbcc_serve.Workload

let n = 64
let fleet_graphs = 6
let read_graphs = 4
(* A read costs about 0.7 ms and a write 0.1-0.18 s on a 2-core host, so
   capacity at this mix is about 115 requests/s.  The offered rate keeps the
   daemon about a fifth busy: the backlog never grows, four reads in five
   meet an idle daemon (so the median is a read's own cost), and the tail —
   the 11th-slowest of ~470 reads — is the wait of the read queued behind
   about the 11th-slowest of the ~31 writes. *)
let rate = 25.0 (* requests per second *)
let write_every = 16
let behind_write_s = 0.001
let resistance_frac = 0.25
let eps = 1e-8
let sample_frac = 0.1 (* reads re-derived by direct [Prepared] calls *)

(* Validity limits on the generator's lateness (admission time minus due
   time): beyond them the daemon could not keep up with the offered rate
   and the latencies would measure a growing backlog. *)
let max_late_p50_s = 0.05
let max_late_s = 2.0

type request = {
  due : float;  (** seconds after the measured phase starts *)
  req : Proto.request;
  expect : string option;  (** an update's post-delta fingerprint *)
  sampled : bool;  (** a read checked against a direct solve *)
}

type state = {
  seed : int;
  daemon : Daemon.t;
  schedule : request array;
  mutable answers : Proto.response option array;
      (** the untraced pass's responses, by request id, for [check] *)
}

let fleet_config seed =
  {
    Fleet.default_config with
    Fleet.seed;
    graphs = fleet_graphs;
    vertices = n;
    family = Fleet.Er;
    networks = 0;
  }

let graph_name i = Printf.sprintf "g%d" i

(* The seeded request schedule over [horizon] seconds: [rate * horizon]
   requests, request [i] due at a seeded instant of [\[i, i+1) / rate], and
   every [write_every]-th an update — so the count of each kind is fixed and
   only which graph, vector and delta varies with the seed.  The read after
   each update is due [behind_write_s] after it, so every write has a read
   queued behind it: the tail is then a rank among those waits, one per
   write, rather than among the few reads that happened to land early in
   a write.  Each write graph's deltas form a chain (delta k is drawn
   against the graph after deltas 1..k-1), which the daemon applies in
   admission order. *)
let schedule ~seed ~horizon (fleet : Fleet.t) =
  let prng = Prng.create (seed lxor 0x5e5e) in
  let cdf = Workload.zipf_cdf ~s:1.0 ~n:read_graphs in
  let current =
    Array.of_list (List.map (fun (e : Fleet.entry) -> e.Fleet.graph) fleet.Fleet.entries)
  in
  let last_due = ref 0.0 in
  Array.init
    (int_of_float (Float.round (rate *. horizon)))
    (fun i ->
      let due =
        if i > 0 && i mod write_every = 0 then !last_due +. behind_write_s
        else (float_of_int i +. Prng.float prng) /. rate
      in
      last_due := due;
      if i mod write_every = write_every - 1 then begin
        let g = read_graphs + Prng.int prng (fleet_graphs - read_graphs) in
        let delta =
          Gen.delta ~connected:true prng ~graph:current.(g) ~inserts:2 ~deletes:1
            ~reweights:2 ()
        in
        current.(g) <- Graph.apply current.(g) delta;
        {
          due;
          req = Proto.Update { name = graph_name g; delta };
          expect = Some (Fingerprint.to_hex (Fingerprint.graph current.(g)));
          sampled = false;
        }
      end
      else
        let name = graph_name (Workload.sample_zipf prng cdf) in
        let op_seed = Prng.int prng 1_000_000_000 in
        let req =
          if Prng.bernoulli prng resistance_frac then
            let s, t = Workload.st_pair ~n ~op_seed in
            Proto.Resistance { name; eps; s; t }
          else Proto.Solve { name; eps; b = Workload.rhs ~n ~op_seed }
        in
        { due; req; expect = None; sampled = Prng.bernoulli prng sample_frac })

let payload frame = Bytes.sub frame 4 (Bytes.length frame - 4)

(* One request through the codec and the daemon: encode as a client would,
   decode as the server loop would, hand it to the daemon. *)
let submit ?layers d ~id req =
  let t0 = now () in
  let id, req = Proto.decode_request (payload (Proto.encode_request ~id req)) in
  let t1 = now () in
  Daemon.handle d ~client:0 ~id req;
  match layers with
  | Some l ->
      Layers.add l "codec_s" (t1 -. t0);
      Layers.add l "handle_s" (now () -. t1)
  | None -> ()

let setup ~seed ~seconds =
  let fleet = Fleet.build (fleet_config seed) in
  let schedule = schedule ~seed ~horizon:seconds fleet in
  let daemon = Daemon.create { Daemon.default_config with Daemon.seed } fleet in
  (* Warm-up: one solve through the whole request path. *)
  submit daemon ~id:0 (Proto.Solve { name = graph_name 0; eps; b = Workload.rhs ~n ~op_seed:seed });
  Daemon.drain daemon;
  ignore (Daemon.take_output daemon : (int * Bytes.t) list);
  { seed; daemon; schedule; answers = [||] }

let response_key = function
  | Proto.Solution { iterations; rounds; bits; _ } ->
      Printf.sprintf "solve rounds=%d bits=%d iterations=%d" rounds bits iterations
  | Proto.Resistance_r { rounds; bits; _ } ->
      Printf.sprintf "resistance rounds=%d bits=%d" rounds bits
  | Proto.Update_r { n; m; fingerprint; rounds; bits } ->
      Printf.sprintf "update rounds=%d bits=%d n=%d m=%d fingerprint=%s" rounds bits
        n m fingerprint
  | Proto.Error_r { message; _ } -> "error: " ^ message
  | Proto.Flow_r _ | Proto.Json_r _ | Proto.Ok_r -> "unexpected response"

let response_counts = function
  | Proto.Solution { rounds; bits; _ }
  | Proto.Resistance_r { rounds; bits; _ }
  | Proto.Update_r { rounds; bits; _ } ->
      (rounds, bits)
  | Proto.Error_r _ | Proto.Flow_r _ | Proto.Json_r _ | Proto.Ok_r -> (0, 0)

let stats_value stats path =
  List.fold_left
    (fun j k -> Option.bind j (Json.member k))
    (Some stats) path
  |> Fun.flip Option.bind Json.to_float
  |> Option.value ~default:0.0

let run st ~traced ~seconds =
  let d = st.daemon in
  let layers = if traced then Some (Layers.create ()) else None in
  let reqs =
    Array.of_list (List.filter (fun r -> r.due < seconds) (Array.to_list st.schedule))
  in
  let count = Array.length reqs in
  let late = Array.make count 0.0 in
  let answer_at = Array.make count 0.0 in
  let answers = Array.make count None in
  let answered = ref 0 and next = ref 0 in
  let read_ticks = ref 0 and write_ticks = ref 0 in
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let collect () =
    let wrote = ref false in
    List.iter
      (fun (_, frame) ->
        let c0 = now () in
        let id, resp = Proto.decode_response (payload frame) in
        let c1 = now () in
        Option.iter (fun l -> Layers.add l "codec_s" (c1 -. c0)) layers;
        (match resp with Proto.Update_r _ -> wrote := true | _ -> ());
        answer_at.(id) <- c1 -. t0;
        answers.(id) <- Some resp;
        incr answered)
      (Daemon.take_output d);
    !wrote
  in
  let tick ~force =
    let k0 = now () in
    let ran = Daemon.tick ~force d in
    let dt = now () -. k0 in
    (if ran then
       let wrote = collect () in
       match layers with
       | Some l ->
           if wrote then (incr write_ticks; Layers.add l "write_tick_s" dt)
           else (incr read_ticks; Layers.add l "read_tick_s" dt)
       | None -> ());
    ran
  in
  (* Until every request is answered — or, should the daemon lose one, until
     nothing is left to submit, queue or emit. *)
  let stalled () = !next = count && Daemon.pending d = 0 && not (Daemon.output_pending d) in
  (* The host-speed kernel runs once in each idle gap long enough to hold
     it several times over, so it never delays a request. *)
  let sampled_before = ref (-1) in
  while !answered < count && not (stalled ()) do
    let t = now () -. t0 in
    while !next < count && reqs.(!next).due <= t do
      let i = !next in
      late.(i) <- (now () -. t0) -. reqs.(i).due;
      submit ?layers d ~id:i reqs.(i).req;
      ignore (collect () : bool);
      incr next
    done;
    while tick ~force:false do () done;
    if Daemon.pending d > 0 then ignore (tick ~force:true : bool)
    else if !next < count then begin
      if !sampled_before < !next
         && reqs.(!next).due -. (now () -. t0) > 4.0 *. Host.nominal_s
      then begin
        sampled_before := !next;
        ignore (Host.sample () : float)
      end;
      Unix.sleepf (Float.max 0.0 (reqs.(!next).due -. (now () -. t0)))
    end
  done;
  let wall = now () -. t0 in
  let words = Gc.minor_words () -. w0 in
  if not traced then st.answers <- answers;
  let ops =
    Array.mapi
      (fun i r ->
        match answers.(i) with
        | None -> raised ~lat:0.0 (Failure "no response")
        | Some resp ->
            let rounds, bits = response_counts resp in
            let key = response_key resp in
            let ok, cls =
              match (resp, r.expect) with
              | Proto.Update_r { fingerprint; _ }, Some fp -> (fingerprint = fp, `Write)
              | (Proto.Solution _ | Proto.Resistance_r _), None -> (true, `Read)
              | _, Some _ -> (false, `Write)
              | _, None -> (false, `Read)
            in
            op ~cls ~at:(t0 +. answer_at.(i)) ~lat:(answer_at.(i) -. r.due) ~rounds
              ~bits ~ok key)
      reqs
  in
  let late_sorted = sorted late in
  let quantile q =
    if count = 0 then 0.0
    else late_sorted.(Stdlib.min (count - 1) (int_of_float (q *. float_of_int count)))
  in
  let invalid =
    if quantile 0.5 > max_late_p50_s || quantile 1.0 > max_late_s then
      Some
        (Printf.sprintf
           "generator fell behind: lateness p50 %.3fs (limit %.3fs), max %.3fs \
            (limit %.1fs)"
           (quantile 0.5) max_late_p50_s (quantile 1.0) max_late_s)
    else None
  in
  let layer_values =
    match layers with
    | None -> []
    | Some l ->
        let stats = Daemon.stats_json d in
        let hits = stats_value stats [ "cache"; "hits" ]
        and misses = stats_value stats [ "cache"; "misses" ] in
        let per k v = if k > 0 then v /. float_of_int k else 0.0 in
        let writes =
          Array.of_list
            (List.filter_map
               (fun o -> if o.cls = `Write then Some o.lat else None)
               (Array.to_list ops))
        in
        [
          ("proto.codec_us", 1e6 *. per count (Layers.get l "codec_s"));
          ("daemon.handle_us", 1e6 *. per count (Layers.get l "handle_s"));
          ("daemon.read_tick_s", per !read_ticks (Layers.get l "read_tick_s"));
          ("daemon.write_tick_s", per !write_ticks (Layers.get l "write_tick_s"));
          ("sched.batch_occupancy", stats_value stats [ "slo"; "batch_occupancy"; "p50" ]);
          ( "sched.queue_wait_batches_p99",
            stats_value stats [ "slo"; "queue_wait_batches"; "p99" ] );
          ( "prepared.cache_hit_ratio",
            if hits +. misses > 0.0 then hits /. (hits +. misses) else 0.0 );
          ("serve.write_p50_s", median writes);
          ("serve.generator_late_p99_s", quantile 0.99);
          ("serve.minor_words_per_op", per count words);
        ]
  in
  {
    ops;
    wall;
    invalid;
    layers = layer_values;
    notes =
      [
        ("n", Json.Int n);
        ("fleet_graphs", Json.Int fleet_graphs);
        ("rate_per_s", Json.Float rate);
        ("write_every", Json.Int write_every);
        ("requests", Json.Int count);
        ( "writes",
          Json.Int (Array.fold_left (fun k r -> if r.expect <> None then k + 1 else k) 0 reqs) );
        ("generator_late_p50_s", Json.Float (quantile 0.5));
        ("generator_late_p99_s", Json.Float (quantile 0.99));
        ("generator_late_max_s", Json.Float (quantile 1.0));
      ];
  }

(* After the timed phase: each sampled read must be bit-equal to a direct
   [Prepared] solve on a fleet built from the same seed. *)
let check st (pass : pass) =
  let fleet = Fleet.build (fleet_config st.seed) in
  let ctx = Ctx.make ~seed:st.seed () in
  let handles = Hashtbl.create read_graphs in
  let handle name =
    match Hashtbl.find_opt handles name with
    | Some h -> h
    | None ->
        let e = Option.get (Fleet.find fleet name) in
        let h = Prepared.create ~ctx e.Fleet.graph in
        Hashtbl.add handles name h;
        h
  in
  let direct = function
    | Proto.Solve { name; eps; b } ->
        let q = Prepared.solve ~eps (handle name) ~b in
        Proto.Solution
          {
            solution = q.Prepared.solution;
            residual = q.Prepared.residual;
            iterations = q.Prepared.iterations;
            rounds = q.Prepared.rounds;
            bits = q.Prepared.bits;
          }
    | Proto.Resistance { name; eps; s; t } ->
        let b = Vec.zeros n in
        b.(s) <- 1.0;
        b.(t) <- -1.0;
        let q = Prepared.solve ~eps (handle name) ~b in
        Proto.Resistance_r
          {
            resistance = q.Prepared.solution.(s) -. q.Prepared.solution.(t);
            rounds = q.Prepared.rounds;
            bits = q.Prepared.bits;
          }
    | _ -> invalid_arg "serve check: not a read"
  in
  let encoded resp = Proto.encode_response ~id:0 resp in
  let failures = ref [] in
  Array.iteri
    (fun i r ->
      if r.sampled && i < Array.length pass.ops then
        match (direct r.req, st.answers.(i)) with
        | expected, Some got ->
            if not (Bytes.equal (encoded expected) (encoded got)) then
              failures := (i, "read differs from a direct Prepared solve") :: !failures
        | _, None -> failures := (i, "no response recorded") :: !failures
        | exception e -> failures := (i, Printexc.to_string e) :: !failures)
    st.schedule;
  List.rev !failures

(* One pool lane: at two, the read tail moved 4x between runs (0.077-0.32 s
   over four seeds, against 0.072-0.084 s at one lane), most likely because
   a write tick's parallel sections wait on whichever vCPU the 2-vCPU host
   has descheduled. *)
let workload = W { lanes = 1; open_loop = true; setup; run; check }
