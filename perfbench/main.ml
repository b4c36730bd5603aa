(* The repository benchmark: one workload per process.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--source-id ID]

   Set-up (input generation, pool start, warm state, one warm-up op) runs
   [setup_repeats] times and reports its median as [setup_s].  Every
   end-to-end time is scaled to a nominal host speed ([Common.Host]) by
   the reference timings of the seconds around it, taken between ops and on
   each side of each set-up.  With
   [--trace 0] the measured phase runs [S] seconds untraced and the last
   stdout line carries the end-to-end metrics; with [--trace 1] an untraced
   pass and a traced pass of [S/2] seconds each run on the same inputs, the
   traced pass must reproduce the untraced counts op by op, and the last
   line carries the per-layer metrics.  Exit status: 0 when every answer
   checked out, 1 when one did not, 2 on bad arguments, 3 when the run is
   invalid (serve's generator fell behind) and no result is printed. *)

open Common
module Json = Lbcc_obs.Json

let setup_repeats = 5

(* Reference samples taken on each side of one set-up. *)
let setup_samples = 8

let workloads =
  [
    ("flow", Flow_wl.workload);
    ("prepare", Prepare_wl.workload);
    ("serve", Serve_wl.workload);
    ("dist", Dist_wl.workload);
  ]

let end_to_end_units =
  [
    ("setup_s", "s");
    ("ops_per_s", "1/s");
    ("op_p50_s", "s");
    ("op_tail_s", "s");
    ("rounds_per_op", "count");
    ("bits_per_op", "count");
    ("peak_rss_mb", "MB");
  ]

(* Every per-layer metric, each workload's and the shared ones.  A traced
   run prints all of them; a layer the workload does not call reads 0. *)
let per_layer_units =
  [
    ("mcmf_lp.build_s", "s");
    ("mcmf_lp.round_check_s", "s");
    ("mcmf.baseline_s", "s");
    ("ipm.lp_solve_s", "s");
    ("ipm.normal_solve_s", "s");
    ("ipm.normal_solve_us", "us");
    ("ipm.other_s", "s");
    ("ipm.normal_solves", "count");
    ("ipm.iterations", "count");
    ("ipm.centering_calls", "count");
    ("sparsify.run_s", "s");
    ("spanner.rounds", "count");
    ("sparsify.kept_ratio", "ratio");
    ("solver.preprocess_s", "s");
    ("certify.exact_s", "s");
    ("exact.factor_s", "s");
    ("prepared.query_s", "s");
    ("solver.iterations", "count");
    ("proto.codec_us", "us");
    ("daemon.handle_us", "us");
    ("daemon.read_tick_s", "s");
    ("daemon.write_tick_s", "s");
    ("sched.batch_occupancy", "count");
    ("sched.queue_wait_batches_p99", "batches");
    ("prepared.cache_hit_ratio", "ratio");
    ("serve.write_p50_s", "s");
    ("serve.generator_late_p99_s", "s");
    ("engine.lossless_s", "s");
    ("reliable.overhead_s", "s");
    ("reliable.retransmit_share", "ratio");
    ("engine.us_per_round", "us");
    ("engine.minor_words_per_round", "words");
    ("flow.minor_words_per_op", "words");
    ("prepare.minor_words_per_op", "words");
    ("serve.minor_words_per_op", "words");
    ("dist.minor_words_per_op", "words");
    ("trace.overhead_ratio", "ratio");
  ]

let die code fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("perfbench: " ^ msg);
      exit code)
    fmt

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  source_id : string;
}

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None in
  let trace = ref false and source_id = ref "unknown" in
  let int_arg name s =
    match int_of_string_opt s with
    | Some v -> v
    | None -> die 2 "%s expects an integer, got %S" name s
  in
  let rec go = function
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := Some (int_arg "--seed" v); go rest
    | "--seconds" :: v :: rest ->
        (match float_of_string_opt v with
        | Some s when s > 0.0 -> seconds := Some s
        | _ -> die 2 "--seconds expects a positive number, got %S" v);
        go rest
    | "--trace" :: v :: rest ->
        (match v with
        | "0" -> trace := false
        | "1" -> trace := true
        | _ -> die 2 "--trace expects 0 or 1, got %S" v);
        go rest
    | "--source-id" :: v :: rest -> source_id := v; go rest
    | [] -> ()
    | a :: _ -> die 2 "unknown argument %S" a
  in
  go (List.tl (Array.to_list Sys.argv));
  if not (List.mem_assoc !workload workloads) then
    die 2 "--workload must be one of: %s"
      (String.concat ", " (List.map fst workloads));
  match (!seed, !seconds) with
  | Some seed, Some seconds ->
      { workload = !workload; seed; seconds; trace = !trace; source_id = !source_id }
  | _ -> die 2 "--seed and --seconds are required"

(* Ops of the traced pass must carry exactly the counts of the untraced
   pass on the same inputs. *)
let fidelity (a : pass) (b : pass) =
  let n = Stdlib.min (Array.length a.ops) (Array.length b.ops) in
  let mismatches = ref [] in
  for i = n - 1 downto 0 do
    if a.ops.(i).key <> b.ops.(i).key then
      mismatches :=
        Printf.sprintf "op %d: untraced {%s} traced {%s}" i a.ops.(i).key
          b.ops.(i).key
        :: !mismatches
  done;
  if n = 0 then [ "no op common to both passes" ] else !mismatches

let () =
  let args = parse_args () in
  let (W w) = List.assoc args.workload workloads in
  let measured = if args.trace then args.seconds /. 2.0 else args.seconds in
  let setup () =
    Lbcc_util.Pool.set_default_domains w.lanes;
    w.setup ~seed:args.seed ~seconds:measured
  in
  (* The reference samples taken since the last call, as a function from
     the clock reading an interval ended at to its scale factor. *)
  let scaler () = Host.scale (Host.take ()) in
  let scaled scale_at o = o.lat *. scale_at o.at in
  (* The scale of a pass as a whole: its factors weighted by op time. *)
  let weighted scale_at ops =
    let raw = sum (fun o -> o.lat) ops in
    if raw > 0.0 then sum (scaled scale_at) ops /. raw else 1.0
  in
  let setup_raw = Array.make setup_repeats 0.0 in
  let setup_mid = Array.make setup_repeats 0.0 in
  let st = ref None in
  ignore (Host.take ());
  for i = 0 to setup_repeats - 1 do
    for _ = 1 to setup_samples do ignore (Host.sample () : float) done;
    let t0 = now () in
    st := Some (setup ());
    let dt = now () -. t0 in
    for _ = 1 to setup_samples do ignore (Host.sample () : float) done;
    setup_raw.(i) <- dt;
    setup_mid.(i) <- t0 +. (dt /. 2.0)
  done;
  let setup_times =
    let scale_at = scaler () in
    Array.mapi (fun i dt -> dt *. scale_at setup_mid.(i)) setup_raw
  in
  let st = Option.get !st in
  let pass = w.run st ~traced:false ~seconds:measured in
  let scale_at = scaler () in
  (match pass.invalid with
  | Some why -> die 3 "invalid run, not reported: %s" why
  | None -> ());
  let check_failures = w.check st pass in
  List.iter
    (fun (i, why) -> pass.ops.(i) <- { (pass.ops.(i)) with ok = false; key = why })
    check_failures;
  let traced =
    if not args.trace then None
    else
      let st = setup () in
      ignore (Host.take ());
      let tpass = w.run st ~traced:true ~seconds:measured in
      Some ((tpass, scaler ()), fidelity pass tpass)
  in
  let failed = Array.fold_left (fun k o -> if o.ok then k else k + 1) 0 pass.ops in
  let attempted = Array.length pass.ops in
  let reads = Array.of_list (List.filter (fun o -> o.cls = `Read) (Array.to_list pass.ops)) in
  let lat = Array.map (fun o -> o.lat) reads in
  let scaled_lat = Array.map (scaled scale_at) reads in
  let tail_s, tail_pct = tail scaled_lat in
  let fidelity_failures = match traced with Some (_, f) -> f | None -> [] in
  let correct = failed = 0 && fidelity_failures = [] in
  (* Tracing overhead: scaled median op time of the traced pass over that
     of the untraced pass, on the ops both ran. *)
  let overhead =
    match traced with
    | None -> 0.0
    | Some ((tpass, tscale_at), _) ->
        let n = Stdlib.min (Array.length pass.ops) (Array.length tpass.ops) in
        let med at (p : pass) = median (Array.map (scaled at) (Array.sub p.ops 0 n)) in
        let base = med scale_at pass in
        if base > 0.0 then med tscale_at tpass /. base else 0.0
  in
  let scale = weighted scale_at pass.ops in
  let ops_per_s = float_of_int (attempted - failed) /. pass.wall in
  let metrics =
    match traced with
    | None ->
        let f = float_of_int in
        [
          ("setup_s", median setup_times);
          ("ops_per_s", if w.open_loop then ops_per_s else ops_per_s /. scale);
          ("op_p50_s", median scaled_lat);
          ("op_tail_s", tail_s);
          ("rounds_per_op", sum (fun o -> f o.rounds) pass.ops /. f attempted);
          ("bits_per_op", sum (fun o -> f o.bits) pass.ops /. f attempted);
          ("peak_rss_mb", peak_rss_mb ());
        ]
        |> List.map (fun (name, v) -> (name, v, List.assoc name end_to_end_units))
    | Some ((tpass, tscale_at), _) ->
        let tscale = weighted tscale_at tpass.ops in
        let words_name = args.workload ^ ".minor_words_per_op" in
        let shared =
          [
            ("trace.overhead_ratio", overhead);
            (words_name, mean (Array.map (fun o -> o.words) tpass.ops));
          ]
        in
        List.map
          (fun (name, unit) ->
            let v =
              match List.assoc_opt name tpass.layers with
              | Some v -> v
              | None -> Option.value (List.assoc_opt name shared) ~default:0.0
            in
            (name, (if unit = "s" || unit = "us" then v *. tscale else v), unit))
          per_layer_units
  in
  let strings l = Json.Arr (List.map (fun s -> Json.String s) l) in
  let floats a = Json.Arr (Array.to_list (Array.map (fun t -> Json.Float t) a)) in
  let first k l = List.filteri (fun i _ -> i < k) l in
  let op_failures =
    Array.to_list pass.ops
    |> List.filteri (fun _ o -> not o.ok)
    |> List.map (fun o -> o.key)
  in
  let log =
    Json.Obj
      ([
         ("perfbench", Json.String "run");
         ("workload", Json.String args.workload);
         ("seed", Json.Int args.seed);
         ("seconds", Json.Float args.seconds);
         ("trace", Json.Bool args.trace);
         ("pool_lanes", Json.Int (Lbcc_util.Pool.size (Lbcc_util.Pool.default ())));
         ("nproc", Json.Int (Domain.recommended_domain_count ()));
         ("ocaml", Json.String Sys.ocaml_version);
         ("commit", Json.String args.source_id);
         ("setup_samples_s", floats setup_times);
         ("setup_raw_s", floats setup_raw);
         ("host_nominal_s", Json.Float Host.nominal_s);
         ("host_scale", Json.Float scale);
         ("raw_ops_per_s", Json.Float ops_per_s);
         ("raw_op_p50_s", Json.Float (median lat));
         ("raw_op_tail_s", Json.Float (fst (tail lat)));
         ("measured_s", Json.Float pass.wall);
         ("samples", Json.Int (Array.length lat));
         ("tail_percentile", Json.Float tail_pct);
         ("tail_rank", Json.String "11th largest sample (10 beyond it)");
         ("failed_share", Json.Float (float_of_int failed /. float_of_int (Stdlib.max 1 attempted)));
         ("op_failures", strings (first 5 op_failures));
         ("fidelity_failures", strings (first 5 fidelity_failures));
       ]
      @ (match traced with
        | Some ((tpass, tscale_at), _) ->
            [
              ("traced_ops", Json.Int (Array.length tpass.ops));
              ("trace_overhead_ratio", Json.Float overhead);
              ("traced_host_scale", Json.Float (weighted tscale_at tpass.ops));
            ]
        | None -> [])
      @ pass.notes)
  in
  print_endline (Json.to_string log);
  let result =
    Json.Obj
      [
        ("correct", Json.Bool correct);
        ("attempted", Json.Int attempted);
        ("failed", Json.Int failed);
        ( "metrics",
          Json.Obj
            (List.map
               (fun (k, v, unit) ->
                 (k, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]))
               metrics) );
      ]
  in
  print_endline (Json.to_string result);
  exit (if correct then 0 else 1)
