(* Shared plumbing for the benchmark workloads: op records, the closed
   loop, per-layer accumulators and the order statistics every workload
   reports.  Wall time is read through [Lbcc_obs.Clock] only. *)

let now = Lbcc_obs.Clock.now_s

(* One answered operation.  [key] renders the op's exact counts (rounds,
   bits, iterations, ...) so the traced pass can be checked against the
   untraced one op by op; [cls] separates serve's reads from its writes. *)
type op = {
  lat : float;  (** seconds, from start (closed loop) or due time (serve) *)
  rounds : int;
  bits : int;
  ok : bool;  (** the answer passed the workload's check *)
  key : string;
  cls : [ `Read | `Write ];
  words : float;  (** minor words allocated by the op (traced pass only) *)
  at : float;  (** clock reading when the op ended *)
}

let op ?(cls = `Read) ?(words = 0.0) ?(at = now ()) ~lat ~rounds ~bits ~ok key =
  { lat; rounds; bits; ok; key; cls; words; at }

type pass = {
  ops : op array;
  wall : float;  (** measured-phase wall seconds *)
  invalid : string option;  (** set when the run must not be reported *)
  layers : (string * float) list;  (** per-layer values (traced pass) *)
  notes : (string * Lbcc_obs.Json.t) list;  (** extra facts for the log *)
}

(* A workload: [setup] builds everything a measured phase of [seconds]
   needs and runs one untimed warm-up op; [run] measures for [seconds] and,
   with [traced], times the calls into each layer from here. *)
type 'st workload = {
  lanes : int;  (** worker-pool lanes, pinned for every run *)
  open_loop : bool;
      (** ops arrive on a schedule, so ops per second is the offered rate
          and is not scaled by host speed *)
  setup : seed:int -> seconds:float -> 'st;
  run : 'st -> traced:bool -> seconds:float -> pass;
  check : 'st -> pass -> (int * string) list;
      (** deferred answer checks, run after the timed phase: the index of
          each op whose answer failed, with the reason *)
}

type packed = W : 'st workload -> packed

(* ---- per-layer accumulators ------------------------------------------ *)

module Layers = struct
  type t = (string, float ref) Hashtbl.t

  let create () : t = Hashtbl.create 16

  let add (t : t) name v =
    match Hashtbl.find_opt t name with
    | Some r -> r := !r +. v
    | None -> Hashtbl.add t name (ref v)

  let get (t : t) name =
    match Hashtbl.find_opt t name with Some r -> !r | None -> 0.0

  (* Time [f] and add its wall seconds under [name]. *)
  let time t name f =
    let t0 = now () in
    let r = f () in
    add t name (now () -. t0);
    r
end

(* ---- order statistics -------------------------------------------------- *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

let median a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then 0.0
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(* The highest percentile with at least ten samples beyond it: the 11th
   largest sample.  Returns [(value, percentile)]; with fewer than 11
   samples it is the maximum, flagged by a percentile of 100. *)
let tail a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then (0.0, 0.0)
  else if n < 11 then (s.(n - 1), 100.0)
  else (s.(n - 11), 100.0 *. float_of_int (n - 10) /. float_of_int n)

let mean a =
  let n = Array.length a in
  if n = 0 then 0.0 else Array.fold_left ( +. ) 0.0 a /. float_of_int n

let sum f ops = Array.fold_left (fun acc o -> acc +. f o) 0.0 ops

(* ---- host speed -------------------------------------------------------- *)

(* The benchmark shares its host's cores with other tenants, and the speed
   it gets moves by a third within a minute and by up to 60% between runs,
   for every op alike — past any bound a plain wall time could be held to.
   So a fixed reference kernel, which calls nothing in the library, is timed
   between ops, and each end-to-end time is reported scaled by
   [nominal_s / median reference time] over the [window_s] seconds around
   it: in seconds on a host where the kernel takes [nominal_s].  A change to
   the library moves the ops and not the kernel, so it moves the scaled
   times in full. *)
module Host = struct
  (* The kernel's time on the 2-vCPU host the benchmark was tuned on. *)
  let nominal_s = 0.0045

  (* Dense float loops over a 200 KB matrix and a chase through a 512 KB
     random cycle, the two access patterns the workloads mix.  It
     allocates nothing, so its time does not depend on how much garbage
     the library left for the collector. *)
  let dim = 160
  let matrix = Array.init (dim * dim) (fun i -> float_of_int (i mod 97) /. 97.0)
  let vector = Array.init dim (fun i -> float_of_int (i mod 13))
  let product = Array.make dim 0.0

  let cycle =
    let n = 1 lsl 16 in
    let order = Array.init n Fun.id in
    let prng = Lbcc_util.Prng.create 1 in
    Lbcc_util.Prng.shuffle prng order;
    let next = Array.make n 0 in
    Array.iteri (fun k v -> next.(v) <- order.((k + 1) mod n)) order;
    next

  let sink = ref 0

  let kernel () =
    for _ = 1 to 32 do
      for i = 0 to dim - 1 do
        let s = ref 0.0 in
        for j = 0 to dim - 1 do
          s := !s +. (matrix.((i * dim) + j) *. vector.(j))
        done;
        product.(i) <- !s
      done;
      let v = ref !sink in
      for _ = 1 to 8000 do
        v := cycle.(!v)
      done;
      sink := !v
    done

  (* [(clock at the end, seconds)] of each timing, newest first. *)
  let samples = ref []

  (* Time the kernel once and record it; returns its wall seconds. *)
  let sample () =
    let t0 = now () in
    kernel ();
    let t1 = now () in
    samples := (t1, t1 -. t0) :: !samples;
    t1 -. t0

  (* The samples recorded since the last [take], oldest first. *)
  let take () =
    let s = Array.of_list (List.rev !samples) in
    samples := [];
    s

  (* The speed over a minute moves by a third, so each time is scaled by
     the samples near it; ops far from [min_local] samples (a short run)
     fall back to all of them. *)
  let window_s = 2.5
  let min_local = 8

  (* [scale samples at]: the factor turning a wall time that ended at
     clock [at] into nominal seconds; 1 without samples. *)
  let scale samples =
    let all = Array.map snd samples in
    if Array.length all = 0 then fun _ -> 1.0
    else
      let global = nominal_s /. median all in
      fun at ->
        let near =
          Array.of_list
            (Array.fold_right
               (fun (t, dt) acc -> if Float.abs (t -. at) <= window_s then dt :: acc else acc)
               samples [])
        in
        if Array.length near < min_local then global
        else nominal_s /. median near
end

(* ---- closed loop ------------------------------------------------------ *)

(* Run [op_of i input] over [inputs] in order, in whole passes, until at
   least [seconds] have elapsed, timing [Host.kernel] before each op.
   Whole passes keep every mean a function of the input list alone,
   whatever the host speed.  The wall returned leaves out the kernel. *)
let closed_loop ~seconds inputs op_of =
  let ops = ref [] and kernel_s = ref 0.0 in
  let t0 = now () in
  let rec passes () =
    Array.iteri
      (fun i input ->
        kernel_s := !kernel_s +. Host.sample ();
        ops := op_of i input :: !ops)
      inputs;
    if now () -. t0 < seconds then passes ()
  in
  passes ();
  let wall = now () -. t0 -. !kernel_s in
  (Array.of_list (List.rev !ops), wall)

(* [f ()] with its wall seconds and the minor words it allocated on this
   domain. *)
let measured f =
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let r = f () in
  let lat = now () -. t0 in
  (r, lat, Gc.minor_words () -. w0)

(* An op that raised: failed, with the exception as its key. *)
let raised ~lat e = op ~lat ~rounds:0 ~bits:0 ~ok:false (Printexc.to_string e)

(* Peak resident set of this process in MB (VmHWM). *)
let peak_rss_mb () =
  let line =
    In_channel.with_open_text "/proc/self/status" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.find (String.starts_with ~prefix:"VmHWM:")
  in
  Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)

(* Rounds charged under labels containing [part], from a breakdown. *)
let rounds_matching part breakdown =
  let has s =
    let n = String.length part and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = part || go (i + 1)) in
    go 0
  in
  List.fold_left (fun acc (l, r) -> if has l then acc + r else acc) 0 breakdown
