(* The repository benchmark.  One invocation runs one workload from a
   seed on one domain, times only calls into the simulator's public
   functions ([State.create], [Engine.run_state], the strategy's [decide]
   closure, and the setup primitives in [Keygen] and [Dht]), checks every
   run's outputs from outside, and prints one JSON result line last.

     bench.exe --workload W --seed N --seconds S --trace 0|1 [--size tiny]

   --trace 0 measures the end-to-end metrics over untraced repetitions;
   --trace 1 pairs an untraced run with a traced one (engine metrics on,
   wrapped [decide], a draw-free per-tick timestamp hook) and reports the
   per-layer metrics.  End-to-end times are scaled by a reference kernel
   timed around every simulation (see [reference_kernel]).  README.md has
   the metric table. *)

let now = Unix.gettimeofday

(* The process's CPU time, user plus system.  The simulator is
   single-threaded and does no I/O, so this is its wall time minus the
   time the host took the virtual CPU away (steal).  On the shared
   2-vCPU machine the benchmark was tuned on, wall time for the same run
   swung by up to 2x with steal while its CPU time moved by a few
   percent; end-to-end and setup timings therefore use CPU time.
   Per-tick and [decide] timings stay on the wall clock, like the
   engine's own phase timers. *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* ---- Reference kernel ------------------------------------------------ *)

module Int_map = Map.Make (Int)

(* A fixed, allocation-heavy standard-library loop: 100k insertions into
   an [Int_map] on pseudo-random keys.  It shares no code with the
   simulator, so a change to the simulator cannot move it, but it slows
   down with the machine: on the shared 2-vCPU host the benchmark was
   tuned on, neighbours' load made the same simulation's CPU time swing
   by up to 50% within seconds, and this kernel, timed just before and
   just after the simulation, swung with it.  Returns its CPU time. *)
let reference_kernel () =
  let c0 = cpu () in
  let m = ref Int_map.empty and s = ref 12345 in
  for _ = 1 to 100_000 do
    s := ((!s * 1103515245) + 12345) land 0x3fffffff;
    m := Int_map.add !s !s !m
  done;
  ignore (Sys.opaque_identity (Int_map.cardinal !m) : int);
  cpu () -. c0

(* End-to-end times are reported in reference seconds: CPU seconds
   scaled as if the reference kernel had taken this long. *)
let reference_nominal_s = 0.1

(* ---- Workloads ------------------------------------------------------- *)

type spec = { params : Params.t; strategy : Strategy.t }

let parse what of_string s =
  match of_string s with Ok v -> v | Error e -> failwith (what ^ ": " ^ e)

let workload_names = [ "batch-strategies"; "stream-poisson"; "replicated-faults" ]

(* The simulations one repetition of a workload runs, in order.  Each
   gets its own seed derived from the workload seed: a batch run's length
   is set by its slowest machine and varies by about 7% from seed to
   seed, so summing several independent simulations keeps most of that
   variation out of the totals.  [tiny] keeps every ratio (tasks per
   node, arrivals per node, crash share) at a size that finishes in well
   under a second. *)
let specs ~tiny ~seed name =
  let params nodes tasks =
    { (Params.default ~nodes ~tasks) with Params.churn_rate = 0.01 }
  in
  let nodes, tasks = if tiny then (200, 2_000) else (10_000, 100_000) in
  let sims =
    match name with
    | "batch-strategies" ->
      List.map (fun strategy -> (params nodes tasks, strategy)) Strategy.all
    | "stream-poisson" ->
      let plan =
        if tiny then "poisson=12,horizon=60,window=10"
        else "poisson=600,horizon=300,window=50"
      in
      [
        ( {
            (params nodes tasks) with
            Params.arrivals = parse "arrivals" Arrivals.of_string plan;
          },
          Strategy.Random_injection );
      ]
    | "replicated-faults" ->
      (* Ten half-size rings: a straggler machine can stretch one ring's
         run by a third, and ten rings average that out twice as well
         as five full-size ones in the same time. *)
      let nodes, tasks, plan =
        if tiny then (200, 2_000, "drop=0.05,crash=4@10+4@20")
        else (5_000, 50_000, "drop=0.05,crash=100@10+100@20")
      in
      let p =
        {
          (params nodes tasks) with
          Params.replicas = 2;
          faults = parse "faults" Faults.of_string plan;
        }
      in
      List.init 10 (fun _ -> (p, Strategy.Smart_neighbor_injection))
    | w ->
      failwith
        (Printf.sprintf "unknown workload %S (expected one of: %s)" w
           (String.concat ", " workload_names))
  in
  List.mapi
    (fun i (p, strategy) ->
      { params = { p with Params.seed = (seed * 16) + i }; strategy })
    sims

(* ---- One simulation -------------------------------------------------- *)

(* Everything a run must reproduce exactly: across repetitions, and
   between its traced and untraced versions (the probes are draw-free). *)
type fingerprint = {
  outcome : Engine.outcome;
  messages : int list;
  arrived : int;
  work_done : int;
  remaining : int;
  ledger : (int * int) list;
  steady : Steady.window array;
  final_vnodes : int;
  final_active : int;
}

type run = {
  spec : spec;
  setup_s : float;  (** [State.create], CPU time *)
  run_s : float;  (** [Engine.run_state], CPU time *)
  setup_wall_s : float;
  run_wall_s : float;
  ref_s : float;  (** the reference kernel's CPU time around the run *)
  fp : fingerprint option;  (** [None] when the run raised *)
  messages : Messages.t;
  tasks : int;  (** initial + arrived *)
  completed : int;
  ticks : int;
  minor_words : float;  (** GC deltas around [Engine.run_state] *)
  promoted_words : float;
  major_collections : int;
  problems : string list;  (** failed output checks *)
  peak_heap_words : int;  (** the run's process, at its end *)
  arrival_stream : Prng.state;  (** the arrival PRNG after the run *)
  (* Traced runs only. *)
  report : Metrics.report option;
  decide_s : float;
  tick_ms : float list;
}

let message_list (m : Messages.t) =
  Messages.
    [
      m.joins; m.leaves; m.key_transfers; m.workload_queries; m.invitations;
      m.lookup_hops; m.maintenance; m.replications; m.dropped; m.retries;
      m.tasks_lost; m.attack_joins; m.puzzles; m.work_transfers;
    ]

let copy_messages (m : Messages.t) =
  let c = Messages.create () in
  Messages.add c m;
  c

(* Expected arrivals over the whole horizon. *)
let offered_total plan =
  let total = ref 0.0 in
  for tick = 0 to plan.Arrivals.horizon - 1 do
    total := !total +. Arrivals.rate_at plan ~tick
  done;
  !total

(* The output checks every run passes. *)
let check_run (spec : spec) (st : State.t) (r : Engine.result) =
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let p = spec.params in
  let plan = p.Params.arrivals in
  let open_sys = Arrivals.enabled plan in
  (match r.Engine.outcome with
  | Engine.Finished t when open_sys && t <> plan.Arrivals.horizon ->
    fail "open run finished at tick %d, horizon %d" t plan.Arrivals.horizon
  | Engine.Finished _ -> ()
  | Engine.Aborted t -> fail "aborted at tick %d" t
  | Engine.Timed_out t -> fail "timed out at tick %d" t);
  let lost = r.Engine.messages.Messages.tasks_lost in
  let remaining = State.remaining_tasks st in
  if
    st.State.work_done_total + remaining + lost
    <> st.State.initial_tasks + r.Engine.arrived_total
  then
    fail "conservation: done %d + remaining %d + lost %d <> initial %d + \
          arrived %d"
      st.State.work_done_total remaining lost st.State.initial_tasks
      r.Engine.arrived_total;
  if p.Params.replicas = 0 && lost <> 0 then
    fail "%d tasks lost with replicas = 0" lost;
  if open_sys then begin
    let settled = List.fold_left (fun a (_, c) -> a + c) 0 r.Engine.sojourn_ledger in
    if settled <> st.State.work_done_total then
      fail "sojourn ledger settles %d tasks, %d completed" settled
        st.State.work_done_total;
    (* Accepted arrivals must lie within Poisson bounds (6 sigma) of the
       rate offered: a sampler that cannot reach the rate shows here. *)
    let offered = offered_total plan in
    let accepted = float_of_int r.Engine.arrived_total in
    if Float.abs (accepted -. offered) > 6.0 *. sqrt offered then
      fail "accepted %.0f arrivals, offered %.1f (outside Poisson bounds)"
        accepted offered
  end;
  (try State.check_tick_invariants st with Invalid_argument e -> fail "%s" e);
  List.rev !problems

(* Run [f] in a forked child and return its result.  Every simulation
   starts from the same fresh heap this way: in one long-lived process
   later repetitions ran up to 20% slower than the first on the same
   inputs. *)
let isolated (f : unit -> 'a) : 'a =
  flush_all ();
  let rd, wr = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let oc = Unix.out_channel_of_descr wr in
    let r : ('a, string) result =
      try Ok (f ()) with e -> Error (Printexc.to_string e)
    in
    Marshal.to_channel oc r [];
    close_out oc;
    Unix._exit 0
  | pid -> (
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let r : ('a, string) result =
      try Marshal.from_channel ic with End_of_file -> Error "child died"
    in
    close_in ic;
    ignore (Unix.waitpid [] pid : int * Unix.process_status);
    match r with Ok v -> v | Error e -> failwith ("benchmark child: " ^ e))

type probe = { decide_total : float ref; stamps : float list ref }

let run_spec ?probe (spec : spec) =
  let t0 = now () and c0 = cpu () in
  let st = State.create spec.params in
  let setup_wall_s = now () -. t0 and setup_s = cpu () -. c0 in
  let strategy = Strategy.make spec.strategy () in
  let g0 = Gc.quick_stat () and w0 = Gc.minor_words () in
  let c1 = cpu () and t1 = now () in
  let result =
    try
      Ok
        (match probe with
        | None -> Engine.run_state ~sink:Trace.Memory ~metrics:false st strategy
        | Some pr ->
          let decide st =
            let t = now () in
            strategy.Engine.decide st;
            pr.decide_total := !(pr.decide_total) +. (now () -. t)
          in
          Engine.run_state ~sink:Trace.Memory ~metrics:true ~checkpoint_every:1
            ~checkpoint:(fun _ -> pr.stamps := now () :: !(pr.stamps))
            st
            { strategy with Engine.decide })
    with e -> Error (Printexc.to_string e)
  in
  let t2 = now () and c2 = cpu () in
  let w1 = Gc.minor_words () and g1 = Gc.quick_stat () in
  let run_s = c2 -. c1 in
  let messages = copy_messages (Dht.messages st.State.dht) in
  let base =
    {
      spec;
      setup_s;
      run_s;
      setup_wall_s;
      run_wall_s = t2 -. t1;
      ref_s = nan;
      fp = None;
      messages;
      tasks = st.State.initial_tasks + st.State.arrived_total;
      completed = 0;
      ticks = 0;
      minor_words = w1 -. w0;
      promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
      major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
      problems = [];
      peak_heap_words = g1.Gc.top_heap_words;
      arrival_stream = Prng.capture st.State.arng;
      report = None;
      decide_s = 0.0;
      tick_ms = [];
    }
  in
  match result with
  | Error e -> { base with problems = [ "raised " ^ e ] }
  | Ok r ->
    let ticks =
      match r.Engine.outcome with
      | Engine.Finished t | Engine.Aborted t | Engine.Timed_out t -> t
    in
    let open_sys = Arrivals.enabled spec.params.Params.arrivals in
    let fp =
      {
        outcome = r.Engine.outcome;
        messages = message_list messages;
        arrived = r.Engine.arrived_total;
        work_done = st.State.work_done_total;
        remaining = State.remaining_tasks st;
        ledger = r.Engine.sojourn_ledger;
        steady = r.Engine.steady;
        final_vnodes = r.Engine.final_vnodes;
        final_active = r.Engine.final_active;
      }
    in
    let tick_ms, probe_problems =
      match probe with
      | None -> ([], [])
      | Some pr ->
        (* The hook fires before every tick but the first; the run's own
           start and end close the first and last tick. *)
        let marks = (t1 :: List.rev !(pr.stamps)) @ [ t2 ] in
        let rec gaps = function
          | a :: (b :: _ as rest) -> ((b -. a) *. 1e3) :: gaps rest
          | _ -> []
        in
        let ms = gaps marks in
        ( ms,
          if List.length ms = ticks then []
          else
            [
              Printf.sprintf "tick hook fired %d times for %d ticks"
                (List.length !(pr.stamps)) ticks;
            ] )
    in
    {
      base with
      fp = Some fp;
      completed =
        (if open_sys then
           List.fold_left (fun a (_, c) -> a + c) 0 r.Engine.sojourn_ledger
         else st.State.initial_tasks);
      ticks;
      problems = check_run spec st r @ probe_problems;
      report = (match probe with Some _ -> Some r.Engine.metrics | None -> None);
      decide_s = (match probe with Some pr -> !(pr.decide_total) | None -> 0.0);
      tick_ms;
    }

let run_plain spec = run_spec spec
let run_traced spec =
  run_spec ~probe:{ decide_total = ref 0.0; stamps = ref [] } spec

(* One repetition: every simulation of the workload, each in its own
   child, with the reference kernel timed (in a child too) before the
   first simulation and after each.  A run's [ref_s] is the mean of the
   kernel times just before and just after it. *)
let run_all specs f =
  let k0 = isolated reference_kernel in
  let _, runs =
    List.fold_left
      (fun (k, acc) s ->
        let r = isolated (fun () -> f s) in
        let k' = isolated reference_kernel in
        (k', { r with ref_s = (k +. k') /. 2.0 } :: acc))
      (k0, []) specs
  in
  List.rev runs

(* A CPU time of [r] in reference seconds. *)
let scaled r t = t *. reference_nominal_s /. r.ref_s

(* ---- Repetitions and cross-run checks -------------------------------- *)

(* Repeat [one] at least [min_reps] times, then while another repetition
   of the mean length so far still ends within [seconds]. *)
let repeat ~seconds ~min_reps one =
  let t0 = now () in
  let rec go acc n =
    let elapsed = now () -. t0 in
    if n >= min_reps && elapsed *. float_of_int (n + 1) /. float_of_int n > seconds
    then List.rev acc
    else go (one () :: acc) (n + 1)
  in
  go [] 0

let fail_run r problem = { r with problems = r.problems @ [ problem ] }

let same_fp a b =
  match (a.fp, b.fp) with Some x, Some y -> compare x y = 0 | _ -> false

(* Every repetition of a simulation must equal the first exactly: its
   fingerprint and its GC minor words. *)
let check_repeats = function
  | [] -> []
  | first :: rest ->
    let check a r =
      let r =
        if same_fp a r then r
        else fail_run r "outputs differ from the first repetition"
      in
      if r.minor_words = a.minor_words then r
      else
        fail_run r
          (Printf.sprintf "minor words differ from the first repetition (%.0f vs %.0f)"
             a.minor_words r.minor_words)
    in
    first :: List.map (List.map2 check first) rest

(* A traced run must equal its untraced twin: the probes are draw-free. *)
let check_twin plain traced =
  List.map2
    (fun a t -> if same_fp a t then t else fail_run t "traced run differs from untraced")
    plain traced

let sum f l = List.fold_left (fun a x -> a +. f x) 0.0 l
let sum_int f l = List.fold_left (fun a x -> a + f x) 0 l
let median l = Descriptive.median (Array.of_list l)
let share a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b
let failed runs = List.length (List.filter (fun r -> r.problems <> []) runs)

(* The repetitions of each simulation, in workload order. *)
let by_spec reps =
  List.mapi (fun i _ -> List.map (fun rep -> List.nth rep i) reps) (List.hd reps)

(* ---- Per-layer probes outside the engine ----------------------------- *)

(* [State.create]'s setup calls, made again on the run's own sizes and
   main stream: SHA-1 keygen, the ring-build join loop, key insertion.
   Returns the three CPU times and the number of keys stored, which must
   match the state's. *)
let time_setup_layers (p : Params.t) =
  let rng = Prng.create p.Params.seed in
  let t0 = cpu () in
  let ids = Keygen.node_ids rng (2 * p.Params.nodes) in
  let keys = Keygen.task_keys rng p.Params.tasks in
  let t1 = cpu () in
  let dht = Dht.create () in
  for pid = 0 to p.Params.nodes - 1 do
    match Dht.join dht ~id:ids.(pid) ~payload:pid with
    | Ok _ -> ()
    | Error `Occupied -> failwith "setup replay: duplicate node id"
  done;
  let t2 = cpu () in
  let stored =
    match Dht.insert_keys dht keys with
    | Ok n -> n
    | Error `Empty_ring -> failwith "setup replay: empty ring"
  in
  let t3 = cpu () in
  (t1 -. t0, t2 -. t1, t3 -. t2, stored)

(* The arrival stream replayed on its own PRNG: the Poisson counts drawn
   (before duplicates are dropped at the door) and the stream's final
   state, which must equal the run's.  Uniform keys only. *)
let replay_arrivals (p : Params.t) =
  let plan = p.Params.arrivals in
  let rng = Arrivals.rng ~seed:p.Params.seed in
  let drawn = ref 0 in
  if Arrivals.enabled plan then
    for tick = 0 to plan.Arrivals.horizon - 1 do
      let k = Arrivals.poisson_count rng (Arrivals.rate_at plan ~tick) in
      drawn := !drawn + k;
      for _ = 1 to k do
        ignore (Keygen.fresh rng : Id.t)
      done
    done;
  (!drawn, Prng.capture rng)

(* Substrate primitives, ns per call (Bechamel OLS on the monotonic
   clock), on inputs drawn from the seed. *)
let primitives ~seed ~quota =
  let open Bechamel in
  let rng = Prng.create seed in
  let payload =
    let b = Bytes.create 64 in
    Prng.fill_bytes rng b;
    Bytes.to_string b
  in
  let set_of n = Id_set.of_sorted_array (
      let a = Keygen.task_keys rng n in
      Array.sort Id.compare a;
      a)
  in
  let big_set = set_of 10_000 and small_set = set_of 10 in
  let arc =
    Interval.make ~after:(Keygen.fresh rng) ~upto:(Keygen.fresh rng)
  in
  let dht = Dht.create () in
  Array.iter
    (fun id -> ignore (Dht.join dht ~id ~payload:() : (unit Dht.vnode, _) result))
    (Keygen.node_ids rng 10_000);
  let ring = Dht.ring dht in
  let probe_key = Keygen.fresh rng in
  let src, dst =
    match Dht.k_successors dht probe_key 2 with
    | [ a; b ] -> (a, b)
    | _ -> failwith "primitives: ring too small"
  in
  (match Dht.insert_keys dht (Keygen.task_keys rng 1_000) with
  | Ok _ -> ()
  | Error `Empty_ring -> assert false);
  (* Moving one key back and forth keeps the two vnodes' loads steady. *)
  let forward = ref true in
  let pick c = c / 2 in
  let srng = Prng.create (seed + 1) in
  let tests =
    [
      ("prim.sha1_64B_ns", fun () -> ignore (Sha1.digest_string payload : string));
      ( "prim.idset_split_arc_ns",
        fun () -> ignore (Id_set.split_arc arc big_set : Id_set.t * Id_set.t) );
      ( "prim.ring_lookup_ns",
        fun () ->
          ignore (Ring.successor probe_key ring : (Id.t * unit Dht.vnode) option)
      );
      ( "prim.dht_transfer_keys_ns",
        fun () ->
          let src, dst = if !forward then (src, dst) else (dst, src) in
          forward := not !forward;
          ignore (Dht.transfer_keys ~pick dht ~src ~dst 1 : int) );
      ( "prim.idset_take_random_n_ns",
        fun () ->
          ignore
            (Id_set.take_random_n ~rand:pick small_set 1 : Id.t list * Id_set.t) );
      ( "prim.sample_indices_ns",
        fun () -> ignore (Sample.indices srng ~n:100_000 ~k:1_000 : int list) );
    ]
  in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  List.map
    (fun (name, f) ->
      let test = Test.make ~name (Staged.stage f) in
      let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] test in
      let res = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
      let ns =
        Hashtbl.fold
          (fun _ o acc ->
            match Analyze.OLS.estimates o with Some (e :: _) -> e | _ -> acc)
          res nan
      in
      (name, ns))
    tests

(* ---- Metrics ---------------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* Timings are in reference seconds, summed over the workload's
   simulations after taking each simulation's median over the
   repetitions. *)
let end_to_end reps =
  let spec_median f = sum (fun runs -> median (List.map f runs)) (by_spec reps) in
  let setup_s = spec_median (fun r -> scaled r r.setup_s) in
  let run_s = spec_median (fun r -> scaled r r.run_s) in
  let first = List.hd reps in
  let peak_words =
    median
      (List.map
         (fun rep ->
           float_of_int (List.fold_left (fun a r -> max a r.peak_heap_words) 0 rep))
         reps)
  in
  let all = List.concat reps in
  let lost = sum_int (fun r -> r.messages.Messages.tasks_lost) first in
  [
    m "setup_s" "s" setup_s;
    m "run_s" "s" run_s;
    m "keys_per_s" "1/s" (float_of_int (sum_int (fun r -> r.completed) first) /. run_s);
    m "peak_heap_mb" "MB" (peak_words *. 8.0 /. 1e6);
    m "ok_share" "share" (1.0 -. share (failed all) (List.length all));
    m "kept_share" "share" (1.0 -. share lost (sum_int (fun r -> r.tasks) first));
  ]

(* The highest of a few standard percentiles with at least ten samples
   beyond it. *)
let tail_pct n =
  List.find_opt
    (fun p -> float_of_int n *. (1.0 -. (p /. 100.0)) >= 10.0)
    [ 99.9; 99.0; 95.0; 90.0; 75.0; 50.0 ]
  |> Option.value ~default:50.0

(* The per-layer metrics from the pairs of untraced and traced
   repetitions.  [setup] holds each simulation's replayed setup times;
   [drawn] the Poisson counts of its replayed arrival stream. *)
let per_layer ~seed ~quota ~plain ~traced ~setup ~drawn =
  let plain1 = List.hd plain and traced1 = List.hd traced in
  let med f l = median (List.map f l) in
  let report f =
    med (sum (fun r -> match r.report with Some rp -> f rp | None -> 0.0)) traced
  in
  let msg f = float_of_int (sum_int (fun r -> f r.messages) plain1) in
  let ticks = sum_int (fun r -> r.ticks) plain1 in
  let completed = sum_int (fun r -> r.completed) plain1 in
  let tick_ms = Array.of_list (List.concat_map (fun r -> r.tick_ms) traced1) in
  let n_ticks = Array.length tick_ms in
  let joins = msg (fun x -> x.Messages.joins) in
  let plans = List.map (fun r -> r.spec.params.Params.arrivals) plain1 in
  let horizon =
    sum_int (fun p -> if Arrivals.enabled p then p.Arrivals.horizon else 0) plans
  in
  let offered =
    sum (fun p -> if Arrivals.enabled p then offered_total p else 0.0) plans
  in
  let accepted =
    sum_int (fun r -> match r.fp with Some f -> f.arrived | None -> 0) plain1
  in
  let per_tick x = if horizon = 0 then 0.0 else x /. float_of_int horizon in
  let steady_stat f =
    let ws =
      List.concat_map
        (fun r -> match r.fp with Some fp -> Array.to_list fp.steady | None -> [])
        plain1
    in
    let vs = List.filter (fun v -> not (Float.is_nan v)) (List.map f ws) in
    if vs = [] then 0.0 else median vs
  in
  let decide_of s =
    med (sum (fun r -> if r.spec.strategy = s then r.decide_s else 0.0)) traced
  in
  let all = List.concat plain @ List.concat traced in
  let lost = sum_int (fun r -> r.messages.Messages.tasks_lost) plain1 in
  [
    m "setup.keygen_s" "s" (sum (fun (k, _, _) -> k) setup);
    m "setup.ring_build_s" "s" (sum (fun (_, b, _) -> b) setup);
    m "setup.insert_keys_s" "s" (sum (fun (_, _, i) -> i) setup);
    m "core.decide_s" "s" (med (sum (fun r -> r.decide_s)) traced);
  ]
  @ List.map
      (fun s -> m ("core.decide_s." ^ Strategy.name s) "s" (decide_of s))
      Strategy.all
  @ [
      m "core.keys_per_join" "keys/join"
        (msg (fun x -> x.Messages.key_transfers) /. joins);
      m "core.joins_per_tick" "joins/tick" (joins /. float_of_int ticks);
      m "engine.arrive_s" "s" (report (fun rp -> rp.Metrics.arrive_s));
      m "engine.consume_s" "s" (report (fun rp -> rp.Metrics.consume_s));
      m "engine.churn_s" "s" (report (fun rp -> rp.Metrics.churn_s));
      m "engine.trace_s" "s" (report (fun rp -> rp.Metrics.trace_s));
      m "engine.tick_p50_ms" "ms" (Descriptive.percentile tick_ms 50.0);
      m "engine.tick_tail_ms" "ms" (Descriptive.percentile tick_ms (tail_pct n_ticks));
      m "engine.tick_samples" "count" (float_of_int n_ticks);
      m "chord.joins" "count" joins;
      m "chord.leaves" "count" (msg (fun x -> x.Messages.leaves));
      m "chord.lookup_hops" "count" (msg (fun x -> x.Messages.lookup_hops));
      m "chord.hops_per_join" "hops/join"
        (msg (fun x -> x.Messages.lookup_hops) /. joins);
      m "chord.key_transfers" "count" (msg (fun x -> x.Messages.key_transfers));
      m "chord.queries" "count" (msg (fun x -> x.Messages.workload_queries));
      m "chord.replications" "count" (msg (fun x -> x.Messages.replications));
      m "chord.dropped" "count" (msg (fun x -> x.Messages.dropped));
      m "chord.retries" "count" (msg (fun x -> x.Messages.retries));
      m "chord.work_transfers" "count" (msg (fun x -> x.Messages.work_transfers));
      m "chord.tasks_lost" "count" (float_of_int lost);
      m "arrivals.offered_per_tick" "tasks/tick" (per_tick offered);
      m "arrivals.accepted_per_tick" "tasks/tick" (per_tick (float_of_int accepted));
      m "arrivals.duplicate_share" "share" (share (drawn - accepted) drawn);
      m "steady.queue_p99" "tasks" (steady_stat (fun w -> w.Steady.queue_p99));
      m "steady.sojourn_p50" "ticks" (steady_stat (fun w -> w.Steady.sojourn_p50));
      m "steady.sojourn_p99" "ticks" (steady_stat (fun w -> w.Steady.sojourn_p99));
      m "gc.minor_words_per_key" "words/key"
        (sum (fun r -> r.minor_words) plain1 /. float_of_int completed);
      m "gc.promoted_words" "words" (med (sum (fun r -> r.promoted_words)) plain);
      m "gc.major_collections" "count"
        (med
           (fun rep -> float_of_int (sum_int (fun r -> r.major_collections) rep))
           plain);
      m "check.failed_share" "share" (share (failed all) (List.length all));
      m "check.lost_share" "share" (share lost (sum_int (fun r -> r.tasks) plain1));
      m "trace_overhead_s" "s"
        (med (sum (fun r -> scaled r r.run_s)) traced
        -. med (sum (fun r -> scaled r r.run_s)) plain);
      m "ref.kernel_ms" "ms" (1e3 *. med (fun r -> r.ref_s) (List.concat plain));
      m "cpu.setup_s" "s" (med (sum (fun r -> r.setup_s)) plain);
      m "cpu.run_s" "s" (med (sum (fun r -> r.run_s)) plain);
      m "wall.setup_s" "s" (med (sum (fun r -> r.setup_wall_s)) plain);
      m "wall.run_s" "s" (med (sum (fun r -> r.run_wall_s)) plain);
    ]
  @ List.map (fun (name, ns) -> m name "ns" ns) (primitives ~seed ~quota)

(* ---- Modes ------------------------------------------------------------- *)

(* --trace 0: untraced repetitions, at least two.  Prints each
   simulation's work and median times, so a reader can tell a slower
   seed from a slower program. *)
let untraced_mode ~seconds specs =
  let reps =
    check_repeats
      (repeat ~seconds ~min_reps:2 (fun () -> run_all specs run_plain))
  in
  List.iter
    (fun runs ->
      let r = List.hd runs in
      Printf.printf
        "  %-16s seed %-6d %4d ticks %9d messages  CPU setup %.3f s  run %.3f s  \
         reference %.1f ms\n"
        (Strategy.name r.spec.strategy) r.spec.params.Params.seed r.ticks
        (Messages.total r.messages)
        (median (List.map (fun r -> r.setup_s) runs))
        (median (List.map (fun r -> r.run_s) runs))
        (1e3 *. median (List.map (fun r -> r.ref_s) runs)))
    (by_spec reps);
  (List.concat reps, end_to_end reps)

(* --trace 1: pairs of untraced and traced repetitions, then the setup
   replay and the arrival replay once per simulation, checked against
   the first untraced repetition. *)
let traced_mode ~seed ~seconds ~quota specs =
  let pairs =
    repeat ~seconds ~min_reps:1 (fun () ->
        (run_all specs run_plain, run_all specs run_traced))
  in
  let plain = check_repeats (List.map fst pairs) in
  let traced = List.map2 check_twin plain (check_repeats (List.map snd pairs)) in
  let setup = List.map (fun s -> isolated (fun () -> time_setup_layers s.params)) specs in
  let replays = List.map (fun s -> replay_arrivals s.params) specs in
  let first =
    List.map2
      (fun (r, (_, _, _, stored)) (_, stream) ->
        let r =
          if stored + (match r.fp with Some f -> f.arrived | None -> 0) = r.tasks then r
          else fail_run r (Printf.sprintf "setup replay stored %d keys" stored)
        in
        if Prng.state_equal stream r.arrival_stream then r
        else fail_run r "arrival replay diverged from the run's stream")
      (List.combine (List.hd plain) setup)
      replays
  in
  let plain = first :: List.tl plain in
  ( List.concat plain @ List.concat traced,
    per_layer ~seed ~quota ~plain ~traced
      ~setup:(List.map (fun (k, b, i, _) -> (k, b, i)) setup)
      ~drawn:(sum_int fst replays) )

(* ---- Main -------------------------------------------------------------- *)

let print_result ~correct ~attempted ~failed metrics problems =
  List.iter (fun p -> Printf.printf "CHECK FAILED: %s\n" p) problems;
  List.iter
    (fun x -> Printf.printf "  %-34s %18.6f %s\n" x.name x.value x.unit_)
    metrics;
  let json =
    Json_out.Obj
      [
        ("correct", Json_out.Bool correct);
        ("attempted", Json_out.Int attempted);
        ("failed", Json_out.Int failed);
        ( "metrics",
          Json_out.Obj
            (List.map
               (fun x ->
                 ( x.name,
                   Json_out.Obj
                     [
                       ("value", Json_out.Float x.value);
                       ("unit", Json_out.String x.unit_);
                     ] ))
               metrics) );
      ]
  in
  print_endline (Json_out.to_string json)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 in
  let trace = ref 0 and tiny = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " workload name");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measuring time");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: per-layer");
      ("--size", Arg.String (fun s -> tiny := s = "tiny"), " full (default) or tiny");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1 [--size tiny]";
  let specs = specs ~tiny:!tiny ~seed:!seed !workload in
  let runs, metrics =
    if !trace = 0 then untraced_mode ~seconds:!seconds specs
    else
      traced_mode ~seed:!seed ~seconds:!seconds
        ~quota:(if !tiny then 0.02 else 0.25)
        specs
  in
  let problems =
    List.concat_map
      (fun r ->
        List.map
          (fun p ->
            Printf.sprintf "%s %s seed %d: %s" !workload
              (Strategy.name r.spec.strategy) r.spec.params.Params.seed p)
          r.problems)
      runs
    |> List.sort_uniq compare
  in
  let correct = problems = [] in
  print_result ~correct ~attempted:(List.length runs) ~failed:(failed runs) metrics
    problems;
  if not correct then exit 1
