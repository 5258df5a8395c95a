let f = Printf.sprintf "%.6f"

(* NaN cells (say, sojourn percentiles of a window with no completion)
   export as empty. *)
let fnan v = if Float.is_nan v then "" else f v

let columns cols rows =
  Csv_out.table ~header:(List.map fst cols)
    (List.map (fun r -> List.map (fun (_, cell) -> cell r) cols) rows)

let table1_csv rows =
  columns
    [
      ("nodes", fun r -> string_of_int r.Initial_distribution.nodes);
      ("tasks", fun r -> string_of_int r.Initial_distribution.tasks);
      ("median_workload", fun r -> f r.Initial_distribution.median_workload);
      ("sigma", fun r -> f r.Initial_distribution.sigma);
    ]
    rows

let lookup_hops_csv rows =
  columns
    [
      ("nodes", fun r -> string_of_int r.Lookup_hops.nodes);
      ("lookups", fun r -> string_of_int r.Lookup_hops.lookups);
      ("mean_hops", fun r -> f r.Lookup_hops.mean_hops);
      ("p99_hops", fun r -> f r.Lookup_hops.p99_hops);
      ("expected", fun r -> f r.Lookup_hops.expected);
    ]
    rows

let maintenance_csv rows =
  columns
    [
      ("churn_rate", fun r -> f r.Maintenance.churn_rate);
      ("rounds", fun r -> string_of_int r.Maintenance.rounds);
      ( "messages_per_node_round",
        fun r -> f r.Maintenance.messages_per_node_round );
      ( "finger_messages_per_node_round",
        fun r -> f r.Maintenance.finger_messages_per_node_round );
      ("mean_stale_heads", fun r -> f r.Maintenance.mean_stale_heads);
      ( "final_consistent",
        fun r -> string_of_bool r.Maintenance.final_consistent );
      ("final_finger_accuracy", fun r -> f r.Maintenance.final_finger_accuracy);
    ]
    rows

let failure_recovery_csv rows =
  columns
    [
      ("fail_fraction", fun r -> f r.Failure_recovery.fail_fraction);
      ("replicas", fun r -> string_of_int r.Failure_recovery.replicas);
      ("measured_loss_rate", fun r -> f r.Failure_recovery.measured_loss_rate);
      ("expected_loss_rate", fun r -> f r.Failure_recovery.expected_loss_rate);
    ]
    rows

let steady_csv windows =
  columns
    [
      ("window", fun w -> string_of_int w.Steady.index);
      ("start_tick", fun w -> string_of_int w.Steady.start_tick);
      ("ticks", fun w -> string_of_int w.Steady.ticks);
      ("arrivals", fun w -> string_of_int w.Steady.arrivals);
      ("completions", fun w -> string_of_int w.Steady.completions);
      ("arrival_rate", fun w -> f w.Steady.arrival_rate);
      ("completion_rate", fun w -> f w.Steady.completion_rate);
      ("queue_p50", fun w -> f w.Steady.queue_p50);
      ("queue_p95", fun w -> f w.Steady.queue_p95);
      ("queue_p99", fun w -> f w.Steady.queue_p99);
      ("sojourn_p50", fun w -> fnan w.Steady.sojourn_p50);
      ("sojourn_p95", fun w -> fnan w.Steady.sojourn_p95);
      ("sojourn_p99", fun w -> fnan w.Steady.sojourn_p99);
      ("sojourn_mean", fun w -> fnan w.Steady.sojourn_mean);
      ("sybil_min", fun w -> string_of_int w.Steady.sybil_min);
      ("sybil_max", fun w -> string_of_int w.Steady.sybil_max);
      ("sybil_mean", fun w -> f w.Steady.sybil_mean);
    ]
    (Array.to_list windows)

let work_timeline_csv series =
  let header =
    "tick"
    :: List.map
         (fun (s : Work_timeline.series) -> Strategy.name s.Work_timeline.strategy)
         series
  in
  let window =
    List.fold_left
      (fun acc (s : Work_timeline.series) ->
        max acc (Array.length s.Work_timeline.work_per_tick))
      0 series
  in
  let rows =
    List.init window (fun tick ->
        string_of_int tick
        :: List.map
             (fun (s : Work_timeline.series) ->
               if tick < Array.length s.Work_timeline.work_per_tick then
                 string_of_int s.Work_timeline.work_per_tick.(tick)
               else "")
             series)
  in
  Csv_out.table ~header rows

let trace_csv trace =
  columns
    [
      ("tick", fun p -> string_of_int p.Trace.tick);
      ("work_done", fun p -> string_of_int p.Trace.work_done);
      ("remaining", fun p -> string_of_int p.Trace.remaining);
      ("active_nodes", fun p -> string_of_int p.Trace.active_nodes);
      ("vnodes", fun p -> string_of_int p.Trace.vnodes);
    ]
    (Array.to_list (Trace.points trace))

let messages_json (m : Messages.t) =
  Json_out.Obj
    [
      ("joins", Json_out.Int m.Messages.joins);
      ("leaves", Json_out.Int m.Messages.leaves);
      ("key_transfers", Json_out.Int m.Messages.key_transfers);
      ("workload_queries", Json_out.Int m.Messages.workload_queries);
      ("invitations", Json_out.Int m.Messages.invitations);
      ("lookup_hops", Json_out.Int m.Messages.lookup_hops);
      ("maintenance", Json_out.Int m.Messages.maintenance);
      ("replications", Json_out.Int m.Messages.replications);
      ("dropped", Json_out.Int m.Messages.dropped);
      ("retries", Json_out.Int m.Messages.retries);
      ("tasks_lost", Json_out.Int m.Messages.tasks_lost);
      ("attack_joins", Json_out.Int m.Messages.attack_joins);
      ("puzzles", Json_out.Int m.Messages.puzzles);
      ("work_transfers", Json_out.Int m.Messages.work_transfers);
      ("total", Json_out.Int (Messages.total m));
    ]

let metrics_json (m : Metrics.report) =
  Json_out.Obj
    [
      ("enabled", Json_out.Bool m.Metrics.enabled);
      ("ticks", Json_out.Int m.Metrics.ticks);
      ("wall_s", Json_out.Float m.Metrics.wall_s);
      ("arrive_s", Json_out.Float m.Metrics.arrive_s);
      ("decide_s", Json_out.Float m.Metrics.decide_s);
      ("consume_s", Json_out.Float m.Metrics.consume_s);
      ("churn_s", Json_out.Float m.Metrics.churn_s);
      ("check_s", Json_out.Float m.Metrics.check_s);
      ("trace_s", Json_out.Float m.Metrics.trace_s);
      ("minor_words", Json_out.Float m.Metrics.minor_words);
      ("major_words", Json_out.Float m.Metrics.major_words);
      ("promoted_words", Json_out.Float m.Metrics.promoted_words);
      ("minor_collections", Json_out.Int m.Metrics.minor_collections);
      ("major_collections", Json_out.Int m.Metrics.major_collections);
    ]

let result_json (r : Engine.result) =
  let outcome, ticks =
    match r.Engine.outcome with
    | Engine.Finished t -> ("finished", t)
    | Engine.Aborted t -> ("aborted", t)
    | Engine.Timed_out t -> ("timed_out", t)
  in
  Json_out.Obj
    ([
       ("outcome", Json_out.String outcome);
       ("ticks", Json_out.Int ticks);
       ("ideal", Json_out.Int r.Engine.ideal);
       ("factor", Json_out.Float r.Engine.factor);
       ("work_per_tick", Json_out.Float r.Engine.work_per_tick);
       ("final_vnodes", Json_out.Int r.Engine.final_vnodes);
       ("final_active", Json_out.Int r.Engine.final_active);
       ("messages", messages_json r.Engine.messages);
     ]
    (* keep the historical shape for batch runs *)
    @ (if Array.length r.Engine.steady > 0 then
         [
           ("arrived_total", Json_out.Int r.Engine.arrived_total);
           ( "sojourn_ledger",
             Json_out.List
               (List.map
                  (fun (s, c) ->
                    Json_out.List [ Json_out.Int s; Json_out.Int c ])
                  r.Engine.sojourn_ledger) );
         ]
       else [])
    (* keep the historical shape when metrics were off *)
    @
    if r.Engine.metrics.Metrics.enabled then
      [ ("metrics", metrics_json r.Engine.metrics) ]
    else [])

(* The one aggregate encoder, for --json output and sweep journals
   alike.  Every field is kept, so a journal-resumed sweep prints and
   exports byte-identically to an uninterrupted one: floats survive the
   trip exactly (Json_out renders %.17g, Json_in reads it back) and NaN
   travels as null. *)
let aggregate_json ?label (a : Runner.aggregate) =
  Json_out.Obj
    ((match label with Some l -> [ ("label", Json_out.String l) ] | None -> [])
    @ [
      ("trials", Json_out.Int a.Runner.trials);
      ("mean_factor", Json_out.Float a.Runner.mean_factor);
      ("stddev_factor", Json_out.Float a.Runner.stddev_factor);
      ("min_factor", Json_out.Float a.Runner.min_factor);
      ("max_factor", Json_out.Float a.Runner.max_factor);
      ("mean_ticks", Json_out.Float a.Runner.mean_ticks);
      ("mean_ideal", Json_out.Float a.Runner.mean_ideal);
      ("aborted", Json_out.Int a.Runner.aborted);
      ("finished", Json_out.Int a.Runner.finished);
      ("timed_out", Json_out.Int a.Runner.timed_out);
      ("mean_factor_finished", Json_out.Float a.Runner.mean_factor_finished);
      ("mean_ticks_finished", Json_out.Float a.Runner.mean_ticks_finished);
      ("mean_messages", Json_out.Float a.Runner.mean_messages);
      ("mean_tasks_lost", Json_out.Float a.Runner.mean_tasks_lost);
      ("open_system", Json_out.Bool a.Runner.open_system);
      (* NaN renders as null: the factor family above for open systems,
         the steady family below for batch runs. *)
      ("mean_arrived", Json_out.Float a.Runner.mean_arrived);
      ("steady_queue_p50", Json_out.Float a.Runner.steady_queue_p50);
      ("steady_queue_p95", Json_out.Float a.Runner.steady_queue_p95);
      ("steady_queue_p99", Json_out.Float a.Runner.steady_queue_p99);
      ("steady_sojourn_p50", Json_out.Float a.Runner.steady_sojourn_p50);
      ("steady_sojourn_p95", Json_out.Float a.Runner.steady_sojourn_p95);
      ("steady_sojourn_p99", Json_out.Float a.Runner.steady_sojourn_p99);
    ])

(* Fields are looked up by name, so journals written with any field
   order still decode. *)
let aggregate_of_json v =
  let get conv name =
    match Option.bind (Json_in.member name v) conv with
    | Some x -> x
    | None -> raise_notrace Exit
  in
  let int = get Json_in.to_int and flt = get Json_in.to_float in
  match
    {
      Runner.trials = int "trials";
      open_system = get Json_in.to_bool "open_system";
      mean_factor = flt "mean_factor";
      stddev_factor = flt "stddev_factor";
      min_factor = flt "min_factor";
      max_factor = flt "max_factor";
      mean_ticks = flt "mean_ticks";
      mean_ideal = flt "mean_ideal";
      aborted = int "aborted";
      finished = int "finished";
      timed_out = int "timed_out";
      mean_factor_finished = flt "mean_factor_finished";
      mean_ticks_finished = flt "mean_ticks_finished";
      mean_messages = flt "mean_messages";
      mean_tasks_lost = flt "mean_tasks_lost";
      mean_arrived = flt "mean_arrived";
      steady_queue_p50 = flt "steady_queue_p50";
      steady_queue_p95 = flt "steady_queue_p95";
      steady_queue_p99 = flt "steady_queue_p99";
      steady_sojourn_p50 = flt "steady_sojourn_p50";
      steady_sojourn_p95 = flt "steady_sojourn_p95";
      steady_sojourn_p99 = flt "steady_sojourn_p99";
    }
  with
  | a -> Some a
  | exception Exit -> None
