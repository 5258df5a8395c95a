(** Machine-readable exports of experiment results (CSV / JSON). *)

val columns : (string * ('a -> string)) list -> 'a list -> string
(** A CSV table from (header, cell) columns, one row per value. *)

val fnan : float -> string
(** A float cell: six decimals, or empty for NaN. *)

val table1_csv : Initial_distribution.table1_row list -> string
val lookup_hops_csv : Lookup_hops.row list -> string
val maintenance_csv : Maintenance.row list -> string
val failure_recovery_csv : Failure_recovery.row list -> string

val steady_csv : Steady.window array -> string
(** One open-system run's measurement windows: arrival/completion rates,
    queue and sojourn percentiles, Sybil-count extremes per window.  NaN
    sojourn cells (no completions in the window) export as empty. *)

val work_timeline_csv : Work_timeline.series list -> string

val trace_csv : Trace.t -> string
(** Per-tick series of one run: tick, work done, remaining, active
    machines, vnodes. *)

val metrics_json : Metrics.report -> Json_out.t
(** Per-phase timings and GC deltas of one run. *)

val result_json : Engine.result -> Json_out.t
(** One simulation result as a JSON object (outcome, factor, messages,
    work-per-tick mean; traces are exported separately as CSV).  Gains a
    ["metrics"] object when the run had metrics enabled; the shape is
    unchanged otherwise. *)

val aggregate_json : ?label:string -> Runner.aggregate -> Json_out.t
(** Every {!Runner.aggregate} field, after a ["label"] member when one
    is given.  Floats render exactly and NaN as null, so the encoding
    round-trips through {!aggregate_of_json}. *)

val aggregate_of_json : Json_out.t -> Runner.aggregate option
(** Members are read by name; [None] if any is missing or mistyped. *)
