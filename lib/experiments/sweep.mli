(** Declarative parameter sweeps.

    A sweep is a plain value: named axes whose product is the grid, the
    fixed fields every cell shares, a function from a cell's coordinates
    to the simulation it runs, and the columns it reports.  {!run} owns
    everything the grids have in common — the product in axis order,
    per-cell seed striding ({!Runner.stride_seed}), the journal key and
    {!Journal.cell}, and the trials themselves on [DHTLB_DOMAINS]
    domains ({!Scale.domains}).  The printed table, the CSV, the JSON
    and the journal payload are all read off the column list.

    Adding a sweep means writing one declaration; shrinking one (for a
    test) means overriding its [axes] or [fixed] fields. *)

type value =
  | Int of int
  | Float of float
  | Strategy of Strategy.t
  | Text of string

type coords = (string * value) list
(** Named fields: a cell's axis coordinates followed by the fixed
    fields, in declaration order. *)

type axis = { axis : string; points : coords list }
(** One grid axis.  A point usually binds the single field named like
    the axis, but may bind several (Table II's network axis binds
    [nodes] and [tasks] together). *)

val ints : string -> int list -> axis
val floats : string -> float list -> axis
val strategies : string -> Strategy.t list -> axis
(** Single-field axes. *)

val float : coords -> string -> float
(** A float field; [Invalid_argument] if it is missing or not a float. *)

val sizes : int -> int -> coords
(** The [nodes] and [tasks] fields. *)

type cell = {
  coords : coords;
  measures : (string * float) list;
      (** the trial-mean columns, computed from the raw trials or read
          back from the journal *)
  aggregate : Runner.aggregate;
}

type column
(** One reported quantity: a coordinate, a mean over the raw trials
    (journaled with the aggregate), or a value derived from the cell.
    Each column may appear in the CSV, the printed table or both; the
    JSON carries the coordinates and the trial means. *)

type layout
(** Flat rows, one per cell, or a pivot of two axes (Table II and the
    degradation grid). *)

type t = {
  experiment : string;  (** first field of every journal key *)
  axes : axis list;
  fixed : coords;
  setup : coords -> Params.t * Strategy.t;
      (** the simulation a cell runs; [run] overrides the seed *)
  columns : column list;
  layout : layout;
}

val run :
  trials:int ->
  seed:int ->
  ?journal:Journal.t ->
  ?trial_timeout:float ->
  t ->
  cell list
(** One cell per grid point, first axis outermost.  Cell [i] runs
    [trials] trials from seed [Runner.stride_seed ~base:seed ~trials
    ~index:i].  Its journal key is the experiment name, the coordinates,
    the fixed fields, the strided seed and the trial count, in that
    order; a journaled cell is read back instead of recomputed.
    [trial_timeout] arms the per-trial watchdog ({!Runner.run_all}). *)

val field : t -> cell -> string -> value
(** The value of the named column. *)

val table : t -> cell list -> string
val csv : t -> cell list -> string
(** NaN exports as an empty cell. *)

val json : t -> cell list -> Json_out.t
(** One object per cell: the [Coord] and [Trials] columns, then the
    full aggregate labelled with the coordinates. *)

(** {2 The declared sweeps} *)

val table2 : t
(** Table II: the runtime factor of Induced Churn across the paper's
    churn rates and five (nodes, tasks) networks, pivoted rates ×
    networks. *)

val networks : (int * int) list -> axis
(** Table II's network axis over (nodes, tasks) pairs. *)

val degrade : t
(** Graceful degradation: the runtime factor of every strategy as the
    control-plane drop rate ({!Faults.t}) climbs, under moderate churn
    and failures.  Data-plane traffic stays reliable, so every cell
    terminates and conserves keys; message-free strategies should stay
    flat across their row, while query-driven ones pay for each lost
    reply with retries or a dumber pick.  Pivoted strategies × rates. *)

val recovery : t
(** Live recovery under one early crash burst, against replication
    degree: the engine's own [tasks_lost] as a loss rate next to the
    analytic [f^(r+1)].  Degree 0 is left out: it switches recovery off,
    so its loss is 0 by construction. *)

val attack : t
(** Eclipse-attack damage against the admission-puzzle defense:
    attacker strength × [Params.puzzle_cost] with live replication.  A
    windowed attack eclipses one arc, holds its keys hostage and crashes
    every attacker when the window closes, so damage shows in the
    runtime factor and in [tasks_lost].  Strength 0 is the attack-off
    baseline; its defended row still prices the puzzle tax benign Sybils
    pay. *)

val steady : t
(** Open-system steady state: strategy × Poisson arrival rate × churn,
    each cell reporting warm-up-discarded queue and sojourn
    percentiles. *)

val head_to_head : t
(** The Sybil strategies against the non-Sybil competitors (diffusive
    transfers, range reassignment) across churn and reply-drop regimes.
    [mean_work_transfers] (tasks moved with no ownership change) and
    [mean_key_transfers] (ownership handovers) separate the families
    mechanically.  {!Headtohead} holds the ChordReduce makespan leg. *)
