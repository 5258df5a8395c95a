(* One engine for every parameter grid.  A declaration says what varies
   (the axes), what does not (the fixed fields, part of the journal key),
   what a cell simulates (setup) and what it reports (the columns); run
   does the rest the same way for every sweep, and the table, CSV, JSON
   and journal payload are all read off the column list. *)

type value =
  | Int of int
  | Float of float
  | Strategy of Strategy.t
  | Text of string

type coords = (string * value) list
type axis = { axis : string; points : coords list }

let axis name values =
  { axis = name; points = List.map (fun v -> [ (name, v) ]) values }

let ints name xs = axis name (List.map (fun x -> Int x) xs)
let floats name xs = axis name (List.map (fun x -> Float x) xs)
let strategies name xs = axis name (List.map (fun x -> Strategy x) xs)

let typed kind get c name =
  match Option.bind (List.assoc_opt name c) get with
  | Some x -> x
  | None -> invalid_arg (Printf.sprintf "Sweep: no %s field %s" kind name)

let int = typed "int" (function Int x -> Some x | _ -> None)
let float = typed "float" (function Float x -> Some x | _ -> None)
let strategy = typed "strategy" (function Strategy s -> Some s | _ -> None)

type cell = {
  coords : coords;
  measures : (string * float) list;
  aggregate : Runner.aggregate;
}

(* Where a column's value comes from: a coordinate or fixed field; a
   per-trial reading averaged over the raw trials, computed once and
   journaled; or anything derived from the cell, recomputed on every
   read. *)
type source =
  | Coord of string
  | Trials of (Engine.result -> float)
  | Derived of (cell -> value)

type column = {
  name : string;
  source : source;
  csv : bool;
  table : (string * int * int) option;  (* header, width, float digits *)
}

let column name source = { name; source; csv = true; table = None }
let coord name = column name (Coord name)
let derived name f = column name (Derived (fun c -> Float (f c)))
let agg name f = derived name (fun c -> f c.aggregate)
let agg_int name f = column name (Derived (fun c -> Int (f c.aggregate)))

(* Also print the column in the table; a negative width left-aligns. *)
let show header width digits c =
  { c with table = Some (header, width, digits) }

(* The mean of one message counter across the raw trials. *)
let mean_counter name field =
  column name (Trials (fun r -> float_of_int (field r.Engine.messages)))

type layout =
  | Rows
  | Pivot of {
      corner : string;
      rows : string;
      cols : string;
      row_label : coords -> string;
      col_label : coords -> string;
    }

type t = {
  experiment : string;
  axes : axis list;
  fixed : coords;
  setup : coords -> Params.t * Strategy.t;
  columns : column list;
  layout : layout;
}

let json_of_value = function
  | Int x -> Json_out.Int x
  | Float x -> Json_out.Float x
  | Strategy s -> Json_out.String (Strategy.name s)
  | Text s -> Json_out.String s

(* Journal payload: the Trials columns by name, then the aggregate.  The
   aggregate-only sweeps once journaled the bare aggregate as the whole
   payload; reading members by name keeps those journals resumable. *)
let encode (measures, aggregate) =
  Json_out.Obj
    (List.map (fun (n, x) -> (n, Json_out.Float x)) measures
    @ [ ("aggregate", Export.aggregate_json aggregate) ])

let decode names v =
  let member n = Option.bind (Json_in.member n v) Json_in.to_float in
  let measures =
    List.filter_map (fun n -> Option.map (fun x -> (n, x)) (member n)) names
  in
  let aggregate = Option.value (Json_in.member "aggregate" v) ~default:v in
  match Export.aggregate_of_json aggregate with
  | Some a when List.length measures = List.length names -> Some (measures, a)
  | _ -> None

(* The grid in today's cell order: the first axis outermost. *)
let product axes =
  List.fold_right
    (fun a rest ->
      List.concat_map (fun p -> List.map (fun r -> p @ r) rest) a.points)
    axes [ [] ]

let run ~trials ~seed ?journal ?trial_timeout t =
  let measured =
    List.filter_map
      (fun c -> match c.source with Trials f -> Some (c.name, f) | _ -> None)
      t.columns
  in
  List.mapi
    (fun index point ->
      let coords = point @ t.fixed in
      (* Disjoint per-cell seed ranges; see Runner.stride_seed. *)
      let cell_seed = Runner.stride_seed ~base:seed ~trials ~index in
      let params, strategy = t.setup coords in
      let params = { params with Params.seed = cell_seed } in
      let key =
        Journal.key
          ((("experiment", Json_out.String t.experiment)
           :: List.map (fun (n, v) -> (n, json_of_value v)) coords)
          @ [ ("seed", Json_out.Int cell_seed); ("trials", Json_out.Int trials) ]
          )
      in
      let measures, aggregate =
        Journal.cell journal ~key ~encode
          ~decode:(decode (List.map fst measured))
          (fun () ->
            let results =
              Runner.run_all ~trials ~domains:(Scale.domains ())
                ?trial_timeout params (Strategy.make strategy)
            in
            ( List.map
                (fun (n, f) -> (n, Descriptive.mean (Array.map f results)))
                measured,
              Runner.aggregate_of params results ))
      in
      { coords; measures; aggregate })
    (product t.axes)

let value cell c =
  match c.source with
  | Coord f -> List.assoc f cell.coords
  | Trials _ -> Float (List.assoc c.name cell.measures)
  | Derived f -> f cell

let field t cell name =
  match List.find_opt (fun c -> c.name = name) t.columns with
  | Some c -> value cell c
  | None -> invalid_arg ("Sweep: no column " ^ name)

(* ---- rendering ---------------------------------------------------- *)

let to_text digits = function
  | Int x -> string_of_int x
  | Float x -> Printf.sprintf "%.*f" digits x
  | Strategy s -> Strategy.name s
  | Text s -> s

let pad width s =
  if width < 0 then Printf.sprintf "%-*s" (-width) s
  else Printf.sprintf "%*s" width s

let table t cells =
  let shown =
    List.filter_map
      (fun c -> Option.map (fun (h, w, d) -> (c, h, w, d)) c.table)
      t.columns
  in
  let render cell =
    List.map (fun (c, _, w, d) -> pad w (to_text d (value cell c))) shown
  in
  let lines =
    match t.layout with
    | Rows ->
      String.concat " " (List.map (fun (_, h, w, _) -> pad w h) shown)
      :: List.map (fun cell -> String.concat " " (render cell)) cells
    | Pivot p ->
      let points name =
        List.sort_uniq compare
          (List.find (fun a -> a.axis = name) t.axes).points
      in
      let at row col =
        List.find
          (fun cell ->
            List.for_all (fun f -> List.mem f cell.coords) (row @ col))
          cells
      in
      let cols = points p.cols in
      String.concat "" (p.corner :: List.map p.col_label cols)
      :: List.map
           (fun row ->
             String.concat ""
               (p.row_label row
               :: List.concat_map
                    (fun col -> List.map (( ^ ) " | ") (render (at row col)))
                    cols))
           (points p.rows)
  in
  String.concat "" (List.map (fun l -> l ^ "\n") lines)

let csv t cells =
  let text c cell =
    match value cell c with Float x -> Export.fnan x | v -> to_text 0 v
  in
  Export.columns
    (List.filter_map
       (fun c -> if c.csv then Some (c.name, text c) else None)
       t.columns)
    cells

(* JSON carries what the aggregate cannot: the coordinates and the
   Trials columns.  The label names the cell by its coordinates; a
   strategy names itself. *)
let json t cells =
  let members =
    List.filter
      (fun c -> match c.source with Derived _ -> false | _ -> true)
      t.columns
  in
  let label (c, v) =
    match (c.source, v) with
    | Coord _, Strategy s -> Some (Strategy.name s)
    | Coord _, Float x -> Some (Printf.sprintf "%s=%g" c.name x)
    | Coord _, v -> Some (c.name ^ "=" ^ to_text 0 v)
    | _ -> None
  in
  Json_out.List
    (List.map
       (fun cell ->
         let fields = List.map (fun c -> (c, value cell c)) members in
         let label = String.concat " " (List.filter_map label fields) in
         Json_out.Obj
           (List.map (fun (c, v) -> (c.name, json_of_value v)) fields
           @ [ ("aggregate", Export.aggregate_json ~label cell.aggregate) ]))
       cells)

(* ---- the declared sweeps ------------------------------------------ *)

(* The runtime-factor family every batch sweep exports, with the mean
   factor and the aborted count optionally shown in the table. *)
let factor_columns factor aborted =
  [
    factor (agg "mean_factor" (fun a -> a.Runner.mean_factor));
    agg "stddev_factor" (fun a -> a.Runner.stddev_factor);
    agg_int "trials" (fun a -> a.Runner.trials);
    aborted (agg_int "aborted" (fun a -> a.Runner.aborted));
    agg "mean_factor_finished" (fun a -> a.Runner.mean_factor_finished);
  ]

let default c = Params.default ~nodes:(int c "nodes") ~tasks:(int c "tasks")

(* The strategy coordinate and the parameters tuned for it. *)
let tuned c params =
  let s = strategy c "strategy" in
  (Strategy.default_params s params, s)

let sizes nodes tasks = [ ("nodes", Int nodes); ("tasks", Int tasks) ]

let networks configs =
  { axis = "network"; points = List.map (fun (n, t) -> sizes n t) configs }

let table2 =
  {
    experiment = "churn_sweep";
    axes =
      [
        floats "churn_rate" [ 0.0; 0.0001; 0.001; 0.01 ];
        networks
          [
            (1000, 100_000);
            (1000, 1_000_000);
            (100, 10_000);
            (100, 100_000);
            (100, 1_000_000);
          ];
      ];
    fixed = [];
    setup =
      (fun c ->
        ( { (default c) with Params.churn_rate = float c "churn_rate" },
          Strategy.Induced_churn ));
    columns =
      [ coord "churn_rate"; coord "nodes"; coord "tasks" ]
      @ factor_columns (show "" 11 3) Fun.id;
    layout =
      Pivot
        {
          corner = Printf.sprintf "%-8s" "Churn";
          rows = "churn_rate";
          cols = "network";
          row_label = (fun c -> Printf.sprintf "%-8g" (float c "churn_rate"));
          col_label =
            (fun c ->
              Printf.sprintf " | %5dn/%.0e" (int c "nodes")
                (float_of_int (int c "tasks")));
        };
  }

let degrade =
  {
    experiment = "degradation";
    axes =
      [
        floats "drop" [ 0.0; 0.05; 0.1; 0.2; 0.5 ];
        strategies "strategy" Strategy.all;
      ];
    fixed = sizes 100 10_000;
    setup =
      (fun c ->
        tuned c
          {
            (default c) with
            Params.churn_rate = 0.01;
            failure_rate = 0.005;
            sybil_threshold = 1;
            faults = { Faults.none with Faults.drop = float c "drop" };
          });
    columns =
      [ { (coord "drop") with name = "drop_rate" }; coord "strategy" ]
      @ factor_columns (show "" 8 3) Fun.id;
    layout =
      Pivot
        {
          corner =
            Harness.header
              "Degradation: mean runtime factor vs control-plane drop rate"
            ^ Printf.sprintf "%-18s" "strategy";
          rows = "strategy";
          cols = "drop";
          row_label =
            (fun c ->
              Printf.sprintf "%-18s" (Strategy.name (strategy c "strategy")));
          col_label = (fun c -> Printf.sprintf " | p=%-6g" (float c "drop"));
        };
  }

let recovery =
  let fraction c =
    float_of_int (int c.coords "burst_count")
    /. float_of_int (int c.coords "nodes")
  in
  {
    experiment = "recovery_sweep";
    axes = [ ints "replicas" [ 1; 2; 3 ]; ints "burst_count" [ 4; 10; 20 ] ];
    fixed = sizes 40 4_000;
    (* Churn off and the burst early: it hits the initial ring, every
       replica group fully enrolled and barely any task consumed — the
       closest the live simulation gets to the analytic model. *)
    setup =
      (fun c ->
        ( {
            (default c) with
            Params.replicas = int c "replicas";
            faults =
              {
                Faults.none with
                Faults.crash_bursts =
                  [ { Faults.at = 1; count = int c "burst_count" } ];
              };
          },
          Strategy.No_strategy ));
    columns =
      [
        show "replicas" (-8) 0 (coord "replicas");
        show "burst" 6 0 (coord "burst_count");
        show "frac" 7 3 (derived "burst_fraction" fraction);
        show "measured loss" 14 6
          (derived "measured_loss_rate" (fun c ->
               c.aggregate.Runner.mean_tasks_lost
               /. float_of_int (int c.coords "tasks")));
        show "expected f^r+1" 14 6
          (derived "expected_loss_rate" (fun c ->
               Replication.expected_loss_rate ~fail_fraction:(fraction c)
                 ~replicas:(int c.coords "replicas")));
        show "mean factor" 12 3
          (agg "mean_factor" (fun a -> a.Runner.mean_factor));
        agg "mean_tasks_lost" (fun a -> a.Runner.mean_tasks_lost);
        agg_int "trials" (fun a -> a.Runner.trials);
      ];
    layout = Rows;
  }

let attack =
  {
    experiment = "attack_sweep";
    axes =
      [
        strategies "strategy" [ Strategy.Random_injection ];
        ints "strength" [ 0; 2; 4; 8 ];
        ints "puzzle_cost" [ 0; 4 ];
      ];
    fixed = sizes 48 4_000 @ [ ("replicas", Int 2) ];
    setup =
      (fun c ->
        let strength = int c "strength" in
        tuned c
          {
            (default c) with
            Params.replicas = int c "replicas";
            churn_rate = 0.01;
            attack =
              (if strength = 0 then Attack.none
               else
                 {
                   Attack.strength;
                   machines = 4;
                   target = 0.25;
                   width = 0.15;
                   window = Some (2, 18);
                 });
            puzzle_cost = int c "puzzle_cost";
          });
    columns =
      [
        show "strength" (-8) 0 (coord "strength");
        show "puzzle" 6 0 (coord "puzzle_cost");
        show "attack_joins" 12 1
          (mean_counter "mean_attack_joins" (fun m -> m.Messages.attack_joins));
        show "puzzles" 8 1
          (mean_counter "mean_puzzles" (fun m -> m.Messages.puzzles));
        show "tasks_lost" 10 1
          (mean_counter "mean_tasks_lost" (fun m -> m.Messages.tasks_lost));
      ]
      @ factor_columns (show "mean factor" 12 3) (show "aborted" 8 0);
    layout = Rows;
  }

let steady =
  (* One table column "p50/p95/p99" ("-" where no window saw a
     completion) and three CSV columns. *)
  let percentiles header name ps =
    let one v = if Float.is_nan v then "-" else Printf.sprintf "%.1f" v in
    {
      (column name
         (Derived
            (fun c ->
              Text
                (String.concat "/"
                   (List.map (fun (_, p) -> one (p c.aggregate)) ps)))))
      with
      csv = false;
      table = Some (header, 21, 0);
    }
    :: List.map (fun (suffix, p) -> agg (name ^ "_" ^ suffix) p) ps
  in
  {
    experiment = "steady_sweep";
    axes =
      [
        (* One strategy per family: the do-nothing baseline, blind
           injection, the query-driven variant with retries and the
           paper's cooperative protocol. *)
        strategies "strategy"
          [
            Strategy.No_strategy;
            Strategy.Random_injection;
            Strategy.Smart_neighbor_injection;
            Strategy.Invitation;
          ];
        (* Light / moderate / saturating load for a 40-machine ring: at
           one task per machine per tick, 20 arrivals/tick leaves no
           slack once churn removes a few machines. *)
        floats "rate" [ 2.0; 8.0; 20.0 ];
        floats "churn" [ 0.0; 0.05 ];
      ];
    fixed = sizes 40 500 @ [ ("horizon", Int 120); ("window", Int 20) ];
    setup =
      (fun c ->
        tuned c
          {
            (default c) with
            Params.churn_rate = float c "churn";
            arrivals =
              {
                Arrivals.none with
                Arrivals.profile =
                  Some (Arrivals.Poisson { rate = float c "rate" });
                horizon = int c "horizon";
                window = int c "window";
              };
          });
    columns =
      [
        show "strategy" (-16) 0 (coord "strategy");
        show "rate" 6 1 (coord "rate");
        show "churn" 6 2 (coord "churn");
        agg_int "trials" (fun a -> a.Runner.trials);
        show "arrived" 9 1
          (agg "mean_arrived" (fun a -> a.Runner.mean_arrived));
        agg "mean_tasks_lost" (fun a -> a.Runner.mean_tasks_lost);
      ]
      @ percentiles "queue p50/p95/p99" "queue"
          [
            ("p50", fun a -> a.Runner.steady_queue_p50);
            ("p95", fun a -> a.Runner.steady_queue_p95);
            ("p99", fun a -> a.Runner.steady_queue_p99);
          ]
      @ percentiles "sojourn p50/p95/p99" "sojourn"
          [
            ("p50", fun a -> a.Runner.steady_sojourn_p50);
            ("p95", fun a -> a.Runner.steady_sojourn_p95);
            ("p99", fun a -> a.Runner.steady_sojourn_p99);
          ];
    layout = Rows;
  }

let head_to_head =
  {
    experiment = "head_to_head";
    axes =
      [
        strategies "strategy" Headtohead.families;
        floats "churn" [ 0.0; 0.01 ];
        floats "drop" [ 0.0; 0.05 ];
      ];
    fixed = sizes 48 4_000;
    setup =
      (fun c ->
        tuned c
          {
            (default c) with
            Params.churn_rate = float c "churn";
            faults = { Faults.none with Faults.drop = float c "drop" };
          });
    columns =
      [
        show "strategy" (-15) 0 (coord "strategy");
        show "churn" 6 3 (coord "churn");
        show "drop" 6 3 (coord "drop");
        show "work_transfers" 14 1
          (mean_counter "mean_work_transfers" (fun m ->
               m.Messages.work_transfers));
        show "key_transfers" 13 1
          (mean_counter "mean_key_transfers" (fun m -> m.Messages.key_transfers));
      ]
      @ factor_columns (show "mean factor" 12 3) (show "aborted" 8 0);
    layout = Rows;
  }
