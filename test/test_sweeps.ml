(* Golden pins for the six parameter sweeps at tiny scale: the printed
   table, the CSV and (attack, head-to-head) the JSON must match the
   committed bytes under test/sweeps/, and each committed journal must
   resume with every cell read back and none recomputed.  The files were
   written by the per-sweep modules that Sweep replaced, so these tests
   also hold the engine byte-compatible with their output and their
   journals. *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let to_json v = Json_out.to_string ~pretty:true v ^ "\n"

(* The tiny declarations the goldens were recorded from: each default
   sweep with smaller axes and fixed fields. *)
let table2 =
  {
    Sweep.table2 with
    Sweep.axes =
      [ Sweep.floats "churn_rate" [ 0.0; 0.01 ]; Sweep.networks [ (24, 600); (12, 300) ] ];
  }

let degrade =
  {
    Sweep.degrade with
    Sweep.axes =
      [ Sweep.floats "drop" [ 0.0; 0.2 ]; Sweep.strategies "strategy" Strategy.all ];
    fixed = Sweep.sizes 24 600;
  }

let recovery =
  {
    Sweep.recovery with
    Sweep.axes = [ Sweep.ints "replicas" [ 1; 3 ]; Sweep.ints "burst_count" [ 4; 12 ] ];
    fixed = Sweep.sizes 24 1_200;
  }

let attack =
  {
    Sweep.attack with
    Sweep.axes =
      [
        Sweep.strategies "strategy" [ Strategy.Random_injection ];
        Sweep.ints "strength" [ 0; 3 ];
        Sweep.ints "puzzle_cost" [ 0; 4 ];
      ];
    fixed = Sweep.sizes 24 1_000 @ [ ("replicas", Sweep.Int 2) ];
  }

let steady =
  {
    Sweep.steady with
    Sweep.axes =
      [
        Sweep.strategies "strategy" [ Strategy.No_strategy; Strategy.Random_injection ];
        Sweep.floats "rate" [ 2.0; 8.0 ];
        Sweep.floats "churn" [ 0.0; 0.05 ];
      ];
    fixed = Sweep.sizes 16 100 @ [ ("horizon", Sweep.Int 40); ("window", Sweep.Int 10) ];
  }

let head_to_head =
  {
    Sweep.head_to_head with
    Sweep.axes =
      [
        Sweep.strategies "strategy"
          [ Strategy.No_strategy; Strategy.Diffusive; Strategy.Range_reassignment ];
        Sweep.floats "churn" [ 0.0; 0.01 ];
        Sweep.floats "drop" [ 0.05 ];
      ];
    fixed = Sweep.sizes 24 1_000;
  }

(* A sweep's outputs as (file suffix, bytes): the table and CSV, plus the
   JSON where the command line offers it. *)
let outputs ?(json = false) sweep ~trials ~seed journal =
  let cells = Sweep.run ~trials ~seed ?journal sweep in
  [ ("txt", Sweep.table sweep cells); ("csv", Sweep.csv sweep cells) ]
  @ if json then [ ("json", to_json (Sweep.json sweep cells)) ] else []

(* Head-to-head prints and exports its ChordReduce leg with the grid. *)
let head_to_head_outputs journal =
  let cells = Sweep.run ~trials:1 ~seed:9 ?journal head_to_head in
  let makespans = Headtohead.makespans ~seed:9 () in
  [
    ( "txt",
      Sweep.table head_to_head cells ^ "\n" ^ Headtohead.print_makespans makespans );
    ("csv", Sweep.csv head_to_head cells);
    ( "json",
      to_json
        (Json_out.Obj
           [
             ("grid", Sweep.json head_to_head cells);
             ("makespans", Headtohead.makespans_json makespans);
           ]) );
  ]

let sweeps =
  [
    ("table2", outputs table2 ~trials:2 ~seed:5);
    ("degrade", outputs degrade ~trials:1 ~seed:5);
    ("recovery-sweep", outputs recovery ~trials:2 ~seed:6);
    ("attack-sweep", outputs ~json:true attack ~trials:1 ~seed:13);
    ("steady-sweep", outputs steady ~trials:1 ~seed:7);
    ("head-to-head", head_to_head_outputs);
  ]

let golden name suffix = Filename.concat "sweeps" (name ^ "." ^ suffix)

let check_outputs name outputs =
  List.iter
    (fun (suffix, bytes) ->
      Alcotest.(check string)
        (name ^ "." ^ suffix) (read_file (golden name suffix)) bytes)
    outputs

let test_golden (name, sweep) () = check_outputs name (sweep None)

(* The committed journal holds every cell of the tiny sweep: resuming
   from a copy must print the golden bytes and append nothing, since
   [Journal.cell] records only the cells it had to compute. *)
let test_journal_resumes (name, sweep) () =
  let recorded = read_file (golden name "jsonl") in
  let path = Filename.temp_file "dhtlb_sweep" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Atomic_write.write path recorded;
      let j = Journal.open_ path in
      let outputs =
        Fun.protect ~finally:(fun () -> Journal.close j) (fun () ->
            sweep (Some j))
      in
      check_outputs name outputs;
      let lines s = List.length (String.split_on_char '\n' s) in
      Alcotest.(check int) "cells recomputed" 0
        (lines (read_file path) - lines recorded))

let () =
  Alcotest.run "sweeps"
    [
      ( "golden",
        List.map
          (fun s -> Alcotest.test_case (fst s) `Quick (test_golden s))
          sweeps );
      ( "journal resume",
        List.map
          (fun s -> Alcotest.test_case (fst s) `Quick (test_journal_resumes s))
          sweeps );
    ]
