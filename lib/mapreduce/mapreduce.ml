type ('k, 'v) job = {
  map : Id.t -> string -> ('k * 'v) list;
  combine : 'v -> 'v -> 'v;
  key_id : 'k -> Id.t;
}

type phase_stats = {
  tasks : int;
  busy_workers : int;
  makespan : int;
  mean_load : float;
  gini : float;
}

type ('k, 'v) result = {
  pairs : ('k * 'v) list;
  map_stats : phase_stats;
  reduce_stats : phase_stats;
  total_makespan : int;
}

let owner ring key =
  match Ring.successor_incl key ring with
  | Some (wid, ()) -> wid
  | None -> invalid_arg "Mapreduce: empty worker ring"

let stats_of_loads n_workers loads =
  let arr = Array.make n_workers 0 in
  let i = ref 0 in
  Hashtbl.iter
    (fun _ c ->
      arr.(!i) <- c;
      incr i)
    loads;
  let tasks = Array.fold_left ( + ) 0 arr in
  {
    tasks;
    busy_workers = Hashtbl.length loads;
    makespan = Array.fold_left max 0 arr;
    mean_load = float_of_int tasks /. float_of_int n_workers;
    gini = Inequality.gini arr;
  }

let run ~workers ~input job =
  if Array.length workers = 0 then invalid_arg "Mapreduce.run: no workers";
  let ring = Ring.of_ids workers in
  let n = Array.length workers in
  (* Map phase: each record is a task on the worker owning its chunk id. *)
  let map_loads = Hashtbl.create n in
  let bump tbl k = Hashtbl.replace tbl k (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)) in
  let intermediate = Hashtbl.create 1024 in
  List.iter
    (fun (chunk_id, record) ->
      bump map_loads (owner ring chunk_id);
      List.iter
        (fun (k, v) ->
          match Hashtbl.find_opt intermediate k with
          | Some v0 -> Hashtbl.replace intermediate k (job.combine v0 v)
          | None -> Hashtbl.replace intermediate k v)
        (job.map chunk_id record))
    input;
  (* Shuffle + reduce phase: each distinct key is a task on the worker
     owning SHA1(key).  Values were pre-combined per key above, which is
     what a combiner does on real MapReduce; the reduce task count is the
     number of distinct keys a worker owns. *)
  let reduce_loads = Hashtbl.create n in
  let pairs = ref [] in
  Hashtbl.iter
    (fun k v ->
      bump reduce_loads (owner ring (job.key_id k));
      pairs := (k, v) :: !pairs)
    intermediate;
  let map_stats = stats_of_loads n map_loads in
  let reduce_stats = stats_of_loads n reduce_loads in
  {
    pairs = !pairs;
    map_stats;
    reduce_stats;
    total_makespan = map_stats.makespan + reduce_stats.makespan;
  }

module Chunks = struct
  type t = Id_set.t

  let cardinal = Id_set.cardinal
  let mem = Id_set.mem
  let to_list = Id_set.elements
end

let tokenize record =
  String.split_on_char ' ' record
  |> List.concat_map (String.split_on_char '\n')
  |> List.filter_map (fun w ->
         let w = String.trim w in
         if String.equal w "" then None else Some w)

let word_count =
  {
    map = (fun _ record -> List.map (fun w -> (w, 1)) (tokenize record));
    combine = ( + );
    key_id = (fun w -> Id.of_raw_string (Sha1.digest_string w));
  }

let inverted_index =
  {
    map =
      (fun chunk_id record ->
        List.map
          (fun w -> (w, Id_set.add chunk_id Id_set.empty))
          (List.sort_uniq String.compare (tokenize record)));
    combine = Id_set.union;
    key_id = (fun w -> Id.of_raw_string (Sha1.digest_string w));
  }

(* Count non-overlapping occurrences of [pattern] in [text]. *)
let count_occurrences ~pattern text =
  let pl = String.length pattern and tl = String.length text in
  if pl = 0 then 0
  else begin
    let count = ref 0 and i = ref 0 in
    while !i + pl <= tl do
      if String.sub text !i pl = pattern then begin
        incr count;
        i := !i + pl
      end
      else incr i
    done;
    !count
  end

let grep ~pattern =
  {
    map =
      (fun chunk_id record ->
        let n = count_occurrences ~pattern record in
        if n > 0 then [ (chunk_id, n) ] else []);
    combine = ( + );
    key_id = Fun.id;
  }

let chunk_input records =
  List.mapi
    (fun i record ->
      let id =
        Id.of_raw_string (Sha1.digest_string (string_of_int i ^ ":" ^ record))
      in
      (id, record))
    records
