type window = {
  index : int;
  start_tick : int;
  ticks : int;
  arrivals : int;
  completions : int;
  arrival_rate : float;
  completion_rate : float;
  queue_p50 : float;
  queue_p95 : float;
  queue_p99 : float;
  sojourn_p50 : float;
  sojourn_p95 : float;
  sojourn_p99 : float;
  sojourn_mean : float;
  sybil_min : int;
  sybil_max : int;
  sybil_mean : float;
}

(* Per-window accumulation keeps the raw per-tick samples (bounded by
   the window length) because percentiles need order statistics; the
   closed windows themselves are O(1) records, so a horizon of any
   length costs horizon/window records plus one window of samples. *)
type t = {
  window : int;
  mutable index : int;
  mutable start_tick : int;
  mutable ticks : int;
  mutable arrivals : int;
  mutable completions : int;
  mutable queues : int list;
  mutable sybils : int list;
  mutable sojourns : int array;  (* the first [n_sojourns], in arrival order *)
  mutable n_sojourns : int;
  mutable closed : window list;  (* reverse order *)
}

let create ~window =
  if window < 1 then invalid_arg "Steady.create: window must be >= 1";
  {
    window;
    index = 0;
    start_tick = 0;
    ticks = 0;
    arrivals = 0;
    completions = 0;
    queues = [];
    sybils = [];
    sojourns = [||];
    n_sojourns = 0;
    closed = [];
  }

(* Sorted as ints: a float array sorted through the polymorphic sort
   boxes every element it reads. *)
let sorted_floats a =
  let c = Array.copy a in
  Array.sort Int.compare c;
  Array.map float_of_int c

let percentile_or_nan s p =
  if Array.length s = 0 then Float.nan else Descriptive.percentile_sorted s p

(* Pure: summarize the current accumulators into a window record. *)
let make_window t =
  let ticks = t.ticks in
  let queues = sorted_floats (Array.of_list t.queues) in
  let sojourns = Array.sub t.sojourns 0 t.n_sojourns in
  let sorted_sojourns = sorted_floats sojourns in
  let sybil_min, sybil_max, sybil_sum =
    List.fold_left
      (fun (lo, hi, sum) s -> (min lo s, max hi s, sum + s))
      (max_int, min_int, 0) t.sybils
  in
  {
    index = t.index;
    start_tick = t.start_tick;
    ticks;
    arrivals = t.arrivals;
    completions = t.completions;
    arrival_rate = float_of_int t.arrivals /. float_of_int ticks;
    completion_rate = float_of_int t.completions /. float_of_int ticks;
    queue_p50 = percentile_or_nan queues 50.0;
    queue_p95 = percentile_or_nan queues 95.0;
    queue_p99 = percentile_or_nan queues 99.0;
    (* A window in which nothing completed has no sojourn sample — NaN,
       rendered as null in JSON exports, never a fake zero. *)
    sojourn_p50 = percentile_or_nan sorted_sojourns 50.0;
    sojourn_p95 = percentile_or_nan sorted_sojourns 95.0;
    sojourn_p99 = percentile_or_nan sorted_sojourns 99.0;
    sojourn_mean =
      (if Array.length sojourns = 0 then Float.nan
       else
         (* Summed in arrival order, as [Descriptive.mean] would. *)
         Array.fold_left (fun acc x -> acc +. float_of_int x) 0.0 sojourns
         /. float_of_int (Array.length sojourns));
    sybil_min = (if sybil_min = max_int then 0 else sybil_min);
    sybil_max = (if sybil_max = min_int then 0 else sybil_max);
    sybil_mean = float_of_int sybil_sum /. float_of_int ticks;
  }

let note t ~arrivals ~completions ~queue ~sybils ~sojourns =
  t.ticks <- t.ticks + 1;
  t.arrivals <- t.arrivals + arrivals;
  t.completions <- t.completions + completions;
  t.queues <- queue :: t.queues;
  t.sybils <- sybils :: t.sybils;
  List.iter
    (fun x ->
      if t.n_sojourns = Array.length t.sojourns then begin
        let grown = Array.make (max 256 (2 * t.n_sojourns)) 0 in
        Array.blit t.sojourns 0 grown 0 t.n_sojourns;
        t.sojourns <- grown
      end;
      t.sojourns.(t.n_sojourns) <- x;
      t.n_sojourns <- t.n_sojourns + 1)
    sojourns;
  if t.ticks >= t.window then begin
    t.closed <- make_window t :: t.closed;
    t.index <- t.index + 1;
    t.start_tick <- t.start_tick + t.ticks;
    t.ticks <- 0;
    t.arrivals <- 0;
    t.completions <- 0;
    t.queues <- [];
    t.sybils <- [];
    t.n_sojourns <- 0
  end

let windows t =
  let closed = List.rev t.closed in
  (* A trailing partial window (horizon not divisible by the window
     length) is reported too — its [ticks] field says how long it really
     was.  Read-only: callable mid-run. *)
  let all = if t.ticks > 0 then closed @ [ make_window t ] else closed in
  Array.of_list all
