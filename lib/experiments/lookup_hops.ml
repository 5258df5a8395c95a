type row = {
  nodes : int;
  lookups : int;
  mean_hops : float;
  p99_hops : float;
  expected : float;
}

let run ?(seed = 42) ?(sizes = [ 64; 128; 256; 512; 1024; 2048 ]) ?(lookups = 500) () =
  List.map
    (fun nodes ->
      let rng = Prng.create seed in
      let ring = Ring.of_ids (Keygen.node_ids rng nodes) in
      let tables = Routing.build_tables ring in
      let members = Array.of_list (List.map fst (Ring.bindings ring)) in
      let hops = Array.make lookups 0.0 in
      for i = 0 to lookups - 1 do
        let start = members.(Prng.int_below rng nodes) in
        let key = Keygen.fresh rng in
        match Routing.lookup ring tables ~start ~key with
        | Some (_, h) -> hops.(i) <- float_of_int h
        | None -> invalid_arg "Lookup_hops: routing failed on a consistent ring"
      done;
      {
        nodes;
        lookups;
        mean_hops = Descriptive.mean hops;
        p99_hops = Descriptive.percentile hops 99.0;
        expected = Routing.expected_hops nodes;
      })
    sizes

let print_table rows =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "%8s %9s %10s %9s %14s\n" "nodes" "lookups" "mean hops"
       "p99" "log2(n)/2");
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%8d %9d %10.2f %9.1f %14.2f\n" r.nodes r.lookups
           r.mean_hops r.p99_hops r.expected))
    rows;
  Buffer.contents buf
