type node = { succ : Id.t; links : Id.t list }

type t = { members : node Ring.t; n : int }

(* Harmonic distance: pdf ∝ 1/d on [1/N, 1], sampled as N^(u-1). *)
let harmonic_fraction rng ~n =
  let u = Prng.float_unit rng in
  Float.pow (float_of_int n) (u -. 1.0)

let build rng ~ids ~long_links =
  let n = Array.length ids in
  if n = 0 then invalid_arg "Symphony.build: no members";
  if long_links < 0 then invalid_arg "Symphony.build: negative long_links";
  let membership = Ring.of_ids ids in
  let owner key =
    match Ring.successor_incl key membership with
    | Some (o, ()) -> o
    | None -> assert false
  in
  let members = Ring.create () in
  Array.iter
    (fun id ->
      let succ =
        match Ring.successor id membership with
        | Some (s, ()) -> s
        | None -> id
      in
      let rec draw tries acc_links remaining =
        if remaining = 0 || tries > 20 * long_links then acc_links
        else begin
          let d = harmonic_fraction rng ~n in
          let target =
            Id.add id (Id.of_fraction (Float.min d 0.999999))
          in
          let link = owner target in
          if Id.equal link id || List.exists (Id.equal link) acc_links then
            draw (tries + 1) acc_links remaining
          else draw (tries + 1) (link :: acc_links) (remaining - 1)
        end
      in
      let links = if n > 1 then draw 0 [] long_links else [] in
      (* A repeated id keeps its first entry, as in [membership]. *)
      if not (Ring.mem id members) then
        ignore (Ring.add id { succ; links } members : node Ring.node))
    ids;
  { members; n }

let size t = t.n

let long_links_of t id =
  match Ring.find_opt id t.members with
  | Some node -> node.links
  | None -> []

let lookup t ~start ~key =
  match Ring.find_opt start t.members with
  | None -> None
  | Some _ ->
    let cap = 8 * Id.bits in
    let rec go cur hops =
      if hops > cap then None
      else
        match Ring.find_opt cur t.members with
        | None -> None
        | Some node ->
          if t.n = 1 then Some (cur, hops)
          else if Id.between_oc ~after:cur ~upto:node.succ key then
            Some (node.succ, hops + 1)
          else begin
            (* greedy: the neighbour that lands closest to the key
               (clockwise) without passing it *)
            let candidates =
              List.filter
                (fun x -> Id.between_oc ~after:cur ~upto:key x)
                (node.succ :: node.links)
            in
            let next =
              List.fold_left
                (fun best x ->
                  match best with
                  | Some b
                    when Id.compare
                           (Id.distance_cw b key)
                           (Id.distance_cw x key)
                         <= 0 ->
                    best
                  | _ -> Some x)
                None candidates
            in
            match next with
            | Some nxt when not (Id.equal nxt cur) -> go nxt (hops + 1)
            | _ -> Some (node.succ, hops + 1) (* successor fallback *)
          end
    in
    go start 0

let expected_hops ~n ~k =
  if n <= 1 then 0.0
  else begin
    let l = log (float_of_int n) /. log 2.0 in
    l *. l /. (2.0 *. float_of_int (max 1 k))
  end
