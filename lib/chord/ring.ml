(* One mutable ordered ring: every member is a node of an AVL tree
   (ordered by id, for descents from an arbitrary id) and of a circular
   doubly-linked list (in id order, for stepping to a neighbour).  A
   join inserts with one descent and reads its neighbours off the
   links; a leave unlinks in O(1) and detaches from the tree with one
   descent, relinking nodes instead of copying root-to-leaf paths.

   Ids are 20-byte strings, so a full comparison is a string compare.
   Each node caches its id's top 62 bits as an int; descents compare
   the ints and fall back to [Id.compare] only when two prefixes tie. *)

type 'a node =
  | Nil
  | Node of {
      key : Id.t;
      prefix : int;
      value : 'a;
      mutable next : 'a node;
      mutable prev : 'a node;
      mutable left : 'a node;
      mutable right : 'a node;
      mutable height : int;
    }

(* The size rides along: the simulation asks for the ring size on hot
   paths (every leave's last-node check, every join's lookup-hop
   pricing, every trace record). *)
type 'a t = { mutable root : 'a node; mutable size : int }

let prefix_of id =
  Int64.to_int
    (Int64.shift_right_logical (String.get_int64_be (Id.to_raw_string id) 0) 2)

let create () = { root = Nil; size = 0 }
let is_empty t = t.size = 0
let cardinal t = t.size

let key = function Node r -> r.key | Nil -> invalid_arg "Ring.key"
let value = function Node r -> r.value | Nil -> invalid_arg "Ring.value"
let next = function Node r -> r.next | Nil -> invalid_arg "Ring.next"
let prev = function Node r -> r.prev | Nil -> invalid_arg "Ring.prev"
let binding n = (key n, value n)

(* Order of (prefix, id) against node [n]: negative if it sorts first. *)
let cmp prefix id = function
  | Nil -> assert false
  | Node r ->
    if prefix < r.prefix then -1
    else if prefix > r.prefix then 1
    else Id.compare id r.key

(* The node holding [id], or else the last node a descent for [id]
   visits: the tree parent [id] would get, which is always its in-order
   predecessor or successor.  [Nil] only on an empty ring. *)
let locate id t =
  let prefix = prefix_of id in
  let rec go n =
    match n with
    | Nil -> assert false
    | Node r ->
      let c = cmp prefix id n in
      let child = if c < 0 then r.left else r.right in
      if c = 0 || child == Nil then n else go child
  in
  if t.root == Nil then Nil else go t.root

let find_node id t =
  match locate id t with
  | Nil -> None
  | n -> if Id.equal (key n) id then Some n else None

let mem id t = Option.is_some (find_node id t)
let find_opt id t = Option.map value (find_node id t)

let first_at_or_after id t =
  match locate id t with
  | Nil -> None
  | n -> Some (if Id.compare id (key n) <= 0 then n else next n)

let first_after id t =
  match locate id t with
  | Nil -> None
  | n -> Some (if Id.compare id (key n) < 0 then n else next n)

let last_before id t =
  match locate id t with
  | Nil -> None
  | n -> Some (if Id.compare id (key n) > 0 then n else prev n)

let successor id t = Option.map binding (first_after id t)
let successor_incl id t = Option.map binding (first_at_or_after id t)
let predecessor id t = Option.map binding (last_before id t)

(* [f] of [n] and of the nodes [step] reaches from it, [k] in all. *)
let collect f n ~step k =
  let rec go n k acc = if k <= 0 then List.rev acc else go (step n) (k - 1) (f n :: acc) in
  go n k []

let take n ~step k = collect value n ~step k

(* Up to [k] members strictly past [id] in one direction: never [id]
   itself and never one member twice, so at most [cardinal - 1]. *)
let k_neighbors first step id k t =
  match first id t with
  | None -> []
  | Some n -> collect binding n ~step (min k (t.size - 1))

let k_successors id k t = k_neighbors first_after next id k t
let k_predecessors id k t = k_neighbors last_before prev id k t

let node_arc n = Interval.make ~after:(key (prev n)) ~upto:(key n)
let arc_of id t = Option.map node_arc (find_node id t)

(* {2 AVL upkeep} *)

let height = function Nil -> 0 | Node r -> r.height

let fix_height = function
  | Nil -> ()
  | Node r -> r.height <- 1 + max (height r.left) (height r.right)

let rotate_right = function
  | Node r as n -> (
    match r.left with
    | Node l as pivot ->
      r.left <- l.right;
      fix_height n;
      l.right <- n;
      fix_height pivot;
      pivot
    | Nil -> assert false)
  | Nil -> assert false

let rotate_left = function
  | Node r as n -> (
    match r.right with
    | Node rr as pivot ->
      r.right <- rr.left;
      fix_height n;
      rr.left <- n;
      fix_height pivot;
      pivot
    | Nil -> assert false)
  | Nil -> assert false

(* Restore the AVL balance at [n], whose subtrees are balanced and
   differ in height by at most two; returns the subtree's new root. *)
let balance n =
  match n with
  | Nil -> Nil
  | Node r ->
    let hl = height r.left and hr = height r.right in
    if hl > hr + 1 then begin
      (match r.left with
      | Node l when height l.left < height l.right -> r.left <- rotate_left r.left
      | _ -> ());
      rotate_right n
    end
    else if hr > hl + 1 then begin
      (match r.right with
      | Node rr when height rr.right < height rr.left ->
        r.right <- rotate_right r.right
      | _ -> ());
      rotate_left n
    end
    else begin
      fix_height n;
      n
    end

(* {2 Insertion and removal} *)

let add id v t =
  let prefix = prefix_of id in
  let rec fresh =
    Node
      {
        key = id;
        prefix;
        value = v;
        next = fresh;
        prev = fresh;
        left = Nil;
        right = Nil;
        height = 1;
      }
  in
  (* Splice [fresh] into the list between [p] and [p]'s old next. *)
  let link_after p =
    match (fresh, p) with
    | Node f, Node pr ->
      let s = pr.next in
      f.prev <- p;
      f.next <- s;
      pr.next <- fresh;
      (match s with Node sr -> sr.prev <- fresh | Nil -> assert false)
    | _ -> assert false
  in
  let rec insert n =
    match n with
    | Nil -> assert false
    | Node r ->
      let c = cmp prefix id n in
      if c = 0 then invalid_arg "Ring.add: id already present"
      else if c < 0 then begin
        match r.left with
        | Nil ->
          link_after r.prev;
          r.left <- fresh
        | l -> r.left <- insert l
      end
      else begin
        match r.right with
        | Nil ->
          link_after n;
          r.right <- fresh
        | rt -> r.right <- insert rt
      end;
      balance n
  in
  (if t.root == Nil then t.root <- fresh else t.root <- insert t.root);
  t.size <- t.size + 1;
  fresh

(* Detach the leftmost node of subtree [n]; returns the new subtree. *)
let rec remove_min n =
  match n with
  | Nil -> assert false
  | Node r -> (
    match r.left with
    | Nil -> r.right
    | l ->
      r.left <- remove_min l;
      balance n)

let remove_node n t =
  match n with
  | Nil -> invalid_arg "Ring.remove_node"
  | Node target ->
    let rec detach m =
      match m with
      | Nil -> invalid_arg "Ring.remove_node: not a member"
      | Node r ->
        if m == n then begin
          match (r.left, r.right) with
          | Nil, c | c, Nil -> c
          | l, rt -> (
            (* Two children: the in-order successor is [next], the
               leftmost node of the right subtree; it takes [n]'s
               place. *)
            let s = r.next in
            let rt = remove_min rt in
            match s with
            | Node sr ->
              sr.left <- l;
              sr.right <- rt;
              balance s
            | Nil -> assert false)
        end
        else begin
          if cmp target.prefix target.key m < 0 then r.left <- detach r.left
          else r.right <- detach r.right;
          balance m
        end
    in
    t.root <- detach t.root;
    t.size <- t.size - 1;
    (match (target.prev, target.next) with
    | Node p, Node s ->
      p.next <- target.next;
      s.prev <- target.prev
    | _ -> assert false);
    (* A removed node points only at itself, so holding one keeps
       nothing of the ring alive. *)
    target.next <- n;
    target.prev <- n;
    target.left <- Nil;
    target.right <- Nil;
    target.height <- 1

let remove id t = Option.iter (fun n -> remove_node n t) (find_node id t)

let of_ids ids =
  let t = create () in
  Array.iter (fun id -> if not (mem id t) then ignore (add id () t : unit node)) ids;
  t

(* {2 Traversal} *)

let min_node t =
  let rec go n = match n with Node { left = Nil; _ } -> n | Node r -> go r.left | Nil -> Nil in
  go t.root

let min_binding_opt t =
  match min_node t with Nil -> None | n -> Some (binding n)

let iter_nodes f t =
  let first = min_node t in
  let rec go n k =
    if k > 0 then begin
      let nx = next n in
      f n;
      go nx (k - 1)
    end
  in
  if first != Nil then go first t.size

let iter f t = iter_nodes (fun n -> f (key n) (value n)) t

let fold f t acc =
  let acc = ref acc in
  iter (fun k v -> acc := f k v !acc) t;
  !acc

let bindings t =
  match min_node t with
  | Nil -> []
  | first ->
    (* Walk backwards from the largest member so the list comes out
       ascending without a reversal. *)
    let rec go n k acc = if k = 0 then acc else go (prev n) (k - 1) (binding n :: acc) in
    go (prev first) t.size []

let nth t i =
  if i < 0 || i >= t.size then invalid_arg "Ring.nth: index out of bounds";
  let rec go n i = if i = 0 then binding n else go (next n) (i - 1) in
  go (min_node t) i

(* {2 Invariants} *)

let check t =
  let fail fmt = Printf.ksprintf invalid_arg ("Ring: " ^^ fmt) in
  (* In-order walk of the tree, checking heights and balance on the way
     back up; [expect] is the node the links say comes next. *)
  let expect = ref (min_node t) and seen = ref 0 in
  let rec walk n =
    match n with
    | Nil -> 0
    | Node r ->
      let hl = walk r.left in
      if n != !expect then fail "links disagree with the tree at %s" (Id.to_hex r.key);
      if r.prefix <> prefix_of r.key then fail "stale prefix at %s" (Id.to_hex r.key);
      if prev r.next != n then fail "prev of next is not self at %s" (Id.to_hex r.key);
      if !seen > 0 && Id.compare (key r.prev) r.key >= 0 then
        fail "ids out of order at %s" (Id.to_hex r.key);
      incr seen;
      expect := r.next;
      let hr = walk r.right in
      if abs (hl - hr) > 1 then fail "unbalanced at %s" (Id.to_hex r.key);
      if r.height <> 1 + max hl hr then fail "wrong height at %s" (Id.to_hex r.key);
      r.height
  in
  ignore (walk t.root : int);
  if !seen <> t.size then fail "size %d but %d nodes in the tree" t.size !seen;
  if t.size > 0 && !expect != min_node t then fail "links do not close the circle"
