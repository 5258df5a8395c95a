(** The sorted ring of virtual nodes.

    One mutable ordered ring from identifiers to payloads with
    wrap-aware navigation: successors and predecessors wrap past
    [2^160 - 1] back to [0], as on the Chord circle.  Every member is a
    {!node} that sits in a circular doubly-linked list in id order and
    in a two-level blocked index: the members, in id order, are cut into
    blocks of at most 16 nodes, each block holds its members' cached
    62-bit id prefixes in a flat int array beside its node array, and
    one more int array holds every block's first prefix.

    Costs, for [n] members: a lookup from an arbitrary id is one
    binary search over the block starts (at least [n / 16] of them, and
    more after churn: a full block splits in half, but blocks never
    merge) and one over a block's prefixes, reading a node only where
    two prefixes tie (then it runs a full [Id.compare]).  {!add} is
    that search, an O(1) link between the newcomer's neighbours and a
    shift of at most 16 slots of one block; {!remove_node} is the same
    search from the node's own id, a shift of one block (dropped when it
    empties) and an O(1) unlink.  Stepping from a node to its neighbour
    ({!next}, {!prev}) is O(1).

    The ring is updated in place: there is no persistent snapshot, and
    a node handed out by {!add} or {!find_node} stays valid until it is
    removed. *)

type 'a t

type 'a node
(** A member: its id, its payload and its links to both neighbours. *)

val create : unit -> 'a t
(** A fresh, empty ring. *)

val is_empty : 'a t -> bool

val cardinal : 'a t -> int
(** O(1): the size rides along, because the simulation asks for it on
    per-tick paths (leave checks, join pricing, tracing). *)

val mem : Id.t -> 'a t -> bool
val find_opt : Id.t -> 'a t -> 'a option

val add : Id.t -> 'a -> 'a t -> 'a node
(** Insert a member and return its node, already linked between its
    neighbours.  @raise Invalid_argument if the id is already a member. *)

val remove : Id.t -> 'a t -> unit
(** Remove a member; no-op if the id is not one. *)

val remove_node : 'a node -> 'a t -> unit
(** Remove a member by its node: one search for its slot, one block
    shift and an O(1) unlink.  The removed node afterwards links only
    to itself.
    @raise Invalid_argument if the node is not a member of this ring. *)

val of_ids : Id.t array -> unit t
(** A ring of the given ids with unit payloads, each repeated id kept
    once: the membership ring of a static overlay. *)

(** {1 Nodes} *)

val key : 'a node -> Id.t
val value : 'a node -> 'a

val next : 'a node -> 'a node
(** The member clockwise of this one (wrapping); itself when alone. *)

val prev : 'a node -> 'a node
(** The member counterclockwise of this one (wrapping). *)

val find_node : Id.t -> 'a t -> 'a node option

val first_after : Id.t -> 'a t -> 'a node option
(** Node form of {!successor}. *)

val first_at_or_after : Id.t -> 'a t -> 'a node option
(** Node form of {!successor_incl}. *)

val last_before : Id.t -> 'a t -> 'a node option
(** Node form of {!predecessor}. *)

val take : 'a node -> step:('a node -> 'a node) -> int -> 'a list
(** [take n ~step k]: the payloads of [n] and of the nodes reached by
    repeating [step] from it, [k] in all, nearest first. *)

val node_arc : 'a node -> Interval.t
(** The responsibility arc [(prev n, n]] of a member. *)

(** {1 Navigation from an id} *)

val successor : Id.t -> 'a t -> (Id.t * 'a) option
(** First member strictly clockwise of the given id (wrapping); [None]
    only on an empty ring.  If the id is the only member, returns it. *)

val successor_incl : Id.t -> 'a t -> (Id.t * 'a) option
(** First member at or clockwise of the id: the {e owner} of key [id]. *)

val predecessor : Id.t -> 'a t -> (Id.t * 'a) option
(** First member strictly counterclockwise of the id (wrapping). *)

val k_successors : Id.t -> int -> 'a t -> (Id.t * 'a) list
(** Up to [k] distinct members clockwise of the id, nearest first,
    excluding the id itself; at most [cardinal - 1] of them even when
    the id is not a member. *)

val k_predecessors : Id.t -> int -> 'a t -> (Id.t * 'a) list
(** Up to [k] distinct members counterclockwise, nearest first. *)

val arc_of : Id.t -> 'a t -> Interval.t option
(** The responsibility arc of member [id]: [(predecessor id, id]].
    [None] if [id] is not a member.  A lone member owns the full ring. *)

(** {1 Traversal} *)

val iter : (Id.t -> 'a -> unit) -> 'a t -> unit
(** In ascending id order, starting from the smallest id. *)

val iter_nodes : ('a node -> unit) -> 'a t -> unit
(** {!iter} over the member nodes themselves. *)

val fold : (Id.t -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
val bindings : 'a t -> (Id.t * 'a) list
val min_binding_opt : 'a t -> (Id.t * 'a) option

val nth : 'a t -> int -> Id.t * 'a
(** [nth t i]: the [i]-th member in id order. O(i); used only by tests
    and sampling. @raise Invalid_argument out of bounds. *)

val check : 'a t -> unit
(** Asserts the structure: every block holds between 1 and 16 members;
    each block start equals its block's first prefix and each block
    prefix its node's; the blocks concatenated are the order the links
    visit, and [prev] inverts [next]; ids strictly ascend; each cached
    prefix matches its id; and the size matches the node count.  O(n);
    for tests and the [DHTLB_CHECK=1] battery.
    @raise Invalid_argument naming the first violation. *)
