(** A small bounded string-keyed LRU cache: a hashtable over an intrusive
    doubly-linked recency list (find/insert/evict all O(1), no victim
    scan), least-recently-used eviction at capacity, hit/miss/eviction
    counters, and an eviction callback for trace events.  Backs the
    evidence/bitmap caches, the buffer pool and {!Rq_optimizer.Plan_cache}. *)

type 'a t

val create : ?on_evict:(string -> unit) -> capacity:int -> unit -> 'a t
(** Raises [Invalid_argument] on a negative capacity.  Capacity 0 is a
    legal degenerate cache that stores nothing: every {!find} misses and
    every {!insert} drops the value immediately, counting an eviction and
    firing [on_evict].  [on_evict] receives the evicted key (default:
    ignore). *)

val find : 'a t -> string -> 'a option
(** Counts a hit (and refreshes recency) or a miss. *)

val find_or_add : 'a t -> string -> (unit -> 'a) -> 'a
(** [find], or build, insert and return (evicting the LRU entry first when
    at capacity). *)

val insert : 'a t -> string -> 'a -> unit
(** Inserting a key already present refreshes its value and recency and
    never evicts — only an insert of a {e new} key at capacity drops the
    least-recently-used entry. *)

val insert_cold : 'a t -> string -> 'a -> unit
(** Scan-resistant insert: the entry enters at the {e least}-recently-used
    end, making it the next eviction victim instead of displacing the hot
    head — a sequential sweep larger than the cache churns through one slot
    and costs at most one previously-resident entry.  A later {!find}
    promotes it normally.  Inserting a key already present refreshes its
    value in place without changing its recency.  At capacity 0 behaves
    like {!insert} (immediate drop). *)

val remove : 'a t -> string -> unit
(** Drop the entry if present.  A deliberate removal (e.g. a
    version-invalidated plan), not a capacity eviction: the eviction
    counter is untouched and [on_evict] does not fire. *)

val evict_lru : 'a t -> unit
(** Evict the least-recently-used entry (counting it and firing
    [on_evict]); a no-op on an empty cache. *)

val mem : 'a t -> string -> bool
val clear : 'a t -> unit
val set_on_evict : 'a t -> (string -> unit) -> unit

val capacity : 'a t -> int
val length : 'a t -> int
val hits : 'a t -> int
val misses : 'a t -> int
val evictions : 'a t -> int
