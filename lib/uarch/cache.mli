(** Set-associative cache model (used for L1 I, L1 D, the I- and D-TLBs
    and, on the high-end configuration, a unified L2). Tracks hits/misses
    only — the datapath carries no data, timing is charged by the pipeline.
    Write misses allocate (write-allocate, write-back is not modelled since
    only latency matters here). *)

type geometry = {
  size_bytes : int;
  ways : int;
  block_bytes : int;
  hit_latency : int;  (** Cycles for a hit (informational). *)
}

type t

type stats = { mutable accesses : int; mutable misses : int }

val tlb_geometry : entries:int -> geometry
(** A fully-associative TLB of [entries] 4 KiB pages: one set of [entries]
    ways with page-sized blocks, so a block number is a VPN. The paper's
    cores carry 8-10 entry I- and D-TLBs; the pipeline charges a fixed walk
    penalty per miss. *)

val create : geometry -> t

val access : t -> addr:int -> [ `Hit | `Miss ]
(** Look up the block containing [addr]; allocates on miss (LRU victim). *)

val contains : t -> addr:int -> bool
(** Probe without side effects. *)

val stats : t -> stats
val geometry : t -> geometry
val reset_stats : t -> unit
