open Scd_util

type geometry = {
  size_bytes : int;
  ways : int;
  block_bytes : int;
  hit_latency : int;
}

type stats = { mutable accesses : int; mutable misses : int }

(* Struct-of-arrays storage: way [w] of set [s] lives at slot [s * ways + w]
   in three parallel int arrays. An invalid line is encoded as [tags.(slot)
   = invalid_tag] (no real tag is negative), so the hit scan is a single
   int-compare loop with no per-line record, option or closure. A TLB is
   the one-set case (see {!tlb_geometry}). *)
type t = {
  geometry : geometry;
  sets : int;
  block_shift : int;  (* log2 block_bytes, precomputed: used on every access *)
  set_shift : int;  (* log2 sets *)
  tags : int array;
  stamps : int array;
  mru : int array;
      (* Per set: the slot of the set's last hit or fill, checked before
         the way scan. Straight-line fetch walks one block for many
         consecutive instructions, so the first compare almost always
         hits (for a TLB, consecutive accesses stay on one page); a tag
         lives in at most one way of its set, so the short-circuit's
         answer — and every stat, tick and stamp update — is identical to
         the full scan's. *)
  mutable tick : int;
  stats : stats;
}

let invalid_tag = -1

let page_bytes = 4096

let tlb_geometry ~entries =
  {
    size_bytes = entries * page_bytes;
    ways = entries;
    block_bytes = page_bytes;
    hit_latency = 0;
  }

let create geometry =
  let { size_bytes; ways; block_bytes; _ } = geometry in
  if size_bytes <= 0 || ways <= 0 || block_bytes <= 0 then
    invalid_arg "Cache.create: non-positive geometry";
  let blocks = size_bytes / block_bytes in
  if blocks mod ways <> 0 then
    invalid_arg "Cache.create: block count not a multiple of ways";
  let sets = blocks / ways in
  if not (Bits.is_power_of_two sets) then
    invalid_arg "Cache.create: set count must be a power of two";
  if not (Bits.is_power_of_two block_bytes) then
    invalid_arg "Cache.create: block size must be a power of two";
  {
    geometry;
    sets;
    block_shift = Bits.log2 block_bytes;
    set_shift = Bits.log2 sets;
    tags = Array.make blocks invalid_tag;
    stamps = Array.make blocks 0;
    mru = Array.init sets (fun s -> s * ways);
    tick = 0;
    stats = { accesses = 0; misses = 0 };
  }

(* Top-level tail recursion: a local [let rec] closure would capture its
   environment and allocate per call, which the hot path cannot afford. The
   annotations keep [=] an int compare: left polymorphic, it compiles to a
   [caml_equal] call per way. *)
let rec find_line (tags : int array) (tag : int) stop s =
  if s > stop then -1
  else if tags.(s) = tag then s
  else find_line tags tag stop (s + 1)

(* Slot of the line holding [addr], or -1 on a miss. *)
let find_slot t addr =
  let block = addr lsr t.block_shift in
  let base = (block land (t.sets - 1)) * t.geometry.ways in
  let tag = block lsr t.set_shift in
  find_line t.tags tag (base + t.geometry.ways - 1) base

let contains t ~addr = find_slot t addr >= 0

(* LRU victim scan from [s]: the first invalid line wins outright (stopping
   the scan, as in the original implementation); otherwise the strictly
   oldest stamp seen so far is carried in [victim]. *)
let rec pick_lru_line t stop victim s =
  if s > stop then victim
  else if t.tags.(s) = invalid_tag then s
  else
    pick_lru_line t stop
      (if t.stamps.(s) < t.stamps.(victim) then s else victim)
      (s + 1)

let access t ~addr =
  t.stats.accesses <- t.stats.accesses + 1;
  t.tick <- t.tick + 1;
  let block = addr lsr t.block_shift in
  let set = block land (t.sets - 1) in
  let base = set * t.geometry.ways in
  let tag = block lsr t.set_shift in
  let m = t.mru.(set) in
  if t.tags.(m) = tag then begin
    (* MRU short-circuit: [m] is always a slot of this set, and a tag
       lives in at most one way, so this is the same line the scan would
       find. *)
    t.stamps.(m) <- t.tick;
    `Hit
  end
  else begin
    let slot = find_line t.tags tag (base + t.geometry.ways - 1) base in
    if slot >= 0 then begin
      t.stamps.(slot) <- t.tick;
      t.mru.(set) <- slot;
      `Hit
    end
    else begin
      t.stats.misses <- t.stats.misses + 1;
      (* LRU victim (invalid lines first). *)
      let victim =
        if t.tags.(base) = invalid_tag then base
        else pick_lru_line t (base + t.geometry.ways - 1) base (base + 1)
      in
      t.tags.(victim) <- tag;
      t.stamps.(victim) <- t.tick;
      t.mru.(set) <- victim;
      `Miss
    end
  end

let stats t = t.stats
let geometry t = t.geometry

let reset_stats t =
  t.stats.accesses <- 0;
  t.stats.misses <- 0
