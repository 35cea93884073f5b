(** Precompiled event-cell templates.

    The fixed portion of each dispatch + handler event sequence is known
    once {!Layout.build} has assigned code addresses: per (opcode, scheme,
    dispatch site) every cell's PC, flags and most payload words are
    constants. A template captures those cells — in the exact
    {!Scd_isa.Event.tape} 4-word encoding — and registers them with
    {!Scd_isa.Stamp}, so the co-simulation driver emits a whole sequence
    as one reference cell carrying the run-dependent words (bytecode fetch
    address, or a helper call's PC and link) instead of re-computing, or
    copying, every cell on every executed bytecode.

    Templates hold only run-invariant words. Anything decided at trace
    time — data-access addresses, taken bits, bop hits, engine-supplied
    targets — is either a patch word or a separately pushed cell; the
    stamped tape, references expanded, must be word-for-word identical to
    the push-based expansion (the differential tests assert exactly
    that). *)

type t = {
  stamp : Scd_isa.Stamp.t;
      (** The registered cells and their consume summary. Relocatable
          templates (jump-threading replicas) hold PCs relative to the
          stamp base; payload words are always absolute. *)
  end_pc : int;
      (** Emission cursor after the stamp — absolute for site-anchored
          templates, base-relative for relocatable ones. Only meaningful
          where the driver keeps emitting behind the stamp (the SCD
          dispatch prefix, whose end is the [bop] PC). *)
}

val make : ?fetch_patch:int -> ?end_pc:int -> ?reloc:bool -> int array -> t
(** Register a dispatcher template. [fetch_patch] is the word offset of
    the bytecode-fetch address ([arg1] of the fetch load), [-1] (the
    default) when there is none; [reloc] marks cell PCs as relative to the
    stamp base. *)

val blob : int array -> t
(** Register a helper-call template: the call cell, the callee body and
    the return, whose call PC, RAS link and return target are patched per
    call site. *)

(** {2 Handler variants}

    A handler body and, where nothing comes between them, its tail jump
    are stamped as one reference. The cells of one bytecode's handler are
    fixed by its opcode and a few trace-time facts, so each combination —
    a {e variant} — gets its own template, keyed by {!handler_key}: the
    data accesses the body uses, the write bits of the last two of them
    (the {e inlined} accesses), the branch outcome and whether the tail
    jump is folded in. The inlined accesses' addresses travel in the
    reference's own words — the last in [b], the one before it in [a] —
    and earlier accesses are pushed as ordinary memory cells ahead of the
    reference, so every tape cell stays a standalone valid cell.

    Variants are registered on first use, not when the set is built: the
    key space is large ([(body + 1) * 16] per opcode) and a run reaches few
    of it. The table is shared by every domain using the set. Lookups take
    no lock and allocate nothing once the variant exists; a miss takes the
    table's lock and looks again before registering, so each variant is
    registered once however many domains miss on it together. *)

val handler_key : mems:int -> writes:int -> taken:bool -> tail:bool -> int
(** [mems] data accesses in the body; [writes] bit 0 is the write flag of
    the access carried in [b] (the last), bit 1 of the one carried in [a]
    (the one before it); [taken] the body branch's outcome ([false] when
    the handler has none); [tail] the tail jump is part of the template. *)

val key_mems : int -> int
val key_writes : int -> int
val key_taken : int -> bool
val key_tail : int -> bool

type variants
(** One set's handler variants, per opcode. *)

val variants :
  opcodes:int -> (opcode:int -> key:int -> Scd_isa.Stamp.t) -> variants
(** An empty table over [opcodes] opcodes. The function registers a
    missing variant with {!Scd_isa.Stamp.register} (its [patch_a] /
    [patch_b] the inlined accesses' address words) and runs under the
    table's lock. *)

val variant : variants -> opcode:int -> key:int -> Scd_isa.Stamp.t
(** The variant's template, registered now if this is its first use. *)

val stamp_variant :
  Scd_isa.Event.tape -> variants -> opcode:int -> key:int -> a:int -> b:int -> unit
(** Append a reference to the variant (registered now if this is its first
    use) with the inlined accesses' addresses. The per-bytecode path: a
    one-word memo of each opcode's last variant answers repeats without
    the table scan. *)

val registered_variants : variants -> (int * int * Scd_isa.Stamp.t) list
(** Every variant registered so far, as [(opcode, key, template)]. *)

type set = {
  dispatch : t array array;
      (** [dispatch.(site).(opcode)]: the full dispatcher sequence
          reaching [opcode]'s handler from dispatch site [site] (compact
          4-byte-stride site block, loop-overhead prefix on the common
          site only). Non-SCD schemes; under jump threading only site 0 is
          used (the one pre-replica dispatch). One patch: the fetch
          address. Empty under SCD. *)
  replica : t array;
      (** [replica.(opcode)]: jump-threading replica dispatcher,
          base-relative (stamped at the previous handler's tail with
          {!stamp_replica}), spaced {!Layout.hot_stride}. One patch: the
          fetch address. Empty under other schemes. *)
  scd_prefix : t array;
      (** [scd_prefix.(site)]: the SCD dispatcher up to (excluding) the
          [bop] — the rest depends on the engine's architectural state at
          trace time. [end_pc] is the [bop] PC. One patch: the fetch
          address. Empty under other schemes. *)
  scd_miss : t array array;
      (** [scd_miss.(site).(opcode)]: the [bop]-miss slow path —
          decode/bound-check/target-calculation from the [bop]
          fall-through up to (excluding) the [jru]. The miss [bop] cell
          itself and the [jru] carry engine decisions and are pushed at
          trace time. No patches; [end_pc] is the [jru] PC. *)
  rt_blobs : t array;
      (** [rt_blobs.(id)]: the helper call for [spec.blobs.(id)] (a
          handler's [rt_call]), built with {!blob}. *)
  builtin_blobs : t array;
      (** [builtin_blobs.(b)]: the library call for builtin [b]. *)
  handlers : Spec.handler_spec array;  (** [spec.handler], per opcode. *)
  variants : variants;  (** Handler variants, registered on first use. *)
  next_site : int array;
      (** Per opcode, the dense index of the dispatch site that fetches
          the next bytecode after its handler. *)
  tail_target : int array;
      (** Per opcode, the base PC of that site: the handler tail's jump
          target. *)
}
(** One scheme's worth of templates and per-opcode tables for one
    interpreter spec. Arrays are indexed by the driver's dense site index
    (0 = common site, 1 = call site, 2 = branch site) and opcode. *)

val stamp_dispatch : Scd_isa.Event.tape -> t -> fetch_addr:int -> unit
(** Append a reference to the template with the bytecode-fetch address as
    its patch. *)

val stamp_replica :
  Scd_isa.Event.tape -> t -> base_pc:int -> fetch_addr:int -> unit
(** Append a reference to a base-relative template placed at [base_pc]
    (cell PCs are offset by it), with the fetch-address patch. *)

val stamp : Scd_isa.Event.tape -> t -> unit
(** Append a reference to a template with no patches. *)

val stamp_blob : Scd_isa.Event.tape -> t -> call_pc:int -> link:int -> unit
(** Append a reference to a blob template with its call-site words: the
    call cell's PC and RAS link, and the return cell's target ([link] —
    where execution resumes after the helper). *)

val find_or_build :
  spec:Spec.t -> scheme:Scd_core.Scheme.t -> (unit -> set) -> set
(** Memoized template sets, keyed by ([spec] physical equality, [scheme])
    — code addresses from {!Layout.build} depend on nothing else. The
    builder runs at most once per key per process; lookups are
    domain-safe. *)
