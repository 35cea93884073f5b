(** Dynamic instruction events.

    A simulated run — whether execution-driven (the ERV32 functional
    executor) or trace-driven (the VM co-simulator) — is a stream of these
    events in program order. The timing model ({!Scd_uarch.Pipeline}) consumes
    them one at a time; it never needs architectural register values, only
    PCs, control-flow outcomes and memory addresses. *)

type kind =
  | Plain  (** ALU, lui, setmask, ... one issue slot, no memory port. *)
  | Mem_read of { addr : int }
  | Mem_write of { addr : int }
  | Cond_branch of { taken : bool; target : int }
      (** [target] is the taken-path PC (used for BTB training). *)
  | Jump of { target : int }  (** Direct unconditional jump. *)
  | Ind_jump of { target : int; hint : int option }
      (** Indirect jump via register. [hint] is the compiler-identified value
          correlated with the target (the opcode, for the dispatch jump);
          the VBBI predictor indexes the BTB with a hash of PC and hint. *)
  | Call of { target : int; indirect : bool; link : int }
      (** [link] is the architectural return address pushed on the RAS;
          [-1] means the default [pc + 4] (a 4-byte call instruction). Call
          sites emitted at a wider stride (jump-threading handler replicas
          spaced {!Scd_codegen.Layout.hot_stride} apart) carry their real
          [pc + stride] link so the matching {!Return} target agrees with
          the RAS prediction. *)
  | Return of { target : int }
  | Bop of { opcode : int; hit : bool; target : int }
      (** SCD branch-on-opcode. [hit] and [target] are decided by the SCD
          engine at trace time (the BTB is architecturally visible); the
          pipeline charges stall bubbles and records fast-path statistics.
          On a miss [target] is the fall-through PC. *)
  | Jru of { opcode : int option; target : int }
      (** SCD jump-register-with-JTE-update: times like an indirect jump;
          the JTE insertion has already been performed by the engine. *)
  | Jte_flush

type t = {
  pc : int;  (** Byte address of the instruction. *)
  kind : kind;
  dispatch : bool;
      (** True when the instruction belongs to the interpreter dispatcher
          code (fetch/decode/bound-check/target-calculation/jump); drives the
          paper's Figure 2 and Figure 3 accounting. *)
  sets_rop : bool;
      (** True for [.op]-suffixed instructions; lets the pipeline model the
          Rop-not-ready stall before a subsequent [bop]. *)
}

val plain : ?dispatch:bool -> ?sets_rop:bool -> int -> t
(** [plain pc] is a non-memory, non-control event. *)

val make : ?dispatch:bool -> ?sets_rop:bool -> int -> kind -> t

val is_control : t -> bool
(** True for every kind that can redirect the PC. *)

(** {2 Allocation-free scratch representation}

    Building a fresh {!t} per retired instruction is the dominant
    allocation of a co-simulated run (millions of events per workload). A
    [scratch] is a single mutable record the producer overwrites in place
    and hands to {!Scd_uarch.Pipeline.consume_scratch} synchronously:
    steady-state event delivery then allocates nothing. Option-typed
    payloads are encoded as [-1] for [None]. Payload fields not named by
    the current [s_tag] may hold stale values; consumers must only read
    the fields the tag defines (plus [s_pc], [s_dispatch], [s_sets_rop],
    which are always valid). *)

type scratch = {
  mutable s_pc : int;
  mutable s_tag : int;  (** One of the [tag_*] constants below. *)
  mutable s_dispatch : bool;
  mutable s_sets_rop : bool;
  mutable s_addr : int;  (** [tag_mem_read] / [tag_mem_write]. *)
  mutable s_taken : bool;  (** [tag_cond_branch]. *)
  mutable s_target : int;  (** Every control tag. *)
  mutable s_hint : int;
      (** [tag_ind_jump]: value hint, [-1] = no hint.
          [tag_call]: RAS link address, [-1] = default [pc + 4]. *)
  mutable s_opcode : int;  (** [tag_bop] / [tag_jru]; [-1] = none. *)
  mutable s_hit : bool;  (** [tag_bop]. *)
  mutable s_indirect : bool;  (** [tag_call]. *)
}

val tag_plain : int
val tag_mem_read : int
val tag_mem_write : int
val tag_cond_branch : int
val tag_jump : int
val tag_ind_jump : int
val tag_call : int
val tag_return : int
val tag_bop : int
val tag_jru : int
val tag_jte_flush : int

val tag_plain_run : int
(** Tape-only: a run of [arg1] consecutive plain instructions starting at
    the cell's [pc], spaced [arg2] bytes apart, sharing its dispatch flag.
    Consumed in aggregate by {!Scd_uarch.Pipeline.consume_tape} with
    bit-identical stats, cycles and cache/TLB traffic; never decoded into a
    boxed {!type-t}. *)

val tag_template : int
(** Tape-only: a reference to a registered template standing for all of
    its cells; see {!Stamp} for the cell's words. Resolved by
    {!Scd_uarch.Pipeline.consume_tape}; never decoded into a boxed
    {!type-t}. *)

val scratch_create : unit -> scratch
(** A fresh scratch holding a plain event at PC 0. *)

val scratch_is_mem : scratch -> bool
val scratch_is_control : scratch -> bool

val load_scratch : scratch -> t -> unit
(** Overwrite [scratch] with the contents of a boxed event. *)

(** {2 Flat event tape}

    A [tape] is a preallocated flat [int array] of 4-word cells —
    [pc; flags; arg1; arg2] — written in place by a trace producer and
    consumed by index ({!Scd_uarch.Pipeline.consume_tape}). [flags] packs
    the [tag_*] constant in bits 0-3 and dispatch / sets_rop / taken / hit /
    indirect in bits 4-8; [arg1] is the memory address (mem tags) or branch
    target (control tags); [arg2] is the hint, opcode or call link,
    [-1] = none. The
    producer batches the events of one bytecode and the consumer drains them
    in order, so steady-state event delivery touches no boxed values at
    all. The buffer doubles on overflow, which stops happening once the
    largest per-batch burst has been seen. *)

type tape

val cell_words : int
(** Words per cell (4). *)

val flag_dispatch : int
val flag_sets_rop : int
val flag_taken : int
val flag_hit : int
val flag_indirect : int

val tape_create : ?capacity:int -> unit -> tape
(** [capacity] is in cells (default 64). *)

val tape_clear : tape -> unit
val tape_cells : tape -> int

val tape_push : tape -> pc:int -> flags:int -> arg1:int -> arg2:int -> unit
(** Append one cell; allocation-free unless the buffer must grow. *)

val tape_push_run : tape -> pc:int -> dispatch:bool -> count:int -> stride:int -> unit
(** Append one {!tag_plain_run} cell covering [count] plain instructions
    spaced [stride] bytes apart. *)

(** {3 Template expansion}

    A precompiled template is an immutable [int array] of whole cells in
    the tape encoding. The tape carries one {!tag_template} reference per
    stamp; where a consumer needs the cells, {!Stamp.expand_into} appends
    them in one blit and patches the few run-dependent words in place. *)

val tape_extent : tape -> int
(** Current length in words — the word base the next append will land at,
    and a valid [from] for {!tape_snapshot}. *)

val tape_words : tape -> int array
(** The tape's backing buffer; words [[0, extent)] hold the live cells.
    The reference is invalidated by any growing append, so callers must
    not retain it across pushes. Lets the timing model walk a batch of
    cells with direct loads instead of a per-field accessor call. *)

val tape_blit : tape -> int array -> int
(** Append a whole-cell template verbatim; returns the word base it landed
    at. Grows the buffer (to at least the needed size) if required. *)

val tape_blit_reloc : tape -> int array -> pc_delta:int -> int
(** Like {!tape_blit}, but the template is base-relative: word 0 of every
    cell (the PC) is offset by [pc_delta]; payload words are copied
    as-is. *)

val tape_set_word : tape -> int -> int -> unit
(** [tape_set_word t i v] overwrites absolute word [i] — used to patch
    run-dependent words (fetch address, data-access addresses, branch
    outcome) after a stamp. *)

val tape_snapshot : tape -> from:int -> int array
(** Copy out words [[from, extent)]: template capture after emitting the
    fixed cells of a sequence once with {!tape_push}. *)

val tape_cell_tag : tape -> int -> int
val tape_cell_pc : tape -> int -> int
val tape_cell_dispatch : tape -> int -> bool
val tape_cell_arg1 : tape -> int -> int
val tape_cell_arg2 : tape -> int -> int
(** Raw accessors for cell [i], for consumers that dispatch on the tag
    before paying for a full decode. *)

val tape_to_event : tape -> int -> t
(** Boxed decode of cell [i] (for differential testing of the legacy
    path). Raises [Invalid_argument] on a {!tag_plain_run} or
    {!tag_template} cell, which stand for more than one instruction. *)

val pp : Format.formatter -> t -> unit
