(** In-order pipeline timing model.

    The pipeline consumes a program-order stream of {!Scd_isa.Event.t} and
    accumulates cycles and statistics. It does not model wrong-path
    execution; a misprediction charges the configured flush penalty, which is
    the dominant cost on the shallow in-order cores the paper targets.

    Cost model per event:
    - one issue slot (dual-issue pairs two consecutive instructions unless
      either is a memory operation following another memory operation in the
      same cycle, or the first is a control instruction);
    - an I-cache + I-TLB access per fetched block (sequential fetches within
      one block are free);
    - D-cache + D-TLB access for loads/stores; misses charge L2/DRAM latency;
    - conditional branches consult the direction predictor; mispredictions
      flush; taken branches with a BTB target miss redirect at decode
      ([direct_bubble]);
    - direct jumps/calls charge [direct_bubble] on a BTB target miss;
    - indirect jumps/calls consult the configured indirect scheme
      (PC-indexed BTB, VBBI, or TTC); returns use the RAS;
    - [bop] charges Rop-not-ready stall bubbles (the paper's stalling
      scheme) and [bop_hit_bubble] on a hit; a miss falls through for free;
    - [jru] times like an indirect jump (its JTE insertion is performed by
      the SCD engine, not here).

    The BTB is injected at construction so that the SCD engine
    ({!Scd_core.Engine}) and the pipeline share one physical table — JTE
    insertions evict branch entries and vice versa, which is the paper's
    central contention effect. *)

type t

val create :
  ?btb:Btb.t -> ?indirect:Indirect.scheme -> Config.t -> t
(** [btb] defaults to a fresh table built from the config (including its JTE
    cap). [indirect] defaults to [Pc_btb]. *)

val config : t -> Config.t
val btb : t -> Btb.t
val stats : t -> Stats.t

val set_probe : t -> Scd_obs.Probe.t -> unit
(** Install telemetry hooks ({!Scd_obs.Probe}): [on_retire] fires after
    every consumed instruction has been fully accounted, [on_mispredict] on
    every flush-penalty misprediction. The default is [Probe.null], and with
    it installed the hot path performs a single physical-equality check and
    allocates nothing. *)

val probe : t -> Scd_obs.Probe.t

val consume : t -> Scd_isa.Event.t -> unit
(** Account one retired instruction. Convenience shim over
    {!consume_scratch}: the event is unpacked into an internal scratch
    record first. *)

val consume_scratch : t -> Scd_isa.Event.scratch -> unit
(** Account one retired instruction described by a caller-owned mutable
    scratch record. This is the allocation-free hot path: the producer
    overwrites one scratch in place per instruction and the pipeline reads
    it synchronously — no per-event record is ever allocated. The pipeline
    does not retain the scratch across calls. *)

val consume_tape : t -> Scd_isa.Event.tape -> unit
(** Account every cell of a flat event tape in order, reading each cell's
    four words straight from the tape buffer (no intermediate record).
    Allocation-free; the caller clears and refills the tape between
    batches. Equivalent to [consume_tape_quota ~from:0 ~quota:max_int]. *)

val consume_tape_quota :
  t -> Scd_isa.Event.tape -> from:int -> quota:int -> int
(** [consume_tape_quota t tape ~from ~quota] walks the tape from word
    [from] and stops right after the [quota]-th retired instruction
    ([quota >= 1]) or at the end of the tape, whichever comes first, and
    returns the word index to resume from ({!Scd_isa.Event.tape_extent}
    when the tape is drained). When the stop falls inside a
    {!Scd_isa.Event.tag_plain_run} cell, that cell is rewritten in place to
    its unconsumed tail, so resuming at the returned index continues with
    the next instruction. The number of instructions retired is the
    change in [(stats t).instructions]. A {!Scd_isa.Event.tag_template}
    reference is resolved through {!Scd_isa.Stamp}: consumed through its
    summary where that is exact (single issue, no L2, no probe, the whole
    template within the quota, not relocatable, 64-byte I-blocks), else
    expanded into a pipeline-owned side tape and walked cell by cell; when
    the stop falls inside it, the reference's [arg2] records the
    instructions consumed and the returned index is the reference's own.
    This is how a context-switch interval lands its JTE flush at an exact
    instruction boundary. Allocation-free once the side tape has grown to
    the largest template. *)
