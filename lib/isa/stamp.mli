(** Stamped-template registry and consume summaries.

    A stamped template is a fixed run of tape cells (see
    {!Scd_codegen.Template}) registered once per process. The producer
    emits one {!Event.tag_template} reference cell per stamp instead of
    copying the cells, and the timing model resolves the reference here.

    Reference cell words:
    - word 0 ([pc]): [a] — the stamp's base PC for a relocatable template,
      the call-site PC for a helper blob, a data address for a handler
      template, [0] otherwise;
    - word 1 ([flags]): [Event.tag_template lor (id lsl 4)];
    - word 2 ([arg1]): [b] — the bytecode-fetch address or the call link;
    - word 3 ([arg2]): instructions of the expansion already consumed; [0]
      when pushed, rewritten in place by a quota walk that stops inside the
      template.

    Registration derives each template's {e summary} from its cells (the
    single source): instruction and dispatch counts, the [.op] offset, the
    I-block list, the D-address list (up to two of them patched: one from
    [a], one from [b]) and the control cells in order.
    {!Scd_uarch.Pipeline} consumes a summary instead of the cells where
    that provably gives the same result (see DESIGN.md, "Template-stamped
    emission").

    The registry is append-only and process-wide, so a reference cell
    copied into another tape resolves in any pipeline of the process.
    Registration is domain-safe; lookups take no lock. *)

type t = private {
  id : int;
  cells : int array;
      (** Whole cells in the tape encoding; with [reloc], word 0 of each
          cell is relative to [a]. *)
  reloc : bool;
  patch_a : int array;  (** Word offsets in [cells] that take [a]. *)
  patch_b : int array;  (** Word offsets in [cells] that take [b]. *)
  instrs : int;  (** Instructions in the expansion (runs count in full). *)
  dispatch_instrs : int;  (** Of which dispatcher code. *)
  rop_offset : int;
      (** 1-based instruction index of the last [.op] producer; [0] when
          there is none. *)
  summarized : bool;
      (** The summary below is valid. False for relocatable templates and
          for shapes it does not cover (a [bop]/[jru] cell, a patched
          flags word or run count/stride, or a PC or data address patched
          other than as the summary encodes); those are always
          expanded. *)
  iblocks : int array;
      (** {!block_bytes}-sized I-blocks in fetch order, consecutive
          duplicates removed; [-1] stands for the block of [a]. *)
  daddrs : int array;  (** Data addresses in order. *)
  dpatch : int;  (** Index in [daddrs] that takes [b]; [-1] = none. *)
  dpatch_a : int;  (** Index in [daddrs] that takes [a]; [-1] = none. *)
  ctrl : int array;
      (** Control cells in order, {!ctrl_words} words each:
          [pc; flags; arg1; arg2; sources], where [sources] holds two bits
          per word (pc: bits 0-1, arg1: 2-3, arg2: 4-5): [0] = literal,
          [1] = [a], [2] = [b]. *)
}

val block_bytes : int
(** I-block size the summaries are built for (64, the I-cache block of
    every shipped machine). A pipeline with another block size expands. *)

val ctrl_words : int
(** Words per entry of [ctrl] (5). *)

val register :
  ?reloc:bool -> ?patch_a:int array -> ?patch_b:int array -> int array -> t
(** Append a template and build its summary. Raises [Invalid_argument] on
    a malformed template: a length that is not whole cells, an unknown or
    nested ([tag_template]) tag, a patch offset outside the cells or in
    both lists, or an [a] that feeds both a PC (a patched PC word, or the
    base of a [reloc] template) and a data address. *)

val registered : unit -> int
(** Templates registered so far in this process. *)

val find : int -> t
(** The template with this id. Raises [Invalid_argument] naming the id
    when no template has it. *)

val push : Event.tape -> t -> a:int -> b:int -> unit
(** Append a reference cell. *)

val push_id : Event.tape -> id:int -> a:int -> b:int -> unit
(** [push] by the template's id. *)

val id_of_flags : int -> int
(** The template id packed in a reference cell's flags word. *)

val expand_into : Event.tape -> t -> a:int -> b:int -> skip:int -> int
(** [expand_into dst t ~a ~b ~skip] clears [dst], writes the template's
    cells with [a] and [b] patched in, and returns the word index of the
    first instruction not yet consumed after [skip] of them (a run cell
    straddling that point is rewritten to its tail). *)

val expand_tape : Event.tape -> Event.tape
(** A fresh tape with every reference cell replaced by the instructions it
    still stands for; other cells are copied as they are. *)
