type kind =
  | Plain
  | Mem_read of { addr : int }
  | Mem_write of { addr : int }
  | Cond_branch of { taken : bool; target : int }
  | Jump of { target : int }
  | Ind_jump of { target : int; hint : int option }
  | Call of { target : int; indirect : bool; link : int }
  | Return of { target : int }
  | Bop of { opcode : int; hit : bool; target : int }
  | Jru of { opcode : int option; target : int }
  | Jte_flush

type t = { pc : int; kind : kind; dispatch : bool; sets_rop : bool }

let make ?(dispatch = false) ?(sets_rop = false) pc kind =
  { pc; kind; dispatch; sets_rop }

let plain ?dispatch ?sets_rop pc = make ?dispatch ?sets_rop pc Plain

let is_control t =
  match t.kind with
  | Cond_branch _ | Jump _ | Ind_jump _ | Call _ | Return _ | Bop _ | Jru _ ->
    true
  | Plain | Mem_read _ | Mem_write _ | Jte_flush -> false

(* ------------------------------------------------------------------ *)
(* Allocation-free scratch representation                              *)
(* ------------------------------------------------------------------ *)

(* Tags are ordered so that the control kinds are contiguous
   ([tag_cond_branch] .. [tag_jru]); [scratch_is_control] relies on it. *)
let tag_plain = 0
let tag_mem_read = 1
let tag_mem_write = 2
let tag_cond_branch = 3
let tag_jump = 4
let tag_ind_jump = 5
let tag_call = 6
let tag_return = 7
let tag_bop = 8
let tag_jru = 9
let tag_jte_flush = 10

(* Tape-only tag: a run of [arg1] consecutive Plain instructions starting at
   [pc] and spaced [arg2] bytes apart, all sharing the cell's dispatch flag.
   The driver emits runs instead of individual Plain cells on the flat path,
   so straight-line handler code costs one cell instead of dozens; the
   pipeline consumes a run in aggregate with identical stats, cycles and
   cache/TLB traffic. Never appears as a boxed {!type-t}. *)
let tag_plain_run = 11

(* Tape-only tag: a reference to a registered template ({!Stamp}) standing
   for all of its cells. Never appears as a boxed {!type-t}. *)
let tag_template = 12

type scratch = {
  mutable s_pc : int;
  mutable s_tag : int;
  mutable s_dispatch : bool;
  mutable s_sets_rop : bool;
  mutable s_addr : int;  (* Mem_read / Mem_write *)
  mutable s_taken : bool;  (* Cond_branch *)
  mutable s_target : int;  (* every control kind *)
  mutable s_hint : int;  (* Ind_jump; -1 = no hint *)
  mutable s_opcode : int;  (* Bop / Jru; -1 = none *)
  mutable s_hit : bool;  (* Bop *)
  mutable s_indirect : bool;  (* Call *)
}

let scratch_create () =
  {
    s_pc = 0;
    s_tag = tag_plain;
    s_dispatch = false;
    s_sets_rop = false;
    s_addr = 0;
    s_taken = false;
    s_target = 0;
    s_hint = -1;
    s_opcode = -1;
    s_hit = false;
    s_indirect = false;
  }

let scratch_is_mem s = s.s_tag = tag_mem_read || s.s_tag = tag_mem_write
let scratch_is_control s = s.s_tag >= tag_cond_branch && s.s_tag <= tag_jru

let load_scratch s t =
  s.s_pc <- t.pc;
  s.s_dispatch <- t.dispatch;
  s.s_sets_rop <- t.sets_rop;
  match t.kind with
  | Plain -> s.s_tag <- tag_plain
  | Mem_read { addr } ->
    s.s_tag <- tag_mem_read;
    s.s_addr <- addr
  | Mem_write { addr } ->
    s.s_tag <- tag_mem_write;
    s.s_addr <- addr
  | Cond_branch { taken; target } ->
    s.s_tag <- tag_cond_branch;
    s.s_taken <- taken;
    s.s_target <- target
  | Jump { target } ->
    s.s_tag <- tag_jump;
    s.s_target <- target
  | Ind_jump { target; hint } ->
    s.s_tag <- tag_ind_jump;
    s.s_target <- target;
    s.s_hint <- (match hint with None -> -1 | Some h -> h)
  | Call { target; indirect; link } ->
    s.s_tag <- tag_call;
    s.s_target <- target;
    s.s_indirect <- indirect;
    s.s_hint <- link
  | Return { target } ->
    s.s_tag <- tag_return;
    s.s_target <- target
  | Bop { opcode; hit; target } ->
    s.s_tag <- tag_bop;
    s.s_opcode <- opcode;
    s.s_hit <- hit;
    s.s_target <- target
  | Jru { opcode; target } ->
    s.s_tag <- tag_jru;
    s.s_opcode <- (match opcode with None -> -1 | Some o -> o);
    s.s_target <- target
  | Jte_flush -> s.s_tag <- tag_jte_flush

(* ------------------------------------------------------------------ *)
(* Flat event tape                                                     *)
(* ------------------------------------------------------------------ *)

(* One event = [cell_words] consecutive ints:
   [pc; flags; arg1; arg2] where [flags] packs the tag in bits 0-3 and the
   booleans in bits 4-8, [arg1] is the memory address (mem tags) or branch
   target (control tags), and [arg2] is the hint ([tag_ind_jump]) or opcode
   ([tag_bop]/[tag_jru]), [-1] = none. The buffer is preallocated and
   written in place, so steady-state emission allocates nothing; it doubles
   (rarely, only until the largest burst has been seen) on overflow. *)

let cell_words = 4
let flag_dispatch = 0x10
let flag_sets_rop = 0x20
let flag_taken = 0x40
let flag_hit = 0x80
let flag_indirect = 0x100

type tape = { mutable buf : int array; mutable len : int (* in words *) }

let tape_create ?(capacity = 64) () =
  if capacity <= 0 then invalid_arg "Event.tape_create: capacity";
  { buf = Array.make (capacity * cell_words) 0; len = 0 }

let tape_clear tape = tape.len <- 0
let tape_cells tape = tape.len / cell_words

(* Grow to hold at least [need] words: doubling, but never less than
   needed (template stamps can append many cells at once). *)
let[@inline never] tape_grow tape need =
  let cap = ref (2 * Array.length tape.buf) in
  while !cap < need do
    cap := 2 * !cap
  done;
  let buf = Array.make !cap 0 in
  Array.blit tape.buf 0 buf 0 tape.len;
  tape.buf <- buf

let tape_push tape ~pc ~flags ~arg1 ~arg2 =
  if tape.len + cell_words > Array.length tape.buf then
    tape_grow tape (tape.len + cell_words);
  let buf = tape.buf and i = tape.len in
  buf.(i) <- pc;
  buf.(i + 1) <- flags;
  buf.(i + 2) <- arg1;
  buf.(i + 3) <- arg2;
  tape.len <- i + cell_words

let tape_push_run tape ~pc ~dispatch ~count ~stride =
  tape_push tape ~pc
    ~flags:(tag_plain_run lor if dispatch then flag_dispatch else 0)
    ~arg1:count ~arg2:stride

(* ------------------------------------------------------------------ *)
(* Template stamping                                                   *)
(* ------------------------------------------------------------------ *)

(* A template is an immutable [int array] of whole cells in the tape
   encoding above. Expanding a reference ({!Stamp.expand_into}) appends it
   with one blit; the returned word base lets the few run-dependent words
   be patched in place ([tape_set_word]). *)

let tape_extent tape = tape.len
let tape_words tape = tape.buf

(* Copy loops instead of [Array.blit]: on an int array whose destination
   lives in the major heap, the generic blit calls the write barrier
   ([caml_modify]) once per word, while a typed int store compiles to a
   plain move — expansion is on the hot path of every run that cannot
   consume a template through its summary. *)
let tape_blit tape (src : int array) =
  let words = Array.length src in
  let base = tape.len in
  if base + words > Array.length tape.buf then tape_grow tape (base + words);
  let buf = tape.buf in
  for k = 0 to words - 1 do
    buf.(base + k) <- src.(k)
  done;
  tape.len <- base + words;
  base

(* Stamp a base-relative template: word 0 of every cell (the PC) is
   offset by [pc_delta]; payload words are absolute and copied as-is. *)
let tape_blit_reloc tape (src : int array) ~pc_delta =
  let words = Array.length src in
  let base = tape.len in
  if base + words > Array.length tape.buf then tape_grow tape (base + words);
  let buf = tape.buf in
  let k = ref 0 in
  while !k < words do
    buf.(base + !k) <- src.(!k) + pc_delta;
    buf.(base + !k + 1) <- src.(!k + 1);
    buf.(base + !k + 2) <- src.(!k + 2);
    buf.(base + !k + 3) <- src.(!k + 3);
    k := !k + cell_words
  done;
  tape.len <- base + words;
  base

let tape_set_word tape i v = tape.buf.(i) <- v

(* Copy out words [lo, tape.len) — template capture after a scratch
   emission. *)
let tape_snapshot tape ~from =
  Array.sub tape.buf from (tape.len - from)

(* Raw cell accessors, for consumers that dispatch on the tag before paying
   for a full decode. *)
let tape_cell_tag tape i = tape.buf.((i * cell_words) + 1) land 0xF
let tape_cell_pc tape i = tape.buf.(i * cell_words)
let tape_cell_dispatch tape i =
  tape.buf.((i * cell_words) + 1) land flag_dispatch <> 0
let tape_cell_arg1 tape i = tape.buf.((i * cell_words) + 2)
let tape_cell_arg2 tape i = tape.buf.((i * cell_words) + 3)

(* Boxed decode of cell [i], for the legacy-path differential shim. *)
let tape_to_event tape i =
  let base = i * cell_words in
  let buf = tape.buf in
  let pc = buf.(base) in
  let flags = buf.(base + 1) in
  let arg1 = buf.(base + 2) and arg2 = buf.(base + 3) in
  let tag = flags land 0xF in
  if tag = tag_plain_run then
    invalid_arg "Event.tape_to_event: plain-run cell on the boxed path";
  if tag = tag_template then
    invalid_arg "Event.tape_to_event: template reference cell on the boxed path";
  let kind =
    if tag = tag_plain then Plain
    else if tag = tag_mem_read then Mem_read { addr = arg1 }
    else if tag = tag_mem_write then Mem_write { addr = arg1 }
    else if tag = tag_cond_branch then
      Cond_branch { taken = flags land flag_taken <> 0; target = arg1 }
    else if tag = tag_jump then Jump { target = arg1 }
    else if tag = tag_ind_jump then
      Ind_jump { target = arg1; hint = (if arg2 < 0 then None else Some arg2) }
    else if tag = tag_call then
      Call { target = arg1; indirect = flags land flag_indirect <> 0; link = arg2 }
    else if tag = tag_return then Return { target = arg1 }
    else if tag = tag_bop then
      Bop { opcode = arg2; hit = flags land flag_hit <> 0; target = arg1 }
    else if tag = tag_jru then
      Jru { opcode = (if arg2 < 0 then None else Some arg2); target = arg1 }
    else Jte_flush
  in
  {
    pc;
    kind;
    dispatch = flags land flag_dispatch <> 0;
    sets_rop = flags land flag_sets_rop <> 0;
  }

let pp fmt t =
  let k =
    match t.kind with
    | Plain -> "plain"
    | Mem_read { addr } -> Printf.sprintf "load[0x%x]" addr
    | Mem_write { addr } -> Printf.sprintf "store[0x%x]" addr
    | Cond_branch { taken; target } ->
      Printf.sprintf "br(%s->0x%x)" (if taken then "T" else "N") target
    | Jump { target } -> Printf.sprintf "j(0x%x)" target
    | Ind_jump { target; _ } -> Printf.sprintf "ij(0x%x)" target
    | Call { target; indirect; link = _ } ->
      Printf.sprintf "call%s(0x%x)" (if indirect then "*" else "") target
    | Return { target } -> Printf.sprintf "ret(0x%x)" target
    | Bop { opcode; hit; target } ->
      Printf.sprintf "bop(op=%d,%s,0x%x)" opcode (if hit then "hit" else "miss") target
    | Jru { target; _ } -> Printf.sprintf "jru(0x%x)" target
    | Jte_flush -> "jte.flush"
  in
  Format.fprintf fmt "0x%x:%s%s%s" t.pc k
    (if t.dispatch then " [disp]" else "")
    (if t.sets_rop then " [.op]" else "")
