open Scd_isa

type t = {
  config : Config.t;
  btb : Btb.t;
  direction : Direction.t;
  indirect : Indirect.t;
  ras : Ras.t;
  icache : Cache.t;
  dcache : Cache.t;
  l2 : Cache.t option;
  itlb : Cache.t;
  dtlb : Cache.t;
  stats : Stats.t;
  scratch : Event.scratch; (* staging area for the boxed [consume] shim *)
  mutable probe : Scd_obs.Probe.t;
      (* Telemetry hooks, [Probe.null] unless a sink attached one. All call
         sites guard with a physical-equality check against [Probe.null], so
         the un-instrumented hot path costs one comparison and allocates
         nothing. *)
  fetch_shift : int;
      (* log2 of the I-cache block size, precomputed: {!fetch} runs once per
         retired instruction and a division there is measurable. *)
  summary_ok : bool;
      (* Template summaries ({!Scd_isa.Stamp}) may replace the per-cell walk:
         single issue, no L2, I-blocks of the summaries' size. *)
  side : Event.tape;
      (* Expansion buffer for template references that are not consumed
         through their summary. *)
  mutable last_fetch_block : int;
  tlb_shift : int;  (* log2 of the TLB page size *)
  mutable last_itlb_page : int;
  mutable last_dtlb_page : int;
      (* The page each TLB was last accessed for, [-1] before any. That
         page's entry is resident and is its set's MRU line (the access hit
         or filled it, and only an access to another page evicts), so
         repeating the access would only hit the MRU way and re-stamp the
         set's newest line, which changes no later LRU choice: it is
         skipped. What that leaves out is the TLBs' own access count and
         tick, which nothing reads. *)
  mutable pair_open : bool; (* a second issue slot remains this cycle *)
  mutable group_has_mem : bool;
  mutable last_rop_index : int; (* instruction index of last .op producer *)
}

let create ?btb ?(indirect = Indirect.Pc_btb) (config : Config.t) =
  let btb =
    match btb with
    | Some b -> b
    | None ->
      Btb.create ~entries:config.btb_entries ~ways:config.btb_ways
        ~replacement:config.btb_replacement ?jte_cap:config.jte_cap ()
  in
  {
    config;
    btb;
    direction = Direction.create config.direction;
    indirect = Indirect.create indirect btb;
    ras = Ras.create ~depth:config.ras_depth;
    icache = Cache.create config.icache;
    dcache = Cache.create config.dcache;
    l2 = Option.map Cache.create config.l2;
    itlb = Cache.create (Cache.tlb_geometry ~entries:config.itlb_entries);
    dtlb = Cache.create (Cache.tlb_geometry ~entries:config.dtlb_entries);
    stats = Stats.create ();
    scratch = Event.scratch_create ();
    probe = Scd_obs.Probe.null;
    fetch_shift = Scd_util.Bits.log2 config.icache.block_bytes;
    summary_ok =
      config.issue_width = 1 && Option.is_none config.l2
      && config.icache.block_bytes = Stamp.block_bytes;
    side = Event.tape_create ();
    last_fetch_block = -1;
    tlb_shift =
      Scd_util.Bits.log2 (Cache.tlb_geometry ~entries:1).Cache.block_bytes;
    last_itlb_page = -1;
    last_dtlb_page = -1;
    pair_open = false;
    group_has_mem = false;
    last_rop_index = min_int;
  }

let config t = t.config
let btb t = t.btb
let stats t = t.stats
let set_probe t probe = t.probe <- probe
let probe t = t.probe

let stall t cycles = t.stats.cycles <- t.stats.cycles + cycles

(* Charge a miss that goes to L2 (if present) and possibly DRAM. *)
let miss_below t ~addr =
  match t.l2 with
  | None ->
    t.stats.cycles <- t.stats.cycles + t.config.mem_latency
  | Some l2 -> (
    match Cache.access l2 ~addr with
    | `Hit -> t.stats.cycles <- t.stats.cycles + t.config.l2_latency
    | `Miss ->
      t.stats.l2_misses <- t.stats.l2_misses + 1;
      t.stats.cycles <-
        t.stats.cycles + t.config.l2_latency + t.config.mem_latency)

(* [fetch] and [data_access] run once per I-block change and per memory
   instruction on every walk (cells, runs, summaries); inlined, they cost
   no call. *)
let[@inline] fetch t pc =
  let block = pc lsr t.fetch_shift in
  if block <> t.last_fetch_block then begin
    t.last_fetch_block <- block;
    let page = pc lsr t.tlb_shift in
    if page <> t.last_itlb_page then begin
      t.last_itlb_page <- page;
      match Cache.access t.itlb ~addr:pc with
      | `Hit -> ()
      | `Miss ->
        t.stats.itlb_misses <- t.stats.itlb_misses + 1;
        stall t t.config.tlb_penalty
    end;
    t.stats.icache_accesses <- t.stats.icache_accesses + 1;
    match Cache.access t.icache ~addr:pc with
    | `Hit -> ()
    | `Miss ->
      t.stats.icache_misses <- t.stats.icache_misses + 1;
      miss_below t ~addr:pc
  end

let[@inline] data_access t addr =
  let page = addr lsr t.tlb_shift in
  if page <> t.last_dtlb_page then begin
    t.last_dtlb_page <- page;
    match Cache.access t.dtlb ~addr with
    | `Hit -> ()
    | `Miss ->
      t.stats.dtlb_misses <- t.stats.dtlb_misses + 1;
      stall t t.config.tlb_penalty
  end;
  t.stats.dcache_accesses <- t.stats.dcache_accesses + 1;
  match Cache.access t.dcache ~addr with
  | `Hit -> ()
  | `Miss ->
    t.stats.dcache_misses <- t.stats.dcache_misses + 1;
    miss_below t ~addr

(* Issue-slot accounting: single issue charges a cycle per instruction;
   dual issue pairs the current instruction into the open slot when legal. *)
let issue t ~mem ~control =
  let pairable = t.pair_open && not (mem && t.group_has_mem) in
  if pairable then begin
    t.pair_open <- false;
    if mem then t.group_has_mem <- true
  end
  else begin
    t.stats.cycles <- t.stats.cycles + 1;
    t.pair_open <- t.config.issue_width > 1;
    t.group_has_mem <- mem
  end;
  (* A control instruction always closes its issue group. *)
  if control then t.pair_open <- false

let mispredict t ~dispatch =
  stall t t.config.branch_penalty;
  t.pair_open <- false;
  if dispatch then
    t.stats.mispredicts_dispatch <- t.stats.mispredicts_dispatch + 1;
  if t.probe != Scd_obs.Probe.null then
    t.probe.Scd_obs.Probe.on_mispredict ~dispatch

(* The predictor side of one control instruction ([tag_cond_branch] ..
   [tag_jru]), after its fetch and issue: direction, BTB, RAS and indirect
   traffic, mispredict and bubble charges, and the per-kind counters. *)
let control t ~tag ~pc ~flags ~arg1 ~arg2 =
  let s = t.stats in
  let dispatch = flags land Event.flag_dispatch <> 0 in
  if tag = Event.tag_cond_branch then begin
    let taken = flags land Event.flag_taken <> 0 in
    s.cond_branches <- s.cond_branches + 1;
    let predicted_taken = Direction.predict t.direction ~pc in
    let predicted_target =
      if predicted_taken then Btb.lookup_target t.btb ~jte:false ~key:pc
      else Btb.no_target
    in
    if predicted_taken <> taken then begin
      s.cond_mispredicts <- s.cond_mispredicts + 1;
      mispredict t ~dispatch
    end
    else if taken && predicted_target == Btb.no_target then begin
      (* Direction was right but fetch could not redirect: the target is
         computed at decode (direct branch), costing a shorter bubble. *)
      s.direct_target_misses <- s.direct_target_misses + 1;
      stall t t.config.direct_bubble
    end;
    Direction.update t.direction ~pc ~taken;
    if taken then Btb.insert t.btb ~jte:false ~key:pc ~target:arg1
  end
  else if tag = Event.tag_jump then begin
    s.direct_jumps <- s.direct_jumps + 1;
    if Btb.lookup_target t.btb ~jte:false ~key:pc == Btb.no_target
    then begin
      s.direct_target_misses <- s.direct_target_misses + 1;
      stall t t.config.direct_bubble;
      Btb.insert t.btb ~jte:false ~key:pc ~target:arg1
    end
  end
  else if tag = Event.tag_call then begin
    (* The architectural link: [arg2] carries it for calls emitted at a
       non-default stride (jump-threading replicas); [-1] = [pc + 4]. *)
    Ras.push t.ras (if arg2 >= 0 then arg2 else pc + 4);
    if flags land Event.flag_indirect <> 0 then begin
      s.indirect_jumps <- s.indirect_jumps + 1;
      let predicted =
        Indirect.predict_target t.indirect ~pc ~hint:Indirect.no_hint
      in
      if predicted <> arg1 then begin
        s.indirect_mispredicts <- s.indirect_mispredicts + 1;
        mispredict t ~dispatch
      end;
      Indirect.update_target t.indirect ~pc ~hint:Indirect.no_hint
        ~target:arg1
    end
    else begin
      s.direct_jumps <- s.direct_jumps + 1;
      if Btb.lookup_target t.btb ~jte:false ~key:pc == Btb.no_target
      then begin
        s.direct_target_misses <- s.direct_target_misses + 1;
        stall t t.config.direct_bubble;
        Btb.insert t.btb ~jte:false ~key:pc ~target:arg1
      end
    end
  end
  else if tag = Event.tag_return then begin
    s.returns <- s.returns + 1;
    if Ras.pop_target t.ras <> arg1 then begin
      s.return_mispredicts <- s.return_mispredicts + 1;
      mispredict t ~dispatch
    end
  end
  else if tag = Event.tag_ind_jump then begin
    s.indirect_jumps <- s.indirect_jumps + 1;
    let hint = if arg2 < 0 then Indirect.no_hint else arg2 in
    let predicted = Indirect.predict_target t.indirect ~pc ~hint in
    if predicted <> arg1 then begin
      s.indirect_mispredicts <- s.indirect_mispredicts + 1;
      mispredict t ~dispatch
    end;
    Indirect.update_target t.indirect ~pc ~hint ~target:arg1
  end
  else if tag = Event.tag_jru then begin
    (* Times exactly like a plain indirect jump; the JTE insertion has been
       done by the SCD engine against the shared BTB. *)
    s.jru_count <- s.jru_count + 1;
    s.indirect_jumps <- s.indirect_jumps + 1;
    let predicted =
      Indirect.predict_target t.indirect ~pc ~hint:Indirect.no_hint
    in
    if predicted <> arg1 then begin
      s.indirect_mispredicts <- s.indirect_mispredicts + 1;
      mispredict t ~dispatch
    end;
    Indirect.update_target t.indirect ~pc ~hint:Indirect.no_hint
      ~target:arg1
  end
  else begin
    (* tag_bop *)
    s.bop_count <- s.bop_count + 1;
    (* Rop-not-ready stall: the paper's default (stalling) scheme inserts
       bubbles until the .op producer has reached Execute; under the
       fall-through policy the driver already turned an unready bop into an
       architectural miss, so no bubbles are charged here. *)
    (match t.config.bop_policy with
     | `Stall ->
       let distance = s.instructions - t.last_rop_index in
       let bubbles = t.config.rop_gap - distance in
       if bubbles > 0 then begin
         s.bop_stall_cycles <- s.bop_stall_cycles + bubbles;
         stall t bubbles
       end
     | `Fall_through -> ());
    if flags land Event.flag_hit <> 0 then begin
      s.bop_hits <- s.bop_hits + 1;
      stall t t.config.bop_hit_bubble;
      t.pair_open <- false
    end
  end

(* The hot entry point: one tape cell's worth of locals — [flags] is the
   cell's packed flags word, [arg1] the memory address or branch target,
   [arg2] the hint / opcode / call link. Payload booleans are decoded from
   [flags] only in the branch that reads them, and nothing is written back
   to a record, so consuming a cell touches no memory beyond the model's
   own state. {!consume_scratch} and {!consume} are shims over this. *)
let consume_cell t ~pc ~flags ~arg1 ~arg2 =
  let s = t.stats in
  s.instructions <- s.instructions + 1;
  let dispatch = flags land Event.flag_dispatch <> 0 in
  if dispatch then s.dispatch_instructions <- s.dispatch_instructions + 1;
  if flags land Event.flag_sets_rop <> 0 then
    t.last_rop_index <- s.instructions;
  fetch t pc;
  let tag = flags land 0xF in
  issue t
    ~mem:(tag = Event.tag_mem_read || tag = Event.tag_mem_write)
    ~control:(tag >= Event.tag_cond_branch && tag <= Event.tag_jru);
  if tag = Event.tag_plain || tag = Event.tag_jte_flush then ()
  else if tag = Event.tag_mem_read || tag = Event.tag_mem_write then
    data_access t arg1
  else control t ~tag ~pc ~flags ~arg1 ~arg2;
  (* Retirement hook last, so interval samplers observe this instruction's
     cycle and miss accounting in full. *)
  if t.probe != Scd_obs.Probe.null then t.probe.Scd_obs.Probe.on_retire ()

(* Re-pack a scratch record into cell locals. Stale payload fields are
   harmless: a flag bit or payload word that the tag does not define is
   never read by {!consume_cell}, mirroring the scratch contract. *)
let consume_scratch t (ev : Event.scratch) =
  let tag = ev.s_tag in
  let flags =
    tag
    lor (if ev.s_dispatch then Event.flag_dispatch else 0)
    lor (if ev.s_sets_rop then Event.flag_sets_rop else 0)
    lor (if ev.s_taken then Event.flag_taken else 0)
    lor (if ev.s_hit then Event.flag_hit else 0)
    lor (if ev.s_indirect then Event.flag_indirect else 0)
  in
  consume_cell t ~pc:ev.s_pc ~flags
    ~arg1:(if Event.scratch_is_mem ev then ev.s_addr else ev.s_target)
    ~arg2:
      (if tag = Event.tag_ind_jump || tag = Event.tag_call then ev.s_hint
       else ev.s_opcode)

let consume t ev =
  Event.load_scratch t.scratch ev;
  consume_scratch t t.scratch

(* [issue] specialised to a plain (non-mem, non-control) instruction. *)
let issue_plain t =
  if t.pair_open then t.pair_open <- false
  else begin
    t.stats.cycles <- t.stats.cycles + 1;
    t.pair_open <- t.config.issue_width > 1;
    t.group_has_mem <- false
  end

(* Consume a run of [count >= 1] plain instructions starting at [pc],
   spaced [stride] bytes apart, in aggregate. Bit-identical to consuming
   them one by one: instruction/dispatch counts add up, the I-side is
   touched once per cache-block transition exactly as the per-instruction
   [fetch] short-circuit would, and issue groups open in closed form. With
   a probe attached the exact per-instruction loop runs instead: [on_retire]
   must fire once per instruction, and an interval sampler reads the cycle
   and miss counters at that retirement, so they must advance one
   instruction at a time. *)
let consume_plain_run t ~pc ~dispatch ~count ~stride =
  let s = t.stats in
  if t.probe == Scd_obs.Probe.null then begin
    s.instructions <- s.instructions + count;
    if dispatch then
      s.dispatch_instructions <- s.dispatch_instructions + count;
    fetch t pc;
    (* Touch each later block at its boundary: any pc inside a block is
       equivalent for the I-TLB (blocks never straddle pages) and the
       I-cache (same line), so stats, ticks and stamps match the
       per-instruction walk. [stride <= block_bytes], so no block between
       the first and last is skipped. *)
    let last_block = (pc + (stride * (count - 1))) lsr t.fetch_shift in
    for b = (pc lsr t.fetch_shift) + 1 to last_block do
      fetch t (b lsl t.fetch_shift)
    done;
    (* [issue_plain] [count] times, in closed form. *)
    if t.config.issue_width = 1 then begin
      (* [pair_open] invariantly false: every instruction opens a group,
         and the last leaves a fresh mem-free one *)
      s.cycles <- s.cycles + count;
      t.group_has_mem <- false
    end
    else begin
      (* Groups alternate: an open slot absorbs the first instruction and
         every second one after it opens a group, so [pair_open] ends
         flipped iff [count] is odd. Any opened group is mem-free. *)
      let groups = if t.pair_open then count / 2 else (count + 1) / 2 in
      s.cycles <- s.cycles + groups;
      if count land 1 = 1 then t.pair_open <- not t.pair_open;
      if groups > 0 then t.group_has_mem <- false
    end
  end
  else
    for k = 0 to count - 1 do
      s.instructions <- s.instructions + 1;
      if dispatch then
        s.dispatch_instructions <- s.dispatch_instructions + 1;
      fetch t (pc + (k * stride));
      issue_plain t;
      if t.probe != Scd_obs.Probe.null then t.probe.Scd_obs.Probe.on_retire ()
    done

(* A control word of a summary: literal ([src] 0), or the reference's [a]
   (1) or [b] (2) word. *)
let pick word src ~a ~b = if src = 0 then word else if src = 1 then a else b

(* A template reference consumed through its summary (the fast path of
   {!consume_ref}). Equal to walking the expanded cells one by one when the
   pipeline is single-issue with no L2 and no probe: there every
   instruction costs exactly one issue cycle (and [group_has_mem], read
   only with a slot open, is dead); the I-side (I-TLB, I-cache),
   the D-side (D-TLB, D-cache) and the predictors (direction, BTB, RAS,
   indirect) share no state, so each stream may run on its own in program
   order; every other charge is an added stall; and nothing reads the cycle
   or instruction counters mid-template (a template holds no [bop]). *)
let consume_summary t (m : Stamp.t) ~a ~b =
  let s = t.stats in
  let before = s.instructions in
  s.instructions <- before + m.instrs;
  s.dispatch_instructions <- s.dispatch_instructions + m.dispatch_instrs;
  if m.rop_offset > 0 then t.last_rop_index <- before + m.rop_offset;
  s.cycles <- s.cycles + m.instrs;
  let blocks = m.iblocks in
  for k = 0 to Array.length blocks - 1 do
    let b = blocks.(k) in
    fetch t (if b < 0 then a else b lsl t.fetch_shift)
  done;
  let daddrs = m.daddrs in
  for k = 0 to Array.length daddrs - 1 do
    data_access t
      (if k = m.dpatch then b else if k = m.dpatch_a then a else daddrs.(k))
  done;
  let c = m.ctrl in
  let k = ref 0 in
  while !k < Array.length c do
    let i = !k in
    let flags = c.(i + 1) and src = c.(i + 4) in
    control t ~tag:(flags land 0xF)
      ~pc:(pick c.(i) (src land 3) ~a ~b)
      ~flags
      ~arg1:(pick c.(i + 2) ((src lsr 2) land 3) ~a ~b)
      ~arg2:(pick c.(i + 3) (src lsr 4) ~a ~b);
    k := i + Stamp.ctrl_words
  done

(* The one tape walker. Walks the backing buffer directly: the tape only
   grows on the producer side, so the reference stays valid for the whole
   drain, and each cell costs four loads feeding {!consume_cell},
   {!consume_plain_run} or {!consume_ref} — no scratch round-trip. The
   walk stops right after the instruction that reaches [limit] (an
   absolute [stats.instructions] value); a run cell straddling that
   boundary is split in place (its [pc] and count rewritten to the
   unconsumed tail), so the returned word index resumes exactly where the
   walk stopped. *)
let rec walk t tape ~from ~limit =
  let words = Event.tape_extent tape in
  let buf = Event.tape_words tape in
  let s = t.stats in
  let i = ref from in
  while !i < words && s.instructions < limit do
    let base = !i in
    let flags = buf.(base + 1) in
    let tag = flags land 0xF in
    if tag = Event.tag_template then i := consume_ref t buf base flags ~limit
    else if tag = Event.tag_plain_run then begin
      let pc = buf.(base) in
      let count = buf.(base + 2) in
      let stride = buf.(base + 3) in
      let dispatch = flags land Event.flag_dispatch <> 0 in
      let room = limit - s.instructions in
      if count <= room then begin
        consume_plain_run t ~pc ~dispatch ~count ~stride;
        i := base + Event.cell_words
      end
      else begin
        consume_plain_run t ~pc ~dispatch ~count:room ~stride;
        buf.(base) <- pc + (room * stride);
        buf.(base + 2) <- count - room
      end
    end
    else begin
      consume_cell t ~pc:buf.(base) ~flags ~arg1:buf.(base + 2)
        ~arg2:buf.(base + 3);
      i := base + Event.cell_words
    end
  done;
  !i

(* A template reference at word [base]: through its summary when that is
   exact and the whole template fits before [limit]; otherwise expanded
   into the side tape (skipping what an earlier stop consumed) and walked
   cell by cell. A stop inside the template records the instructions
   consumed so far in the cell's [arg2] and returns [base], so the caller
   resumes at the same cell. *)
and consume_ref t buf base flags ~limit =
  let m = Stamp.find (Stamp.id_of_flags flags) in
  let a = buf.(base) and b = buf.(base + 2) and skip = buf.(base + 3) in
  let s = t.stats in
  if skip = 0 && m.summarized && t.summary_ok
     && t.probe == Scd_obs.Probe.null
     && m.instrs <= limit - s.instructions
  then begin
    consume_summary t m ~a ~b;
    base + Event.cell_words
  end
  else begin
    let from = Stamp.expand_into t.side m ~a ~b ~skip in
    let before = s.instructions in
    if walk t t.side ~from ~limit >= Event.tape_extent t.side then
      base + Event.cell_words
    else begin
      buf.(base + 3) <- skip + (s.instructions - before);
      base
    end
  end

let consume_tape_quota t tape ~from ~quota =
  let s = t.stats in
  let limit =
    if quota > max_int - s.instructions then max_int
    else s.instructions + quota
  in
  walk t tape ~from ~limit

let consume_tape t tape =
  ignore (consume_tape_quota t tape ~from:0 ~quota:max_int : int)
