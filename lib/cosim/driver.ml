open Scd_isa
open Scd_uarch
open Scd_codegen
open Scd_runtime

type run_config = {
  frontend : Frontend.t;
  scheme : Scd_core.Scheme.t;
  machine : Config.t;
  context_switch_interval : int option;
  multi_table : bool;
  indirect_override : Indirect.scheme option;
  superinstructions : bool;
  bytecode_replication : bool;
  seed : int64;
}

let default_config =
  {
    frontend = Frontend.get "lua";
    scheme = Scd_core.Scheme.Baseline;
    machine = Config.simulator;
    context_switch_interval = None;
    multi_table = false;
    indirect_override = None;
    superinstructions = false;
    bytecode_replication = false;
    seed = 0x5EED_2016L;
  }

type result = Result.t = {
  stats : Stats.t;
  btb : Btb.stats;
  engine : Scd_core.Engine.stats option;
  bytecodes : int;
  output : string;
  code_bytes : int;
}

(* Completed co-simulations in this process, across all domains. The
   persistent-cache tests assert this stays flat on a warm run. *)
let run_counter = Atomic.make 0
let runs () = Atomic.get run_counter

(* ------------------------------------------------------------------ *)
(* Event expansion                                                     *)
(* ------------------------------------------------------------------ *)

type expander = {
  layout : Layout.t;
  spec : Spec.t;
  scheme : Scd_core.Scheme.t;
  pipeline : Pipeline.t;
  engine : Scd_core.Engine.t;
  stride : int;  (* bytes per bytecode pc unit: 4 for the register VM, 1 for the stack VM *)
  cs_interval : int option;
  multi_table : bool;
      (* Section IV: one (Rop, Rmask, Rbop-pc) set per dispatch site, each
         with its own branch-ID-tagged jump table. *)
  boxed : bool;
      (* Legacy event path: decode each tape cell into a boxed [Event.t] and
         feed {!Pipeline.consume}. Only the differential tests turn this on;
         it must produce bit-identical results to the flat path. *)
  rle : bool;
      (* Emit straight-line plain instructions as one [tag_plain_run] cell
         instead of one cell each. Off on the boxed path (runs have no boxed
         form). *)
  mutable prev_opcode : int;  (* -1 before the first dispatch *)
  last_bop_pcs : int array;  (* Rbop-pc, per branch ID *)
  mutable bytecodes : int;
  mutable retired_since_cs : int;
  mutable epc : int;
      (* Emission cursor: the native PC the next emitted instruction will
         carry. A mutable field rather than a [ref] so positioning costs no
         allocation per bytecode. *)
  tape : Event.tape;
      (* The per-driver flat event buffer: every retired instruction of the
         current batch is four ints written in place, drained in order by
         the pipeline at the next flush point — no [Event.t] is allocated
         per instruction. *)
  trap : (Event.tape -> unit) option;
      (* Test observer: called on every non-empty tape batch just before it
         is drained. [None] (the default) costs one field load per flush. *)
  ts : Template.set;
      (* This (spec, scheme)'s precompiled templates and per-opcode tables
         (handler specs, next dispatch site, tail-jump target), built once
         per process. *)
  stamped : bool;
      (* Emit each dispatcher / helper-call sequence as one template
         reference cell ({!Template.stamp_dispatch} and friends) instead of
         deriving every cell through the emit helpers. Only on the [`Flat]
         path; [`Flat_push] keeps the cell-by-cell emission for
         differential testing. *)
}

let sites = [| Layout.Common_site; Layout.Call_site; Layout.Branch_site |]

(* Instructions separating the .op producer from bop in the emitted
   dispatcher; decides Rop readiness for the fall-through policy. *)
let rop_distance (spec : Spec.t) =
  spec.dispatch.fetch_instrs - 1 + spec.dispatch.operand_decode_instrs

let rop_ready exp =
  match (Pipeline.config exp.pipeline).bop_policy with
  | `Stall -> true (* the pipeline charges bubbles instead *)
  | `Fall_through ->
    rop_distance exp.spec >= (Pipeline.config exp.pipeline).rop_gap

(* Drain the tape through the pipeline, in emission order, then reset it.

   Flush points are chosen so the total order of BTB operations is the same
   as if every event had been consumed at emission time: before every
   {!Scd_core.Engine.bop}/{!Scd_core.Engine.jru} (the engine reads and
   writes the shared BTB) and at the end of each bytecode. Under a
   context-switch interval the walker stops after the instruction that
   completes the interval (splitting a plain run there if need be), so an
   engine-triggered JTE flush lands at the exact instruction boundary it
   did when events were consumed one at a time. *)

(* Retire bookkeeping for [n] freshly consumed instructions. *)
let note_retired exp interval n =
  exp.retired_since_cs <- exp.retired_since_cs + n;
  if exp.retired_since_cs >= interval then begin
    exp.retired_since_cs <- 0;
    Scd_core.Engine.retire exp.engine interval
  end

let flush exp =
  let tape = exp.tape in
  let cells = Event.tape_cells tape in
  if cells > 0 then begin
    (match exp.trap with None -> () | Some f -> f tape);
    (if exp.boxed then
       (* the reference path: one boxed event, one instruction, per cell *)
       for i = 0 to cells - 1 do
         Pipeline.consume exp.pipeline (Event.tape_to_event tape i);
         match exp.cs_interval with
         | None -> ()
         | Some interval -> note_retired exp interval 1
       done
     else
       match exp.cs_interval with
       | None -> Pipeline.consume_tape exp.pipeline tape
       | Some interval ->
         let stats = Pipeline.stats exp.pipeline in
         let words = Event.tape_extent tape in
         let i = ref 0 in
         while !i < words do
           let before = stats.Stats.instructions in
           i :=
             Pipeline.consume_tape_quota exp.pipeline tape ~from:!i
               ~quota:(interval - exp.retired_since_cs);
           note_retired exp interval (stats.Stats.instructions - before)
         done);
    Event.tape_clear tape
  end

(* Every emit helper appends one 4-int cell; payload defaults (arg1 = 0,
   arg2 = -1) mirror [Event.scratch_create] so a decoded cell is identical
   to a freshly allocated event. *)

let emit_plain exp ~dispatch pc =
  Event.tape_push exp.tape ~pc
    ~flags:(Event.tag_plain lor (if dispatch then Event.flag_dispatch else 0))
    ~arg1:0 ~arg2:(-1)

let emit_mem exp ~dispatch ~sets_rop ~write pc ~addr =
  let flags =
    (if write then Event.tag_mem_write else Event.tag_mem_read)
    lor (if dispatch then Event.flag_dispatch else 0)
    lor if sets_rop then Event.flag_sets_rop else 0
  in
  Event.tape_push exp.tape ~pc ~flags ~arg1:addr ~arg2:(-1)

let emit_cond_branch exp ~dispatch pc ~taken ~target =
  let flags =
    Event.tag_cond_branch
    lor (if dispatch then Event.flag_dispatch else 0)
    lor if taken then Event.flag_taken else 0
  in
  Event.tape_push exp.tape ~pc ~flags ~arg1:target ~arg2:(-1)

let emit_jump exp pc ~target =
  Event.tape_push exp.tape ~pc ~flags:Event.tag_jump ~arg1:target ~arg2:(-1)

(* [hint = -1] means no compiler hint (non-VBBI schemes). *)
let emit_ind_jump exp ~dispatch pc ~target ~hint =
  let flags =
    Event.tag_ind_jump lor if dispatch then Event.flag_dispatch else 0
  in
  Event.tape_push exp.tape ~pc ~flags ~arg1:target ~arg2:hint

(* All simulated runtime-helper calls are direct. [link] is the
   architectural return address; calls sit in handler code, so it is
   [pc + step] for the emission stride, not a hardcoded [pc + 4]. *)
let emit_call exp pc ~target ~link =
  Event.tape_push exp.tape ~pc ~flags:Event.tag_call ~arg1:target ~arg2:link

let emit_return exp pc ~target =
  Event.tape_push exp.tape ~pc ~flags:Event.tag_return ~arg1:target ~arg2:(-1)

let emit_bop exp pc ~opcode ~hit ~target =
  let flags =
    Event.tag_bop lor Event.flag_dispatch
    lor if hit then Event.flag_hit else 0
  in
  Event.tape_push exp.tape ~pc ~flags ~arg1:target ~arg2:opcode

let emit_jru exp pc ~opcode ~target =
  Event.tape_push exp.tape ~pc
    ~flags:(Event.tag_jru lor Event.flag_dispatch)
    ~arg1:target ~arg2:opcode

(* Emit [n] consecutive plain instructions from the cursor: one
   [tag_plain_run] cell on the RLE path, [n] plain cells otherwise. A
   non-positive [n] emits nothing, so callers pass [count - k] unclamped. *)
let emit_plain_run exp ~dispatch ~step n =
  if n > 0 then begin
    (if exp.rle then
       Event.tape_push_run exp.tape ~pc:exp.epc ~dispatch ~count:n
         ~stride:step
     else
       for k = 0 to n - 1 do
         emit_plain exp ~dispatch (exp.epc + (k * step))
       done);
    exp.epc <- exp.epc + (n * step)
  end

(* Emit [n] dispatcher instructions starting at the cursor, the first being
   a VM-state load and the last (optionally) a VM-state store. *)
let emit_vm_bookkeeping exp ~step n ~store_last =
  let vm_state = Layout.vm_state_addr exp.layout in
  if n > 0 then begin
    emit_mem exp ~dispatch:true ~sets_rop:false ~write:false exp.epc
      ~addr:vm_state;
    exp.epc <- exp.epc + step;
    let store = store_last && n > 1 in
    emit_plain_run exp ~dispatch:true ~step (n - 1 - if store then 1 else 0);
    if store then begin
      emit_mem exp ~dispatch:true ~sets_rop:false ~write:true exp.epc
        ~addr:vm_state;
      exp.epc <- exp.epc + step
    end
  end

let emit_plain_dispatch exp ~step n = emit_plain_run exp ~dispatch:true ~step n

(* The tail of the slow/baseline dispatcher: opcode decode, bound check,
   jump-table target computation. Returns with the cursor at the jump
   slot. *)
let emit_decode_to_target exp ~step ~opcode =
  let d = exp.spec.dispatch in
  emit_plain_dispatch exp ~step d.decode_instrs;
  (* bound check: compare + never-taken branch to the error arm *)
  emit_plain_dispatch exp ~step (d.bound_check_instrs - 1);
  emit_cond_branch exp ~dispatch:true exp.epc ~taken:false
    ~target:(Layout.default_handler exp.layout);
  exp.epc <- exp.epc + step;
  (* target calculation, ending with the jump-table load *)
  emit_plain_dispatch exp ~step (d.target_calc_instrs - 1);
  emit_mem exp ~dispatch:true ~sets_rop:false ~write:false exp.epc
    ~addr:(Layout.jump_table_entry exp.layout opcode);
  exp.epc <- exp.epc + step

(* The dispatcher prefix shared by every scheme: loop book-keeping (common
   site only), bytecode fetch, operand decode. Returns the absolute tape
   word holding the fetch address — the only run-dependent word of the
   sequence, which is what the template builder records as the stamp's
   patch offset. *)
let emit_dispatch_prefix exp ~step ~overhead ~fetch_addr =
  let d = exp.spec.dispatch in
  if overhead then
    emit_vm_bookkeeping exp ~step d.loop_overhead_instrs ~store_last:false;
  (* fetch: load vm.pc, load the bytecode, bump, store vm.pc *)
  let vm_state = Layout.vm_state_addr exp.layout in
  emit_mem exp ~dispatch:true ~sets_rop:false ~write:false exp.epc
    ~addr:vm_state;
  exp.epc <- exp.epc + step;
  let scd = exp.scheme = Scd_core.Scheme.Scd in
  let fetch_word = Event.tape_extent exp.tape + 2 in
  emit_mem exp ~dispatch:true ~sets_rop:scd ~write:false exp.epc
    ~addr:fetch_addr;
  exp.epc <- exp.epc + step;
  emit_plain_dispatch exp ~step (d.fetch_instrs - 3);
  emit_mem exp ~dispatch:true ~sets_rop:false ~write:true exp.epc
    ~addr:vm_state;
  exp.epc <- exp.epc + step;
  emit_plain_dispatch exp ~step d.operand_decode_instrs;
  fetch_word

(* Section IV: with multiple tables each dispatch site has its own Rbop-pc
   register; with one table the sites share it and thrash. [site] is the
   dense site index. *)
let scd_table exp ~site = if exp.multi_table then site else 0

(* The SCD short-circuit query at the bop. The engine reads the shared
   BTB, so pending events are drained first: the architecturally-visible
   operation order matches per-event consumption. *)
let scd_bop_query exp ~table ~bop_pc ~opcode =
  let same_site = exp.last_bop_pcs.(table) = bop_pc in
  exp.last_bop_pcs.(table) <- bop_pc;
  let ready = rop_ready exp in
  flush exp;
  (* Table I: a hit needs Rbop-pc == PC as well as a valid JTE. *)
  if same_site && ready then
    Scd_core.Engine.bop_target ~table exp.engine ~opcode
  else Scd_core.Engine.no_target

(* The end of the SCD miss arm, with the cursor at the jru slot: the
   JTE-inserting indirect jump to the handler. *)
let scd_finish_miss exp ~table ~opcode ~handler =
  flush exp;
  Scd_core.Engine.jru_code ~table exp.engine ~opcode ~target:handler;
  emit_jru exp exp.epc ~opcode ~target:handler

(* Dispatch reaching the handler of [opcode] for the bytecode at
   [fetch_addr], cell by cell. [base] is where this dispatcher's code
   lives; [overhead] states whether the loop book-keeping prefix is present
   (common site only). Returns the tape word of the fetch address so the
   template builder can reuse this exact emission. *)
let emit_dispatch exp ~base ~step ~overhead ~site ~opcode ~fetch_addr =
  exp.epc <- base;
  let fetch_word = emit_dispatch_prefix exp ~step ~overhead ~fetch_addr in
  let handler = Layout.handler_entry exp.layout opcode in
  (match exp.scheme with
   | Scd ->
     let bop_pc = exp.epc in
     let table = scd_table exp ~site in
     let target = scd_bop_query exp ~table ~bop_pc ~opcode in
     if target <> Scd_core.Engine.no_target then
       emit_bop exp bop_pc ~opcode ~hit:true ~target
     else begin
       emit_bop exp bop_pc ~opcode ~hit:false ~target:(bop_pc + step);
       exp.epc <- bop_pc + step;
       emit_decode_to_target exp ~step ~opcode;
       scd_finish_miss exp ~table ~opcode ~handler
     end
   | Baseline | Jump_threading | Vbbi ->
     emit_decode_to_target exp ~step ~opcode;
     let hint = match exp.scheme with Vbbi -> opcode | _ -> -1 in
     emit_ind_jump exp ~dispatch:true exp.epc ~target:handler ~hint);
  fetch_word

(* Runtime helper / builtin library call appended to a handler body, cell
   by cell. The call is a handler instruction emitted at [step] (= the
   handler's hot stride), so the return lands [step] bytes past it — where
   the layout places the tail region; the call cell carries that link so
   the RAS push matches the return target. *)
let emit_blob_cells exp ~step (b : Spec.rt_blob) =
  let target = Layout.blob_entry exp.layout b.blob_id in
  let return_to = exp.epc + step in
  emit_call exp exp.epc ~target ~link:return_to;
  exp.epc <- target;
  (* The body is a fixed pattern: [load_every - 1] plain instructions then
     one load, repeated, with a trailing plain run. *)
  let mems = b.body_instrs / b.load_every in
  for m = 0 to mems - 1 do
    emit_plain_run exp ~dispatch:false ~step:Layout.hot_stride
      (b.load_every - 1);
    (* helper-internal data traffic lands near the VM stack top *)
    let k = ((m + 1) * b.load_every) - 1 in
    emit_mem exp ~dispatch:false ~sets_rop:false ~write:false exp.epc
      ~addr:(Layout.stack_slot_addr exp.layout (k land 31));
    exp.epc <- exp.epc + Layout.hot_stride
  done;
  emit_plain_run exp ~dispatch:false ~step:Layout.hot_stride
    (b.body_instrs - (mems * b.load_every));
  emit_return exp exp.epc ~target:return_to

(* Helper-call emission when stamping: one reference cell carrying the
   call-site words (every blob body is run-invariant — its data traffic
   walks fixed stack slots). *)
let stamp_blob exp t =
  Template.stamp_blob exp.tape t ~call_pc:exp.epc
    ~link:(exp.epc + Layout.hot_stride)

(* One handler data access at the cursor. *)
let emit_access exp ~write ~addr =
  emit_mem exp ~dispatch:false ~sets_rop:false ~write exp.epc ~addr;
  exp.epc <- exp.epc + Layout.hot_stride

(* The handler body after its [mems] data accesses: the plain slots, then
   the control-dependent branch if the handler has one. *)
let emit_body_rest exp (h : Spec.handler_spec) ~slots ~mems ~taken =
  emit_plain_run exp ~dispatch:false ~step:Layout.hot_stride (slots - mems);
  if h.ctrl_branch then begin
    emit_cond_branch exp ~dispatch:false exp.epc ~taken
      ~target:(exp.epc + (2 * Layout.hot_stride));
    exp.epc <- exp.epc + Layout.hot_stride
  end

(* The handler tail's jump back to the dispatch site after [opcode]. *)
let emit_tail_jump exp ~opcode ~target =
  emit_jump exp (Layout.handler_tail exp.layout opcode) ~target

(* Body slots open to data accesses: a control-dependent branch, if any,
   claims the last slot even from an access. *)
let body_slots (h : Spec.handler_spec) =
  if h.ctrl_branch then h.body_instrs - 1 else h.body_instrs

let access_addr exp (tr : Trace.t) k =
  Layout.access_addr_flat exp.layout ~kind:(Trace.access_kind tr k)
    ~a:(Trace.access_a tr k) ~b:(Trace.access_b tr k)

(* The handler body, cell by cell: data accesses occupy the first slots,
   then plains, then the branch. *)
let push_body exp (tr : Trace.t) (h : Spec.handler_spec) ~slots ~mems =
  for k = 0 to mems - 1 do
    emit_access exp ~write:(Trace.access_write tr k) ~addr:(access_addr exp tr k)
  done;
  emit_body_rest exp h ~slots ~mems
    ~taken:(tr.ctrl_kind = Trace.ctrl_branch && tr.ctrl_taken)

(* Of a body's [mems] data accesses, the last (at most two) are inlined
   into its variant reference. *)
let inlined mems = if mems < 2 then mems else 2

(* The handler body as one variant reference (see {!Template.handler_key}):
   accesses before the inlined ones are pushed as memory cells, the
   inlined ones ride in the reference's [a] and [b] words. Leaves the
   cursor at the body's end, where the push path leaves it. *)
let stamp_body exp (tr : Trace.t) (h : Spec.handler_spec) ~opcode ~mems ~tail =
  let inl = inlined mems in
  for k = 0 to mems - inl - 1 do
    emit_access exp ~write:(Trace.access_write tr k) ~addr:(access_addr exp tr k)
  done;
  let b = if inl >= 1 then access_addr exp tr (mems - 1) else 0 in
  let a = if inl = 2 then access_addr exp tr (mems - 2) else 0 in
  let writes =
    (if inl >= 1 && Trace.access_write tr (mems - 1) then 1 else 0)
    lor if inl = 2 && Trace.access_write tr (mems - 2) then 2 else 0
  in
  let taken =
    h.ctrl_branch && tr.ctrl_kind = Trace.ctrl_branch && tr.ctrl_taken
  in
  let key = Template.handler_key ~mems ~writes ~taken ~tail in
  Template.stamp_variant exp.tape exp.ts.variants ~opcode ~key ~a ~b;
  exp.epc <-
    Layout.handler_entry exp.layout opcode + (h.body_instrs * Layout.hot_stride)

(* Handler body, helper call and tail jump for one bytecode event. When
   stamping, the tail jump folds into the body's reference unless a helper
   call comes between them; under jump threading there is none (the
   replica is this handler's own dispatcher). *)
let emit_handler exp (tr : Trace.t) =
  let opcode = tr.opcode in
  let h = exp.ts.handlers.(opcode) in
  exp.epc <- Layout.handler_entry exp.layout opcode;
  let slots = body_slots h in
  let n_acc = Trace.access_count tr in
  let mems = if n_acc < slots then n_acc else slots in
  let builtin =
    if tr.ctrl_kind = Trace.ctrl_call && tr.ctrl_arg < 0 then -1 - tr.ctrl_arg
    else -1
  in
  let call = builtin >= 0 || Option.is_some h.rt_call in
  let jt = exp.scheme = Scd_core.Scheme.Jump_threading in
  let folded = exp.stamped && not (call || jt) in
  if exp.stamped then stamp_body exp tr h ~opcode ~mems ~tail:folded
  else push_body exp tr h ~slots ~mems;
  (* runtime helper / builtin library call *)
  (if builtin >= 0 then
     if exp.stamped && builtin < Array.length exp.ts.builtin_blobs then
       stamp_blob exp exp.ts.builtin_blobs.(builtin)
     else
       emit_blob_cells exp ~step:Layout.hot_stride (exp.spec.builtin_blob builtin)
   else
     match h.rt_call with
     | Some id ->
       if exp.stamped then stamp_blob exp exp.ts.rt_blobs.(id)
       else emit_blob_cells exp ~step:Layout.hot_stride exp.spec.blobs.(id)
     | None -> ());
  if not (folded || jt) then
    emit_tail_jump exp ~opcode ~target:exp.ts.tail_target.(opcode)

(* Dense index of the dispatch site that fetches the next bytecode: the
   handler tail of the previous opcode selects it (common site before the
   first). *)
let dispatch_site exp =
  if exp.prev_opcode < 0 then 0 else exp.ts.next_site.(exp.prev_opcode)

(* Cell-by-cell dispatch emission (no templates: the [`Flat_push] and
   boxed paths). *)
let push_dispatch exp ~opcode ~fetch_addr =
  match exp.scheme with
  | Scd_core.Scheme.Jump_threading ->
    if exp.prev_opcode < 0 then
      ignore
        (emit_dispatch exp
           ~base:(Layout.site_base exp.layout Layout.Common_site)
           ~step:4 ~overhead:true ~site:0 ~opcode ~fetch_addr
          : int)
    else
      (* a replica is inlined C inside the handler: handler stride *)
      ignore
        (emit_dispatch exp
           ~base:(Layout.handler_tail exp.layout exp.prev_opcode)
           ~step:Layout.hot_stride ~overhead:false ~site:0 ~opcode
           ~fetch_addr
          : int)
  | _ ->
    let site = dispatch_site exp in
    ignore
      (emit_dispatch exp
         ~base:(Layout.site_base exp.layout sites.(site))
         ~step:4 ~overhead:(site = 0) ~site ~opcode ~fetch_addr
        : int)

(* Template-stamped dispatch: one reference cell carrying the fetch
   address replaces the cell-by-cell derivation. Under SCD only the prefix
   (and, on a miss, the decode sequence) is precompiled — the bop and jru
   cells carry engine decisions made at trace time and stay runtime-pushed,
   exactly as on the cell-by-cell path. *)
let stamp_dispatch exp (ts : Template.set) ~opcode ~fetch_addr =
  match exp.scheme with
  | Scd_core.Scheme.Jump_threading ->
    if exp.prev_opcode < 0 then
      Template.stamp_dispatch exp.tape
        ts.Template.dispatch.(0).(opcode)
        ~fetch_addr
    else
      Template.stamp_replica exp.tape
        ts.Template.replica.(opcode)
        ~base_pc:(Layout.handler_tail exp.layout exp.prev_opcode)
        ~fetch_addr
  | Baseline | Vbbi ->
    Template.stamp_dispatch exp.tape
      ts.Template.dispatch.(dispatch_site exp).(opcode)
      ~fetch_addr
  | Scd ->
    let si = dispatch_site exp in
    let pre = ts.Template.scd_prefix.(si) in
    Template.stamp_dispatch exp.tape pre ~fetch_addr;
    let bop_pc = pre.Template.end_pc in
    let table = scd_table exp ~site:si in
    let target = scd_bop_query exp ~table ~bop_pc ~opcode in
    let handler = Layout.handler_entry exp.layout opcode in
    if target <> Scd_core.Engine.no_target then
      emit_bop exp bop_pc ~opcode ~hit:true ~target
    else begin
      (* site blocks are compact 4-byte code; the miss template resumes
         at the bop fall-through and ends at the jru slot *)
      emit_bop exp bop_pc ~opcode ~hit:false ~target:(bop_pc + 4);
      let miss = ts.Template.scd_miss.(si).(opcode) in
      Template.stamp exp.tape miss;
      exp.epc <- miss.Template.end_pc;
      scd_finish_miss exp ~table ~opcode ~handler
    end

let on_bytecode exp (tr : Trace.t) =
  exp.bytecodes <- exp.bytecodes + 1;
  let fetch_addr =
    Layout.bytecode_addr exp.layout ~fn:tr.fn ~pc:(tr.pc * exp.stride)
  in
  (* 1. the dispatcher that fetched this bytecode *)
  (if exp.stamped then stamp_dispatch exp exp.ts ~opcode:tr.opcode ~fetch_addr
   else push_dispatch exp ~opcode:tr.opcode ~fetch_addr);
  (* 2. the handler itself, then the tail jump back to a dispatch site
     (replicas handled in step 1) *)
  emit_handler exp tr;
  exp.prev_opcode <- tr.opcode;
  (* 3. drain this bytecode's batch through the timing model *)
  flush exp

(* Telemetry wrapper: measure the whole bytecode's expansion (dispatch +
   handler + tail all happen inside [on_bytecode]) and attribute the deltas
   to the dispatch site that fetched it and to its opcode. Only used when a
   telemetry sink is attached; the plain path stays allocation-free. *)
let on_bytecode_observed exp tel (tr : Trace.t) =
  let stats = Pipeline.stats exp.pipeline in
  let cycles0 = stats.Stats.cycles in
  let instructions0 = stats.Stats.instructions in
  let mispredicts0 = Stats.total_mispredicts stats in
  let site =
    (* mirrors the site selection in [on_bytecode] *)
    match exp.scheme with
    | Scd_core.Scheme.Jump_threading -> 0
    | _ -> dispatch_site exp
  in
  on_bytecode exp tr;
  Telemetry.note_bytecode tel ~site ~opcode:tr.opcode
    ~cycles:(stats.Stats.cycles - cycles0)
    ~instructions:(stats.Stats.instructions - instructions0)
    ~mispredicts:(Stats.total_mispredicts stats - mispredicts0)

let trace_callback exp = function
  | None -> on_bytecode exp
  | Some tel -> on_bytecode_observed exp tel

(* ------------------------------------------------------------------ *)
(* Template building                                                   *)
(* ------------------------------------------------------------------ *)

(* The builder's own expander emits cell by cell and reads no table. *)
let no_templates =
  {
    Template.dispatch = [||];
    replica = [||];
    scd_prefix = [||];
    scd_miss = [||];
    rt_blobs = [||];
    builtin_blobs = [||];
    handlers = [||];
    variants =
      Template.variants ~opcodes:0 (fun ~opcode:_ ~key:_ ->
          invalid_arg "Driver: the template builder stamps no handler");
    next_site = [||];
    tail_target = [||];
  }

(* Build one scheme's template set by running the cell-by-cell emitters
   into a scratch expander and snapshotting the tape after each sequence —
   the templates are, by construction, the exact cells the push path would
   emit (the differential tests compare the two word-for-word). Code
   addresses depend only on (spec, scheme) — not on the program's function
   sizes, which only move data — so {!Template.find_or_build} memoizes the
   result process-wide and the builder runs once per key, on the first
   run's layout (or, for {!templates}, an empty program's).

   A builder's pipeline and engine are never consulted (it only emits, and
   never reaches a flush), so every builder shares one small inert pair:
   handler variants are built on first use, long after the run whose
   layout the set was built from, and must not keep its timing model
   alive. *)
let inert_btb = Btb.create ~entries:1 ~ways:1 ~replacement:Btb.Lru ()

let inert_pipeline =
  let tiny : Cache.geometry =
    { size_bytes = 64; ways = 1; block_bytes = 64; hit_latency = 1 }
  in
  Pipeline.create ~btb:inert_btb
    { Config.simulator with direction = Direction.Static_taken; icache = tiny;
      dcache = tiny; itlb_entries = 1; dtlb_entries = 1 }

let inert_engine = Scd_core.Engine.create inert_btb

let builder ~layout spec scheme ~capacity =
  {
    layout;
    spec;
    scheme;
    pipeline = inert_pipeline;
    engine = inert_engine;
    stride = 1 (* never used: the builder sees no bytecode fetches *);
    cs_interval = None;
    multi_table = false;
    boxed = false;
    rle = true (* templates serve the RLE flat path only *);
    prev_opcode = -1;
    last_bop_pcs = Array.make 3 (-1);
    bytecodes = 0;
    retired_since_cs = 0;
    epc = 0;
    tape = Event.tape_create ~capacity ();
    trap = None;
    ts = no_templates;
    stamped = false (* the builder itself emits cell by cell *);
  }

let take_cells b =
  let cells = Event.tape_snapshot b.tape ~from:0 in
  Event.tape_clear b.tape;
  cells

let build_templates ~layout (spec : Spec.t) scheme =
  let b = builder ~layout spec scheme ~capacity:256 in
  let snap () = take_cells b in
  let n = spec.num_opcodes in
  let scd = scheme = Scd_core.Scheme.Scd in
  let next_site =
    Array.init n (fun op -> Layout.site_index (Layout.site_of_opcode layout op))
  in
  (* Templates only for the sites some dispatch uses: the common site
     (the first dispatch) and, except under jump threading, every site a
     handler tail jumps to. An unused site shares the common site's
     templates, which are never stamped from there. *)
  let used si =
    scheme <> Scd_core.Scheme.Jump_threading
    && Array.exists (fun (s : int) -> s = si) next_site
  in
  let per_site f =
    let common = f 0 (Layout.site_base layout Layout.Common_site) ~overhead:true in
    Array.mapi
      (fun si site ->
        if si > 0 && used si then
          f si (Layout.site_base layout site) ~overhead:false
        else common)
      sites
  in
  let dispatch =
    if scd then [||]
    else
      per_site (fun si base ~overhead ->
          Array.init n (fun opcode ->
              let fp =
                emit_dispatch b ~base ~step:4 ~overhead ~site:si ~opcode
                  ~fetch_addr:0
              in
              Template.make ~fetch_patch:fp (snap ())))
  in
  let scd_prefix, scd_miss =
    if not scd then ([||], [||])
    else
      let sequences =
        per_site (fun _ base ~overhead ->
            b.epc <- base;
            let fp = emit_dispatch_prefix b ~step:4 ~overhead ~fetch_addr:0 in
            let bop_pc = b.epc in
            let prefix = Template.make ~fetch_patch:fp ~end_pc:bop_pc (snap ()) in
            ( prefix,
              Array.init n (fun opcode ->
                  b.epc <- bop_pc + 4;
                  emit_decode_to_target b ~step:4 ~opcode;
                  Template.make ~end_pc:b.epc (snap ())) ))
      in
      (Array.map fst sequences, Array.map snd sequences)
  in
  let replica =
    if scheme = Scd_core.Scheme.Jump_threading then
      (* Base-relative: stamped at the previous handler's tail, so cell PCs
         are offsets from 0 and relocated at stamp time. *)
      Array.init n (fun opcode ->
          let fp =
            emit_dispatch b ~base:0 ~step:Layout.hot_stride ~overhead:false
              ~site:0 ~opcode ~fetch_addr:0
          in
          Template.make ~fetch_patch:fp ~reloc:true (snap ()))
    else [||]
  in
  let blob (rt : Spec.rt_blob) =
    b.epc <- 0 (* the call-site words are patched at stamp time *);
    emit_blob_cells b ~step:Layout.hot_stride rt;
    Template.blob (snap ())
  in
  let handlers = Array.init n spec.handler in
  let tail_target =
    Array.init n (fun op -> Layout.site_base layout sites.(next_site.(op)))
  in
  (* A handler variant: the inlined accesses (addresses 0, patched at
     stamp time), the rest of the body and, if folded, the tail jump —
     exactly the cells [push_body] and [emit_tail_jump] emit from the
     first inlined access on. *)
  let variant ~opcode ~key =
    let b = builder ~layout spec scheme ~capacity:8 in
    let h = handlers.(opcode) in
    let mems = Template.key_mems key and writes = Template.key_writes key in
    let inl = inlined mems in
    b.epc <-
      Layout.handler_entry layout opcode + ((mems - inl) * Layout.hot_stride);
    let patch_a =
      if inl < 2 then [||]
      else begin
        let w = Event.tape_extent b.tape + 2 in
        emit_access b ~write:(writes land 2 <> 0) ~addr:0;
        [| w |]
      end
    in
    let patch_b =
      if inl < 1 then [||]
      else begin
        let w = Event.tape_extent b.tape + 2 in
        emit_access b ~write:(writes land 1 <> 0) ~addr:0;
        [| w |]
      end
    in
    emit_body_rest b h ~slots:(body_slots h) ~mems ~taken:(Template.key_taken key);
    if Template.key_tail key then
      emit_tail_jump b ~opcode ~target:tail_target.(opcode);
    Stamp.register ~patch_a ~patch_b (take_cells b)
  in
  {
    Template.dispatch;
    replica;
    scd_prefix;
    scd_miss;
    rt_blobs = Array.map blob spec.blobs;
    builtin_blobs = Array.init Builtins.count (fun k -> blob (spec.builtin_blob k));
    handlers;
    variants = Template.variants ~opcodes:n variant;
    next_site;
    tail_target;
  }

let templates spec scheme =
  Template.find_or_build ~spec ~scheme (fun () ->
      let layout =
        Layout.build ~spec ~scheme ~fn_code_sizes:[||] ~fn_const_counts:[||]
      in
      build_templates ~layout spec scheme)

(* ------------------------------------------------------------------ *)

(* Each phase of [run] is a host-profiler span (Scd_obs.Prof): with no
   profile active the span calls cost one ref load each per run; with
   `scdsim prof` the phases' wall time and GC counter deltas are attributed
   by name, nested under whatever span the caller opened. *)
let run ?telemetry ?(event_path = `Flat) ?tape_trap config ~source =
  let btb, engine, pipeline, (module F : Frontend.S), options, spec =
    Scd_obs.Prof.span "setup" (fun () ->
        (* simulated heap addresses derive from table ids: restart the
           counter so results do not depend on earlier runs in this
           process *)
        Scd_runtime.Value.reset_table_ids ();
        let machine = config.machine in
        let btb =
          Btb.create ~entries:machine.btb_entries ~ways:machine.btb_ways
            ~replacement:machine.btb_replacement ?jte_cap:machine.jte_cap ()
        in
        let engine =
          Scd_core.Engine.create
            ~tables:(if config.multi_table then 3 else 1)
            ?context_switch_interval:config.context_switch_interval btb
        in
        let indirect =
          match config.indirect_override with
          | Some scheme -> scheme
          | None -> Scd_core.Scheme.indirect_scheme config.scheme
        in
        let pipeline = Pipeline.create ~btb ~indirect machine in
        (* From here on the driver is VM-agnostic: everything
           interpreter-specific lives behind [config.frontend]. *)
        let (module F : Frontend.S) = config.frontend in
        let options =
          {
            Frontend.superinstructions = config.superinstructions;
            bytecode_replication = config.bytecode_replication;
          }
        in
        (btb, engine, pipeline, (module F : Frontend.S), options,
         F.spec options))
  in
  (match telemetry with
   | None -> ()
   | Some tel -> Telemetry.attach tel ~pipeline ~engine);
  let program = Scd_obs.Prof.span "compile" (fun () -> F.compile options source) in
  let layout =
    Scd_obs.Prof.span "layout" (fun () ->
        Layout.build ~spec ~scheme:config.scheme
          ~fn_code_sizes:(F.fn_code_sizes program)
          ~fn_const_counts:(F.fn_const_counts program))
  in
  let rle = event_path = `Flat || event_path = `Flat_push in
  let ts =
    Scd_obs.Prof.span "templates" (fun () ->
        Template.find_or_build ~spec ~scheme:config.scheme (fun () ->
            build_templates ~layout spec config.scheme))
  in
  let exp =
    {
      layout;
      spec;
      scheme = config.scheme;
      pipeline;
      engine;
      stride = F.stride;
      cs_interval = config.context_switch_interval;
      multi_table = config.multi_table;
      boxed = event_path = `Boxed;
      rle;
      prev_opcode = -1;
      last_bop_pcs = Array.make 3 (-1);
      bytecodes = 0;
      retired_since_cs = 0;
      epc = 0;
      tape = Event.tape_create ~capacity:256 ();
      trap = tape_trap;
      ts;
      stamped =
        (* Stamping requires the RLE cell shapes ([`Flat] only); [`Flat_push]
           deliberately keeps the cell-by-cell emitters alive for
           word-for-word differential testing. *)
        event_path = `Flat;
    }
  in
  let ctx = Builtins.create_ctx ~seed:config.seed () in
  Scd_obs.Prof.span "execute" (fun () ->
      F.run program ~ctx ~trace:(trace_callback exp telemetry));
  (match telemetry with None -> () | Some tel -> Telemetry.finish tel);
  Atomic.incr run_counter;
  (* The result is a pure snapshot: copy every stats block out of the live
     simulation structures so callers (and the persistent cache) can hold
     it after this pipeline is gone. *)
  Scd_obs.Prof.span "snapshot" (fun () ->
      {
        stats = Stats.copy (Pipeline.stats pipeline);
        btb = Btb.copy_stats (Btb.stats btb);
        engine =
          (match config.scheme with
           | Scd ->
             Some (Scd_core.Engine.copy_stats (Scd_core.Engine.stats engine))
           | _ -> None);
        bytecodes = exp.bytecodes;
        output = Builtins.output ctx;
        code_bytes = Layout.code_bytes layout;
      })

let cycles r = r.stats.Stats.cycles
let instructions r = r.stats.Stats.instructions
