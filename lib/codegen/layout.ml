open Scd_runtime

type site = Common_site | Call_site | Branch_site

type t = {
  spec : Spec.t;
  scheme : Scd_core.Scheme.t;
  site_bases : int array;
      (* Base PC per dense site index (common, call, branch); [-1] for a
         site the spec does not have. *)
  handler_entries : int array;
  handler_tails : int array;
  default_handler : int;
  blob_entries : (int, int) Hashtbl.t;
  code_bytes : int;
  fn_code_offsets : int array;
  fn_const_offsets : int array;
}

let code_base = 0x0001_0000

(* Data-region bases are salted with distinct block-granularity offsets so
   that region starts do not all alias into cache set 0 (a linker would
   never emit such a pathological layout either). *)
let jump_table_base = 0x0010_0040
let vm_state_base = 0x0020_0480
let stack_base = 0x0021_08c0
let bytecode_base = 0x0030_0d00
let const_base = 0x0040_1140
let globals_base = 0x0050_1580
let heap_base = 0x0060_19c0
let string_base = 0x0080_1e00

(* Dispatcher block lengths in instructions. *)
let site_block_len (spec : Spec.t) (scheme : Scd_core.Scheme.t) ~with_loop_overhead =
  let d = spec.dispatch in
  let overhead = if with_loop_overhead then d.loop_overhead_instrs else 0 in
  match scheme with
  | Scd ->
    (* fetch (with .op) + bop + slow path (decode/bound/target) + jru *)
    overhead + d.fetch_instrs + d.operand_decode_instrs + 1 + d.decode_instrs
    + d.bound_check_instrs + d.target_calc_instrs + 1
  | Baseline | Jump_threading | Vbbi ->
    overhead + d.fetch_instrs + d.operand_decode_instrs + d.decode_instrs
    + d.bound_check_instrs + d.target_calc_instrs + 1

(* Jump-threading replica at a handler tail: the dispatcher minus the loop
   book-keeping — that difference is jump threading's instruction saving. *)
let replica_len (spec : Spec.t) =
  let d = spec.dispatch in
  d.fetch_instrs + d.operand_decode_instrs + d.decode_instrs
  + d.bound_check_instrs + d.target_calc_instrs + 1

(* Compiled handler and helper bodies interleave their hot path with cold
   code (error arms, slow-path fallbacks, metamethod checks), so each
   executed instruction occupies [hot_stride] bytes of I-cache footprint.
   The shared dispatcher blocks are compact hand-shaped code (4 bytes per
   instruction), but a jump-threading replica is ordinary inlined C at each
   handler tail, so it inherits the handler stride — this is why jump
   threading bloats the I-cache footprint far more than its instruction
   count suggests (Figure 10). *)
let hot_stride = 12

(* Tail region size in 4-byte slots. *)
let tail_len spec (scheme : Scd_core.Scheme.t) =
  match scheme with
  | Jump_threading -> replica_len spec * hot_stride / 4
  | _ -> 1

let handler_len (spec : Spec.t) scheme op =
  let h = spec.handler op in
  (h.body_instrs * hot_stride / 4)
  (* The runtime-helper call is compiled handler code like the rest of the
     body, so it occupies a full hot-stride slot — its return address (and
     the tail region behind it) sits [hot_stride] bytes past the call. *)
  + (match h.rt_call with Some _ -> hot_stride / 4 | None -> 0)
  + tail_len spec scheme

let prefix_offsets sizes =
  let n = Array.length sizes in
  let offsets = Array.make n 0 in
  for i = 1 to n - 1 do
    offsets.(i) <- offsets.(i - 1) + sizes.(i - 1)
  done;
  offsets

let build ~(spec : Spec.t) ~scheme ~fn_code_sizes ~fn_const_counts =
  let cursor = ref code_base in
  let alloc_instrs n =
    let base = !cursor in
    cursor := base + (4 * n);
    base
  in
  (* Dispatch-site blocks (unused under jump threading, where every handler
     carries a replica, but allocating them is harmless and keeps addresses
     comparable across schemes). *)
  let site_bases =
    let needs_split_sites =
      (* The stack VM has distinct call/branch fetch sites. *)
      let rec probe op =
        if op >= spec.num_opcodes then false
        else match spec.dispatch_site op with
          | `Common -> probe (op + 1)
          | `Call_tail | `Branch_tail -> true
      in
      probe 0
    in
    let common = alloc_instrs (site_block_len spec scheme ~with_loop_overhead:true) in
    if needs_split_sites then
      (* the branch-site block sits below the call-site block *)
      let branch = alloc_instrs (site_block_len spec scheme ~with_loop_overhead:false) in
      let call = alloc_instrs (site_block_len spec scheme ~with_loop_overhead:false) in
      [| common; call; branch |]
    else [| common; -1; -1 |]
  in
  let handler_entries = Array.make spec.num_opcodes 0 in
  let handler_tails = Array.make spec.num_opcodes 0 in
  for op = 0 to spec.num_opcodes - 1 do
    let len = handler_len spec scheme op in
    let base = alloc_instrs len in
    handler_entries.(op) <- base;
    handler_tails.(op) <- base + (4 * (len - tail_len spec scheme))
  done;
  let default_handler = alloc_instrs 12 in
  let blob_entries = Hashtbl.create 64 in
  Array.iter
    (fun (b : Spec.rt_blob) ->
      Hashtbl.replace blob_entries b.blob_id
        (alloc_instrs ((b.body_instrs * hot_stride / 4) + 1)))
    spec.blobs;
  for builtin = 0 to Builtins.count - 1 do
    let b = spec.builtin_blob builtin in
    Hashtbl.replace blob_entries b.blob_id
      (alloc_instrs ((b.body_instrs * hot_stride / 4) + 1))
  done;
  {
    spec;
    scheme;
    site_bases;
    handler_entries;
    handler_tails;
    default_handler;
    blob_entries;
    code_bytes = !cursor - code_base;
    fn_code_offsets = prefix_offsets fn_code_sizes;
    fn_const_offsets =
      prefix_offsets (Array.map (fun n -> 8 * n) fn_const_counts);
  }

let spec t = t.spec
let scheme t = t.scheme

let site_index = function Common_site -> 0 | Call_site -> 1 | Branch_site -> 2

let site_base t site =
  let base = t.site_bases.(site_index site) in
  if base >= 0 then base else t.site_bases.(0)

let site_of_opcode t op =
  match t.spec.dispatch_site op with
  | `Common -> Common_site
  | `Call_tail -> if t.site_bases.(1) >= 0 then Call_site else Common_site
  | `Branch_tail -> if t.site_bases.(2) >= 0 then Branch_site else Common_site

let handler_entry t op = t.handler_entries.(op)

let handler_call_site t op =
  t.handler_entries.(op) + (hot_stride * (t.spec.handler op).body_instrs)

let handler_tail t op = t.handler_tails.(op)
let default_handler t = t.default_handler

let blob_entry t blob_id =
  match Hashtbl.find_opt t.blob_entries blob_id with
  | Some base -> base
  | None -> invalid_arg (Printf.sprintf "Layout.blob_entry: unknown blob %d" blob_id)

let code_bytes t = t.code_bytes

let jump_table_entry _t opcode = jump_table_base + (4 * opcode)
let vm_state_addr _t = vm_state_base
let stack_slot_addr _t slot = stack_base + (8 * slot)

let bytecode_addr t ~fn ~pc = bytecode_base + t.fn_code_offsets.(fn) + pc

(* Allocation-free address mapping over the flat access encoding
   ({!Trace.access_kind} / [access_a] / [access_b]); the write flag travels
   separately in the trace record. *)
let access_addr_flat t ~kind ~a ~b =
  if kind = Trace.acc_reg then stack_slot_addr t a
  else if kind = Trace.acc_const then const_base + t.fn_const_offsets.(a) + (8 * b)
  else if kind = Trace.acc_global then globals_base + (16 * (a land 0xFFFF))
  else if kind = Trace.acc_table_slot then
    heap_base + (512 * (a land 8191)) + (8 * (b land 63))
  else string_base + (64 * (a land 0xFFFF)) + (b land 63)

let access_addr t (access : Trace.access) =
  match access with
  | Reg { slot; write } -> (stack_slot_addr t slot, write)
  | Const { fn; index } ->
    (access_addr_flat t ~kind:Trace.acc_const ~a:fn ~b:index, false)
  | Global { name_hash; write } ->
    (access_addr_flat t ~kind:Trace.acc_global ~a:name_hash ~b:0, write)
  | Table_slot { id; slot; write } ->
    (access_addr_flat t ~kind:Trace.acc_table_slot ~a:id ~b:slot, write)
  | Str_bytes { id_hash; offset } ->
    (access_addr_flat t ~kind:Trace.acc_str_bytes ~a:id_hash ~b:offset, false)
