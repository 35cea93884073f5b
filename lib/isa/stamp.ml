(* Stamped-template registry: see stamp.mli for the reference-cell encoding
   and the summary contract. *)

type t = {
  id : int;
  cells : int array;
  reloc : bool;
  patch_a : int array;
  patch_b : int array;
  instrs : int;
  dispatch_instrs : int;
  rop_offset : int;
  summarized : bool;
  iblocks : int array;
  daddrs : int array;
  dpatch : int;
  dpatch_a : int;
  ctrl : int array;
}

let block_bytes = 64
let block_shift = Scd_util.Bits.log2 block_bytes
let ctrl_words = 5

(* Where a patchable word takes its value from: the template itself, the
   reference's [a] word or its [b] word. *)
let src_literal = 0
let src_a = 1
let src_b = 2

(* ------------------------------------------------------------------ *)
(* Summary construction                                                *)
(* ------------------------------------------------------------------ *)

(* Two passes over the cells with one body: the first ([fill] false)
   counts each stream, the second writes arrays of exactly that size.
   Registration runs for every template of a set, so it must stay linear
   and allocate little. *)
let summarize ~id ~reloc ~patch_a ~patch_b cells =
  let w = Event.cell_words in
  let ncells = Array.length cells / w in
  let srcs = Array.make (Array.length cells) src_literal in
  Array.iter (fun o -> srcs.(o) <- src_b) patch_b;
  Array.iter (fun o -> srcs.(o) <- src_a) patch_a;
  let source word = srcs.(word) in
  let instrs = ref 0 and dispatch_instrs = ref 0 and rop_offset = ref 0 in
  let dpatch = ref (-1) and dpatch_a = ref (-1) in
  let summarized = ref (not reloc) in
  let ni = ref 0 and nd = ref 0 and nc = ref 0 in
  let scan ~fill iblocks daddrs ctrl =
    List.iter (fun r -> r := 0) [ instrs; dispatch_instrs; rop_offset; ni; nd; nc ];
    dpatch := -1;
    dpatch_a := -1;
    let last_block = ref (-1) in
    let add_block b =
      if !ni = 0 || b < 0 || !last_block <> b then begin
        if fill then iblocks.(!ni) <- b;
        last_block := b;
        incr ni
      end
    in
    for c = 0 to ncells - 1 do
      let base = c * w in
      let pc = cells.(base) and flags = cells.(base + 1) in
      let arg1 = cells.(base + 2) and arg2 = cells.(base + 3) in
      let tag = flags land 0xF in
      let n = if tag = Event.tag_plain_run then arg1 else 1 in
      let pc_src = source base in
      if source (base + 1) <> src_literal || pc_src = src_b then
        summarized := false;
      if flags land Event.flag_dispatch <> 0 then
        dispatch_instrs := !dispatch_instrs + n;
      if flags land Event.flag_sets_rop <> 0 then rop_offset := !instrs + 1;
      instrs := !instrs + n;
      (* The I-side, as the per-cell walk touches it: a run walks every
         block from its first to its last instruction. *)
      if pc_src = src_a then
        if n = 1 then add_block (-1) else summarized := false
      else if tag = Event.tag_plain_run then begin
        if source (base + 2) <> src_literal || source (base + 3) <> src_literal
        then summarized := false;
        for b = pc lsr block_shift to (pc + (arg2 * (n - 1))) lsr block_shift do
          add_block b
        done
      end
      else add_block (pc lsr block_shift);
      if tag = Event.tag_mem_read || tag = Event.tag_mem_write then begin
        let src = source (base + 2) in
        if src = src_b && !dpatch < 0 then dpatch := !nd
        else if src = src_a && !dpatch_a < 0 then dpatch_a := !nd
        else if src <> src_literal then summarized := false;
        if fill then daddrs.(!nd) <- arg1;
        incr nd
      end
      else if tag = Event.tag_bop || tag = Event.tag_jru then summarized := false
      else if tag >= Event.tag_cond_branch && tag <= Event.tag_jru then begin
        if fill then begin
          let k = !nc * ctrl_words in
          ctrl.(k) <- pc;
          ctrl.(k + 1) <- flags;
          ctrl.(k + 2) <- arg1;
          ctrl.(k + 3) <- arg2;
          ctrl.(k + 4) <-
            pc_src lor (source (base + 2) lsl 2) lor (source (base + 3) lsl 4)
        end;
        incr nc
      end
    done
  in
  scan ~fill:false [||] [||] [||];
  let iblocks = Array.make !ni 0 and daddrs = Array.make !nd 0 in
  let ctrl = Array.make (!nc * ctrl_words) 0 in
  scan ~fill:true iblocks daddrs ctrl;
  {
    id;
    cells;
    reloc;
    patch_a;
    patch_b;
    instrs = !instrs;
    dispatch_instrs = !dispatch_instrs;
    rop_offset = !rop_offset;
    summarized = !summarized;
    iblocks;
    daddrs;
    dpatch = !dpatch;
    dpatch_a = !dpatch_a;
    ctrl;
  }

(* [a] may stand for code (a PC word, or every PC of a relocatable
   template) or for data (a memory cell's address), never both: a reference
   whose one word moves both the I-side and the D-side is a malformed
   stamp, not a shape the summary should encode. *)
let a_feeds_pc_and_data ~reloc ~patch_a cells =
  let w = Event.cell_words in
  let is_mem o =
    (* [o] is an [arg1] word; the cell's flags word sits just before it *)
    let tag = cells.(o - 1) land 0xF in
    tag = Event.tag_mem_read || tag = Event.tag_mem_write
  in
  let data = Array.exists (fun o -> o mod w = 2 && is_mem o) patch_a in
  data && (reloc || Array.exists (fun o -> o mod w = 0) patch_a)

let validate ~reloc ~patch_a ~patch_b cells =
  let w = Event.cell_words in
  let words = Array.length cells in
  if words mod w <> 0 then
    invalid_arg "Stamp.register: template length is not whole cells";
  for c = 0 to (words / w) - 1 do
    let tag = cells.((c * w) + 1) land 0xF in
    if tag > Event.tag_plain_run then
      invalid_arg
        (Printf.sprintf "Stamp.register: cell %d has tag %d (%s)" c tag
           (if tag = Event.tag_template then "nested template reference"
            else "unknown tag"))
  done;
  Array.iter
    (fun o ->
      if o < 0 || o >= words then
        invalid_arg (Printf.sprintf "Stamp.register: patch word %d outside the template" o)
      else if Array.exists (fun (a : int) -> a = o) patch_a then
        invalid_arg (Printf.sprintf "Stamp.register: patch word %d takes both a and b" o))
    patch_b;
  Array.iter
    (fun o ->
      if o < 0 || o >= words then
        invalid_arg (Printf.sprintf "Stamp.register: patch word %d outside the template" o))
    patch_a;
  if a_feeds_pc_and_data ~reloc ~patch_a cells then
    invalid_arg "Stamp.register: a feeds both a PC and a data address"

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

(* Append-only: slot [id] is written once, under [lock], before the id can
   reach any tape, and the array is replaced (by a doubled copy holding
   every earlier slot) only under the lock, so a reader holding an id
   always finds its template in whichever array it loads. *)
let none =
  summarize ~id:(-1) ~reloc:false ~patch_a:[||] ~patch_b:[||] [||]

let lock = Mutex.create ()
let entries = Atomic.make (Array.make 256 none)
let count = ref 0

let register ?(reloc = false) ?(patch_a = [||]) ?(patch_b = [||]) cells =
  validate ~reloc ~patch_a ~patch_b cells;
  Mutex.protect lock (fun () ->
      let id = !count in
      let t = summarize ~id ~reloc ~patch_a ~patch_b cells in
      let arr = Atomic.get entries in
      if id < Array.length arr then arr.(id) <- t
      else begin
        let bigger = Array.make (2 * Array.length arr) none in
        Array.blit arr 0 bigger 0 id;
        bigger.(id) <- t;
        Atomic.set entries bigger
      end;
      count := id + 1;
      t)

let[@inline never] unknown id =
  invalid_arg (Printf.sprintf "Stamp.find: no template has id %d" id)

let[@inline] find id =
  let arr = Atomic.get entries in
  if id < 0 || id >= Array.length arr then unknown id
  else
    let t = arr.(id) in
    if t == none then unknown id else t

let registered () = Mutex.protect lock (fun () -> !count)

let id_of_flags flags = flags lsr 4

let push_id tape ~id ~a ~b =
  Event.tape_push tape ~pc:a ~flags:(Event.tag_template lor (id lsl 4))
    ~arg1:b ~arg2:0

let push tape t ~a ~b = push_id tape ~id:t.id ~a ~b

(* ------------------------------------------------------------------ *)
(* Expansion                                                           *)
(* ------------------------------------------------------------------ *)

(* Top-level, not a local closure: the expand path must not allocate. *)
let rec skip_instrs words extent i left =
  if left = 0 || i >= extent then i
  else if words.(i + 1) land 0xF = Event.tag_plain_run then begin
    let count = words.(i + 2) in
    if left >= count then
      skip_instrs words extent (i + Event.cell_words) (left - count)
    else begin
      words.(i) <- words.(i) + (left * words.(i + 3));
      words.(i + 2) <- count - left;
      i
    end
  end
  else skip_instrs words extent (i + Event.cell_words) (left - 1)

let expand_into dst t ~a ~b ~skip =
  Event.tape_clear dst;
  let base =
    if t.reloc then Event.tape_blit_reloc dst t.cells ~pc_delta:a
    else Event.tape_blit dst t.cells
  in
  for k = 0 to Array.length t.patch_a - 1 do
    Event.tape_set_word dst (base + t.patch_a.(k)) a
  done;
  for k = 0 to Array.length t.patch_b - 1 do
    Event.tape_set_word dst (base + t.patch_b.(k)) b
  done;
  skip_instrs (Event.tape_words dst) (Event.tape_extent dst) base skip

let expand_tape src =
  let dst = Event.tape_create () and side = Event.tape_create () in
  let words = Event.tape_words src in
  for c = 0 to Event.tape_cells src - 1 do
    let i = c * Event.cell_words in
    let flags = words.(i + 1) in
    if flags land 0xF = Event.tag_template then begin
      let t = find (id_of_flags flags) in
      let from =
        expand_into side t ~a:words.(i) ~b:words.(i + 2) ~skip:words.(i + 3)
      in
      let sw = Event.tape_words side in
      let k = ref from in
      while !k < Event.tape_extent side do
        Event.tape_push dst ~pc:sw.(!k) ~flags:sw.(!k + 1) ~arg1:sw.(!k + 2)
          ~arg2:sw.(!k + 3);
        k := !k + Event.cell_words
      done
    end
    else
      Event.tape_push dst ~pc:words.(i) ~flags ~arg1:words.(i + 2)
        ~arg2:words.(i + 3)
  done;
  dst
