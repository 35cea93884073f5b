open Scd_isa

(* A template is the fixed portion of one dispatch/handler event sequence,
   precompiled into whole tape cells and registered with {!Stamp}. See
   template.mli for the encoding contract and the patch-word conventions. *)

type t = { stamp : Stamp.t; end_pc : int }

let make ?(fetch_patch = -1) ?(end_pc = 0) ?(reloc = false) cells =
  let patch_b = if fetch_patch >= 0 then [| fetch_patch |] else [||] in
  { stamp = Stamp.register ~reloc ~patch_b cells; end_pc }

(* Cell 0 is the call: its PC ([a]) and RAS link ([b]) are call-site
   words, as is the final return cell's target ([b]); everything else
   (the callee body) is absolute. *)
let blob cells =
  let last = Array.length cells - Event.cell_words in
  {
    stamp =
      Stamp.register ~patch_a:[| 0 |] ~patch_b:[| 3; last + 2 |] cells;
    end_pc = 0;
  }

(* ------------------------------------------------------------------ *)
(* Handler variants                                                    *)
(* ------------------------------------------------------------------ *)

(* Key layout: bit 0 tail folded, bit 1 branch taken, bits 2-3 write bits
   of the inlined accesses (bit 2: the one in [b], bit 3: the one in [a]),
   bits 4 and up the data accesses the body uses. *)
let[@inline] handler_key ~mems ~writes ~taken ~tail =
  (mems lsl 4) lor (writes lsl 2)
  lor (if taken then 2 else 0)
  lor if tail then 1 else 0

let key_mems key = key lsr 4
let key_writes key = (key lsr 2) land 3
let key_taken key = key land 2 <> 0
let key_tail key = key land 1 <> 0

(* One opcode's registered variants: an immutable snapshot, replaced whole
   (under the table lock) when a variant is added. *)
type entry = { keys : int array; stamps : Stamp.t array }

type variants = {
  lock : Mutex.t;
  build : opcode:int -> key:int -> Stamp.t;
  table : entry Atomic.t array;
  memo : int array;
      (* Per opcode, the variant stamped last: [(id lsl memo_key_bits) lor
         key], [-1] before the first. Domains race on it harmlessly: each
         store is one whole word naming a registered variant, and a memo
         naming another key is only a miss. *)
}

let memo_key_bits = 16
let memo_key_mask = (1 lsl memo_key_bits) - 1

let empty_entry = { keys = [||]; stamps = [||] }

let variants ~opcodes build =
  {
    lock = Mutex.create ();
    build;
    table = Array.init opcodes (fun _ -> Atomic.make empty_entry);
    memo = Array.make opcodes (-1);
  }

(* Top-level, not a local closure: the lookup must not allocate. *)
let rec find_key (keys : int array) (key : int) i =
  if i >= Array.length keys then -1
  else if keys.(i) = key then i
  else find_key keys key (i + 1)

(* The miss path: look again under the lock, so two domains racing on one
   cold variant register it once and both get that template. *)
let[@inline never] register_variant v ~opcode ~key =
  Mutex.protect v.lock (fun () ->
      let slot = v.table.(opcode) in
      let e = Atomic.get slot in
      let i = find_key e.keys key 0 in
      if i >= 0 then e.stamps.(i)
      else begin
        let st = v.build ~opcode ~key in
        Atomic.set slot
          { keys = Array.append e.keys [| key |];
            stamps = Array.append e.stamps [| st |] };
        st
      end)

let variant v ~opcode ~key =
  let e = Atomic.get v.table.(opcode) in
  let i = find_key e.keys key 0 in
  if i >= 0 then e.stamps.(i) else register_variant v ~opcode ~key

let[@inline never] variant_id v ~opcode ~key =
  let id = (variant v ~opcode ~key).Stamp.id in
  if key <= memo_key_mask then v.memo.(opcode) <- (id lsl memo_key_bits) lor key;
  id

let stamp_variant tape v ~opcode ~key ~a ~b =
  let m = v.memo.(opcode) in
  let id =
    if m >= 0 && m land memo_key_mask = key then m lsr memo_key_bits
    else variant_id v ~opcode ~key
  in
  Stamp.push_id tape ~id ~a ~b

let registered_variants v =
  List.concat
    (List.init (Array.length v.table) (fun opcode ->
         let e = Atomic.get v.table.(opcode) in
         List.init (Array.length e.keys) (fun i ->
             (opcode, e.keys.(i), e.stamps.(i)))))

type set = {
  dispatch : t array array;
  replica : t array;
  scd_prefix : t array;
  scd_miss : t array array;
  rt_blobs : t array;
  builtin_blobs : t array;
  handlers : Spec.handler_spec array;
  variants : variants;
  next_site : int array;
  tail_target : int array;
}

(* ------------------------------------------------------------------ *)
(* Stamping                                                            *)
(* ------------------------------------------------------------------ *)

let stamp_dispatch tape t ~fetch_addr = Stamp.push tape t.stamp ~a:0 ~b:fetch_addr

let stamp_replica tape t ~base_pc ~fetch_addr =
  Stamp.push tape t.stamp ~a:base_pc ~b:fetch_addr

let stamp tape t = Stamp.push tape t.stamp ~a:0 ~b:0

let stamp_blob tape t ~call_pc ~link = Stamp.push tape t.stamp ~a:call_pc ~b:link

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

(* Code addresses from {!Layout.build} depend only on (spec, scheme) — the
   per-function tables only move data addresses, which are patch words —
   so template sets are memoized process-wide. Specs are a handful of
   top-level constants, hence the physical-equality key and the plain
   association list. The lock makes first-build races between domains
   safe; after that each lookup is one short scan under an uncontended
   mutex, once per run. *)
let lock = Mutex.create ()
let registry : (Spec.t * Scd_core.Scheme.t * set) list ref = ref []

let find_or_build ~spec ~scheme build =
  Mutex.protect lock (fun () ->
      let rec find = function
        | (s, sch, set) :: _ when s == spec && sch = scheme -> Some set
        | _ :: rest -> find rest
        | [] -> None
      in
      match find !registry with
      | Some set -> set
      | None ->
        let set = build () in
        registry := (spec, scheme, set) :: !registry;
        set)
