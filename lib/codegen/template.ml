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

type set = {
  dispatch : t array array;
  replica : t array;
  scd_prefix : t array;
  scd_miss : t array array;
  rt_blobs : t array;
  builtin_blobs : t array;
  handlers : Spec.handler_spec array;
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
