open Scd_util

type scheme =
  | Pc_btb
  | Vbbi
  | Ttc of { entries : int }
  | Ittage of { table_entries : int; tables : int }

type ttc_state = {
  tags : int array;
  targets : int array;
  valids : bool array;
  mutable path_history : int;
}

(* One ITTAGE component table: tagged, with a useful counter for the
   allocation policy. *)
type ittage_table = {
  history_length : int;
  t_tags : int array;
  t_targets : int array;
  t_valids : bool array;
  t_useful : int array;
}

type ittage_state = {
  components : ittage_table array;  (* increasing history length *)
  mutable ghist : int;  (* global target-path history *)
}

type t = {
  scheme : scheme;
  btb : Btb.t;
  ttc : ttc_state option;
  ittage : ittage_state option;
}

let create scheme btb =
  let ttc, ittage =
    match scheme with
    | Ttc { entries } ->
      if not (Bits.is_power_of_two entries) then
        invalid_arg "Indirect.create: TTC entries must be a power of two";
      ( Some
          {
            tags = Array.make entries 0;
            targets = Array.make entries 0;
            valids = Array.make entries false;
            path_history = 0;
          },
        None )
    | Ittage { table_entries; tables } ->
      if not (Bits.is_power_of_two table_entries) then
        invalid_arg "Indirect.create: ITTAGE entries must be a power of two";
      if tables < 1 || tables > 8 then
        invalid_arg "Indirect.create: ITTAGE needs 1-8 tables";
      let component i =
        {
          (* geometric history lengths: 4, 8, 16, 32, ... *)
          history_length = 4 lsl i;
          t_tags = Array.make table_entries 0;
          t_targets = Array.make table_entries 0;
          t_valids = Array.make table_entries false;
          t_useful = Array.make table_entries 0;
        }
      in
      (None, Some { components = Array.init tables component; ghist = 0 })
    | Pc_btb | Vbbi -> (None, None)
  in
  { scheme; btb; ttc; ittage }

(* Hints and targets travel as plain ints on the hot path: a negative hint
   means "no hint" (real hints are opcodes, always non-negative) and
   {!no_target} marks a missing prediction. *)
let no_hint = -1
let no_target = Btb.no_target

(* VBBI key: a hash of PC and hint, mapped back into the BTB's word-aligned
   key domain. Without a hint (non-dispatch indirect jumps) it degrades to
   plain PC indexing, exactly as VBBI does for unannotated branches. *)
let vbbi_key ~pc ~hint =
  if hint < 0 then pc
  else Bits.splitmix (pc lxor ((hint + 1) * 0x9E3779B9)) lsl 2

let ttc_index s ~pc =
  let n = Array.length s.tags in
  ((pc lsr 2) lxor s.path_history) land (n - 1)

let ttc_tag ~pc = pc lsr 2

(* --- ITTAGE helpers ------------------------------------------------ *)

let ittage_fold_history ghist ~bits =
  (* fold the low [bits] of history into 12 bits *)
  let h = ghist land Bits.mask (if bits < 60 then bits else 60) in
  (h lxor (h lsr 12) lxor (h lsr 24)) land 0xFFF

let ittage_index (c : ittage_table) ~pc ~ghist =
  let n = Array.length c.t_tags in
  ((pc lsr 2) lxor ittage_fold_history ghist ~bits:c.history_length) land (n - 1)

let ittage_tag (c : ittage_table) ~pc ~ghist =
  ((pc lsr 2) lxor (ittage_fold_history ghist ~bits:c.history_length lsl 1))
  land 0x3FF

(* Longest-history matching component, packed as [(ci lsl 32) lor idx]
   (table counts are small, indices fit 32 bits); -1 when nothing matches.
   Packing instead of [Some (ci, idx)] keeps the per-jump ITTAGE path
   allocation-free, and the scan is a top-level tail recursion because a
   local [let rec] closure would allocate per call. *)
let rec ittage_match_from s ~pc i =
  if i < 0 then -1
  else
    let c = s.components.(i) in
    let idx = ittage_index c ~pc ~ghist:s.ghist in
    if c.t_valids.(idx) && c.t_tags.(idx) = ittage_tag c ~pc ~ghist:s.ghist
    then (i lsl 32) lor idx
    else ittage_match_from s ~pc (i - 1)

let ittage_match s ~pc = ittage_match_from s ~pc (Array.length s.components - 1)

(* Classic TAGE allocation walk: claim the first slot from component [ci]
   upward that is invalid or no longer useful, decaying usefulness along the
   way. Top-level so the recursion carries no closure. *)
let rec ittage_allocate s ~pc ~target ci =
  if ci < Array.length s.components then begin
    let c = s.components.(ci) in
    let idx = ittage_index c ~pc ~ghist:s.ghist in
    if (not c.t_valids.(idx)) || c.t_useful.(idx) = 0 then begin
      c.t_valids.(idx) <- true;
      c.t_tags.(idx) <- ittage_tag c ~pc ~ghist:s.ghist;
      c.t_targets.(idx) <- target;
      c.t_useful.(idx) <- 0
    end
    else begin
      c.t_useful.(idx) <- c.t_useful.(idx) - 1;
      ittage_allocate s ~pc ~target (ci + 1)
    end
  end

let predict_target t ~pc ~hint =
  match t.scheme with
  | Pc_btb -> Btb.lookup_target t.btb ~jte:false ~key:pc
  | Vbbi -> Btb.lookup_target t.btb ~jte:false ~key:(vbbi_key ~pc ~hint)
  | Ttc _ ->
    let s = Option.get t.ttc in
    let i = ttc_index s ~pc in
    if s.valids.(i) && s.tags.(i) = ttc_tag ~pc then s.targets.(i) else no_target
  | Ittage _ ->
    let s = Option.get t.ittage in
    let m = ittage_match s ~pc in
    if m >= 0 then s.components.(m lsr 32).t_targets.(m land 0xFFFF_FFFF)
    else Btb.lookup_target t.btb ~jte:false ~key:pc

let update_target t ~pc ~hint ~target =
  match t.scheme with
  | Pc_btb -> Btb.insert t.btb ~jte:false ~key:pc ~target
  | Vbbi -> Btb.insert t.btb ~jte:false ~key:(vbbi_key ~pc ~hint) ~target
  | Ttc _ ->
    let s = Option.get t.ttc in
    let i = ttc_index s ~pc in
    s.valids.(i) <- true;
    s.tags.(i) <- ttc_tag ~pc;
    s.targets.(i) <- target;
    s.path_history <- ((s.path_history lsl 2) lxor (target lsr 2)) land 0xFFFF
  | Ittage _ ->
    let s = Option.get t.ittage in
    (* train the matching component; on a wrong or missing prediction,
       allocate in the next-longer table (classic TAGE allocation) *)
    let matched = ittage_match s ~pc in
    let predicted =
      if matched >= 0 then
        s.components.(matched lsr 32).t_targets.(matched land 0xFFFF_FFFF)
      else Btb.probe_target t.btb ~jte:false ~key:pc
    in
    (if matched >= 0 then begin
       let c = s.components.(matched lsr 32) in
       let idx = matched land 0xFFFF_FFFF in
       let useful = c.t_useful.(idx) in
       if c.t_targets.(idx) = target then begin
         if useful < 3 then c.t_useful.(idx) <- useful + 1
       end
       else begin
         (* replace the target; decay usefulness *)
         if useful > 0 then c.t_useful.(idx) <- useful - 1;
         if c.t_useful.(idx) = 0 then c.t_targets.(idx) <- target
       end
     end);
    (if predicted <> target then
       (* allocate in a longer history table than the match *)
       ittage_allocate s ~pc ~target
         (if matched >= 0 then (matched lsr 32) + 1 else 0));
    Btb.insert t.btb ~jte:false ~key:pc ~target;
    s.ghist <- ((s.ghist lsl 3) lxor (target lsr 2)) land Bits.mask 60

let hint_code = function None -> no_hint | Some h -> h

let predict t ~pc ~hint =
  let target = predict_target t ~pc ~hint:(hint_code hint) in
  if target == no_target then None else Some target

let update t ~pc ~hint ~target =
  update_target t ~pc ~hint:(hint_code hint) ~target

let scheme t = t.scheme
