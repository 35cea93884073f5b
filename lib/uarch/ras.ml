type t = {
  slots : int array;
  mutable top : int; (* index of next free slot *)
  mutable count : int;
}

let create ~depth =
  if depth <= 0 then invalid_arg "Ras.create: depth must be positive";
  { slots = Array.make depth 0; top = 0; count = 0 }

(* Wrap with compares, not [mod]: the depth is not always a power of two,
   and a division per call/return event is measurable. *)
let push t v =
  t.slots.(t.top) <- v;
  let next = t.top + 1 in
  t.top <- (if next = Array.length t.slots then 0 else next);
  if t.count < Array.length t.slots then t.count <- t.count + 1

(* Sentinel for the allocation-free pop: return addresses are non-negative,
   so [min_int] can never be a stored slot value. *)
let no_target = min_int

let pop_target t =
  if t.count = 0 then no_target
  else begin
    t.top <- (if t.top = 0 then Array.length t.slots - 1 else t.top - 1);
    t.count <- t.count - 1;
    t.slots.(t.top)
  end

let pop t =
  let target = pop_target t in
  if target == no_target then None else Some target

let depth t = Array.length t.slots
let occupancy t = t.count
