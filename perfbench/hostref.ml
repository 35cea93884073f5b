(* Host-speed reference.

   The benchmark host is a shared VM whose speed drifts by up to ~2x over
   minutes, for reasons outside the process: the same cell's user CPU time
   moves with its wall time, so it is not steal. Raw host times of two runs
   a few minutes apart are therefore not comparable.

   A fixed kernel is timed between the measured work: a 4-way
   set-associative cache model over a 512 KiB tag table, driven by xorshift
   addresses — the integer-and-table work that dominates the simulator.
   End-to-end host times are multiplied by [nominal_ns / median kernel
   time], that is, reported at the host speed at which the kernel takes
   [nominal_ns]. The kernel shares no code with the program under test, so
   no change to the program can move it. *)

let iterations = 2_000_000
let sets = 16_384

(* A round figure near the kernel's time on a 2-vCPU Intel Xeon VM, where
   medians of 21-30 ms were measured. Only its constancy matters: it fixes
   the unit of every scaled host time. *)
let nominal_ns = 20_000_000

let kernel tags =
  Array.fill tags 0 (Array.length tags) (-1);
  let x = ref 0x2545F4914F6CDD1D and hits = ref 0 in
  for _ = 1 to iterations do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    let addr = !x land 0xFFFFFF in
    let base = ((addr lsr 6) land (sets - 1)) * 4 and tag = addr lsr 20 in
    if tags.(base) = tag || tags.(base + 1) = tag || tags.(base + 2) = tag
       || tags.(base + 3) = tag
    then incr hits
    else begin
      tags.(base + 3) <- tags.(base + 2);
      tags.(base + 2) <- tags.(base + 1);
      tags.(base + 1) <- tags.(base);
      tags.(base) <- tag
    end
  done;
  !hits

(* [tables] holds one tag table per domain the probe runs on, allocated
   once so that probes add no GC work to the measured process. *)
type t = { tables : int array array; mutable samples : int list }

(* [domains] > 1 probes a host the measured work keeps that many vCPUs busy
   on: the kernel runs on every domain at once, and a probe lasts until
   the slowest copy ends. *)
let create ?(domains = 1) () =
  {
    tables = Array.init domains (fun _ -> Array.make (sets * 4) (-1));
    samples = [];
  }

let probe t =
  let t0 = Layers.now_ns () in
  let others =
    Array.to_list
      (Array.map
         (fun tags -> Domain.spawn (fun () -> kernel tags))
         (Array.sub t.tables 1 (Array.length t.tables - 1)))
  in
  ignore (Sys.opaque_identity (kernel t.tables.(0)) : int);
  List.iter (fun d -> ignore (Domain.join d : int)) others;
  t.samples <- (Layers.now_ns () - t0) :: t.samples

let median_ns t =
  let a = Array.of_list t.samples in
  Array.sort compare a;
  a.(Array.length a / 2)

(* Multiply a raw host time by this to express it at nominal host speed. *)
let scale t = float_of_int nominal_ns /. float_of_int (median_ns t)

(* Probe [probes] times before and after [f ()], for work between whose
   parts no probe can run. *)
let probes = 25

let around t f =
  for _ = 1 to probes do probe t done;
  let r = f () in
  for _ = 1 to probes do probe t done;
  r
