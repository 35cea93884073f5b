(* The traced pass: splits each cell's host time into its layers through
   public entry points only.

   - frontend: the VM alone ([Frontend.compile] + [run] with a no-op sink);
   - uarch: every tape batch of a [Driver.run ~tape_trap] is copied into a
     bounded chunk and replayed into a shadow [Pipeline] built from the same
     machine configuration; only the replay is timed;
   - cosim: the remainder — the untraced [execute] phase minus the other
     two.

   The shadow owns its own BTB, so the SCD engine's architectural BTB
   writes are re-applied from the cells that imply them: a hitting [bop]
   touched its JTE, a [jru] with a valid opcode inserted one, and under a
   context-switch interval every [interval]-th retired cell flushed them
   all. Whether the replay came out exact is measured, not assumed: the
   shadow's [Stats] are compared with the real run's. *)

open Scd_isa
open Scd_cosim
open Scd_uarch

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds ns = float_of_int ns /. 1e9

(* ------------------------------------------------------------------ *)
(* Shadow replay                                                        *)
(* ------------------------------------------------------------------ *)

(* Engine operation applied before a segment's cells are consumed. *)
let op_none = 0
let op_lookup = 1
let op_insert = 2
let op_retire = 3

(* Cells buffered before a chunk is replayed: bounds the replay's memory
   (a whole js fannkuch-redux tape is tens of millions of cells) while
   keeping the clock reads per replayed cell negligible. *)
let chunk_cells = 1 lsl 16

type shadow = {
  pipeline : Pipeline.t;
  engine : Scd_core.Engine.t;
  scd : bool;
  cs_interval : int option;
  table_of_bop : int -> int;
  mutable bop_table : int;  (* table of the latest bop: its jru's table *)
  mutable since_cs : int;
  (* the chunk: segments, each preceded by one engine operation *)
  mutable segs : Event.tape array;
  mutable ops : int array;  (* op kind, table, opcode, target per segment *)
  mutable nsegs : int;
  mutable chunk : int;
  mutable consume_ns : int;
  mutable cells : int;
  mutable batches : int;
}

let options (cfg : Driver.run_config) =
  {
    Frontend.superinstructions = cfg.superinstructions;
    bytecode_replication = cfg.bytecode_replication;
  }

(* Multi-table SCD keys each JTE by the dispatch site's branch ID, so the
   replay must know which site a bop belongs to: the site block holding
   its PC. Tables are numbered common, call, branch, as [Driver.run]
   numbers Section IV's branch IDs. *)
let site_tables (cfg : Driver.run_config) ~source =
  let (module F : Frontend.S) = cfg.frontend in
  let program = F.compile (options cfg) source in
  let layout =
    Scd_codegen.Layout.build ~spec:(F.spec (options cfg)) ~scheme:cfg.scheme
      ~fn_code_sizes:(F.fn_code_sizes program)
      ~fn_const_counts:(F.fn_const_counts program)
  in
  let bases =
    List.filter_map
      (fun (site, table) ->
        match Scd_codegen.Layout.site_base layout site with
        | base -> Some (base, table)
        | exception _ -> None)
      Scd_codegen.Layout.[ (Common_site, 0); (Call_site, 1); (Branch_site, 2) ]
  in
  fun pc ->
    List.fold_left
      (fun (best, table) (base, t) ->
        if base <= pc && base > best then (base, t) else (best, table))
      (min_int, 0) bases
    |> snd

let create_shadow (cfg : Driver.run_config) ~source =
  let m = cfg.machine in
  let btb =
    Btb.create ~entries:m.btb_entries ~ways:m.btb_ways
      ~replacement:m.btb_replacement ?jte_cap:m.jte_cap ()
  in
  let engine =
    Scd_core.Engine.create
      ~tables:(if cfg.multi_table then 3 else 1)
      ?context_switch_interval:cfg.context_switch_interval btb
  in
  let indirect =
    match cfg.indirect_override with
    | Some s -> s
    | None -> Scd_core.Scheme.indirect_scheme cfg.scheme
  in
  {
    pipeline = Pipeline.create ~btb ~indirect m;
    engine;
    scd = cfg.scheme = Scd_core.Scheme.Scd;
    cs_interval = cfg.context_switch_interval;
    table_of_bop =
      (if cfg.multi_table && cfg.scheme = Scd then site_tables cfg ~source
       else fun _ -> 0);
    bop_table = 0;
    since_cs = 0;
    segs = [| Event.tape_create ~capacity:1024 () |];
    ops = Array.make 4 op_none;
    nsegs = 1;
    chunk = 0;
    consume_ns = 0;
    cells = 0;
    batches = 0;
  }

let new_segment s ~op ~table ~opcode ~target =
  if s.nsegs = Array.length s.segs then begin
    let n = 2 * s.nsegs in
    s.segs <-
      Array.init n (fun i ->
          if i < s.nsegs then s.segs.(i) else Event.tape_create ~capacity:64 ());
    s.ops <-
      Array.init (4 * n) (fun i -> if i < 4 * s.nsegs then s.ops.(i) else 0)
  end;
  let i = s.nsegs in
  Event.tape_clear s.segs.(i);
  s.ops.(4 * i) <- op;
  s.ops.((4 * i) + 1) <- table;
  s.ops.((4 * i) + 2) <- opcode;
  s.ops.((4 * i) + 3) <- target;
  s.nsegs <- i + 1

let replay s =
  let t0 = now_ns () in
  for i = 0 to s.nsegs - 1 do
    let op = s.ops.(4 * i) in
    if op = op_lookup then
      ignore
        (Scd_core.Engine.bop_target ~table:s.ops.((4 * i) + 1) s.engine
           ~opcode:s.ops.((4 * i) + 2)
          : int)
    else if op = op_insert then
      Scd_core.Engine.jru_code ~table:s.ops.((4 * i) + 1) s.engine
        ~opcode:s.ops.((4 * i) + 2) ~target:s.ops.((4 * i) + 3)
    else if op = op_retire then
      Scd_core.Engine.retire s.engine (Option.get s.cs_interval);
    if Event.tape_cells s.segs.(i) > 0 then
      Pipeline.consume_tape s.pipeline s.segs.(i)
  done;
  s.consume_ns <- s.consume_ns + (now_ns () - t0);
  Event.tape_clear s.segs.(0);
  s.ops.(0) <- op_none;
  s.nsegs <- 1;
  s.chunk <- 0

let copy_cells s words ~from ~until =
  let seg = s.segs.(s.nsegs - 1) in
  for i = from to until - 1 do
    let w = i * Event.cell_words in
    Event.tape_push seg ~pc:words.(w) ~flags:words.(w + 1)
      ~arg1:words.(w + 2) ~arg2:words.(w + 3)
  done

(* The tape trap. [Driver.run] drains the tape just before every engine
   operation, so an operation always sits between two batches and the cell
   it produced opens the next one: a hitting bop touched its JTE (a miss
   only bumped a BTB counter), a jru inserted the JTE for its opcode. *)
let observe s tape =
  let cells = Event.tape_cells tape in
  let words = Event.tape_words tape in
  s.batches <- s.batches + 1;
  s.cells <- s.cells + cells;
  (if s.scd then
     let tag = Event.tape_cell_tag tape 0 in
     if tag = Event.tag_bop then begin
       s.bop_table <- s.table_of_bop words.(0);
       if words.(1) land Event.flag_hit <> 0 then
         new_segment s ~op:op_lookup ~table:s.bop_table ~opcode:words.(3)
           ~target:0
     end
     else if tag = Event.tag_jru && words.(3) >= 0 then
       new_segment s ~op:op_insert ~table:s.bop_table ~opcode:words.(3)
         ~target:words.(2));
  (match s.cs_interval with
   | None -> copy_cells s words ~from:0 ~until:cells
   | Some interval ->
     (* one cell is one instruction here (no run-length cells), and the
        co-simulation retires the engine after every [interval]-th cell *)
     let rec go from =
       let room = interval - s.since_cs in
       if cells - from < room then begin
         copy_cells s words ~from ~until:cells;
         s.since_cs <- s.since_cs + (cells - from)
       end
       else begin
         copy_cells s words ~from ~until:(from + room);
         s.since_cs <- 0;
         new_segment s ~op:op_retire ~table:0 ~opcode:0 ~target:0;
         go (from + room)
       end
     in
     go 0);
  s.chunk <- s.chunk + cells;
  if s.chunk >= chunk_cells then replay s

(* ------------------------------------------------------------------ *)
(* Per-cell split                                                       *)
(* ------------------------------------------------------------------ *)

type totals = {
  mutable untraced_ns : int;  (** Whole untraced Driver.run calls. *)
  mutable traced_ns : int;  (** Whole traced Driver.run calls + replay. *)
  mutable vm_ns : int;
  mutable consume_ns : int;
  mutable tape_cells : int;
  mutable batches : int;
  mutable replays : int;
  mutable exact : int;
  mutable nonscd : int;
  mutable exact_nonscd : int;
  mutable longest_ns : int;
  mutable minor_words : float;
  mutable major_words : float;
  mutable major_collections : int;
}

(* The VM alone: the bytecodes the script asks for, reported to a no-op
   sink. Returns the host time of the run and the script's output. *)
let vm_only (cfg : Driver.run_config) ~source =
  let (module F : Frontend.S) = cfg.frontend in
  let program = F.compile (options cfg) source in
  Scd_runtime.Value.reset_table_ids ();
  let ctx = Scd_runtime.Builtins.create_ctx ~seed:cfg.seed () in
  let t0 = now_ns () in
  F.run program ~ctx ~trace:ignore;
  (now_ns () - t0, Scd_runtime.Builtins.output ctx)

(* Untraced run of one cell under [prof] ([Driver.run]'s setup and execute
   phases land there), with its GC counter deltas added to [tot]. *)
let untraced prof tot (c : Cells.t) ~source =
  let g0 = Gc.quick_stat () in
  Scd_obs.Prof.activate prof;
  let t0 = now_ns () in
  let r =
    Fun.protect ~finally:Scd_obs.Prof.deactivate (fun () ->
        Driver.run c.config ~source)
  in
  let dt = now_ns () - t0 in
  let g1 = Gc.quick_stat () in
  tot.untraced_ns <- tot.untraced_ns + dt;
  tot.longest_ns <- max tot.longest_ns dt;
  tot.minor_words <- tot.minor_words +. (g1.minor_words -. g0.minor_words);
  tot.major_words <- tot.major_words +. (g1.major_words -. g0.major_words);
  tot.major_collections <-
    tot.major_collections + (g1.major_collections - g0.major_collections);
  r

(* Split every cell. Returns each cell's untraced result (or the reason it
   failed) and the layer totals. A cell fails when a run raises, when the
   traced run's result differs from the untraced one, or when the VM alone
   prints something else. *)
let split prof cells =
  let tot =
    {
      untraced_ns = 0; traced_ns = 0; vm_ns = 0; consume_ns = 0;
      tape_cells = 0; batches = 0; replays = 0; exact = 0; nonscd = 0;
      exact_nonscd = 0; longest_ns = 0; minor_words = 0.0;
      major_words = 0.0; major_collections = 0;
    }
  in
  let one (c : Cells.t) =
    let source = Cells.source c in
    match untraced prof tot c ~source with
    | exception e -> Error (Printexc.to_string e)
    | r -> (
      match
        let vm_ns, vm_output = vm_only c.config ~source in
        let s = create_shadow c.config ~source in
        let t0 = now_ns () in
        let traced = Driver.run ~tape_trap:(observe s) c.config ~source in
        replay s;
        (vm_ns, vm_output, s, traced, now_ns () - t0)
      with
      | exception e -> Error (Printexc.to_string e)
      | vm_ns, vm_output, s, traced, traced_ns ->
        tot.vm_ns <- tot.vm_ns + vm_ns;
        tot.consume_ns <- tot.consume_ns + s.consume_ns;
        tot.traced_ns <- tot.traced_ns + traced_ns;
        tot.tape_cells <- tot.tape_cells + s.cells;
        tot.batches <- tot.batches + s.batches;
        tot.replays <- tot.replays + 1;
        let exact = Stats.equal (Pipeline.stats s.pipeline) r.stats in
        if exact then tot.exact <- tot.exact + 1;
        if not s.scd then begin
          tot.nonscd <- tot.nonscd + 1;
          if exact then tot.exact_nonscd <- tot.exact_nonscd + 1
        end;
        if not (Result.equal traced r) then
          Error "traced run differs from the untraced run"
        else if not (String.equal vm_output r.output) then
          Error "the VM alone printed a different output"
        else Ok r)
  in
  let results = List.map (fun c -> (c, one c)) cells in
  (results, tot)
