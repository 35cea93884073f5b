(* Benchmark of the SCD co-simulator: host cost of regenerating the paper's
   results, with every cell's result checked. See perfbench/README.md.

     scdbench --workload W --seed N --seconds S --trace 0|1
     scdbench --record       rewrite perfbench/expected.txt
     scdbench --self-test    show a perturbed digest is reported as a failure

   The last line of standard output is one JSON object: correct, attempted,
   failed and metrics (end-to-end with --trace 0, per-layer with
   --trace 1). Progress and failure reasons go to standard error. *)

open Scd_cosim
open Scd_experiments
module Prof = Scd_obs.Prof

let expected_path = "perfbench/expected.txt"

(* Where the sweep's persistent store lives while a run needs it, inside
   the checkout. *)
let store_root = "_perfbench"

(* Paper, Figure 7: SCD's geomean speedup over the baseline dispatcher. *)
let paper_scd_percent = [ ("lua", 19.9); ("js", 14.1) ]

(* Domains of the regen-quick pool. *)
let regen_jobs = 2

let now_ns = Layers.now_ns
let seconds = Layers.seconds
let log fmt = Printf.eprintf (fmt ^^ "\n%!")

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* ------------------------------------------------------------------ *)
(* Reading Driver.run's profiler phases                                 *)
(* ------------------------------------------------------------------ *)

(* Driver.run's phases before the first bytecode. *)
let setup_phases = [ "setup"; "compile"; "layout"; "templates" ]
let driver_phases = setup_phases @ [ "execute"; "snapshot" ]

(* Wall time summed over every span with one of [names], at any nesting
   (under regen-quick the phases nest below sweep-compute). *)
let phase_ns prof names =
  List.fold_left
    (fun acc (s : Prof.span) ->
      if List.mem s.name names then acc + s.wall_ns else acc)
    0 (Prof.spans prof)

let phase_calls prof names =
  List.fold_left
    (fun acc (s : Prof.span) ->
      if List.mem s.name names then acc + s.calls else acc)
    0 (Prof.spans prof)

let peak_rss_mb () =
  let from_proc =
    try
      In_channel.with_open_text "/proc/self/status" (fun ic ->
          let rec find () =
            match In_channel.input_line ic with
            | None -> None
            | Some l when String.starts_with ~prefix:"VmHWM:" l ->
              Scanf.sscanf l "VmHWM: %d kB" (fun kb -> Some kb)
            | Some _ -> find ()
          in
          find ())
    with Sys_error _ -> None
  in
  match from_proc with
  | Some kb -> float_of_int kb /. 1024.0
  | None ->
    float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
    /. 1048576.0

(* ------------------------------------------------------------------ *)
(* Correctness                                                          *)
(* ------------------------------------------------------------------ *)

let load_expected () =
  if Sys.file_exists expected_path then Cells.load_expected expected_path
  else begin
    log "no %s: every cell fails its digest check" expected_path;
    Hashtbl.create 1
  end

let dedup keys = List.sort_uniq compare keys

(* Failed cell ids of one set of cell outcomes: raised, digest differs
   from the recorded one, or output/bytecodes differ from the other
   schemes and configurations of the same (vm, script). *)
let cell_failures expected outcomes =
  let ok =
    List.filter_map
      (fun ((c : Cells.t), o) ->
        match o with Ok r -> Some (c, r) | Error _ -> None)
      outcomes
  in
  let raised =
    List.filter_map
      (fun ((c : Cells.t), o) ->
        match o with
        | Error msg ->
          log "FAIL %s: %s" c.id msg;
          Some c.id
        | Ok _ -> None)
      outcomes
  in
  let digests =
    Cells.digest_failures expected
      (List.map (fun ((c : Cells.t), r) -> (c.id, r)) ok)
  in
  let invariants =
    Cells.invariant_failures
      (List.map (fun ((c : Cells.t), r) -> (Cells.group c, c.id, r)) ok)
  in
  List.iter (fun id -> log "FAIL %s: result digest differs from %s" id expected_path) digests;
  List.iter (fun id -> log "FAIL %s: output or bytecodes differ across schemes" id) invariants;
  dedup (raised @ digests @ invariants)

(* ------------------------------------------------------------------ *)
(* Fidelity                                                             *)
(* ------------------------------------------------------------------ *)

(* Gap, in percentage points, between the SCD geomean speedup over the
   baseline and the paper's fig7 value, for each vm. [pairs] holds
   (vm, baseline result, SCD result). *)
let scd_error pairs =
  List.map
    (fun (vm, paper) ->
      let ratios =
        List.filter_map
          (fun (v, (b : Result.t), (s : Result.t)) ->
            if v = vm then
              Some (float_of_int b.stats.cycles /. float_of_int s.stats.cycles)
            else None)
          pairs
      in
      let percent =
        if ratios = [] then nan
        else (Scd_util.Summary.geomean ratios -. 1.0) *. 100.0
      in
      (vm, Float.abs (percent -. paper)))
    paper_scd_percent

(* SCD cells paired with the baseline cell of the same vm, configuration,
   script and scale. *)
let scheme_pairs results =
  let by_id = Hashtbl.create 64 in
  List.iter (fun ((c : Cells.t), r) -> Hashtbl.replace by_id c.id r) results;
  List.filter_map
    (fun ((c : Cells.t), r) ->
      if c.scheme <> Scd_core.Scheme.Scd then None
      else
        Hashtbl.find_opt by_id (Cells.with_scheme c Scd_core.Scheme.Baseline)
        |> Option.map (fun b -> (c.vm, b, r)))
    results

let err_metrics pairs =
  List.map
    (fun (vm, gap) -> (Printf.sprintf "scd_err_%s_pp" vm, gap, "pp"))
    (scd_error pairs)

(* ------------------------------------------------------------------ *)
(* Simulated statistics (exact; no host-speed change may move them)     *)
(* ------------------------------------------------------------------ *)

let sim_metrics (results : Result.t list) =
  let sum f = List.fold_left (fun acc (r : Result.t) -> acc + f r) 0 results in
  let instrs = float_of_int (sum (fun r -> r.stats.instructions)) in
  let per_kilo n = float_of_int n *. 1000.0 /. instrs in
  let bops = sum (fun r -> r.stats.bop_count) in
  [
    ("sim.cpi", float_of_int (sum (fun r -> r.stats.cycles)) /. instrs, "cycles/instr");
    ("sim.dispatch_mpki", per_kilo (sum (fun r -> r.stats.mispredicts_dispatch)), "1/kinstr");
    ("sim.icache_mpki", per_kilo (sum (fun r -> r.stats.icache_misses)), "1/kinstr");
    ( "sim.bop_hit_ratio",
      (if bops = 0 then 0.0
       else float_of_int (sum (fun r -> r.stats.bop_hits)) /. float_of_int bops),
      "ratio" );
  ]

let instructions results =
  List.fold_left (fun acc (r : Result.t) -> acc + r.stats.instructions) 0 results

(* ------------------------------------------------------------------ *)
(* Output                                                               *)
(* ------------------------------------------------------------------ *)

type report = {
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;
}

(* A failed run can leave a ratio without samples: JSON has no NaN. *)
let json_number v =
  if not (Float.is_finite v) then "null"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_report r =
  let metrics =
    String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
             (json_number v) unit)
         r.metrics)
  in
  List.iter
    (fun (name, v, unit) -> log "  %-34s %14.6g %s" name v unit)
    r.metrics;
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (r.failed = 0) r.attempted r.failed metrics

(* ------------------------------------------------------------------ *)
(* Cell workloads: eval-sim, offpath-sim                                *)
(* ------------------------------------------------------------------ *)

type cell_pass = {
  wall_ns : int;  (** The cells' wall time, reference probes excluded. *)
  driver_ns : int;  (** Inside Driver.run, from its profiler phases. *)
  setup_ns : int;
  scale : float;  (** {!Hostref.scale} over probes between the cells. *)
  outcomes : (Cells.t * (Result.t, string) result) list;
}

let run_cells cells =
  let sources = List.map (fun c -> (c, Cells.source c)) cells in
  let prof = Prof.create () and host = Hostref.create () in
  let wall_ns = ref 0 in
  let outcomes =
    List.map
      (fun ((c : Cells.t), source) ->
        Hostref.probe host;
        Prof.activate prof;
        let t0 = now_ns () in
        let o =
          match Driver.run c.config ~source with
          | r -> Ok r
          | exception e -> Error (Printexc.to_string e)
        in
        wall_ns := !wall_ns + (now_ns () - t0);
        Prof.deactivate ();
        (c, o))
      sources
  in
  Hostref.probe host;
  {
    wall_ns = !wall_ns;
    driver_ns = phase_ns prof driver_phases;
    setup_ns = phase_ns prof setup_phases;
    scale = Hostref.scale host;
    outcomes;
  }

let oks outcomes =
  List.filter_map
    (fun (c, o) -> match o with Ok r -> Some (c, r) | Error _ -> None)
    outcomes

(* Passes over the workload's cells until [seconds] would be exceeded (at
   least one); each pass visits the cells in a fresh seeded order. Timings
   are medians over passes. *)
let cell_workload ~cells_of ~seed ~seconds:budget =
  let expected = load_expected () in
  let cells = cells_of ~seed:(Int64.of_int seed) in
  let start = now_ns () in
  let rec loop i acc =
    let p = run_cells (Cells.shuffle ~seed:(seed + i) cells) in
    let failed = cell_failures expected p.outcomes in
    log "pass %d: %.2f s raw, host scale %.3f, %d cells, %d failed" (i + 1)
      (seconds p.wall_ns) p.scale (List.length p.outcomes)
      (List.length failed);
    let acc = (p, failed) :: acc in
    let elapsed = seconds (now_ns () - start) in
    if elapsed +. (elapsed /. float_of_int (i + 1)) <= budget then
      loop (i + 1) acc
    else List.rev acc
  in
  let passes = loop 0 [] in
  let med f = median (List.map (fun (p, _) -> f p) passes) in
  let first, _ = List.hd passes in
  let results = oks first.outcomes in
  let instrs = float_of_int (instructions (List.map snd results)) in
  {
    attempted = List.fold_left (fun a (p, _) -> a + List.length p.outcomes) 0 passes;
    failed = List.fold_left (fun a (_, f) -> a + List.length f) 0 passes;
    metrics =
      [
        ("wall_s", med (fun p -> seconds p.wall_ns *. p.scale), "s");
        ( "sim_mips",
          med (fun p -> instrs /. (seconds p.driver_ns *. p.scale) /. 1e6),
          "Minstr/s" );
        ("setup_s", med (fun p -> seconds p.setup_ns *. p.scale), "s");
        ("peak_rss_mb", peak_rss_mb (), "MB");
        ( "cells_per_s",
          med (fun p ->
              float_of_int (List.length p.outcomes)
              /. (seconds p.wall_ns *. p.scale)),
          "cells/s" );
      ]
      @ err_metrics (scheme_pairs results);
  }

(* ------------------------------------------------------------------ *)
(* regen-quick                                                          *)
(* ------------------------------------------------------------------ *)

let fresh_store () =
  let dir =
    Filename.concat store_root (Printf.sprintf "store-%d" (Unix.getpid ()))
  in
  let s = Store.create dir in
  ignore (Store.clear s : int);
  s

let remove_store s =
  ignore (Store.clear s : int);
  (try Sys.rmdir (Store.dir s) with Sys_error _ -> ());
  try Sys.rmdir store_root with Sys_error _ -> ()

type regen_pass = {
  r_wall_ns : int;
  r_prof : Prof.t;
  cosims : int;
  tables : (string * string) list;  (** experiment id, rendered body *)
  r_failure : string option;  (** run_all raised *)
  gc : Gc.stat * Gc.stat;
}

(* The main domain is a pool participant while run_all runs, so the host
   reference is probed around it. *)
let run_regen host =
  Hostref.around host @@ fun () ->
  let runs0 = Driver.runs () in
  let prof = Prof.create () in
  let g0 = Gc.quick_stat () in
  Prof.activate prof;
  let t0 = now_ns () in
  let rendered =
    match
      Scd_util.Pool.with_pool ~jobs:regen_jobs (fun pool ->
          Runner.run_all ~pool ~quick:true ~csv:false Registry.all)
    with
    | r -> Ok r
    | exception e -> Error (Printexc.to_string e)
  in
  let wall = now_ns () - t0 in
  Prof.deactivate ();
  let g1 = Gc.quick_stat () in
  {
    r_wall_ns = wall;
    r_prof = prof;
    cosims = Driver.runs () - runs0;
    tables =
      (match rendered with
       | Ok rs ->
         List.map
           (fun (x : Runner.rendered) -> (x.experiment.Experiment.id, x.body))
           rs
       | Error _ -> []);
    r_failure = (match rendered with Ok _ -> None | Error e -> Some e);
    gc = (g0, g1);
  }

let sweep_cells () =
  Mutex.protect Sweep.cache_mutex (fun () ->
      Hashtbl.fold (fun k r acc -> (k, r) :: acc) Sweep.cache [])
  |> List.sort compare

(* Standard sweep keys are frontend|scheme|machine|workload|scale; output
   and bytecodes depend on frontend, workload and scale only. Custom keys
   carry run options that may change the bytecode, so only their digest is
   checked. *)
let regen_group key =
  match String.split_on_char '|' key with
  | [ frontend; _scheme; _machine; workload; scale ] when frontend <> "custom"
    ->
    Some (String.concat "/" [ frontend; workload; scale ])
  | _ -> None

let regen_key key = "regen-quick/" ^ key
let table_key id = "regen-quick/table/" ^ id
let body_digest body = Digest.to_hex (Digest.string body)

let regen_failures expected pass cells =
  let digests =
    Cells.digest_failures expected
      (List.map (fun (k, r) -> (regen_key k, r)) cells)
  in
  let invariants =
    Cells.invariant_failures
      (List.filter_map
         (fun (k, r) ->
           Option.map (fun g -> (g, regen_key k, r)) (regen_group k))
         cells)
  in
  (* an experiment whose table is missing (run_all raised) fails too *)
  let tables =
    List.filter_map
      (fun id ->
        match
          (Hashtbl.find_opt expected (table_key id), List.assoc_opt id pass.tables)
        with
        | Some hex, Some body when String.equal hex (body_digest body) -> None
        | _ -> Some (table_key id))
      Registry.ids
  in
  Option.iter (log "FAIL regen-quick: run_all raised %s") pass.r_failure;
  List.iter (fun id -> log "FAIL %s: digest differs from %s" id expected_path) (digests @ tables);
  List.iter (fun id -> log "FAIL %s: output or bytecodes differ across schemes" id) invariants;
  dedup (digests @ invariants @ tables)

(* fig7 at quick scale, read back from the sweep's memory table. *)
let regen_fig7_pairs () =
  List.concat_map
    (fun vm ->
      List.map
        (fun w ->
          let run scheme = Sweep.run ~scale:Scd_workloads.Workload.Test vm scheme w in
          (vm, run Scd_core.Scheme.Baseline, run Scd_core.Scheme.Scd))
        Scd_workloads.Registry.all)
    Cells.vms

(* Every distinct cell and every experiment's rendered table. *)
let regen_attempted cells = List.length cells + List.length Registry.ids

let regen_report () =
  let expected = load_expected () in
  Sweep.clear ();
  let store = fresh_store () in
  Sweep.set_store (Some store);
  let host = Hostref.create ~domains:regen_jobs () in
  let pass =
    Fun.protect
      ~finally:(fun () ->
        Sweep.set_store None;
        remove_store store)
      (fun () -> run_regen host)
  in
  let scale = Hostref.scale host in
  let cells = sweep_cells () in
  let failed = regen_failures expected pass cells in
  let attempted = regen_attempted cells in
  let results = List.map snd cells in
  let pairs = try regen_fig7_pairs () with _ -> [] in
  log "regen-quick: %.2f s raw, host scale %.3f, %d cosims, %d tables, %d failed"
    (seconds pass.r_wall_ns) scale pass.cosims (List.length pass.tables)
    (List.length failed);
  {
    attempted;
    failed = List.length failed;
    metrics =
      [
        ("wall_s", seconds pass.r_wall_ns *. scale, "s");
        ( "sim_mips",
          float_of_int (instructions results)
          /. (seconds (phase_ns pass.r_prof driver_phases) *. scale)
          /. 1e6,
          "Minstr/s" );
        ("setup_s", seconds (phase_ns pass.r_prof setup_phases) *. scale, "s");
        ("peak_rss_mb", peak_rss_mb (), "MB");
        ( "cells_per_s",
          float_of_int (List.length cells) /. (seconds pass.r_wall_ns *. scale),
          "cells/s" );
      ]
      @ err_metrics pairs;
  }

(* ------------------------------------------------------------------ *)
(* Traced pass                                                          *)
(* ------------------------------------------------------------------ *)

let layer_metrics prof (tot : Layers.totals) results =
  let bytecodes =
    float_of_int
      (List.fold_left (fun a (r : Result.t) -> a + r.bytecodes) 0 results)
  in
  let instrs = float_of_int (instructions results) in
  let execute_ns = phase_ns prof [ "execute" ] in
  let expand_ns = execute_ns - tot.vm_ns - tot.consume_ns in
  let frac a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  [
    ("frontend.compile_s", seconds (phase_ns prof [ "compile" ]), "s");
    ("frontend.vm_s", seconds tot.vm_ns, "s");
    ("frontend.bytecodes", bytecodes, "count");
    ("frontend.vm_ns_per_bytecode", float_of_int tot.vm_ns /. bytecodes, "ns");
    ("cosim.expand_s", seconds expand_ns, "s");
    ("cosim.expand_ns_per_bytecode", float_of_int expand_ns /. bytecodes, "ns");
    ("cosim.cells", float_of_int tot.tape_cells, "count");
    ("cosim.instr_per_cell", instrs /. float_of_int tot.tape_cells, "ratio");
    ("cosim.batches", float_of_int tot.batches, "count");
    ("codegen.layout_s", seconds (phase_ns prof [ "layout" ]), "s");
    ("codegen.templates_s", seconds (phase_ns prof [ "templates" ]), "s");
    ("uarch.consume_s", seconds tot.consume_ns, "s");
    ("uarch.consume_ns_per_instr", float_of_int tot.consume_ns /. instrs, "ns");
    ("uarch.replay_exact_frac", frac tot.exact tot.replays, "ratio");
    ("uarch.replay_exact_frac_nonscd", frac tot.exact_nonscd tot.nonscd, "ratio");
    ("trace.overhead_s", seconds (tot.traced_ns - tot.untraced_ns), "s");
  ]

let gc_metrics ~minor ~major ~collections =
  [
    ("gc.minor_words", minor, "words");
    ("gc.major_words", major, "words");
    ("gc.major_collections", float_of_int collections, "count");
  ]

(* Persist every result, then time reading them all back: the store layer
   under this workload's results. *)
let store_roundtrip results =
  let store = fresh_store () in
  Fun.protect ~finally:(fun () -> remove_store store) @@ fun () ->
  List.iter (fun ((c : Cells.t), r) -> Store.save store ~key:c.id r) results;
  let t0 = now_ns () in
  let mismatched =
    List.filter
      (fun ((c : Cells.t), r) ->
        match Store.load store ~key:c.id with
        | Some r' -> not (Result.equal r r')
        | None -> true)
      results
  in
  let warm_ns = now_ns () - t0 in
  List.iter (fun ((c : Cells.t), _) -> log "FAIL %s: store round trip" c.id) mismatched;
  ( [
      ("store.stores", float_of_int (Store.stores store), "count");
      ("store.bytes", float_of_int (Store.size_bytes store), "bytes");
      ("store.warm_pass_s", seconds warm_ns, "s");
    ],
    List.map (fun ((c : Cells.t), _) -> c.id) mismatched )

(* The reference kernel's median time over the traced pass: per-layer
   times are raw, so this tells which host state they were measured in. *)
let host_metric host =
  ("host.ref_ms", float_of_int (Hostref.median_ns host) /. 1e6, "ms")

let traced_cells ~cells_of ~seed =
  let expected = load_expected () in
  let cells = Cells.shuffle ~seed (cells_of ~seed:(Int64.of_int seed)) in
  let prof = Prof.create () and host = Hostref.create () in
  let outcomes, tot = Hostref.around host (fun () -> Layers.split prof cells) in
  let failed = cell_failures expected outcomes in
  let ok = oks outcomes in
  let results = List.map snd ok in
  let store, store_failed = store_roundtrip ok in
  let n = float_of_int (List.length ok) in
  {
    attempted = List.length cells;
    failed = List.length (dedup (failed @ store_failed));
    metrics =
      layer_metrics prof tot results
      @ [
          (* the cells run in sequence on one domain, each requested once *)
          ("sweep.cosims", n, "count");
          ("sweep.lookups", float_of_int (List.length cells), "count");
          ("sweep.dedup_ratio", float_of_int (List.length cells) /. n, "ratio");
          ("sweep.longest_cell_s", seconds tot.longest_ns, "s");
          ( "pool.busy_frac",
            float_of_int (phase_ns prof driver_phases)
            /. float_of_int tot.untraced_ns,
            "ratio" );
        ]
      @ store
      @ gc_metrics ~minor:tot.minor_words ~major:tot.major_words
          ~collections:tot.major_collections
      @ sim_metrics results
      @ [ host_metric host ];
  }

let traced_regen ~seed =
  let expected = load_expected () in
  Sweep.clear ();
  let store = fresh_store () in
  Sweep.set_store (Some store);
  Fun.protect ~finally:(fun () ->
      Sweep.set_store None;
      remove_store store)
  @@ fun () ->
  let host = Hostref.create ~domains:regen_jobs () in
  let cold = run_regen host in
  let cells = sweep_cells () in
  let failed = regen_failures expected cold cells in
  let stores = Store.stores store and bytes = Store.size_bytes store in
  (* warm: an empty memory table over the store the cold pass filled *)
  Sweep.clear ();
  let warm = run_regen host in
  let warm_failed =
    if warm.tables = cold.tables && warm.cosims = 0 then []
    else begin
      log "FAIL regen-quick: warm pass recomputed cells or changed tables";
      [ "regen-quick/warm" ]
    end
  in
  (* the layer split runs fig7's quick-scale cells one by one *)
  let fig7 = Cells.shuffle ~seed (Cells.fig7_quick ~seed:(Int64.of_int seed)) in
  let prof = Prof.create () in
  let outcomes, tot = Layers.split prof fig7 in
  let split_failed = cell_failures expected outcomes in
  let lookups =
    phase_calls cold.r_prof [ "sweep-compute"; "sweep-hit-memory"; "sweep-hit-disk" ]
  in
  let longest = ref 0 in
  Prof.iter_events cold.r_prof (fun e ->
      if Filename.basename e.ev_path = "sweep-compute" then
        longest := max !longest e.ev_dur_ns);
  let g0, g1 = cold.gc in
  {
    attempted = regen_attempted cells + List.length fig7;
    failed = List.length failed + List.length warm_failed + List.length split_failed;
    metrics =
      layer_metrics prof tot (List.map snd (oks outcomes))
      @ [
          ("sweep.cosims", float_of_int cold.cosims, "count");
          ("sweep.lookups", float_of_int lookups, "count");
          ( "sweep.dedup_ratio",
            float_of_int lookups /. float_of_int (max 1 cold.cosims),
            "ratio" );
          ("sweep.longest_cell_s", seconds !longest, "s");
          ( "pool.busy_frac",
            float_of_int (phase_ns cold.r_prof [ "sweep-compute" ])
            /. float_of_int (regen_jobs * cold.r_wall_ns),
            "ratio" );
          ("store.stores", float_of_int stores, "count");
          ("store.bytes", float_of_int bytes, "bytes");
          ("store.warm_pass_s", seconds warm.r_wall_ns, "s");
        ]
      @ gc_metrics
          ~minor:(g1.minor_words -. g0.minor_words)
          ~major:(g1.major_words -. g0.major_words)
          ~collections:(g1.major_collections - g0.major_collections)
      @ sim_metrics (List.map snd cells)
      @ [ host_metric host ];
  }

(* ------------------------------------------------------------------ *)
(* Recording and self-test                                              *)
(* ------------------------------------------------------------------ *)

let default_seed = Int64.to_int Driver.default_config.seed

(* Rewrite the expected digests from one pass of every workload at the
   default seed. Refuses when a cell raises or breaks the cross-scheme
   invariants, since those are wrong without any reference. *)
let record () =
  let cells =
    Cells.eval_sim ~seed:Driver.default_config.seed
    @ Cells.offpath_sim ~seed:Driver.default_config.seed
  in
  let pass = run_cells cells in
  let broken =
    List.filter_map
      (fun ((c : Cells.t), o) ->
        match o with Error _ -> Some c.id | Ok _ -> None)
      pass.outcomes
    @ Cells.invariant_failures
        (List.map
           (fun ((c : Cells.t), r) -> (Cells.group c, c.id, r))
           (oks pass.outcomes))
  in
  Sweep.clear ();
  let regen = run_regen (Hostref.create ~domains:regen_jobs ()) in
  let regen_cells = sweep_cells () in
  let regen_broken =
    Option.to_list regen.r_failure
    @ Cells.invariant_failures
        (List.filter_map
           (fun (k, r) -> Option.map (fun g -> (g, k, r)) (regen_group k))
           regen_cells)
  in
  if broken <> [] || regen_broken <> [] then begin
    List.iter (log "cannot record: %s is broken") (broken @ regen_broken);
    exit 1
  end;
  Cells.save_expected expected_path
    (List.map
       (fun ((c : Cells.t), r) -> (c.id, Cells.digest r))
       (oks pass.outcomes)
    @ List.map (fun (k, r) -> (regen_key k, Cells.digest r)) regen_cells
    @ List.map (fun (id, body) -> (table_key id, body_digest body)) regen.tables);
  log "recorded %s" expected_path

(* One perturbed digest must fail exactly its cell; one perturbed bytecode
   count must fail exactly its cell; the replay of non-SCD cells must be
   exact. *)
let self_test () =
  let fibo = Cells.script "fibo" in
  let cells =
    List.concat_map
      (fun vm ->
        List.map
          (fun scheme ->
            Cells.make ~tag:"sim" ~machine:Scd_uarch.Config.simulator
              ~scale:Scd_workloads.Workload.Test ~seed:Driver.default_config.seed
              vm scheme fibo)
          Scd_core.Scheme.[ Baseline; Scd ])
      Cells.vms
  in
  let outcomes, tot = Layers.split (Prof.create ()) cells in
  let ok = oks outcomes in
  let expected = Hashtbl.create 8 in
  List.iter (fun ((c : Cells.t), r) -> Hashtbl.replace expected c.id (Cells.digest r)) ok;
  let victim = (List.hd cells).id in
  let clean = cell_failures expected outcomes in
  Hashtbl.replace expected victim (String.make 32 '0');
  let perturbed = cell_failures expected outcomes in
  let skewed =
    List.map
      (fun ((c : Cells.t), o) ->
        ( c,
          if c.id = victim then
            Stdlib.Result.map (fun (r : Result.t) -> { r with bytecodes = r.bytecodes + 1 }) o
          else o ))
      outcomes
  in
  let skewed_failed =
    Cells.invariant_failures
      (List.map (fun ((c : Cells.t), r) -> (Cells.group c, c.id, r)) (oks skewed))
  in
  let checks =
    [
      ("all four cells ran", List.length ok = List.length cells);
      ("recorded digests pass", clean = []);
      ("a perturbed digest fails exactly its cell", perturbed = [ victim ]);
      ("a perturbed bytecode count fails exactly its cell", skewed_failed = [ victim ]);
      ("non-SCD replays are exact", tot.nonscd > 0 && tot.exact_nonscd = tot.nonscd);
    ]
  in
  List.iter (fun (what, ok) -> log "%s %s" (if ok then "ok  " else "FAIL") what) checks;
  exit (if List.for_all snd checks then 0 else 1)

(* ------------------------------------------------------------------ *)
(* Command line                                                         *)
(* ------------------------------------------------------------------ *)

let workloads = [ "eval-sim"; "offpath-sim"; "regen-quick" ]

let usage () =
  prerr_endline
    "usage: scdbench --workload eval-sim|offpath-sim|regen-quick --seed N \
     --seconds S --trace 0|1\n\
    \       scdbench --record | --self-test";
  exit 2

let () =
  let workload = ref None and seed = ref default_seed and budget = ref 10.0 in
  let trace = ref false and mode = ref `Run in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest when List.mem w workloads ->
      workload := Some w;
      parse rest
    | "--seed" :: n :: rest ->
      (match int_of_string_opt n with Some n -> seed := n | None -> usage ());
      parse rest
    | "--seconds" :: s :: rest ->
      (match float_of_string_opt s with
       | Some s when s > 0.0 -> budget := s
       | _ -> usage ());
      parse rest
    | "--trace" :: ("0" | "1" as t) :: rest ->
      trace := t = "1";
      parse rest
    | "--record" :: rest ->
      mode := `Record;
      parse rest
    | "--self-test" :: rest ->
      mode := `Self_test;
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!mode, !workload) with
  | `Record, _ -> record ()
  | `Self_test, _ -> self_test ()
  | `Run, None -> usage ()
  | `Run, Some w ->
    let seed = !seed in
    let report =
      match (w, !trace) with
      | "eval-sim", false ->
        cell_workload ~cells_of:Cells.eval_sim ~seed ~seconds:!budget
      | "offpath-sim", false ->
        cell_workload ~cells_of:Cells.offpath_sim ~seed ~seconds:!budget
      | "regen-quick", false -> regen_report ()
      | "eval-sim", true -> traced_cells ~cells_of:Cells.eval_sim ~seed
      | "offpath-sim", true -> traced_cells ~cells_of:Cells.offpath_sim ~seed
      | _ -> traced_regen ~seed
    in
    print_report report
