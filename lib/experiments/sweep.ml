(** Shared, cached co-simulation runs.

    Figures 7-10 all read different statistics from the *same* runs, and the
    sensitivity studies reuse baselines across sweep points, so results are
    memoised per (frontend, scheme, machine, workload, scale) within a
    process — and, when a {!Store} is attached, across processes: every
    computed cell is persisted, so a warm process recomputes nothing.

    Every lookup is single-flight. Under [cache_mutex] each key is cached,
    in flight (claimed by exactly one domain, which is computing it) or
    absent, and {!get} goes memory, then disk, then in flight (wait for the
    claimer), then claim and compute. So within a process each key is
    co-simulated at most once, however many figures and pool domains ask
    for it at once. A compute that raises drops its claim without caching
    anything; a waiter then claims the key and computes it itself.

    Experiments call {!prefetch} with their full workload-by-configuration
    cell list before building tables: the cells are computed concurrently
    on the pool (skipping any key that is cached or in flight by the time
    its task runs), and the sequential table-rendering code then reads them
    back in its original order — rendered tables are byte-identical to a
    sequential run at any [--jobs]. *)

open Scd_cosim
open Scd_uarch

let cache : (string, Driver.result) Hashtbl.t = Hashtbl.create 64
let cache_mutex = Mutex.create ()

(* Keys claimed by a computing domain; guarded by [cache_mutex]. *)
let in_flight : (string, unit) Hashtbl.t = Hashtbl.create 16

(* Broadcast whenever a claim is dropped, with or without a result. *)
let claim_dropped = Condition.create ()

let memory_hit_count = Atomic.make 0

(** Lookups this process has served from the in-memory table. *)
let memory_hits () = Atomic.get memory_hit_count

(* ------------------------------------------------------------------ *)
(* Persistent layer                                                    *)
(* ------------------------------------------------------------------ *)

let store : Store.t option ref = ref None

let set_store s = store := s

let find_memory key =
  Mutex.protect cache_mutex (fun () -> Hashtbl.find_opt cache key)

let insert_memory key r =
  Mutex.protect cache_mutex (fun () -> Hashtbl.replace cache key r)

(* Memory first, then disk; a disk hit is promoted into memory so the
   store's hit/miss counters see each key at most once per process.

   The lookup is a Prof leaf probe whose label depends on the outcome
   (sweep-hit-memory / sweep-hit-disk): under `scdsim prof` the span
   calls-vs-sweep-compute ratio gives the cache hit rate, and each tier's
   latency histogram gives cell-lookup percentiles. A full miss abandons
   the leaf — the compute that follows is measured by its own span. *)
let find_cached key =
  let lf = Scd_obs.Prof.leaf_begin () in
  match find_memory key with
  | Some _ as hit ->
    Atomic.incr memory_hit_count;
    Scd_obs.Prof.leaf_end lf "sweep-hit-memory";
    hit
  | None -> (
    match !store with
    | None -> None
    | Some s -> (
      match Store.load s ~key with
      | Some r ->
        insert_memory key r;
        Scd_obs.Prof.leaf_end lf "sweep-hit-disk";
        Some r
      | None -> None))

let clear () = Mutex.protect cache_mutex (fun () -> Hashtbl.reset cache)

(* ------------------------------------------------------------------ *)
(* Parallel prefetch                                                   *)
(* ------------------------------------------------------------------ *)

let pool : Scd_util.Pool.t option ref = ref None

let set_pool p = pool := p

(* ------------------------------------------------------------------ *)
(* Time-series sampling behind any figure (scdsim exp --sample DIR)    *)
(* ------------------------------------------------------------------ *)

let sample_dir : string option ref = ref None
let sample_interval = ref 10_000

(** When set, every co-simulated cell runs with a {!Driver.Telemetry}
    attached and dumps its interval time series as [DIR/<cell-key>.csv].
    Pool domains write distinct files: each key is computed once. *)
let set_sample_dir ?(interval = 10_000) dir =
  if interval <= 0 then invalid_arg "Sweep.set_sample_dir: interval must be positive";
  sample_dir := dir;
  sample_interval := interval

(* Distinct keys must land in distinct files even though sanitisation is
   lossy, so the filename carries a hash of the raw key (Store.mangle). *)
let sanitize_key = Store.mangle

(* Every cell computation funnels through here so that --sample covers the
   standard sweeps and the custom-config runs alike. The sweep-compute span
   wraps the whole cell (driver phases nest under it); its calls count
   against the hit leaves above for the cache hit rate, and its latency
   histogram is the cell-latency distribution. *)
let run_driver ~key (config : Driver.run_config) ~source =
  Scd_obs.Prof.span "sweep-compute" @@ fun () ->
  match !sample_dir with
  | None -> Driver.run config ~source
  | Some dir ->
    let telemetry = Telemetry.create ~interval:!sample_interval () in
    let r = Driver.run ~telemetry config ~source in
    let path = Filename.concat dir (sanitize_key key ^ ".csv") in
    let oc = open_out path in
    output_string oc (Telemetry.to_csv telemetry);
    close_out oc;
    r

let machine_key (m : Config.t) =
  Printf.sprintf "%s/btb%d/cap%s" m.name m.btb_entries
    (match m.jte_cap with None -> "inf" | Some c -> string_of_int c)

let std_key ~machine ~scale frontend scheme (w : Scd_workloads.Workload.t) =
  Printf.sprintf "%s|%s|%s|%s|%s"
    (Frontend.name (Frontend.get frontend))
    (Scd_core.Scheme.name scheme) (machine_key machine) w.name
    (Scd_workloads.Workload.scale_name scale)

let custom_key ~tag (w : Scd_workloads.Workload.t) scale =
  Printf.sprintf "custom|%s|%s|%s" tag w.name
    (Scd_workloads.Workload.scale_name scale)

(** One (workload, configuration) point of a sweep: a cache key plus the
    closure that computes it. Construction is cheap; nothing runs until
    {!prefetch} (pool fan-out) or a cache miss in {!get}.
    [frontend] is a registry name ("lua", "js", ...) so sweeps are
    data-driven over whatever frontends are registered. *)
type cell = { key : string; compute : unit -> Driver.result }

let cell ?(machine = Config.simulator) ?(scale = Scd_workloads.Workload.Sim)
    frontend scheme w =
  let key = std_key ~machine ~scale frontend scheme w in
  { key;
    compute =
      (fun () ->
        run_driver ~key
          { Driver.default_config with frontend = Frontend.get frontend;
            scheme; machine }
          ~source:(Scd_workloads.Workload.source w scale)) }

(** A run with non-default driver knobs (multi-table, indirect override,
    custom machine tweaks), cached under an explicit tag: the key does not
    see [config], so build each tagged cell once and read it back with
    {!get}. *)
let cell_custom ~tag (config : Driver.run_config) (w : Scd_workloads.Workload.t)
    scale =
  let key = custom_key ~tag w scale in
  { key;
    compute =
      (fun () ->
        run_driver ~key config ~source:(Scd_workloads.Workload.source w scale)) }

(* ------------------------------------------------------------------ *)
(* Single-flight lookups                                               *)
(* ------------------------------------------------------------------ *)

(* [true] when the caller now holds [key]'s claim and must compute it;
   [false] when [key] is in memory or another domain holds the claim. With
   [wait], a held claim is first waited out, so the caller's next lookup
   finds the result — or, if the claimer raised, finds the key free. *)
let claim ~wait key =
  Mutex.protect cache_mutex @@ fun () ->
  if Hashtbl.mem cache key then false
  else if Hashtbl.mem in_flight key then begin
    if wait then
      while Hashtbl.mem in_flight key do
        Condition.wait claim_dropped cache_mutex
      done;
    false
  end
  else begin
    Hashtbl.replace in_flight key ();
    true
  end

(* Runs a claimed cell outside the mutex, persists and caches the result,
   then drops the claim — also when [compute] raises, caching nothing.
   Waiting is deadlock-free because a claim is held only around
   [compute], i.e. [run_driver], and [Driver.run] never re-enters [Sweep]
   or [Scd_util.Pool]: a claimer waits on no one, so every waiter's
   claimer finishes. *)
let compute_claimed c =
  let result = ref None in
  Fun.protect
    ~finally:(fun () ->
      Mutex.protect cache_mutex (fun () ->
          Option.iter (Hashtbl.replace cache c.key) !result;
          Hashtbl.remove in_flight c.key;
          Condition.broadcast claim_dropped))
    (fun () ->
      let r = c.compute () in
      Option.iter (fun s -> Store.save s ~key:c.key r) !store;
      result := Some r;
      r)

(** The cell's result: from memory, else from the store, else from the
    domain already computing it (blocking until it lands), else computed
    here. *)
let rec get c =
  match find_cached c.key with
  | Some r -> r
  | None -> if claim ~wait:true c.key then compute_claimed c else get c

let run ?machine ?scale frontend scheme w =
  get (cell ?machine ?scale frontend scheme w)

(** Compute every not-yet-cached cell on the active pool (deduplicated by
    key) and populate the cache. A no-op without a pool or at [--jobs 1],
    leaving the exact legacy lazily-computed sequential path. Each task
    builds its own pipeline/BTB/VM state inside [Driver.run]; no mutable
    state is shared between cells. The cached-cell filter consults the
    persistent store too, so a warm process fans out nothing; a task whose
    key is cached or in flight by the time it runs returns at once. *)
let prefetch cells =
  match !pool with
  | None -> ()
  | Some p when Scd_util.Pool.jobs p <= 1 -> ()
  | Some p ->
    let seen = Hashtbl.create 16 in
    let todo =
      List.filter
        (fun c ->
          if Hashtbl.mem seen c.key || find_cached c.key <> None then false
          else begin
            Hashtbl.add seen c.key ();
            true
          end)
        cells
    in
    ignore
      (Scd_util.Pool.map p
         (fun c ->
           if claim ~wait:false c.key then
             ignore (compute_claimed c : Driver.result))
         todo
        : unit list)

(** Cycle-count speedup of [r] over [baseline], in percent. *)
let speedup ~baseline r =
  Scd_util.Summary.speedup_percent
    ~baseline:(float_of_int (Driver.cycles baseline))
    ~cycles:(float_of_int (Driver.cycles r))

(** Speedup expressed as a ratio (for geomeans). *)
let speedup_ratio ~baseline r =
  float_of_int (Driver.cycles baseline) /. float_of_int (Driver.cycles r)

let geomean_speedup_percent ratios =
  (Scd_util.Summary.geomean ratios -. 1.0) *. 100.0

let workloads = Scd_workloads.Registry.all

let scale_for ~quick default = if quick then Scd_workloads.Workload.Test else default
