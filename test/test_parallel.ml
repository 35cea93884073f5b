(* Domain-pool unit tests plus the parallel-determinism guarantee: pooled
   experiment runs must render byte-identical tables to sequential runs. *)

module Pool = Scd_util.Pool
module Sweep = Scd_experiments.Sweep

(* ------------------------------------------------------------------ *)
(* Pool unit tests                                                     *)
(* ------------------------------------------------------------------ *)

let test_map_preserves_order () =
  let items = List.init 100 Fun.id in
  let got =
    Pool.with_pool ~jobs:4 (fun p -> Pool.map p (fun i -> i * i) items)
  in
  Alcotest.(check (list int))
    "results in submission order"
    (List.map (fun i -> i * i) items)
    got

let test_jobs_one_is_sequential () =
  let order = ref [] in
  let got =
    Pool.with_pool ~jobs:1 (fun p ->
        Pool.map p
          (fun i ->
            order := i :: !order;
            i + 1)
          [ 1; 2; 3 ])
  in
  Alcotest.(check (list int)) "results" [ 2; 3; 4 ] got;
  (* jobs=1 executes in place, in order, on the calling domain *)
  Alcotest.(check (list int)) "execution order" [ 1; 2; 3 ] (List.rev !order)

exception Boom of int

let test_exception_propagates () =
  let raised =
    try
      Pool.with_pool ~jobs:4 (fun p ->
          ignore
            (Pool.map p
               (fun i -> if i >= 3 then raise (Boom i) else i)
               (List.init 8 Fun.id)
              : int list);
          None)
    with Boom i -> Some i
  in
  (* the first failing task by submission order wins *)
  Alcotest.(check (option int)) "first exception" (Some 3) raised

let test_pool_reuse () =
  Pool.with_pool ~jobs:3 (fun p ->
      let a = Pool.map p (fun i -> 2 * i) [ 1; 2; 3 ] in
      let b = Pool.map p String.uppercase_ascii [ "a"; "b" ] in
      let c = Pool.run p [] in
      Alcotest.(check (list int)) "first batch" [ 2; 4; 6 ] a;
      Alcotest.(check (list string)) "second batch" [ "A"; "B" ] b;
      Alcotest.(check (list unit)) "empty batch" [] c)

let test_nested_run () =
  (* tasks that themselves fan out on the same pool must not deadlock:
     the caller helps drain the queue while waiting (this is exactly what
     experiments do — each is a pool task whose sweep prefetch submits
     more pool tasks) *)
  let got =
    Pool.with_pool ~jobs:2 (fun p ->
        Pool.map p
          (fun i ->
            List.fold_left ( + ) 0
              (Pool.map p (fun j -> (10 * i) + j) [ 1; 2; 3 ]))
          [ 1; 2; 3; 4 ])
  in
  Alcotest.(check (list int)) "nested totals" [ 36; 66; 96; 126 ] got

let test_default_jobs_positive () =
  Alcotest.(check bool) "at least one" true (Pool.default_jobs () >= 1)

(* ------------------------------------------------------------------ *)
(* Handler variants: first-use registration across domains             *)
(* ------------------------------------------------------------------ *)

(* Two pool domains co-simulate the same cells of one (spec, scheme)
   against its cold handler-variant table, starting together, so they
   miss on the same variants at about the same time. Their results must
   equal a --jobs 1 pass, and each variant must have been registered
   once: one template id per variant, and no other registration. *)
let test_variant_first_use () =
  let module T = Scd_codegen.Template in
  let (module F : Scd_cosim.Frontend.S) = Scd_cosim.Frontend.get "lua" in
  let scheme = Scd_core.Scheme.Vbbi in
  let spec =
    F.spec { Scd_cosim.Frontend.superinstructions = false;
             bytecode_replication = false }
  in
  let ts = Scd_cosim.Driver.templates spec scheme in
  Alcotest.(check int)
    "the variant table starts cold" 0
    (List.length (T.registered_variants ts.T.variants));
  let sources =
    List.map
      (fun w -> Scd_workloads.Workload.source w Scd_workloads.Workload.Test)
      (List.filteri (fun i _ -> i < 4) Scd_workloads.Registry.all)
  in
  let run_all () =
    List.map
      (fun source ->
        Scd_cosim.Result.to_string
          (Scd_cosim.Driver.run
             { Scd_cosim.Driver.default_config with scheme } ~source))
      sources
  in
  let registered0 = Scd_isa.Stamp.registered () in
  let arrived = Atomic.make 0 in
  let start_together () =
    Atomic.incr arrived;
    let t0 = Unix.gettimeofday () in
    while Atomic.get arrived < 2 && Unix.gettimeofday () -. t0 < 1.0 do
      Domain.cpu_relax ()
    done
  in
  let pooled =
    Pool.with_pool ~jobs:2 (fun p ->
        Pool.map p (fun () -> start_together (); run_all ()) [ (); () ])
  in
  let variants = T.registered_variants ts.T.variants in
  let ids =
    List.sort_uniq Int.compare
      (List.map (fun (_, _, (st : Scd_isa.Stamp.t)) -> st.id) variants)
  in
  Alcotest.(check bool) "the runs registered variants" true (variants <> []);
  Alcotest.(check int)
    "one template id per variant" (List.length variants) (List.length ids);
  Alcotest.(check int)
    "no registration beyond the variants" (List.length variants)
    (Scd_isa.Stamp.registered () - registered0);
  let sequential = Pool.with_pool ~jobs:1 (fun _ -> run_all ()) in
  Alcotest.(check (list (list string)))
    "both domains' results = jobs 1 results" [ sequential; sequential ] pooled

(* ------------------------------------------------------------------ *)
(* Determinism: pooled experiments render byte-identical tables        *)
(* ------------------------------------------------------------------ *)

let find_experiment id =
  match Scd_experiments.Registry.find id with
  | Some e -> e
  | None -> Alcotest.failf "experiment %s not registered" id

(* Each rendering starts from an empty sweep memo table, and must
   co-simulate every cell it reads exactly once. *)
let render ~jobs experiments =
  Sweep.clear ();
  let runs0 = Scd_cosim.Driver.runs () in
  let bodies =
    Pool.with_pool ~jobs (fun pool ->
        List.map
          (fun (r : Scd_experiments.Runner.rendered) -> r.body)
          (Scd_experiments.Runner.run_all ~pool ~quick:true ~csv:false
             experiments))
  in
  Alcotest.(check int)
    (Printf.sprintf "one co-simulation per distinct cell at jobs %d" jobs)
    (Mutex.protect Sweep.cache_mutex (fun () -> Hashtbl.length Sweep.cache))
    (Scd_cosim.Driver.runs () - runs0);
  bodies

let test_deterministic id () =
  let e = find_experiment id in
  let sequential = List.hd (render ~jobs:1 [ e ]) in
  (* two concurrent renderings of one experiment ask for every cell twice *)
  let pooled = render ~jobs:4 [ e; e ] in
  Sweep.clear ();
  Alcotest.(check bool)
    "rendering is non-empty" true
    (String.length sequential > 0);
  Alcotest.(check (list string))
    "pooled output byte-identical" [ sequential; sequential ] pooled

(* ------------------------------------------------------------------ *)
(* Single flight: each sweep key is computed once across pool domains  *)
(* ------------------------------------------------------------------ *)

let test_cells ws =
  List.concat_map
    (fun w ->
      List.map
        (fun scheme ->
          Sweep.cell ~scale:Scd_workloads.Workload.Test "lua" scheme w)
        Scd_core.Scheme.[ Baseline; Scd ])
    ws

(* Two pool tasks that each prefetch and then read their own list, as two
   experiments do; returns the results as codec strings and the number of
   co-simulations run. *)
let prefetch_and_read ~jobs lists =
  Sweep.clear ();
  let runs0 = Scd_cosim.Driver.runs () in
  let results =
    Pool.with_pool ~jobs (fun pool ->
        Sweep.set_pool (Some pool);
        Fun.protect ~finally:(fun () -> Sweep.set_pool None) @@ fun () ->
        Pool.map pool
          (fun cells ->
            Sweep.prefetch cells;
            List.map
              (fun c -> Scd_cosim.Result.to_string (Sweep.get c))
              cells)
          lists)
  in
  (results, Scd_cosim.Driver.runs () - runs0)

let test_overlapping_prefetch () =
  let ws = List.filteri (fun i _ -> i < 6) Scd_workloads.Registry.all in
  let lists =
    [ test_cells (List.filteri (fun i _ -> i < 4) ws);
      test_cells (List.filteri (fun i _ -> i >= 2) ws) ]
  in
  let distinct =
    List.length
      (List.sort_uniq String.compare
         (List.map (fun (c : Sweep.cell) -> c.key) (List.concat lists)))
  in
  let sequential, _ = prefetch_and_read ~jobs:1 lists in
  List.iter
    (fun jobs ->
      let pooled, runs = prefetch_and_read ~jobs lists in
      Alcotest.(check int)
        (Printf.sprintf "one co-simulation per distinct key at jobs %d" jobs)
        distinct runs;
      Alcotest.(check (list (list string)))
        (Printf.sprintf "jobs %d results = jobs 1 results" jobs)
        sequential pooled)
    [ 2; 4 ];
  Sweep.clear ()

exception Cell_failed

let test_raising_cell () =
  Sweep.clear ();
  let calls = Atomic.make 0 in
  let failing =
    { Sweep.key = "test|raising-cell";
      compute =
        (fun () ->
          Atomic.incr calls;
          (* long enough for the other domain to find the key in flight *)
          Unix.sleepf 0.05;
          raise Cell_failed) }
  in
  let raised =
    Pool.with_pool ~jobs:2 (fun p ->
        match Pool.map p Sweep.get [ failing; failing ] with
        | _ -> false
        | exception Cell_failed -> true)
  in
  Alcotest.(check bool) "the exception comes out of Pool.map" true raised;
  (* a reader that waited on the failed claim retries and computes itself *)
  Alcotest.(check int) "each reader computed once" 2 (Atomic.get calls);
  Alcotest.(check bool)
    "a failed key is not cached" false
    (Mutex.protect Sweep.cache_mutex (fun () ->
         Hashtbl.mem Sweep.cache failing.key));
  (* the claim was released: a working compute for the key now lands *)
  let r =
    Sweep.get
      (Sweep.cell ~scale:Scd_workloads.Workload.Test "lua"
         Scd_core.Scheme.Baseline (List.hd Scd_workloads.Registry.all))
  in
  Alcotest.(check bool)
    "the key computes once released" true
    (Sweep.get { failing with compute = (fun () -> r) } == r);
  Sweep.clear ()

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map preserves order" `Quick
            test_map_preserves_order;
          Alcotest.test_case "jobs=1 runs sequentially in place" `Quick
            test_jobs_one_is_sequential;
          Alcotest.test_case "first exception propagates" `Quick
            test_exception_propagates;
          Alcotest.test_case "pool survives reuse" `Quick test_pool_reuse;
          Alcotest.test_case "nested fan-out does not deadlock" `Quick
            test_nested_run;
          Alcotest.test_case "default_jobs is positive" `Quick
            test_default_jobs_positive;
        ] );
      ( "template variants",
        [
          Alcotest.test_case "first-use registration across domains" `Quick
            test_variant_first_use;
        ] );
      ( "single flight",
        [
          Alcotest.test_case "overlapping prefetches compute each key once"
            `Quick test_overlapping_prefetch;
          Alcotest.test_case "a raising cell releases its claim" `Quick
            test_raising_cell;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "fig7 pooled = sequential" `Slow
            (test_deterministic "fig7");
          Alcotest.test_case "tab4 pooled = sequential" `Slow
            (test_deterministic "tab4");
        ] );
    ]
