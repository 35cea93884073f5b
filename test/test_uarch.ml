open Scd_uarch
open Scd_isa

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* BTB                                                                 *)
(* ------------------------------------------------------------------ *)

let test_btb_hit_miss () =
  let b = Btb.create ~entries:16 ~ways:2 ~replacement:Lru () in
  check_bool "cold miss" true (Btb.lookup b ~jte:false ~key:0x1000 = None);
  Btb.insert b ~jte:false ~key:0x1000 ~target:0x2000;
  Alcotest.(check (option int)) "hit" (Some 0x2000) (Btb.lookup b ~jte:false ~key:0x1000)

let test_btb_namespaces_disjoint () =
  let b = Btb.create ~entries:16 ~ways:2 ~replacement:Lru () in
  Btb.insert b ~jte:false ~key:0x40 ~target:1;
  Btb.insert b ~jte:true ~key:0x40 ~target:2;
  Alcotest.(check (option int)) "branch entry" (Some 1) (Btb.lookup b ~jte:false ~key:0x40);
  Alcotest.(check (option int)) "jte entry" (Some 2) (Btb.lookup b ~jte:true ~key:0x40)

let test_btb_jte_priority () =
  (* a 1-set 2-way table: JTEs may evict branch entries, not vice versa *)
  let b = Btb.create ~entries:2 ~ways:2 ~replacement:Lru () in
  Btb.insert b ~jte:false ~key:0x10 ~target:1;
  Btb.insert b ~jte:false ~key:0x20 ~target:2;
  Btb.insert b ~jte:true ~key:0x30 ~target:3;
  Btb.insert b ~jte:true ~key:0x40 ~target:4;
  check_int "both JTEs resident" 2 (Btb.jte_population b);
  Btb.insert b ~jte:false ~key:0x50 ~target:5;
  check_int "branch insert cannot evict a JTE" 2 (Btb.jte_population b);
  check_int "blocked insert recorded" 1 (Btb.stats b).branch_insert_blocked_by_jte

let test_btb_jte_cap () =
  let b = Btb.create ~entries:64 ~ways:2 ~replacement:Lru ~jte_cap:4 () in
  for opcode = 0 to 15 do
    Btb.insert b ~jte:true ~key:(opcode lsl 2) ~target:(0x100 + opcode)
  done;
  check_bool "population bounded by cap" true (Btb.jte_population b <= 4)

let test_btb_flush_jtes () =
  let b = Btb.create ~entries:16 ~ways:2 ~replacement:Lru () in
  Btb.insert b ~jte:true ~key:0x8 ~target:1;
  Btb.insert b ~jte:false ~key:0x100 ~target:2;
  Btb.flush_jtes b;
  check_int "no jtes" 0 (Btb.jte_population b);
  Alcotest.(check (option int)) "jte gone" None (Btb.probe b ~jte:true ~key:0x8);
  Alcotest.(check (option int)) "branch survives" (Some 2)
    (Btb.probe b ~jte:false ~key:0x100)

let test_btb_lru_replacement () =
  let b = Btb.create ~entries:2 ~ways:2 ~replacement:Lru () in
  Btb.insert b ~jte:false ~key:0x10 ~target:1;
  Btb.insert b ~jte:false ~key:0x20 ~target:2;
  ignore (Btb.lookup b ~jte:false ~key:0x10); (* refresh first entry *)
  Btb.insert b ~jte:false ~key:0x30 ~target:3; (* evicts 0x20 *)
  check_bool "refreshed survives" true (Btb.probe b ~jte:false ~key:0x10 <> None);
  check_bool "lru victim gone" true (Btb.probe b ~jte:false ~key:0x20 = None)

let test_btb_update_existing () =
  let b = Btb.create ~entries:16 ~ways:2 ~replacement:Round_robin () in
  Btb.insert b ~jte:false ~key:0x10 ~target:1;
  Btb.insert b ~jte:false ~key:0x10 ~target:9;
  Alcotest.(check (option int)) "target updated" (Some 9)
    (Btb.probe b ~jte:false ~key:0x10)

let test_btb_bad_geometry () =
  Alcotest.check_raises "non-multiple"
    (Invalid_argument "Btb.create: entries must be a positive multiple of ways")
    (fun () -> ignore (Btb.create ~entries:10 ~ways:4 ~replacement:Lru ()))

(* Regression for the round-robin fill bug: filling an invalid way must
   advance a pointer sitting on it, so the freshest entry is not the next
   conflict's victim. Pins the exact victim sequence on a 1-set 4-way
   table across a flush/refill cycle. *)
let test_btb_rr_fill_advances_pointer () =
  let b = Btb.create ~entries:4 ~ways:4 ~replacement:Round_robin () in
  let jkey i = i lsl 2 and bkey i = (0x100 + i) lsl 2 in
  (* fill the set: two JTEs (ways 0-1), two branch entries (ways 2-3) *)
  Btb.insert b ~jte:true ~key:(jkey 0) ~target:10;
  Btb.insert b ~jte:true ~key:(jkey 1) ~target:11;
  Btb.insert b ~jte:false ~key:(bkey 2) ~target:12;
  Btb.insert b ~jte:false ~key:(bkey 3) ~target:13;
  (* a context switch invalidates the JTE ways *)
  Btb.flush_jtes b;
  (* refill: each insert lands in an invalid way and must push the pointer
     past it (the buggy version left the pointer parked on way 0) *)
  Btb.insert b ~jte:true ~key:(jkey 4) ~target:14;
  Btb.insert b ~jte:true ~key:(jkey 5) ~target:15;
  (* the set is full again; the next JTE's victim must be the *oldest*
     entry (a branch way), not the JTE installed two inserts ago *)
  Btb.insert b ~jte:true ~key:(jkey 6) ~target:16;
  Alcotest.(check (option int)) "fresh JTE survives the conflict" (Some 14)
    (Btb.probe b ~jte:true ~key:(jkey 4));
  Alcotest.(check (option int)) "second fresh JTE survives too" (Some 15)
    (Btb.probe b ~jte:true ~key:(jkey 5));
  check_bool "a branch way was the victim" true
    (Btb.probe b ~jte:false ~key:(bkey 2) = None
     || Btb.probe b ~jte:false ~key:(bkey 3) = None);
  check_int "victim accounted as a branch eviction" 1
    (Btb.stats b).branch_entries_evicted_by_jte;
  check_int "no JTE eviction on the refill path" 0
    (Btb.stats b).jte_evictions

(* Regression for the eviction double count: a cap-triggered replacement
   bumps jte_cap_replacements only, never jte_evictions. *)
let test_btb_cap_replacement_not_eviction () =
  let b = Btb.create ~entries:4 ~ways:4 ~replacement:Round_robin ~jte_cap:1 () in
  Btb.insert b ~jte:true ~key:(1 lsl 2) ~target:1;
  Btb.insert b ~jte:true ~key:(2 lsl 2) ~target:2;
  check_int "population stays at the cap" 1 (Btb.jte_population b);
  check_int "replacement counted" 1 (Btb.stats b).jte_cap_replacements;
  check_int "replacement is not an eviction" 0 (Btb.stats b).jte_evictions;
  (* uncapped displacement, by contrast, is an eviction *)
  let u = Btb.create ~entries:2 ~ways:2 ~replacement:Round_robin () in
  Btb.insert u ~jte:true ~key:(1 lsl 2) ~target:1;
  Btb.insert u ~jte:true ~key:(2 lsl 2) ~target:2;
  Btb.insert u ~jte:true ~key:(3 lsl 2) ~target:3;
  check_int "displacement counted as eviction" 1 (Btb.stats u).jte_evictions;
  check_int "displacement is not a cap replacement" 0
    (Btb.stats u).jte_cap_replacements

(* Random insert/lookup/flush sequences against the reference model and
   the invariant auditor, across both replacement policies and cap
   settings (the geometries listed in Scd_check.Stress). *)
let prop_btb_matches_reference_model =
  QCheck.Test.make ~name:"real BTB tracks the reference model" ~count:60
    QCheck.(int_bound 0xFFFF)
    (fun seed ->
      match Scd_check.Stress.run ~ops:250 ~seed:(Int64.of_int seed) () with
      | None -> true
      | Some divergence -> QCheck.Test.fail_report divergence)

let prop_btb_auditor_accepts_random_sequences =
  QCheck.Test.make ~name:"auditor holds under random op sequences" ~count:100
    QCheck.(pair (oneofl [ Btb.Round_robin; Btb.Lru ])
              (pair (oneofl [ None; Some 2; Some 5 ])
                 (small_list (pair bool (int_bound 127)))))
    (fun (replacement, (jte_cap, operations)) ->
      let b = Btb.create ~entries:16 ~ways:4 ~replacement ?jte_cap () in
      List.iteri
        (fun i (jte, k) ->
          if i mod 9 = 8 then Btb.flush_jtes b
          else if k land 1 = 0 then Btb.insert b ~jte ~key:(k lsl 2) ~target:k
          else ignore (Btb.lookup b ~jte ~key:(k lsl 2));
          match Scd_check.Audit.run b with
          | () -> ()
          | exception Scd_check.Audit.Violation m -> QCheck.Test.fail_report m)
        operations;
      true)

let prop_btb_population_invariant =
  QCheck.Test.make ~name:"jte_population matches resident JTEs" ~count:200
    QCheck.(small_list (pair bool (int_bound 255)))
    (fun operations ->
      let b = Btb.create ~entries:16 ~ways:4 ~replacement:Lru () in
      List.iter
        (fun (jte, k) -> Btb.insert b ~jte ~key:(k lsl 2) ~target:k)
        operations;
      let resident = ref 0 in
      for k = 0 to 255 do
        if Btb.probe b ~jte:true ~key:(k lsl 2) <> None then incr resident
      done;
      Btb.jte_population b = !resident && Btb.jte_population b <= 16)

(* ------------------------------------------------------------------ *)
(* Direction predictors                                                *)
(* ------------------------------------------------------------------ *)

let train_and_predict kind ~pattern ~rounds =
  let p = Direction.create kind in
  let pc = 0x4000 in
  for _ = 1 to rounds do
    List.iter
      (fun taken ->
        ignore (Direction.predict p ~pc);
        Direction.update p ~pc ~taken)
      pattern
  done;
  p

let test_bimodal_learns_bias () =
  let p = train_and_predict (Bimodal { entries = 64 }) ~pattern:[ true ] ~rounds:10 in
  check_bool "predicts taken" true (Direction.predict p ~pc:0x4000)

let test_gshare_learns_alternation () =
  (* a strict T/N alternation is history-predictable *)
  let p = Direction.create (Gshare { entries = 256; history_bits = 8 }) in
  let pc = 0x4000 in
  let correct = ref 0 in
  for i = 1 to 200 do
    let taken = i mod 2 = 0 in
    if Direction.predict p ~pc = taken && i > 100 then incr correct;
    Direction.update p ~pc ~taken
  done;
  check_bool "near-perfect on alternation" true (!correct >= 95)

let test_local_learns_short_loop () =
  (* pattern TTTN repeating: local history catches it *)
  let p = Direction.create (Local { history_entries = 64; pattern_entries = 1024 }) in
  let pc = 0x4000 in
  let correct = ref 0 in
  for i = 0 to 399 do
    let taken = i mod 4 <> 3 in
    if Direction.predict p ~pc = taken && i > 200 then incr correct;
    Direction.update p ~pc ~taken
  done;
  check_bool "learns the loop" true (!correct >= 180)

let test_tournament_beats_components_weakness () =
  let kind =
    Direction.Tournament
      { global_entries = 512; local_history_entries = 128;
        local_pattern_entries = 512; chooser_entries = 512 }
  in
  let p = Direction.create kind in
  let pc = 0x4000 in
  let correct = ref 0 in
  for i = 0 to 399 do
    let taken = i mod 4 <> 3 in
    if Direction.predict p ~pc = taken && i > 200 then incr correct;
    Direction.update p ~pc ~taken
  done;
  check_bool "tournament adapts" true (!correct >= 170)

let test_static_taken () =
  let p = Direction.create Static_taken in
  check_bool "always taken" true (Direction.predict p ~pc:0);
  Direction.update p ~pc:0 ~taken:false;
  check_bool "still taken" true (Direction.predict p ~pc:0)

(* ------------------------------------------------------------------ *)
(* RAS                                                                 *)
(* ------------------------------------------------------------------ *)

let test_ras_lifo () =
  let r = Ras.create ~depth:4 in
  Ras.push r 1;
  Ras.push r 2;
  Alcotest.(check (option int)) "pop 2" (Some 2) (Ras.pop r);
  Alcotest.(check (option int)) "pop 1" (Some 1) (Ras.pop r);
  Alcotest.(check (option int)) "empty" None (Ras.pop r)

let test_ras_overflow_wraps () =
  let r = Ras.create ~depth:2 in
  Ras.push r 1;
  Ras.push r 2;
  Ras.push r 3; (* overwrites 1 *)
  Alcotest.(check (option int)) "top" (Some 3) (Ras.pop r);
  Alcotest.(check (option int)) "next" (Some 2) (Ras.pop r);
  Alcotest.(check (option int)) "oldest lost" None (Ras.pop r)

(* ------------------------------------------------------------------ *)
(* Cache and TLB                                                       *)
(* ------------------------------------------------------------------ *)

let small_geometry = { Cache.size_bytes = 256; ways = 2; block_bytes = 64; hit_latency = 1 }

let test_cache_hit_after_miss () =
  let c = Cache.create small_geometry in
  Alcotest.(check bool) "miss" true (Cache.access c ~addr:0x100 = `Miss);
  Alcotest.(check bool) "hit same block" true (Cache.access c ~addr:0x13F = `Hit);
  Alcotest.(check bool) "miss next block" true (Cache.access c ~addr:0x140 = `Miss)

let test_cache_lru_eviction () =
  (* 256B / 64B blocks / 2-way = 2 sets; addresses 0, 128, 256 share set 0 *)
  let c = Cache.create small_geometry in
  ignore (Cache.access c ~addr:0);
  ignore (Cache.access c ~addr:128);
  ignore (Cache.access c ~addr:0); (* refresh *)
  ignore (Cache.access c ~addr:256); (* evicts 128 *)
  check_bool "refreshed stays" true (Cache.contains c ~addr:0);
  check_bool "victim gone" false (Cache.contains c ~addr:128)

let test_cache_stats () =
  let c = Cache.create small_geometry in
  ignore (Cache.access c ~addr:0);
  ignore (Cache.access c ~addr:4);
  let s = Cache.stats c in
  check_int "accesses" 2 s.accesses;
  check_int "misses" 1 s.misses;
  Cache.reset_stats c;
  check_int "reset" 0 (Cache.stats c).accesses

let test_cache_bad_geometry () =
  Alcotest.check_raises "block size"
    (Invalid_argument "Cache.create: block size must be a power of two")
    (fun () ->
      ignore (Cache.create { small_geometry with size_bytes = 240; block_bytes = 60; ways = 1 }))

(* The per-set MRU-way short-circuit must change nothing observable: replay
   a conflict-heavy random access stream against a reference model of the
   pre-change cache (plain way scan + LRU victim, no MRU slot) and require
   the same hit/miss answer on every access and the same victim on every
   miss — the evicted block must be gone from the real cache, and at the
   end every reference-resident block must still be present. Addresses are
   drawn from [0, pool). *)
let check_cache_mru_matches_reference_lru geometry ~pool =
  let { Cache.size_bytes; ways; block_bytes; _ } = geometry in
  let sets = size_bytes / block_bytes / ways in
  let set_shift = Scd_util.Bits.log2 sets in
  let block_shift = Scd_util.Bits.log2 block_bytes in
  let c = Cache.create geometry in
  let r_tags = Array.make_matrix sets ways (-1) in
  let r_stamps = Array.make_matrix sets ways 0 in
  let tick = ref 0 in
  let rng = Random.State.make [| 0xCA0E |] in
  let misses = ref 0 in
  for i = 1 to 10_000 do
    (* a small address pool keeps every set under constant conflict, and
       repeats both exercise the MRU slot and defeat it *)
    let addr = Random.State.int rng pool in
    let block = addr lsr block_shift in
    let set = block land (sets - 1) in
    let tag = block lsr set_shift in
    incr tick;
    let way = ref (-1) in
    for w = 0 to ways - 1 do
      if !way < 0 && r_tags.(set).(w) = tag then way := w
    done;
    let expected, evicted =
      if !way >= 0 then begin
        r_stamps.(set).(!way) <- !tick;
        (`Hit, -1)
      end
      else begin
        incr misses;
        let victim = ref (-1) in
        for w = ways - 1 downto 0 do
          if r_tags.(set).(w) = -1 then victim := w
        done;
        if !victim < 0 then begin
          victim := 0;
          for w = 1 to ways - 1 do
            if r_stamps.(set).(w) < r_stamps.(set).(!victim) then victim := w
          done
        end;
        let old = r_tags.(set).(!victim) in
        r_tags.(set).(!victim) <- tag;
        r_stamps.(set).(!victim) <- !tick;
        (`Miss, old)
      end
    in
    if Cache.access c ~addr <> expected then
      Alcotest.failf "access %d (addr 0x%x): hit/miss diverged from the
        reference LRU" i addr;
    if evicted >= 0 then begin
      let victim_addr = ((evicted lsl set_shift) lor set) lsl block_shift in
      if Cache.contains c ~addr:victim_addr then
        Alcotest.failf "access %d (addr 0x%x): evicted a different victim
          than the reference LRU" i addr
    end
  done;
  for set = 0 to sets - 1 do
    for w = 0 to ways - 1 do
      if r_tags.(set).(w) >= 0 then
        check_bool "reference-resident block is resident" true
          (Cache.contains c
             ~addr:(((r_tags.(set).(w) lsl set_shift) lor set) lsl block_shift))
    done
  done;
  let s = Cache.stats c in
  check_int "same accesses" 10_000 s.accesses;
  check_int "same misses" !misses s.misses

let test_cache_mru_matches_reference_lru () =
  check_cache_mru_matches_reference_lru ~pool:4096
    { Cache.size_bytes = 512; ways = 4; block_bytes = 32; hit_latency = 1 };
  (* the pipeline's TLB geometry: one set, ten 4 KiB ways, 16 live pages *)
  check_cache_mru_matches_reference_lru ~pool:(16 * 4096)
    (Cache.tlb_geometry ~entries:10)

let prop_cache_never_exceeds_capacity =
  QCheck.Test.make ~name:"resident blocks bounded by capacity" ~count:100
    QCheck.(small_list (int_bound 0xFFFF))
    (fun addrs ->
      let c = Cache.create small_geometry in
      List.iter (fun a -> ignore (Cache.access c ~addr:a)) addrs;
      let resident = ref 0 in
      for block = 0 to 0xFFFF / 64 do
        if Cache.contains c ~addr:(block * 64) then incr resident
      done;
      !resident <= 4)

let test_cache_tlb_geometry () =
  let t = Cache.create (Cache.tlb_geometry ~entries:2) in
  Alcotest.(check bool) "miss" true (Cache.access t ~addr:0x1000 = `Miss);
  Alcotest.(check bool) "hit same page" true (Cache.access t ~addr:0x1FFF = `Hit);
  ignore (Cache.access t ~addr:0x2000);
  ignore (Cache.access t ~addr:0x1000); (* refresh *)
  ignore (Cache.access t ~addr:0x5000); (* evicts 0x2000 *)
  Alcotest.(check bool) "lru evicted" true (Cache.access t ~addr:0x2000 = `Miss)

(* The pipeline skips a TLB access that repeats the TLB's last page. Its
   TLB misses must still be those of a TLB that sees every access: a
   random stream with runs on one page and jumps among more pages than the
   TLB holds, against two reference TLBs fed every I-block change and
   every data access. *)
let prop_tlb_skip_keeps_misses =
  QCheck.Test.make ~name:"TLB same-page skip keeps every TLB miss" ~count:20
    QCheck.(pair (int_range 1 10) small_nat)
    (fun (entries, seed) ->
      let rng = Random.State.make [| seed |] in
      let config =
        { Config.simulator with itlb_entries = entries; dtlb_entries = entries }
      in
      let p = Pipeline.create config in
      let itlb = Cache.create (Cache.tlb_geometry ~entries) in
      let dtlb = Cache.create (Cache.tlb_geometry ~entries) in
      let imiss = ref 0 and dmiss = ref 0 and last_block = ref (-1) in
      let page () = Random.State.int rng (3 * entries) * 4096 in
      let pc = ref (page ()) and data = ref (page ()) in
      let tape = Event.tape_create () in
      for _ = 1 to 2_000 do
        if Random.State.int rng 8 = 0 then pc := page ()
        else pc := !pc + 4 + (64 * Random.State.int rng 3);
        if Random.State.int rng 4 = 0 then data := page ();
        let addr = !data + (8 * Random.State.int rng 512) in
        let mem = Random.State.bool rng in
        if !pc lsr 6 <> !last_block then begin
          last_block := !pc lsr 6;
          if Cache.access itlb ~addr:!pc = `Miss then incr imiss
        end;
        if mem && Cache.access dtlb ~addr = `Miss then incr dmiss;
        Event.tape_push tape ~pc:!pc
          ~flags:(if mem then Event.tag_mem_read else Event.tag_plain)
          ~arg1:(if mem then addr else 0) ~arg2:(-1)
      done;
      Pipeline.consume_tape p tape;
      let s = Pipeline.stats p in
      s.itlb_misses = !imiss && s.dtlb_misses = !dmiss)

(* ------------------------------------------------------------------ *)
(* Indirect prediction                                                 *)
(* ------------------------------------------------------------------ *)

let test_vbbi_separates_hints () =
  let btb = Btb.create ~entries:256 ~ways:2 ~replacement:Lru () in
  let vbbi = Indirect.create Vbbi btb in
  let pc = 0x4000 in
  Indirect.update vbbi ~pc ~hint:(Some 1) ~target:0x100;
  Indirect.update vbbi ~pc ~hint:(Some 2) ~target:0x200;
  Alcotest.(check (option int)) "hint 1" (Some 0x100)
    (Indirect.predict vbbi ~pc ~hint:(Some 1));
  Alcotest.(check (option int)) "hint 2" (Some 0x200)
    (Indirect.predict vbbi ~pc ~hint:(Some 2))

let test_pc_btb_conflates_targets () =
  let btb = Btb.create ~entries:256 ~ways:2 ~replacement:Lru () in
  let p = Indirect.create Pc_btb btb in
  let pc = 0x4000 in
  Indirect.update p ~pc ~hint:(Some 1) ~target:0x100;
  Indirect.update p ~pc ~hint:(Some 2) ~target:0x200;
  Alcotest.(check (option int)) "last target wins regardless of hint"
    (Some 0x200)
    (Indirect.predict p ~pc ~hint:(Some 1))

let test_ttc_uses_history () =
  (* in a steady loop the path history cycles, so after a training pass the
     tagged target cache starts hitting *)
  let btb = Btb.create ~entries:16 ~ways:2 ~replacement:Lru () in
  let t = Indirect.create (Ttc { entries = 256 }) btb in
  let pc = 0x4000 in
  let hits = ref 0 in
  for _ = 1 to 64 do
    if Indirect.predict t ~pc ~hint:None = Some 0x100 then incr hits;
    Indirect.update t ~pc ~hint:None ~target:0x100
  done;
  check_bool "hits once history repeats" true (!hits > 32)

let test_ittage_monomorphic () =
  let btb = Btb.create ~entries:64 ~ways:2 ~replacement:Lru () in
  let p = Indirect.create (Ittage { table_entries = 256; tables = 4 }) btb in
  let pc = 0x4000 in
  let hits = ref 0 in
  for _ = 1 to 50 do
    if Indirect.predict p ~pc ~hint:None = Some 0x100 then incr hits;
    Indirect.update p ~pc ~hint:None ~target:0x100
  done;
  check_bool "monomorphic target learned" true (!hits >= 45)

let test_ittage_beats_btb_on_alternation () =
  (* a strict two-target alternation at one PC: the PC-indexed BTB always
     predicts the previous target (0% accuracy); history tables learn it *)
  let accuracy scheme =
    let btb = Btb.create ~entries:64 ~ways:2 ~replacement:Lru () in
    let p = Indirect.create scheme btb in
    let pc = 0x4000 in
    let correct = ref 0 in
    for i = 0 to 399 do
      let target = if i land 1 = 0 then 0x100 else 0x200 in
      if i >= 200 && Indirect.predict p ~pc ~hint:None = Some target then
        incr correct;
      Indirect.update p ~pc ~hint:None ~target
    done;
    !correct
  in
  let btb_correct = accuracy Pc_btb in
  let ittage_correct = accuracy (Ittage { table_entries = 512; tables = 4 }) in
  check_bool "BTB fails on alternation" true (btb_correct < 20);
  check_bool "ITTAGE learns the pattern" true (ittage_correct > 150)

(* ------------------------------------------------------------------ *)
(* Pipeline                                                            *)
(* ------------------------------------------------------------------ *)

let plain_events n = List.init n (fun i -> Event.plain (0x1000 + (4 * i)))

let test_pipeline_counts_instructions () =
  let p = Pipeline.create Config.simulator in
  List.iter (Pipeline.consume p) (plain_events 100);
  check_int "instructions" 100 (Pipeline.stats p).instructions;
  check_bool "cycles >= instructions (single issue)" true
    ((Pipeline.stats p).cycles >= 100)

let test_pipeline_dual_issue () =
  (* keep every fetch inside one block so cold I-cache misses do not mask
     the issue-width effect *)
  let same_block n = List.init n (fun _ -> Event.plain 0x1000) in
  let p1 = Pipeline.create Config.simulator in
  List.iter (Pipeline.consume p1) (same_block 1000);
  let p2 = Pipeline.create Config.high_end in
  List.iter (Pipeline.consume p2) (same_block 1000);
  check_bool "dual issue is faster on plain code" true
    ((Pipeline.stats p2).cycles < (Pipeline.stats p1).cycles);
  check_bool "dual issue near half cycles" true
    ((Pipeline.stats p2).cycles <= 700)

let test_pipeline_branch_penalty () =
  let p = Pipeline.create Config.simulator in
  (* an unpredicted taken conditional branch must cost the flush penalty *)
  let before = (Pipeline.stats p).cycles in
  Pipeline.consume p
    (Event.make 0x1000 (Cond_branch { taken = true; target = 0x2000 }));
  let cost = (Pipeline.stats p).cycles - before in
  check_bool "at least issue + penalty" true
    (cost >= 1 + Config.simulator.branch_penalty)

let test_pipeline_branch_learning () =
  let p = Pipeline.create Config.simulator in
  for _ = 1 to 50 do
    Pipeline.consume p (Event.make 0x1000 (Cond_branch { taken = true; target = 0x2000 }))
  done;
  let s = Pipeline.stats p in
  check_bool "mispredicts settle" true (s.cond_mispredicts < 10);
  check_int "all counted" 50 s.cond_branches

let test_pipeline_return_address_stack () =
  let p = Pipeline.create Config.simulator in
  Pipeline.consume p
    (Event.make 0x1000 (Call { target = 0x5000; indirect = false; link = -1 }));
  Pipeline.consume p (Event.make 0x5000 (Return { target = 0x1004 }));
  check_int "no return misprediction" 0 (Pipeline.stats p).return_mispredicts;
  Pipeline.consume p (Event.make 0x5000 (Return { target = 0x9999 }));
  check_int "empty RAS mispredicts" 1 (Pipeline.stats p).return_mispredicts

let test_pipeline_bop_accounting () =
  let p = Pipeline.create Config.simulator in
  (* a .op producer directly followed by bop must stall *)
  Pipeline.consume p (Event.plain ~sets_rop:true 0x1000);
  Pipeline.consume p
    (Event.make 0x1004 (Bop { opcode = 3; hit = true; target = 0x2000 }));
  let s = Pipeline.stats p in
  check_int "bop counted" 1 s.bop_count;
  check_int "bop hit counted" 1 s.bop_hits;
  check_bool "stall bubbles charged" true (s.bop_stall_cycles > 0)

let test_pipeline_no_stall_with_distance () =
  let p = Pipeline.create Config.simulator in
  Pipeline.consume p (Event.plain ~sets_rop:true 0x1000);
  List.iter (Pipeline.consume p) (plain_events 5);
  Pipeline.consume p
    (Event.make 0x2004 (Bop { opcode = 3; hit = false; target = 0x2008 }));
  check_int "no stall at distance" 0 (Pipeline.stats p).bop_stall_cycles

let test_pipeline_icache_per_block () =
  let p = Pipeline.create Config.simulator in
  List.iter (Pipeline.consume p) (plain_events 32); (* 32 instrs = 2 blocks *)
  let s = Pipeline.stats p in
  check_int "one access per fetched block" 2 s.icache_accesses

let test_pipeline_dispatch_attribution () =
  let p = Pipeline.create Config.simulator in
  Pipeline.consume p (Event.plain ~dispatch:true 0x1000);
  Pipeline.consume p (Event.plain 0x1004);
  let s = Pipeline.stats p in
  check_int "dispatch instructions" 1 s.dispatch_instructions;
  check_int "total" 2 s.instructions

(* The allocation-free hot path reuses one scratch record for every
   instruction, so a payload field written by an earlier event could leak
   into a later one whose tag does not overwrite it. Differential check:
   the same random event stream driven (a) through a single reused scratch
   and (b) through a freshly allocated scratch per event must produce
   identical statistics. *)
let gen_event =
  let open QCheck.Gen in
  let pc = map (fun i -> 0x1000 + (4 * i)) (int_bound 511) in
  let target = map (fun i -> 0x2000 + (4 * i)) (int_bound 511) in
  let addr = map (fun i -> 0x8000 + (4 * i)) (int_bound 1023) in
  let opcode = int_bound 63 in
  let kind =
    frequency
      [ (6, return Event.Plain);
        (2, map (fun addr -> Event.Mem_read { addr }) addr);
        (2, map (fun addr -> Event.Mem_write { addr }) addr);
        (2, map2 (fun taken target -> Event.Cond_branch { taken; target }) bool target);
        (1, map (fun target -> Event.Jump { target }) target);
        (1,
         map2 (fun target hint -> Event.Ind_jump { target; hint }) target
           (opt opcode));
        (1,
         map2
           (fun target indirect -> Event.Call { target; indirect; link = -1 })
           target bool);
        (1, map (fun target -> Event.Return { target }) target);
        (1,
         map3 (fun opcode hit target -> Event.Bop { opcode; hit; target }) opcode
           bool target);
        (1, map2 (fun opcode target -> Event.Jru { opcode; target }) (opt opcode) target);
        (1, return Event.Jte_flush) ]
  in
  map3
    (fun pc kind (dispatch, sets_rop) -> Event.make ~dispatch ~sets_rop pc kind)
    pc kind (pair bool bool)

let prop_scratch_reuse_leaks_nothing =
  QCheck.Test.make ~name:"reused scratch matches per-event fresh scratch"
    ~count:100
    (QCheck.make QCheck.Gen.(list_size (int_bound 300) gen_event))
    (fun events ->
      let reused_pipe = Pipeline.create Config.simulator in
      let fresh_pipe = Pipeline.create Config.simulator in
      let reused = Event.scratch_create () in
      List.iter
        (fun e ->
          Event.load_scratch reused e;
          Pipeline.consume_scratch reused_pipe reused;
          let fresh = Event.scratch_create () in
          Event.load_scratch fresh e;
          Pipeline.consume_scratch fresh_pipe fresh)
        events;
      Stats.to_assoc (Pipeline.stats reused_pipe)
      = Stats.to_assoc (Pipeline.stats fresh_pipe))

(* Aggregate run consumption against its reference. One [tag_plain_run]
   cell must account exactly like the same instructions delivered as one
   [tag_plain] cell each — consumed whole (the closed form) or split at
   random retire quotas (the context-switch walk). The run starts from a
   drawn issue state: a prefix leaves [pair_open] / [group_has_mem] set as
   asked (on a single-issue core [pair_open] is always false), and a
   mem/plain suffix after the run exposes the issue state the run left
   behind through its cycle count. *)
type run_case = {
  machine : Config.t;
  pair_open : bool;
  group_has_mem : bool;
  run_pc : int;
  count : int;
  stride : int;
  dispatch : bool;
  quotas : int list;
}

let gen_run_case =
  let open QCheck.Gen in
  let* machine = oneofl [ Config.simulator; Config.high_end ] in
  let* pair_open = bool and* group_has_mem = bool and* dispatch = bool in
  let* run_pc = map (fun i -> 0x1000 + i) (int_bound 4_095) in
  let* count = oneof [ int_range 1 8; int_range 9 300 ] in
  let* stride = oneof [ oneofl [ 1; 4; 12 ]; int_range 1 64 ] in
  let+ quotas = list_size (int_range 1 6) (int_range 1 (count + 2)) in
  { machine; pair_open; group_has_mem; run_pc; count; stride; dispatch;
    quotas }

let print_run_case c =
  Printf.sprintf
    "%s pair_open=%b group_has_mem=%b pc=%#x count=%d stride=%d \
     dispatch=%b quotas=[%s]"
    c.machine.name c.pair_open c.group_has_mem c.run_pc c.count c.stride
    c.dispatch
    (String.concat ";" (List.map string_of_int c.quotas))

(* Prefix cells: a mem opens a group with a memory op in it, a plain one
   without; a following control instruction pairs into that group and
   then closes it. *)
let push_prefix tape c =
  Event.tape_push tape ~pc:0x400
    ~flags:(if c.group_has_mem then Event.tag_mem_read else Event.tag_plain)
    ~arg1:0x8000 ~arg2:(-1);
  if not c.pair_open then
    Event.tape_push tape ~pc:0x404 ~flags:Event.tag_jump ~arg1:0x1000
      ~arg2:(-1)

let push_suffix tape =
  List.iteri
    (fun k tag ->
      Event.tape_push tape ~pc:(0x3000 + (4 * k)) ~flags:tag
        ~arg1:(0x9000 + (64 * k)) ~arg2:(-1))
    Event.[ tag_mem_read; tag_mem_write; tag_plain; tag_mem_read; tag_plain;
            tag_plain; tag_mem_write ]

let run_tape c ~as_run =
  let tape = Event.tape_create () in
  push_prefix tape c;
  (if as_run then
     Event.tape_push_run tape ~pc:c.run_pc ~dispatch:c.dispatch ~count:c.count
       ~stride:c.stride
   else
     for k = 0 to c.count - 1 do
       Event.tape_push tape ~pc:(c.run_pc + (k * c.stride))
         ~flags:
           (Event.tag_plain lor if c.dispatch then Event.flag_dispatch else 0)
         ~arg1:0 ~arg2:(-1)
     done);
  push_suffix tape;
  tape

let prop_plain_run_matches_per_instruction =
  QCheck.Test.make
    ~name:"plain runs, whole and quota-split, match per-instruction cells"
    ~count:300 (QCheck.make ~print:print_run_case gen_run_case) (fun c ->
      let stats_of p = Stats.to_assoc (Pipeline.stats p) in
      let reference = Pipeline.create c.machine in
      Pipeline.consume_tape reference (run_tape c ~as_run:false);
      let whole = Pipeline.create c.machine in
      Pipeline.consume_tape whole (run_tape c ~as_run:true);
      (* quota walk: cycle through the drawn quotas until the tape drains;
         every stop short of the end lands exactly on its quota *)
      let split = Pipeline.create c.machine in
      let tape = run_tape c ~as_run:true in
      let words = Event.tape_extent tape in
      let exact = ref true in
      let rec walk from = function
        | [] -> walk from c.quotas
        | quota :: rest ->
          let before = (Pipeline.stats split).instructions in
          let next = Pipeline.consume_tape_quota split tape ~from ~quota in
          let retired = (Pipeline.stats split).instructions - before in
          if next < words then begin
            if retired <> quota then exact := false;
            walk next rest
          end
          else if retired > quota then exact := false
      in
      walk 0 c.quotas;
      !exact
      && stats_of whole = stats_of reference
      && stats_of split = stats_of reference)

(* ------------------------------------------------------------------ *)
(* Config                                                               *)
(* ------------------------------------------------------------------ *)

let test_config_with_btb_entries () =
  let c = Config.with_btb_entries Config.simulator 64 in
  check_int "entries" 64 c.btb_entries;
  check_int "ways preserved" 2 c.btb_ways;
  let fa = Config.with_btb_entries Config.fpga 32 in
  check_int "fully associative stays fully associative" 32 fa.btb_ways

let test_config_table2_parameters () =
  check_int "sim BTB" 256 Config.simulator.btb_entries;
  check_int "sim RAS" 8 Config.simulator.ras_depth;
  check_int "fpga BTB" 62 Config.fpga.btb_entries;
  check_int "fpga RAS" 2 Config.fpga.ras_depth;
  check_int "sim icache" (16 * 1024) Config.simulator.icache.size_bytes;
  check_int "sim dcache" (32 * 1024) Config.simulator.dcache.size_bytes;
  check_int "high-end issue" 2 Config.high_end.issue_width

let () =
  Alcotest.run "scd_uarch"
    [
      ( "btb",
        [
          Alcotest.test_case "hit/miss" `Quick test_btb_hit_miss;
          Alcotest.test_case "namespaces" `Quick test_btb_namespaces_disjoint;
          Alcotest.test_case "jte priority" `Quick test_btb_jte_priority;
          Alcotest.test_case "jte cap" `Quick test_btb_jte_cap;
          Alcotest.test_case "flush" `Quick test_btb_flush_jtes;
          Alcotest.test_case "lru" `Quick test_btb_lru_replacement;
          Alcotest.test_case "update existing" `Quick test_btb_update_existing;
          Alcotest.test_case "bad geometry" `Quick test_btb_bad_geometry;
          Alcotest.test_case "rr fill advances pointer" `Quick
            test_btb_rr_fill_advances_pointer;
          Alcotest.test_case "cap replacement is not eviction" `Quick
            test_btb_cap_replacement_not_eviction;
          QCheck_alcotest.to_alcotest prop_btb_matches_reference_model;
          QCheck_alcotest.to_alcotest prop_btb_auditor_accepts_random_sequences;
          QCheck_alcotest.to_alcotest prop_btb_population_invariant;
        ] );
      ( "direction",
        [
          Alcotest.test_case "bimodal" `Quick test_bimodal_learns_bias;
          Alcotest.test_case "gshare" `Quick test_gshare_learns_alternation;
          Alcotest.test_case "local" `Quick test_local_learns_short_loop;
          Alcotest.test_case "tournament" `Quick test_tournament_beats_components_weakness;
          Alcotest.test_case "static" `Quick test_static_taken;
        ] );
      ( "ras",
        [
          Alcotest.test_case "lifo" `Quick test_ras_lifo;
          Alcotest.test_case "overflow" `Quick test_ras_overflow_wraps;
        ] );
      ( "cache",
        [
          Alcotest.test_case "hit after miss" `Quick test_cache_hit_after_miss;
          Alcotest.test_case "lru" `Quick test_cache_lru_eviction;
          Alcotest.test_case "stats" `Quick test_cache_stats;
          Alcotest.test_case "bad geometry" `Quick test_cache_bad_geometry;
          Alcotest.test_case "mru way matches reference lru" `Quick
            test_cache_mru_matches_reference_lru;
          QCheck_alcotest.to_alcotest prop_cache_never_exceeds_capacity;
          Alcotest.test_case "tlb" `Quick test_cache_tlb_geometry;
        ] );
      ( "indirect",
        [
          Alcotest.test_case "vbbi hints" `Quick test_vbbi_separates_hints;
          Alcotest.test_case "pc-btb conflates" `Quick test_pc_btb_conflates_targets;
          Alcotest.test_case "ttc" `Quick test_ttc_uses_history;
          Alcotest.test_case "ittage monomorphic" `Quick test_ittage_monomorphic;
          Alcotest.test_case "ittage vs btb" `Quick test_ittage_beats_btb_on_alternation;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "instruction count" `Quick test_pipeline_counts_instructions;
          Alcotest.test_case "dual issue" `Quick test_pipeline_dual_issue;
          Alcotest.test_case "branch penalty" `Quick test_pipeline_branch_penalty;
          Alcotest.test_case "branch learning" `Quick test_pipeline_branch_learning;
          Alcotest.test_case "ras" `Quick test_pipeline_return_address_stack;
          Alcotest.test_case "bop accounting" `Quick test_pipeline_bop_accounting;
          Alcotest.test_case "bop distance" `Quick test_pipeline_no_stall_with_distance;
          Alcotest.test_case "icache per block" `Quick test_pipeline_icache_per_block;
          Alcotest.test_case "dispatch attribution" `Quick test_pipeline_dispatch_attribution;
          QCheck_alcotest.to_alcotest prop_scratch_reuse_leaks_nothing;
          QCheck_alcotest.to_alcotest prop_plain_run_matches_per_instruction;
          QCheck_alcotest.to_alcotest prop_tlb_skip_keeps_misses;
        ] );
      ( "config",
        [
          Alcotest.test_case "with_btb_entries" `Quick test_config_with_btb_entries;
          Alcotest.test_case "table II parameters" `Quick test_config_table2_parameters;
        ] );
    ]
