open Scd_cosim
open Scd_core

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let small_script =
  {|
    function fib(n)
      if n < 2 then return n end
      return fib(n - 1) + fib(n - 2)
    end
    local t = {}
    for i = 1, 20 do t[i] = fib(10) + i end
    local s = 0
    for i = 1, 20 do s = s + t[i] end
    print(s)
  |}

let run ?(vm = "lua") ?(machine = Scd_uarch.Config.simulator)
    ?context_switch_interval scheme =
  Driver.run
    { Driver.default_config with frontend = Frontend.get vm; scheme; machine;
      context_switch_interval }
    ~source:small_script

(* ------------------------------------------------------------------ *)
(* Semantic invariants                                                 *)
(* ------------------------------------------------------------------ *)

let test_output_independent_of_scheme () =
  let reference = (run Scheme.Baseline).output in
  List.iter
    (fun scheme ->
      List.iter
        (fun vm ->
          Alcotest.(check string)
            "script output never depends on the dispatch scheme" reference
            (run ~vm scheme).output)
        [ "lua"; "js" ])
    Scheme.all

let test_bytecode_count_independent_of_scheme () =
  let reference = (run Scheme.Baseline).bytecodes in
  List.iter
    (fun scheme -> check_int "same bytecodes" reference (run scheme).bytecodes)
    Scheme.all

let prop_generated_programs_scheme_independent =
  QCheck.Test.make ~name:"random programs: co-simulation preserves semantics"
    ~count:12 Gen_program.program (fun source ->
      match
        List.map
          (fun scheme ->
            (Driver.run { Driver.default_config with scheme } ~source).output)
          Scheme.all
      with
      | reference :: rest -> List.for_all (String.equal reference) rest
      | [] -> false)

(* ------------------------------------------------------------------ *)
(* The paper's headline effects                                        *)
(* ------------------------------------------------------------------ *)

let test_scd_reduces_instructions () =
  let baseline = run Scheme.Baseline and scd = run Scheme.Scd in
  check_bool "fewer dynamic instructions" true
    (Driver.instructions scd < Driver.instructions baseline);
  let reduction =
    1.0
    -. (float_of_int (Driver.instructions scd)
        /. float_of_int (Driver.instructions baseline))
  in
  check_bool "reduction in the paper's 5-20% band" true
    (reduction > 0.05 && reduction < 0.20)

let test_scd_speeds_up () =
  let baseline = run Scheme.Baseline and scd = run Scheme.Scd in
  check_bool "fewer cycles" true (Driver.cycles scd < Driver.cycles baseline)

let test_vbbi_same_instructions_fewer_misses () =
  let baseline = run Scheme.Baseline and vbbi = run Scheme.Vbbi in
  check_int "identical instruction stream"
    (Driver.instructions baseline) (Driver.instructions vbbi);
  check_bool "fewer mispredictions" true
    (Scd_uarch.Stats.total_mispredicts vbbi.stats
     < Scd_uarch.Stats.total_mispredicts baseline.stats)

let test_jump_threading_trades_code_size () =
  let baseline = run Scheme.Jump_threading in
  let plain = run Scheme.Baseline in
  check_bool "fewer instructions than baseline" true
    (Driver.instructions baseline < Driver.instructions plain);
  check_bool "larger code footprint" true (baseline.code_bytes > plain.code_bytes)

let test_scd_bop_hit_rate_high_on_lua () =
  let scd = run Scheme.Scd in
  check_bool "single dispatch site hits nearly always" true
    (Scd_uarch.Stats.bop_hit_rate scd.stats > 0.95)

let test_js_bop_thrashes_across_sites () =
  (* the stack VM's three fetch sites share one Rbop-pc: hit rate drops *)
  let lua = run ~vm:"lua" Scheme.Scd in
  let js = run ~vm:"js" Scheme.Scd in
  check_bool "js hit rate below lua" true
    (Scd_uarch.Stats.bop_hit_rate js.stats
     < Scd_uarch.Stats.bop_hit_rate lua.stats)

let test_dispatch_fraction_band () =
  let r = run Scheme.Baseline in
  let f = Scd_uarch.Stats.dispatch_fraction r.stats in
  check_bool "paper's >25% band (Figure 3)" true (f > 0.2 && f < 0.45)

let test_scd_eliminates_dispatch_mispredictions () =
  let baseline = run Scheme.Baseline and scd = run Scheme.Scd in
  check_bool "dispatch MPKI collapses" true
    (Scd_uarch.Stats.dispatch_mpki scd.stats
     < 0.2 *. Scd_uarch.Stats.dispatch_mpki baseline.stats)

(* ------------------------------------------------------------------ *)
(* Engine / BTB interactions                                           *)
(* ------------------------------------------------------------------ *)

let test_jte_cap_respected_in_cosim () =
  let machine =
    Scd_uarch.Config.with_jte_cap
      (Scd_uarch.Config.with_btb_entries Scd_uarch.Config.simulator 64)
      (Some 8)
  in
  let r = run ~machine Scheme.Scd in
  check_bool "engine stats present" true (r.engine <> None);
  check_bool "no cap overflow" true (r.btb.jte_cap_rejects >= 0)

let test_context_switch_flushes () =
  let with_cs = run ~context_switch_interval:50_000 Scheme.Scd in
  let without = run Scheme.Scd in
  let hits r =
    match r.Driver.engine with
    | Some (e : Engine.stats) -> e.bop_hits
    | None -> 0
  in
  let flushes r =
    match r.Driver.engine with
    | Some (e : Engine.stats) -> e.context_switch_flushes
    | None -> 0
  in
  check_bool "context switches happened" true (flushes with_cs > 0);
  check_bool "flushing costs fast-path hits" true (hits with_cs < hits without)

let test_smaller_btb_hurts_scd_less_than_nothing () =
  (* even a 64-entry BTB keeps SCD ahead of baseline (Figure 11 claim) *)
  let machine = Scd_uarch.Config.with_btb_entries Scd_uarch.Config.simulator 64 in
  let baseline = run ~machine Scheme.Baseline in
  let scd = run ~machine Scheme.Scd in
  check_bool "SCD still wins at 64 entries" true
    (Driver.cycles scd < Driver.cycles baseline)

let test_fpga_config_runs () =
  let r = run ~machine:Scd_uarch.Config.fpga Scheme.Scd in
  check_bool "produces cycles" true (Driver.cycles r > 0)

let test_high_end_dual_issue_faster () =
  let sim = run Scheme.Baseline in
  let hi = run ~machine:Scd_uarch.Config.high_end Scheme.Baseline in
  check_bool "dual issue lowers CPI" true
    (Scd_uarch.Stats.cpi hi.stats < Scd_uarch.Stats.cpi sim.stats)

(* ------------------------------------------------------------------ *)
(* Extensions: multi-table, bop policy, indirect override              *)
(* ------------------------------------------------------------------ *)

let test_multi_table_recovers_js_hit_rate () =
  let single = run ~vm:"js" Scheme.Scd in
  let multi =
    Driver.run
      { Driver.default_config with frontend = Frontend.get "js";
        scheme = Scheme.Scd;
        multi_table = true }
      ~source:small_script
  in
  check_bool "multi-table raises the bop hit rate" true
    (Scd_uarch.Stats.bop_hit_rate multi.stats
     > Scd_uarch.Stats.bop_hit_rate single.stats +. 0.05);
  check_bool "and speeds up" true (Driver.cycles multi < Driver.cycles single);
  Alcotest.(check string) "same output" single.output multi.output

let test_multi_table_noop_on_lua () =
  (* the register VM has one dispatch site: multi-table changes nothing *)
  let single = run Scheme.Scd in
  let multi =
    Driver.run
      { Driver.default_config with scheme = Scheme.Scd; multi_table = true }
      ~source:small_script
  in
  check_int "identical instruction count"
    (Driver.instructions single) (Driver.instructions multi);
  check_int "identical cycles" (Driver.cycles single) (Driver.cycles multi)

let test_fall_through_policy () =
  (* with a deep rop_gap the stall policy pays bubbles while the
     fall-through policy pays slow-path instructions *)
  let machine gap policy =
    { Scd_uarch.Config.simulator with rop_gap = gap; bop_policy = policy }
  in
  let stall = run ~machine:(machine 12 `Stall) Scheme.Scd in
  let fall = run ~machine:(machine 12 `Fall_through) Scheme.Scd in
  check_bool "stall pays bubbles" true (stall.stats.bop_stall_cycles > 0);
  check_int "fall-through pays no bubbles" 0 fall.stats.bop_stall_cycles;
  check_bool "fall-through executes more instructions" true
    (Driver.instructions fall > Driver.instructions stall);
  check_int "fall-through never hits" 0 fall.stats.bop_hits;
  Alcotest.(check string) "same output" stall.output fall.output

let test_superinstructions_in_cosim () =
  let plain = run Scheme.Scd in
  let fused =
    Driver.run
      { Driver.default_config with scheme = Scheme.Scd; superinstructions = true }
      ~source:small_script
  in
  Alcotest.(check string) "same output" plain.output fused.output;
  check_bool "fewer bytecodes dispatched" true (fused.bytecodes < plain.bytecodes);
  check_bool "fewer cycles" true (Driver.cycles fused < Driver.cycles plain)

let test_replication_in_cosim () =
  let plain = run Scheme.Scd in
  let repl =
    Driver.run
      { Driver.default_config with scheme = Scheme.Scd;
        bytecode_replication = true }
      ~source:small_script
  in
  Alcotest.(check string) "same output" plain.output repl.output;
  check_int "same bytecode count" plain.bytecodes repl.bytecodes;
  (* replicas consume extra jump-table entries *)
  let jtes r = match r.Driver.engine with Some e -> e.Engine.jru_inserts | None -> 0 in
  check_bool "more JTE installs" true (jtes repl > jtes plain)

let test_indirect_override () =
  let ittage =
    Driver.run
      { Driver.default_config with
        scheme = Scheme.Baseline;
        indirect_override =
          Some (Scd_uarch.Indirect.Ittage { table_entries = 256; tables = 4 }) }
      ~source:small_script
  in
  let baseline = run Scheme.Baseline in
  check_int "same instruction stream"
    (Driver.instructions baseline) (Driver.instructions ittage);
  check_bool "better indirect prediction" true
    (ittage.stats.indirect_mispredicts < baseline.stats.indirect_mispredicts)

(* ------------------------------------------------------------------ *)
(* Stats consistency                                                   *)
(* ------------------------------------------------------------------ *)

let test_stats_consistency () =
  let r = run Scheme.Scd in
  let s = r.stats in
  check_bool "cycles >= instructions" true (s.cycles >= s.instructions);
  check_bool "dispatch <= total" true (s.dispatch_instructions <= s.instructions);
  check_bool "bop hits <= bops" true (s.bop_hits <= s.bop_count);
  check_bool "misses <= accesses (i)" true (s.icache_misses <= s.icache_accesses);
  check_bool "misses <= accesses (d)" true (s.dcache_misses <= s.dcache_accesses);
  check_bool "cond mispredicts bounded" true (s.cond_mispredicts <= s.cond_branches);
  check_bool "indirect mispredicts bounded" true
    (s.indirect_mispredicts <= s.indirect_jumps)

let test_instruction_count_scales_with_bytecodes () =
  let r = run Scheme.Baseline in
  let per_bytecode = float_of_int r.stats.instructions /. float_of_int r.bytecodes in
  check_bool "plausible instructions per bytecode" true
    (per_bytecode > 25.0 && per_bytecode < 120.0)

(* ------------------------------------------------------------------ *)
(* Result codec                                                        *)
(* ------------------------------------------------------------------ *)

let test_codec_roundtrip_real_runs () =
  List.iter
    (fun (vm, scheme) ->
      let r = run ~vm scheme in
      match Result.of_string (Result.to_string r) with
      | Ok r' ->
        check_bool "decode of encode is the identity" true (Result.equal r r')
      | Error m -> Alcotest.fail ("round-trip failed: " ^ m))
    [ ("lua", Scheme.Baseline); ("lua", Scheme.Scd); ("js", Scheme.Scd);
      ("js", Scheme.Jump_threading) ]

(* Random results over the full field space (including an arbitrary-byte
   output payload): the codec must reproduce every value exactly. *)
let random_result =
  let open QCheck.Gen in
  let nat = int_bound 1_000_000 in
  let fields_of template =
    flatten_l (List.map (fun (k, _) -> map (fun v -> (k, v)) nat) template)
  in
  let stats_template = Scd_uarch.Stats.to_assoc (Scd_uarch.Stats.create ()) in
  let btb_template =
    Scd_uarch.Btb.stats_to_assoc
      (Scd_uarch.Btb.stats
         (Scd_uarch.Btb.create ~entries:16 ~ways:2
            ~replacement:Scd_uarch.Btb.Lru ()))
  in
  let engine_template =
    Scd_core.Engine.stats_to_assoc
      (Scd_core.Engine.stats
         (Scd_core.Engine.create
            (Scd_uarch.Btb.create ~entries:16 ~ways:2
               ~replacement:Scd_uarch.Btb.Lru ())))
  in
  let ok = function Ok v -> v | Error m -> failwith m in
  QCheck.make
    (map
       (fun ((stats, btb, engine), (bytecodes, code_bytes, output)) ->
         { Result.stats = ok (Scd_uarch.Stats.of_assoc stats);
           btb = ok (Scd_uarch.Btb.stats_of_assoc btb);
           engine =
             Option.map (fun a -> ok (Scd_core.Engine.stats_of_assoc a)) engine;
           bytecodes; code_bytes; output })
       (pair
          (triple (fields_of stats_template) (fields_of btb_template)
             (opt (fields_of engine_template)))
          (triple nat nat (string_size ~gen:char (int_bound 80)))))

let prop_codec_roundtrip_random =
  QCheck.Test.make ~name:"codec round-trips random results" ~count:200
    random_result (fun r ->
      match Result.of_string (Result.to_string r) with
      | Ok r' -> Result.equal r r'
      | Error _ -> false)

let test_codec_rejects_bad_payloads () =
  let r = run Scheme.Scd in
  let text = Result.to_string r in
  let rejects what payload =
    match Result.of_string payload with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail ("codec accepted " ^ what)
  in
  rejects "an empty payload" "";
  rejects "a bad header" ("not-a-result 1\n" ^ text);
  rejects "a truncated payload" (String.sub text 0 (String.length text - 5));
  rejects "trailing garbage after end" (text ^ "junk\n");
  (let body = String.sub text (String.index text '\n' + 1)
       (String.length text - String.index text '\n' - 1) in
   rejects "a stale schema version" ("scd-result 999\n" ^ body));
  (let without_instructions =
     String.split_on_char '\n' text
     |> List.filter (fun l -> not (String.starts_with ~prefix:"stat instructions " l))
     |> String.concat "\n"
   in
   rejects "a missing stats field" without_instructions);
  rejects "an unrecognised record"
    (let lines = String.split_on_char '\n' text in
     String.concat "\n" (List.hd lines :: "bogus record 42" :: List.tl lines));
  (* the non-error path still works after all that *)
  match Result.of_string text with
  | Ok r' -> check_bool "original still decodes" true (Result.equal r r')
  | Error m -> Alcotest.fail m

(* ------------------------------------------------------------------ *)
(* Flat event tape vs legacy boxed delivery                            *)
(* ------------------------------------------------------------------ *)

(* The driver batches each bytecode's expansion into a flat int tape; the
   [`Boxed] path decodes every cell into an [Event.t] and feeds the old
   [Pipeline.consume], one instruction per cell. The two deliveries must be
   bit-identical — same cycles, same BTB stats, same engine counters —
   across schemes, VMs, machines, multi-table and context-switch
   configurations. The intervals are chosen to land flushes inside
   run-length cells and stamped templates (1 and 7 cut almost every run,
   97 and 1000 land at scattered offsets), on the single- and dual-issue
   cores. *)
let interval_script =
  {|
    function fib(n)
      if n < 2 then return n end
      return fib(n - 1) + fib(n - 2)
    end
    local t = {}
    for i = 1, 4 do t[i] = fib(8) + i end
    print(t[1] + t[4])
  |}

let event_paths_agree ~source ~vm ~scheme ~machine ~cs ~multi =
  let go event_path =
    Driver.run ~event_path
      { Driver.default_config with frontend = Frontend.get vm; scheme;
        machine; context_switch_interval = cs; multi_table = multi }
      ~source
  in
  Result.equal (go `Flat) (go `Boxed)

let test_event_paths_identical () =
  let open Scd_uarch in
  let schemes =
    Scheme.[ Baseline; Scd; Jump_threading; Vbbi ]
  in
  let sim = Config.simulator in
  let rows =
    List.map
      (fun (vm, scheme, cs, multi) -> (small_script, vm, scheme, sim, cs, multi))
      [ ("lua", Scheme.Baseline, None, false);
        ("lua", Scheme.Scd, None, false);
        ("lua", Scheme.Scd, Some 50_000, false);
        ("js", Scheme.Scd, None, true);
        ("js", Scheme.Jump_threading, None, false);
        ("lua", Scheme.Vbbi, None, false) ]
    @ [ (interval_script, "js", Scheme.Scd, sim, Some 97, true) ]
    @ List.concat_map
        (fun vm ->
          List.concat_map
            (fun scheme ->
              List.map
                (fun (machine, cs) ->
                  (interval_script, vm, scheme, machine, cs, false))
                [ (sim, Some 1); (sim, Some 7); (sim, Some 97);
                  (sim, Some 1_000); (Config.high_end, None);
                  (Config.high_end, Some 7); (Config.high_end, Some 1_000) ])
            schemes)
        [ "lua"; "js" ]
  in
  List.iter
    (fun (source, vm, scheme, (machine : Config.t), cs, multi) ->
      check_bool
        (Printf.sprintf "%s/%s/%s%s%s identical across event paths" vm
           (Scheme.name scheme) machine.name
           (match cs with None -> "" | Some n -> Printf.sprintf "/cs%d" n)
           (if multi then "/multi" else ""))
        true
        (event_paths_agree ~source ~vm ~scheme ~machine ~cs ~multi))
    rows

let prop_event_paths_agree =
  let open QCheck in
  let setting =
    pair
      (make ~print:Print.(option int)
         Gen.(opt ~ratio:0.7 (oneof [ int_range 1 50; int_range 51 5_000 ])))
      (make
         ~print:(fun (m : Scd_uarch.Config.t) -> m.name)
         Gen.(oneofl Scd_uarch.Config.[ simulator; high_end ]))
  in
  Test.make
    ~name:"random programs: flat and boxed event paths bit-identical"
    ~count:8 (pair Gen_program.program setting)
    (fun (source, (cs, machine)) ->
      List.for_all
        (fun scheme ->
          event_paths_agree ~source ~vm:"lua" ~scheme ~machine ~cs
            ~multi:false)
        Scheme.all)

(* Tentpole differential: template stamping must reproduce the push-based
   expansion *word for word*, not merely land on the same simulation result.
   [`Flat_push] derives every cell through the cell-by-cell emitters on the
   same tape encoding, so concatenating every batch of both runs, with the
   stamped run's template references expanded, must give identical int
   arrays — run-dependent patch words (fetch addresses, data addresses,
   branch outcomes, bop hits) included. *)
let expanded_words tape =
  Scd_isa.(Event.tape_snapshot (Stamp.expand_tape tape) ~from:0)

let collect_tape_words event_path config =
  let batches = ref [] in
  let trap tape = batches := expanded_words tape :: !batches in
  let (_ : Driver.result) =
    Driver.run ~event_path ~tape_trap:trap config ~source:small_script
  in
  Array.concat (List.rev !batches)

(* Context-switch rows: both emitters now produce run-length cells under an
   interval, and the trap sees each batch before the walker splits a run at
   a flush boundary, so the captured words must still agree. *)
let test_stamped_tape_words_identical () =
  List.iter
    (fun (vm, scheme, multi, cs, seed) ->
      let config =
        { Driver.default_config with frontend = Frontend.get vm; scheme;
          multi_table = multi; context_switch_interval = cs;
          seed = Int64.of_int seed }
      in
      check_bool
        (Printf.sprintf "%s/%s%s%s stamped tape = pushed tape, word for word"
           vm (Scheme.name scheme)
           (if multi then "/multi" else "")
           (match cs with None -> "" | Some n -> Printf.sprintf "/cs%d" n))
        true
        (collect_tape_words `Flat config = collect_tape_words `Flat_push config))
    [ ("lua", Scheme.Baseline, false, None, 1);
      ("lua", Scheme.Jump_threading, false, None, 2);
      ("lua", Scheme.Vbbi, false, None, 3);
      ("lua", Scheme.Scd, false, None, 4);
      ("lua", Scheme.Scd, true, None, 5);
      ("js", Scheme.Baseline, false, None, 6);
      ("js", Scheme.Jump_threading, false, None, 7);
      ("js", Scheme.Scd, false, None, 8);
      ("js", Scheme.Scd, true, None, 9);
      ("lua", Scheme.Baseline, false, Some 7, 10);
      ("lua", Scheme.Scd, false, Some 97, 11);
      ("lua", Scheme.Jump_threading, false, Some 1_000, 12);
      ("js", Scheme.Scd, true, Some 7, 13);
      ("js", Scheme.Vbbi, false, Some 1_000, 14) ]

let prop_stamped_tape_words_agree =
  QCheck.Test.make
    ~name:"random programs: stamped and pushed tapes word-for-word identical"
    ~count:6 Gen_program.program (fun source ->
      List.for_all
        (fun vm ->
          List.for_all
            (fun scheme ->
              let config =
                { Driver.default_config with frontend = Frontend.get vm; scheme }
              in
              let go event_path =
                let batches = ref [] in
                let trap tape = batches := expanded_words tape :: !batches in
                let (_ : Driver.result) =
                  Driver.run ~event_path ~tape_trap:trap config ~source
                in
                Array.concat (List.rev !batches)
              in
              go `Flat = go `Flat_push)
            Scheme.all)
        [ "lua"; "js" ])

(* Two registered templates for the delivery steps below: a dispatcher
   (fetch-address patch) and a helper call (call PC, link and return
   target patched). *)
let alloc_templates =
  lazy
    (let open Scd_isa.Event in
     let t = tape_create () in
     tape_push t ~pc:0x2000 ~flags:(tag_mem_read lor flag_dispatch) ~arg1:0x200480
       ~arg2:(-1);
     tape_push t ~pc:0x2004
       ~flags:(tag_mem_read lor flag_dispatch lor flag_sets_rop)
       ~arg1:0 ~arg2:(-1);
     tape_push_run t ~pc:0x2008 ~dispatch:true ~count:9 ~stride:4;
     tape_push t ~pc:0x202c ~flags:(tag_cond_branch lor flag_dispatch)
       ~arg1:0x3000 ~arg2:(-1);
     tape_push t ~pc:0x2030 ~flags:(tag_ind_jump lor flag_dispatch)
       ~arg1:0x5000 ~arg2:(-1);
     let dispatch =
       Scd_isa.Stamp.register ~patch_b:[| 6 |] (tape_snapshot t ~from:0)
     in
     tape_clear t;
     tape_push t ~pc:0 ~flags:tag_call ~arg1:0x7000 ~arg2:0;
     tape_push_run t ~pc:0x7000 ~dispatch:false ~count:11 ~stride:12;
     tape_push t ~pc:0x7084 ~flags:tag_mem_read ~arg1:0x210000 ~arg2:(-1);
     tape_push t ~pc:0x7090 ~flags:tag_return ~arg1:0 ~arg2:(-1);
     let blob =
       Scd_isa.Stamp.register ~patch_a:[| 0 |] ~patch_b:[| 3; 14 |]
         (tape_snapshot t ~from:0)
     in
     (dispatch, blob))

(* A real template set whose handler variants the delivery steps look up
   and stamp: the register VM's under SCD. *)
let alloc_handler_set =
  lazy (Driver.templates Scd_codegen.Spec.rvm Scheme.Scd)

(* The handler variant step [i] stamps: its opcode and key. Both depend
   on [i land 1023] only, so the warm-up's first 1024 steps register every
   variant the timed steps use. *)
let alloc_handler_opcode i =
  let ts = Lazy.force alloc_handler_set in
  (i land 1023) mod Array.length ts.Scd_codegen.Template.handlers

let alloc_handler_key i =
  let module T = Scd_codegen.Template in
  let h = (Lazy.force alloc_handler_set).T.handlers.(alloc_handler_opcode i) in
  let j = i land 1023 in
  let mems = (j lsr 5) land 3 in
  T.handler_key ~mems
    ~writes:(j land ((1 lsl (if mems < 2 then mems else 2)) - 1))
    ~taken:(h.ctrl_branch && j land 4 <> 0)
    ~tail:(j land 8 <> 0)

(* The point of the tape: steady-state event delivery plus engine fast-path
   probes allocate nothing at all. Probes are off (the default
   [Probe.null]); the warm-up loop grows the tape to its final capacity and
   fills every predictor structure, after which 10k full steps must leave
   the minor-allocation counter exactly where it was. Covered on the
   single- and dual-issue cores, and with a context-switch [interval]
   drained the way the driver does: a quota walk that splits run cells at
   the flush boundary and retires the engine there. Each step also carries
   two template references: on the single-issue core without an interval
   they take the summary walk; on the dual-issue core, and wherever an
   interval stop lands inside one, the expand path. A handler variant
   reference follows, stamped through a real set's variant table (memo
   and scan) as the driver stamps it, with fresh data addresses in its
   [a] and [b] words; the warm-up registers every variant the timed steps
   use, and is the only place first-use registration may allocate. *)
let flat_delivery_minor_words (machine : Scd_uarch.Config.t) interval =
  let open Scd_isa.Event in
  let dispatch_template, blob_template = Lazy.force alloc_templates in
  let btb =
    Scd_uarch.Btb.create ~entries:machine.btb_entries ~ways:machine.btb_ways
      ~replacement:machine.btb_replacement ()
  in
  let engine =
    Scd_core.Engine.create ?context_switch_interval:interval btb
  in
  let pipeline =
    Scd_uarch.Pipeline.create ~btb
      ~indirect:(Scheme.indirect_scheme Scheme.Scd) machine
  in
  let stats = Scd_uarch.Pipeline.stats pipeline in
  let since = ref 0 in
  let tape = tape_create () in
  let drain () =
    match interval with
    | None -> Scd_uarch.Pipeline.consume_tape pipeline tape
    | Some n ->
      let words = tape_extent tape in
      let i = ref 0 in
      while !i < words do
        let before = stats.instructions in
        i :=
          Scd_uarch.Pipeline.consume_tape_quota pipeline tape ~from:!i
            ~quota:(n - !since);
        since := !since + (stats.instructions - before);
        if !since >= n then begin
          since := 0;
          Scd_core.Engine.retire engine n
        end
      done
  in
  let step i =
    let pc = 0x1000 + ((i land 63) * 4) in
    let opcode = i land 31 in
    tape_clear tape;
    tape_push tape ~pc
      ~flags:(tag_mem_read lor flag_dispatch lor flag_sets_rop)
      ~arg1:(0x8000 + ((i land 255) * 4))
      ~arg2:(-1);
    tape_push tape ~pc:(pc + 4) ~flags:tag_plain ~arg1:0 ~arg2:(-1);
    (* a plain-run cell spanning a block boundary exercises the aggregate
       consumption path (including its block-walk fetches) *)
    tape_push_run tape ~pc:(pc + 8) ~dispatch:false ~count:24 ~stride:12;
    tape_push tape ~pc:(pc + 8)
      ~flags:(tag_cond_branch lor if i land 1 = 0 then flag_taken else 0)
      ~arg1:(pc + 64) ~arg2:(-1);
    Scd_isa.Stamp.push tape dispatch_template ~a:0
      ~b:(0x300d00 + (i land 1023));
    Scd_isa.Stamp.push tape blob_template ~a:(pc + 32) ~b:(pc + 44);
    Scd_codegen.Template.stamp_variant tape
      (Lazy.force alloc_handler_set).Scd_codegen.Template.variants
      ~opcode:(alloc_handler_opcode i) ~key:(alloc_handler_key i)
      ~a:(0x200000 + ((i land 4095) * 8))
      ~b:(0x240000 + ((i land 511) * 16));
    drain ();
    (* the engine's architectural fast path, at the flush boundary like the
       driver: probe, install a JTE on a miss *)
    if Scd_core.Engine.bop_target engine ~opcode = Scd_core.Engine.no_target
    then
      Scd_core.Engine.jru_code engine ~opcode ~target:(0x4000 + (opcode * 8));
    tape_clear tape;
    tape_push tape ~pc:(pc + 12)
      ~flags:(tag_bop lor flag_dispatch)
      ~arg1:(pc + 16) ~arg2:opcode;
    tape_push tape ~pc:(pc + 16)
      ~flags:(tag_jru lor flag_dispatch)
      ~arg1:(0x4000 + (opcode * 8))
      ~arg2:opcode;
    tape_push tape ~pc:(pc + 20) ~flags:tag_call ~arg1:0x6000 ~arg2:(-1);
    tape_push tape ~pc:(pc + 24) ~flags:tag_return ~arg1:(pc + 28) ~arg2:(-1);
    tape_push tape ~pc:(pc + 28) ~flags:tag_ind_jump
      ~arg1:(0x4000 + (opcode * 8))
      ~arg2:opcode;
    drain ()
  in
  for i = 0 to 4_095 do
    step i
  done;
  let m0 = Gc.minor_words () in
  for i = 0 to 9_999 do
    step i
  done;
  Gc.minor_words () -. m0

let test_flat_event_delivery_allocation_free () =
  List.iter
    (fun ((machine : Scd_uarch.Config.t), interval) ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf
           "10k flat pipeline+engine steps allocate zero minor words (%s%s)"
           machine.name
           (match interval with
            | None -> ""
            | Some n -> Printf.sprintf ", quota walk at interval %d" n))
        0.0
        (flat_delivery_minor_words machine interval))
    Scd_uarch.Config.
      [ (simulator, None); (simulator, Some 5); (high_end, None);
        (high_end, Some 5) ];
  (* the summary walk and the expand path do run here *)
  let dispatch_template, _ = Lazy.force alloc_templates in
  check_bool "the dispatcher template has a summary" true
    dispatch_template.Scd_isa.Stamp.summarized;
  check_bool "handler variants have summaries" true
    (List.for_all
       (fun i ->
         (Scd_codegen.Template.variant
            (Lazy.force alloc_handler_set).Scd_codegen.Template.variants
            ~opcode:(alloc_handler_opcode i) ~key:(alloc_handler_key i))
           .Scd_isa.Stamp.summarized)
       (List.init 1024 Fun.id))

(* ------------------------------------------------------------------ *)
(* Template references: summary walk and expansion vs the cells          *)
(* ------------------------------------------------------------------ *)

(* The simulator core with 32-byte I-blocks: summaries are built for
   64-byte blocks, so here every reference takes the expand path. *)
let sim_i32 =
  let open Scd_uarch.Config in
  { simulator with name = "simulator/i32";
    icache = { simulator.icache with block_bytes = 32 } }

(* One machine per other summary condition: dual issue without an L2,
   and single issue with one — two-line L1s in front of a one-set L2, so
   the order in which I- and D-misses reach the L2 decides what it keeps,
   and the probe suffix reads that back. *)
let dual_no_l2 =
  let open Scd_uarch.Config in
  { high_end with name = "high-end/no-l2"; l2 = None }

let sim_l2 =
  let open Scd_uarch.Config in
  let tiny : Scd_uarch.Cache.geometry =
    { size_bytes = 128; ways = 1; block_bytes = 64; hit_latency = 1 } in
  { simulator with name = "simulator/l2"; icache = tiny; dcache = tiny;
    l2 = Some { size_bytes = 256; ways = 4; block_bytes = 64; hit_latency = 8 };
    l2_latency = 8 }

(* Every template of every set the driver builds, once per distinct cell
   content, with the shape of its run-dependent words. *)
let every_template () =
  let seen = Hashtbl.create 1024 in
  let out = ref [] in
  let add kind (t : Scd_codegen.Template.t) =
    let cells = t.stamp.Scd_isa.Stamp.cells in
    if not (Hashtbl.mem seen (kind, cells)) then begin
      Hashtbl.replace seen (kind, cells) ();
      out := (kind, t.stamp) :: !out
    end
  in
  List.iter
    (fun spec ->
      List.iter
        (fun scheme ->
          let ts = Driver.templates spec scheme in
          let open Scd_codegen.Template in
          Array.iter (Array.iter (add `Dispatch)) ts.dispatch;
          Array.iter (add `Replica) ts.replica;
          Array.iter (add `Dispatch) ts.scd_prefix;
          Array.iter (Array.iter (add `Fixed)) ts.scd_miss;
          Array.iter (add `Blob) ts.rt_blobs;
          Array.iter (add `Blob) ts.builtin_blobs)
        Scheme.all)
    Scd_codegen.Spec.[ rvm; rvm_fused; rvm_replicated; svm ];
  List.rev !out

(* A random mix of every cell kind over the template's own PCs and data
   addresses plus strangers: it leaves caches, TLBs, BTB, RAS and
   predictors partly warm with the template's working set, and the issue
   state mid-group. *)
let random_prefix ?len rng (expanded : Scd_isa.Event.tape) =
  let open Scd_isa.Event in
  let n = tape_cells expanded in
  let len =
    match len with Some l -> l | None -> 20 + Random.State.int rng 120
  in
  let pick_pc () =
    if n > 0 && Random.State.bool rng then
      tape_cell_pc expanded (Random.State.int rng n)
    else 0x10000 + (4 * Random.State.int rng 8192)
  in
  let pick_addr () =
    if n > 0 && Random.State.bool rng then
      tape_cell_arg1 expanded (Random.State.int rng n)
    else 0x200000 + (8 * Random.State.int rng 65536)
  in
  let t = tape_create () in
  for _ = 1 to len do
    let pc = pick_pc () in
    let flag b f = if b then f else 0 in
    let dispatch = flag (Random.State.bool rng) flag_dispatch in
    match Random.State.int rng 10 with
    | 0 | 1 -> tape_push t ~pc ~flags:(tag_plain lor dispatch) ~arg1:0 ~arg2:(-1)
    | 2 ->
      tape_push_run t ~pc ~dispatch:(dispatch <> 0)
        ~count:(1 + Random.State.int rng 20)
        ~stride:(if Random.State.bool rng then 4 else 12)
    | 3 | 4 ->
      tape_push t ~pc
        ~flags:((if Random.State.bool rng then tag_mem_read else tag_mem_write)
                lor dispatch lor flag (Random.State.bool rng) flag_sets_rop)
        ~arg1:(pick_addr ()) ~arg2:(-1)
    | 5 ->
      tape_push t ~pc
        ~flags:(tag_cond_branch lor dispatch
                lor flag (Random.State.bool rng) flag_taken)
        ~arg1:(pick_pc ()) ~arg2:(-1)
    | 6 -> tape_push t ~pc ~flags:tag_jump ~arg1:(pick_pc ()) ~arg2:(-1)
    | 7 ->
      tape_push t ~pc ~flags:tag_call ~arg1:(pick_pc ())
        ~arg2:(if Random.State.bool rng then -1 else pc + 12)
    | 8 -> tape_push t ~pc ~flags:tag_return ~arg1:(pick_pc ()) ~arg2:(-1)
    | _ ->
      tape_push t ~pc ~flags:(tag_ind_jump lor dispatch) ~arg1:(pick_pc ())
        ~arg2:(if Random.State.bool rng then -1 else Random.State.int rng 64)
  done;
  t

let append dst src =
  let open Scd_isa.Event in
  let words = tape_words src in
  for i = 0 to tape_cells src - 1 do
    let w = i * cell_words in
    tape_push dst ~pc:words.(w) ~flags:words.(w + 1) ~arg1:words.(w + 2)
      ~arg2:words.(w + 3)
  done

(* Cells that read back the state a template leaves: a hitting bop (the
   .op distance, visible as stall bubbles under the test's long [rop_gap]),
   its own cells again (I- and D-side residency, BTB, direction and
   indirect history, RAS pushes), returns (the RAS top) and a load pair
   (the open issue group). *)
let probe_suffix (expanded : Scd_isa.Event.tape) ~b =
  let open Scd_isa.Event in
  let t = tape_create () in
  tape_push t ~pc:0x30000 ~flags:(tag_bop lor flag_dispatch lor flag_hit)
    ~arg1:0x30100 ~arg2:3;
  append t expanded;
  List.iter
    (fun target ->
      tape_push t ~pc:0x30004 ~flags:tag_return ~arg1:target ~arg2:(-1))
    [ b; b + 4; 0x30008 ];
  tape_push t ~pc:0x3000c ~flags:tag_mem_read ~arg1:0x200008 ~arg2:(-1);
  tape_push t ~pc:0x30010 ~flags:tag_mem_read ~arg1:0x200010 ~arg2:(-1);
  tape_push t ~pc:0x30014 ~flags:tag_plain ~arg1:0 ~arg2:(-1);
  t

(* Walk a tape stopping after every [quota] instructions, resuming at the
   returned index (a stop inside a reference returns the reference's own);
   false when a stop short of the end retired other than [quota]. *)
let walk_in_steps pipeline tape ~quota =
  let open Scd_isa in
  let stats = Scd_uarch.Pipeline.stats pipeline in
  let words = Event.tape_extent tape in
  let i = ref 0 in
  let ok = ref true in
  while !i < words do
    let before = stats.Scd_uarch.Stats.instructions in
    let next = Scd_uarch.Pipeline.consume_tape_quota pipeline tape ~from:!i ~quota in
    if stats.instructions - before <> quota && next < words then ok := false;
    i := next
  done;
  !ok

(* Consume [prefix], then [tape] (in [quota] steps if given), returning
   whether every quota stop retired exactly [quota] instructions, the
   stats, and whether a [probe] saw one [on_retire] per instruction of
   [tape]. *)
let consumed_stats ?(probe = false) machine ~prefix tape ~quota =
  let p = Scd_uarch.Pipeline.create ~indirect:Scd_uarch.Indirect.Vbbi machine in
  Scd_uarch.Pipeline.consume_tape p prefix;
  let retired = ref 0 in
  let before = (Scd_uarch.Pipeline.stats p).instructions in
  if probe then
    Scd_uarch.Pipeline.set_probe p
      (Scd_obs.Probe.create ~on_retire:(fun () -> incr retired) ());
  let exact =
    match quota with
    | None ->
      Scd_uarch.Pipeline.consume_tape p tape;
      true
    | Some quota -> walk_in_steps p tape ~quota
  in
  let stats = Scd_uarch.Pipeline.stats p in
  (exact, stats, (not probe) || !retired = stats.instructions - before)

(* Every handler variant of every set, force-registered: each opcode's
   every data-access count, write bits of the inlined accesses, branch
   outcome and (outside jump threading) tail fold. Returned once per
   distinct cell content. *)
let every_handler_variant () =
  let module T = Scd_codegen.Template in
  let seen = Hashtbl.create 65536 in
  let out = ref [] in
  List.iter
    (fun spec ->
      List.iter
        (fun scheme ->
          let ts = Driver.templates spec scheme in
          let tails =
            if scheme = Scheme.Jump_threading then [ false ] else [ false; true ]
          in
          Array.iteri
            (fun opcode (h : Scd_codegen.Spec.handler_spec) ->
              let slots =
                if h.ctrl_branch then h.body_instrs - 1 else h.body_instrs
              in
              let takens = if h.ctrl_branch then [ false; true ] else [ false ] in
              for mems = 0 to slots do
                for writes = 0 to (1 lsl min 2 mems) - 1 do
                  List.iter
                    (fun taken ->
                      List.iter
                        (fun tail ->
                          let key = T.handler_key ~mems ~writes ~taken ~tail in
                          let st = T.variant ts.T.variants ~opcode ~key in
                          if not (Hashtbl.mem seen st.Scd_isa.Stamp.cells)
                          then begin
                            Hashtbl.replace seen st.cells ();
                            out := st :: !out
                          end)
                        tails)
                    takens
                done
              done)
            ts.T.handlers)
        Scheme.all)
    Scd_codegen.Spec.[ rvm; rvm_fused; rvm_replicated; svm ];
  List.rev !out

(* Handler variants, streamed (there are tens of thousands, so pipelines
   are not created per variant). On each machine one truth pipeline walks
   every variant's expanded cells one instruction at a time; four more see
   the same stream with the variant as its reference — whole (the summary
   where it applies), in quota-1 steps, in steps of a random quota, and
   under a retirement probe. Random cells between variants, drawn over the
   variant's own PCs and addresses, leave each variant a state the earlier
   ones and the noise made, and a probe suffix reads back what it left.
   Every side's stats must equal the truth's after every variant. *)
let check_handler_variants variants =
  let open Scd_isa in
  let module P = Scd_uarch.Pipeline in
  let rng = Random.State.make [| 1616 |] in
  let data_addr () = 0x200000 + (8 * Random.State.int rng 65536) in
  List.iter
    (fun (machine : Scd_uarch.Config.t) ->
      let machine = { machine with rop_gap = 256 } in
      let fresh () = P.create ~indirect:Scd_uarch.Indirect.Vbbi machine in
      let truth = fresh () in
      let whole = fresh () and steps = fresh () and stop = fresh () in
      let probed = fresh () and retired = ref 0 in
      P.set_probe probed
        (Scd_obs.Probe.create ~on_retire:(fun () -> incr retired) ());
      let sides =
        [ ("whole", whole); ("quota 1", steps); ("one stop", stop);
          ("probe", probed) ]
      in
      List.iter
        (fun (st : Stamp.t) ->
          let a = data_addr () and b = data_addr () in
          let expanded =
            let t = Event.tape_create () in
            Stamp.push t st ~a ~b;
            Stamp.expand_tape t
          in
          let noise = random_prefix ~len:(Random.State.int rng 12) rng expanded in
          let suffix = probe_suffix expanded ~b in
          let cells = Event.tape_create () in
          append cells expanded;
          append cells suffix;
          (* a walk rewrites the cells it stops in: one tape per side *)
          let reference () =
            let t = Event.tape_create () in
            Stamp.push t st ~a ~b;
            append t suffix;
            t
          in
          let fail label why =
            Alcotest.failf "handler variant %d (%d instructions) on %s, %s: %s"
              st.id st.instrs machine.name label why
          in
          P.consume_tape truth noise;
          if not (walk_in_steps truth cells ~quota:1) then
            fail "truth" "a quota stop retired the wrong count";
          List.iter (fun (_, p) -> P.consume_tape p noise) sides;
          P.consume_tape whole (reference ());
          if not (walk_in_steps steps (reference ()) ~quota:1) then
            fail "quota 1" "a quota stop retired the wrong count";
          if not
               (walk_in_steps stop (reference ())
                  ~quota:(1 + Random.State.int rng (max 1 st.instrs)))
          then fail "one stop" "a quota stop retired the wrong count";
          P.consume_tape probed (reference ());
          let t = P.stats truth in
          List.iter
            (fun (label, p) ->
              if not (Scd_uarch.Stats.equal (P.stats p) t) then
                fail label "stats differ from the cells")
            sides;
          if !retired <> t.instructions then
            fail "probe" "the probe missed retirements")
        variants)
    Scd_uarch.Config.[ simulator; fpga; high_end; sim_i32; dual_no_l2; sim_l2 ];
  check_bool "checked handler variants" true (variants <> [])

(* The consume summary and the expand path against the ground truth:
   the template's expanded cells walked one instruction at a time. Every
   template of every set, from a random prefix state on each machine: the
   reference whole (the summary where it applies), with a quota stop at
   every instruction offset inside it, with one stop at a random offset,
   and whole under a retirement probe (which must fire once per
   instruction). *)
let test_template_references_match_cells () =
  let open Scd_isa in
  let machines =
    (* a [rop_gap] longer than any template, so the probe bop's stall
       reads back exactly where the template left its .op producer *)
    List.map
      (fun (m : Scd_uarch.Config.t) -> { m with rop_gap = 256 })
      Scd_uarch.Config.
        [ simulator; fpga; high_end; sim_i32; dual_no_l2; sim_l2 ]
  in
  let rng = Random.State.make [| 2016 |] in
  let checked = ref 0 in
  List.iter
    (fun (kind, (st : Stamp.t)) ->
      let code_pc () = 0x10000 + (4 * Random.State.int rng 8192) in
      let a, b =
        match kind with
        | `Dispatch -> (0, 0x300d00 + Random.State.int rng 4096)
        | `Replica -> (code_pc (), 0x300d00 + Random.State.int rng 4096)
        | `Fixed -> (0, 0)
        | `Blob ->
          let a = code_pc () in
          (a, a + Scd_codegen.Layout.hot_stride)
      in
      let reference = Event.tape_create () in
      Stamp.push reference st ~a ~b;
      let expanded = Stamp.expand_tape reference in
      let suffix = probe_suffix expanded ~b in
      List.iter
        (fun (machine : Scd_uarch.Config.t) ->
          let prefix = random_prefix rng expanded in
          let cells = Event.tape_create () in
          append cells expanded;
          append cells suffix;
          let _, truth, _ = consumed_stats machine ~prefix cells ~quota:(Some 1) in
          List.iter
            (fun (label, probe, quota) ->
              let tape = Event.tape_create () in
              Stamp.push tape st ~a ~b;
              append tape suffix;
              let exact, stats, probed =
                consumed_stats ~probe machine ~prefix tape ~quota
              in
              incr checked;
              let fail why =
                Alcotest.failf "template %d (%d instructions) on %s, %s: %s"
                  st.id st.instrs machine.name label why
              in
              if not exact then fail "a quota stop retired the wrong count";
              if not (Scd_uarch.Stats.equal stats truth) then
                fail "stats differ from the cells";
              if not probed then fail "the probe missed retirements")
            [ ("whole", false, None); ("quota 1", false, Some 1);
              ("one stop", false,
               Some (1 + Random.State.int rng (max 1 st.instrs)));
              ("probe", true, None) ])
        machines)
    (every_template ());
  check_bool "checked every template" true (!checked > 0);
  check_handler_variants (every_handler_variant ())

(* ------------------------------------------------------------------ *)
(* Emission-stride regressions (dispatch-PC spacing)                   *)
(* ------------------------------------------------------------------ *)

(* Collect every cell of every tape batch of a run, template references
   expanded, as (pc, tag, arg1, arg2) tuples, via the [tape_trap]
   observer. *)
let collect_cells config =
  let open Scd_isa.Event in
  let cells = ref [] in
  let trap tape =
    let tape = Scd_isa.Stamp.expand_tape tape in
    for i = 0 to tape_cells tape - 1 do
      cells :=
        (tape_cell_pc tape i, tape_cell_tag tape i, tape_cell_arg1 tape i,
         tape_cell_arg2 tape i)
        :: !cells
    done
  in
  let (_ : Driver.result) = Driver.run ~tape_trap:trap config ~source:small_script in
  List.rev !cells

(* A jump-threading replica is inlined C at a handler tail: its instructions
   are spaced [Layout.hot_stride] (12) bytes apart, unlike the compact
   4-byte common-site block. The first two dispatch loads (vm.pc, then the
   bytecode itself) are adjacent emitted instructions, so their PC delta is
   exactly the emission stride — a regression pin for the cursor bug that
   advanced by a hardcoded 4 after the first load. *)
let test_jt_replica_pc_spacing () =
  let open Scd_isa in
  let config =
    { Driver.default_config with scheme = Scheme.Jump_threading }
  in
  let cells = collect_cells config in
  let vm_state =
    let (module F : Frontend.S) = config.frontend in
    let spec = F.spec { Frontend.superinstructions = false;
                        bytecode_replication = false } in
    Scd_codegen.Layout.vm_state_addr
      (Scd_codegen.Layout.build ~spec ~scheme:Scheme.Jump_threading
         ~fn_code_sizes:[||] ~fn_const_counts:[||])
  in
  (* fetch pairs: a dispatch vm.pc load immediately followed by another
     dispatch load (the bytecode fetch) *)
  let deltas = ref [] in
  let rec scan = function
    | (pc0, t0, a0, _) :: ((pc1, t1, a1, _) :: _ as rest) ->
      if t0 = Event.tag_mem_read && a0 = vm_state && t1 = Event.tag_mem_read
         && a1 <> vm_state
      then deltas := (pc1 - pc0) :: !deltas;
      scan rest
    | _ -> ()
  in
  scan cells;
  let deltas = List.rev !deltas in
  check_bool "saw many dispatches" true (List.length deltas > 100);
  (match deltas with
   | first :: replicas ->
     check_int "first dispatch uses the compact common site (stride 4)" 4 first;
     List.iter
       (check_int "every replica dispatch is spaced at hot_stride"
          Scd_codegen.Layout.hot_stride)
       replicas
   | [] -> Alcotest.fail "no dispatch fetch pairs observed")

(* Runtime-helper calls are handler instructions: the return lands one
   hot-stride slot past the call, and the call cell carries that link so
   the RAS push matches the return target exactly. *)
let test_rt_call_link_matches_return () =
  let open Scd_isa in
  let cells =
    collect_cells
      { Driver.default_config with scheme = Scheme.Jump_threading }
  in
  let calls = ref 0 in
  let rec scan = function
    | (pc, t, _, link) :: rest ->
      if t = Event.tag_call then begin
        incr calls;
        check_int "call link is pc + hot_stride"
          (pc + Scd_codegen.Layout.hot_stride) link;
        (match
           List.find_opt (fun (_, t', _, _) -> t' = Event.tag_return) rest
         with
         | Some (_, _, target, _) ->
           check_int "matching return targets the link" link target
         | None -> Alcotest.fail "call with no subsequent return")
      end;
      scan rest
    | [] -> ()
  in
  scan cells;
  check_bool "saw runtime-helper calls" true (!calls > 0)

let test_result_is_pure_snapshot () =
  (* two runs never alias each other's stats blocks *)
  let a = run Scheme.Scd in
  let b = run Scheme.Scd in
  check_bool "distinct stats records" true (a.stats != b.stats);
  check_bool "equal by value" true (Result.equal a b);
  let c = Result.copy a in
  c.stats.Scd_uarch.Stats.cycles <- c.stats.Scd_uarch.Stats.cycles + 1;
  check_bool "copy does not alias" true
    (a.stats.Scd_uarch.Stats.cycles <> c.stats.Scd_uarch.Stats.cycles)

let () =
  Alcotest.run "scd_cosim"
    [
      ( "semantics",
        [
          Alcotest.test_case "output scheme-independent" `Quick
            test_output_independent_of_scheme;
          Alcotest.test_case "bytecodes scheme-independent" `Quick
            test_bytecode_count_independent_of_scheme;
          QCheck_alcotest.to_alcotest prop_generated_programs_scheme_independent;
        ] );
      ( "paper-effects",
        [
          Alcotest.test_case "scd cuts instructions" `Quick test_scd_reduces_instructions;
          Alcotest.test_case "scd speeds up" `Quick test_scd_speeds_up;
          Alcotest.test_case "vbbi profile" `Quick test_vbbi_same_instructions_fewer_misses;
          Alcotest.test_case "jump threading trade-off" `Quick
            test_jump_threading_trades_code_size;
          Alcotest.test_case "lua bop hit rate" `Quick test_scd_bop_hit_rate_high_on_lua;
          Alcotest.test_case "js site thrash" `Quick test_js_bop_thrashes_across_sites;
          Alcotest.test_case "dispatch fraction" `Quick test_dispatch_fraction_band;
          Alcotest.test_case "dispatch MPKI collapse" `Quick
            test_scd_eliminates_dispatch_mispredictions;
        ] );
      ( "btb-interactions",
        [
          Alcotest.test_case "jte cap" `Quick test_jte_cap_respected_in_cosim;
          Alcotest.test_case "context switches" `Quick test_context_switch_flushes;
          Alcotest.test_case "small btb" `Quick test_smaller_btb_hurts_scd_less_than_nothing;
          Alcotest.test_case "fpga config" `Quick test_fpga_config_runs;
          Alcotest.test_case "high-end dual issue" `Quick test_high_end_dual_issue_faster;
        ] );
      ( "extensions",
        [
          Alcotest.test_case "multi-table js" `Quick test_multi_table_recovers_js_hit_rate;
          Alcotest.test_case "multi-table lua noop" `Quick test_multi_table_noop_on_lua;
          Alcotest.test_case "fall-through policy" `Quick test_fall_through_policy;
          Alcotest.test_case "superinstructions" `Quick test_superinstructions_in_cosim;
          Alcotest.test_case "replication" `Quick test_replication_in_cosim;
          Alcotest.test_case "indirect override" `Quick test_indirect_override;
        ] );
      ( "consistency",
        [
          Alcotest.test_case "stats invariants" `Quick test_stats_consistency;
          Alcotest.test_case "instructions per bytecode" `Quick
            test_instruction_count_scales_with_bytecodes;
        ] );
      ( "event-paths",
        [
          Alcotest.test_case "flat vs boxed bit-identical" `Quick
            test_event_paths_identical;
          QCheck_alcotest.to_alcotest prop_event_paths_agree;
          Alcotest.test_case "stamped tape words identical" `Quick
            test_stamped_tape_words_identical;
          QCheck_alcotest.to_alcotest prop_stamped_tape_words_agree;
          Alcotest.test_case "template references match their cells" `Quick
            test_template_references_match_cells;
          Alcotest.test_case "flat delivery allocation-free" `Quick
            test_flat_event_delivery_allocation_free;
        ] );
      ( "emission-strides",
        [
          Alcotest.test_case "jt replica pc spacing" `Quick
            test_jt_replica_pc_spacing;
          Alcotest.test_case "rt-call link matches return" `Quick
            test_rt_call_link_matches_return;
        ] );
      ( "codec",
        [
          Alcotest.test_case "round-trip real runs" `Quick
            test_codec_roundtrip_real_runs;
          QCheck_alcotest.to_alcotest prop_codec_roundtrip_random;
          Alcotest.test_case "rejects bad payloads" `Quick
            test_codec_rejects_bad_payloads;
          Alcotest.test_case "pure snapshot" `Quick test_result_is_pure_snapshot;
        ] );
    ]
