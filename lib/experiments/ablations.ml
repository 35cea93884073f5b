(** Ablation studies beyond the paper's published figures, each realising
    something the paper sketches but does not evaluate:

    - [multi_table]: the Section IV multi-jump-table extension applied to
      the stack VM's three dispatch sites — recovering the bop hit rate the
      shared Rbop-pc register costs JavaScript;
    - [bop_policy]: the two Rop-not-ready schemes of Section III-B (stall
      vs fall-through) across pipeline depths (the [rop_gap]);
    - [context_switch]: the Section IV OS-interaction model — how often can
      the OS flush the JTEs before SCD's benefit erodes;
    - [indirect]: the related-work shootout — baseline code under TTC
      (Chang et al.) and an ITTAGE-style predictor (Seznec & Michaud)
      against VBBI and SCD;
    - [cap_search]: the Section VI-C1 future work, "selecting an optimal
      cap value": exhaustive cap search per benchmark at the 64-entry
      BTB. *)

open Scd_util
open Scd_uarch
open Scd_cosim

let lua_config scheme = { Driver.default_config with scheme }

(* ------------------------------------------------------------------ *)
(* Multi-table SCD (Section IV) on the stack VM                        *)
(* ------------------------------------------------------------------ *)

let run_multi_table ~quick =
  let scale = Sweep.scale_for ~quick Scd_workloads.Workload.Sim in
  let rows =
    List.map
      (fun w ->
        ( w,
          Sweep.cell ~scale "js" Scd_core.Scheme.Baseline w,
          Sweep.cell ~scale "js" Scd_core.Scheme.Scd w,
          Sweep.cell_custom ~tag:"multi-js"
            { (lua_config Scd_core.Scheme.Scd) with frontend = Frontend.get "js";
              multi_table = true }
            w scale ))
      Sweep.workloads
  in
  Sweep.prefetch (List.concat_map (fun (_, b, s, m) -> [ b; s; m ]) rows);
  let table =
    Table.make
      ~title:"Ablation: Section IV multi-table SCD, JavaScript interpreter"
      ~headers:
        [ "benchmark"; "scd speedup"; "multi-table speedup"; "bop hit (1 table)";
          "bop hit (3 tables)" ]
  in
  let single_r = ref [] and multi_r = ref [] in
  List.iter
    (fun ((w : Scd_workloads.Workload.t), b, s, m) ->
      let baseline = Sweep.get b and single = Sweep.get s and multi = Sweep.get m in
      single_r := Sweep.speedup_ratio ~baseline single :: !single_r;
      multi_r := Sweep.speedup_ratio ~baseline multi :: !multi_r;
      Table.add_row table
        [ w.name;
          Table.cell_percent (Sweep.speedup ~baseline single);
          Table.cell_percent (Sweep.speedup ~baseline multi);
          Printf.sprintf "%.3f" (Stats.bop_hit_rate single.stats);
          Printf.sprintf "%.3f" (Stats.bop_hit_rate multi.stats) ])
    rows;
  Table.add_separator table;
  Table.add_row table
    [ "GEOMEAN";
      Table.cell_percent (Sweep.geomean_speedup_percent !single_r);
      Table.cell_percent (Sweep.geomean_speedup_percent !multi_r);
      ""; "" ];
  [ table ]

let multi_table_experiment =
  {
    Experiment.id = "abl-multi";
    paper = "Section IV (extension)";
    title = "Multi-jump-table SCD on the stack VM's dispatch sites";
    run = run_multi_table;
  }

(* ------------------------------------------------------------------ *)
(* bop stall vs fall-through across pipeline depths                    *)
(* ------------------------------------------------------------------ *)

let run_bop_policy ~quick =
  let scale = Sweep.scale_for ~quick Scd_workloads.Workload.Small in
  let gaps = [ 3; 5; 7; 9 ] in
  (* for each (gap, policy): one (baseline, scd) cell pair per workload *)
  let points =
    List.concat_map
      (fun gap ->
        List.map
          (fun policy ->
            let machine =
              { Config.simulator with rop_gap = gap; bop_policy = policy }
            in
            let tag =
              Printf.sprintf "bop-%d-%s" gap
                (match policy with `Stall -> "stall" | `Fall_through -> "fall")
            in
            List.map
              (fun w ->
                ( Sweep.cell ~machine:{ machine with bop_policy = `Stall }
                    ~scale "lua" Scd_core.Scheme.Baseline w,
                  Sweep.cell_custom ~tag
                    { (lua_config Scd_core.Scheme.Scd) with machine }
                    w scale ))
              Sweep.workloads)
          [ `Stall; `Fall_through ])
      gaps
  in
  Sweep.prefetch
    (List.concat_map (List.concat_map (fun (b, s) -> [ b; s ])) points);
  let table =
    Table.make
      ~title:
        "Ablation: Rop-not-ready policy (Section III-B), Lua geomean SCD speedup"
      ~headers:
        ("rop gap (cycles to Rop)"
        :: List.concat_map
             (fun g -> [ Printf.sprintf "stall@%d" g; Printf.sprintf "fall@%d" g ])
             gaps)
  in
  let cells =
    List.map
      (fun pairs ->
        Table.cell_percent
          (Sweep.geomean_speedup_percent
             (List.map
                (fun (b, s) -> Sweep.speedup_ratio ~baseline:(Sweep.get b) (Sweep.get s))
                pairs)))
      points
  in
  Table.add_row table ("geomean speedup" :: cells);
  [ table ]

let bop_policy_experiment =
  {
    Experiment.id = "abl-bop";
    paper = "Section III-B (design choice)";
    title = "Stall vs fall-through when Rop is not ready";
    run = run_bop_policy;
  }

(* ------------------------------------------------------------------ *)
(* Context-switch (OS) sensitivity                                     *)
(* ------------------------------------------------------------------ *)

let run_context_switch ~quick =
  let scale = Sweep.scale_for ~quick Scd_workloads.Workload.Small in
  let intervals = [ Some 10_000; Some 50_000; Some 250_000; None ] in
  let name = function
    | None -> "never"
    | Some n -> Printf.sprintf "%dk" (n / 1000)
  in
  let rows =
    List.map
      (fun w ->
        ( w,
          Sweep.cell ~scale "lua" Scd_core.Scheme.Baseline w,
          List.map
            (fun interval ->
              Sweep.cell_custom ~tag:("cs-" ^ name interval)
                { (lua_config Scd_core.Scheme.Scd) with
                  context_switch_interval = interval }
                w scale)
            intervals ))
      Sweep.workloads
  in
  Sweep.prefetch (List.concat_map (fun (_, b, cs) -> b :: cs) rows);
  let table =
    Table.make
      ~title:
        "Ablation: JTE flush on context switch (Section IV), Lua SCD speedup"
      ~headers:("benchmark" :: List.map (fun i -> "flush@" ^ name i) intervals)
  in
  let accs = List.map (fun _ -> ref []) intervals in
  List.iter
    (fun ((w : Scd_workloads.Workload.t), b, cs) ->
      let baseline = Sweep.get b in
      let cells =
        List.map2
          (fun acc c ->
            let r = Sweep.get c in
            acc := Sweep.speedup_ratio ~baseline r :: !acc;
            Table.cell_percent (Sweep.speedup ~baseline r))
          accs cs
      in
      Table.add_row table (w.name :: cells))
    rows;
  Table.add_separator table;
  Table.add_row table
    ("GEOMEAN"
    :: List.map
         (fun acc -> Table.cell_percent (Sweep.geomean_speedup_percent !acc))
         accs);
  [ table ]

let context_switch_experiment =
  {
    Experiment.id = "abl-cs";
    paper = "Section IV (OS interactions)";
    title = "SCD benefit vs context-switch flush frequency";
    run = run_context_switch;
  }

(* ------------------------------------------------------------------ *)
(* Indirect-predictor shootout                                         *)
(* ------------------------------------------------------------------ *)

let run_indirect ~quick =
  let scale = Sweep.scale_for ~quick Scd_workloads.Workload.Small in
  let contenders =
    [ ("btb", Scd_core.Scheme.Baseline, None);
      ("ttc", Scd_core.Scheme.Baseline, Some (Indirect.Ttc { entries = 512 }));
      ( "ittage",
        Scd_core.Scheme.Baseline,
        Some (Indirect.Ittage { table_entries = 256; tables = 4 }) );
      ("vbbi", Scd_core.Scheme.Vbbi, None);
      ("scd", Scd_core.Scheme.Scd, None) ]
  in
  let baselines =
    List.map (Sweep.cell ~scale "lua" Scd_core.Scheme.Baseline) Sweep.workloads
  in
  let columns =
    List.map
      (fun (label, scheme, indirect_override) ->
        ( label,
          List.map
            (fun w ->
              match indirect_override with
              | None -> Sweep.cell ~scale "lua" scheme w
              | Some _ ->
                Sweep.cell_custom ~tag:("ind-" ^ label)
                  { (lua_config scheme) with indirect_override }
                  w scale)
            Sweep.workloads ))
      contenders
  in
  Sweep.prefetch (baselines @ List.concat_map snd columns);
  let table =
    Table.make
      ~title:
        "Ablation: indirect-prediction shootout (related work), Lua geomean"
      ~headers:[ "technique"; "geomean speedup"; "mean branch MPKI";
                 "mean instr ratio" ]
  in
  let baselines = List.map Sweep.get baselines in
  List.iter
    (fun (label, cells) ->
      let ratios, mpkis, instr_ratios =
        List.fold_left2
          (fun (rs, ms, is) baseline c ->
            let r = Sweep.get c in
            ( Sweep.speedup_ratio ~baseline r :: rs,
              Stats.branch_mpki r.stats :: ms,
              (float_of_int (Driver.instructions r)
               /. float_of_int (Driver.instructions baseline))
              :: is ))
          ([], [], []) baselines cells
      in
      Table.add_row table
        [ label;
          Table.cell_percent (Sweep.geomean_speedup_percent ratios);
          Table.cell_float (Summary.mean mpkis);
          Printf.sprintf "%.3f" (Summary.geomean instr_ratios) ])
    columns;
  [ table ]

let indirect_experiment =
  {
    Experiment.id = "abl-ind";
    paper = "Section VII (related work)";
    title = "BTB vs TTC vs ITTAGE vs VBBI vs SCD";
    run = run_indirect;
  }

(* ------------------------------------------------------------------ *)
(* Optimal JTE cap search (Section VI-C1 future work)                  *)
(* ------------------------------------------------------------------ *)

let run_cap_search ~quick =
  let scale = Sweep.scale_for ~quick Scd_workloads.Workload.Small in
  let caps = [ Some 4; Some 8; Some 12; Some 16; Some 24; Some 32; None ] in
  let cap_name = function None -> "inf" | Some c -> string_of_int c in
  let small = Config.with_btb_entries Config.simulator 64 in
  let rows =
    List.map
      (fun w ->
        ( w,
          Sweep.cell ~machine:small ~scale "lua" Scd_core.Scheme.Baseline w,
          List.map
            (fun cap ->
              ( cap,
                Sweep.cell_custom ~tag:("capsearch-" ^ cap_name cap)
                  { (lua_config Scd_core.Scheme.Scd) with
                    machine = Config.with_jte_cap small cap }
                  w scale ))
            caps ))
      Sweep.workloads
  in
  Sweep.prefetch (List.concat_map (fun (_, b, cs) -> b :: List.map snd cs) rows);
  let table =
    Table.make
      ~title:
        "Ablation: optimal JTE cap per benchmark at a 64-entry BTB (the paper's future work)"
      ~headers:[ "benchmark"; "best cap"; "speedup at best";
                 "speedup uncapped"; "gain from capping" ]
  in
  List.iter
    (fun ((w : Scd_workloads.Workload.t), b, cs) ->
      let baseline = Sweep.get b in
      let runs =
        List.map (fun (cap, c) -> (cap, Sweep.speedup ~baseline (Sweep.get c))) cs
      in
      let best_cap, best = List.fold_left
          (fun (bc, bs) (c, s) -> if s > bs then (c, s) else (bc, bs))
          (List.hd runs) (List.tl runs)
      in
      let uncapped = List.assoc None runs in
      Table.add_row table
        [ w.name; cap_name best_cap; Table.cell_percent best;
          Table.cell_percent uncapped; Table.cell_percent (best -. uncapped) ])
    rows;
  [ table ]

let cap_search_experiment =
  {
    Experiment.id = "abl-cap";
    paper = "Section VI-C1 (future work)";
    title = "Selecting an optimal JTE cap value";
    run = run_cap_search;
  }

(* ------------------------------------------------------------------ *)
(* Superinstructions (Ertl & Gregg) vs and with SCD                    *)
(* ------------------------------------------------------------------ *)

let run_superinstructions ~quick =
  let scale = Sweep.scale_for ~quick Scd_workloads.Workload.Sim in
  let super tag scheme w =
    Sweep.cell_custom ~tag { (lua_config scheme) with superinstructions = true }
      w scale
  in
  let rows =
    List.map
      (fun w ->
        ( w,
          Sweep.cell ~scale "lua" Scd_core.Scheme.Baseline w,
          super "super-base" Scd_core.Scheme.Baseline w,
          Sweep.cell ~scale "lua" Scd_core.Scheme.Scd w,
          super "super-scd" Scd_core.Scheme.Scd w ))
      Sweep.workloads
  in
  Sweep.prefetch (List.concat_map (fun (_, b, su, s, bo) -> [ b; su; s; bo ]) rows);
  let table =
    Table.make
      ~title:
        "Ablation: superinstructions (Ertl & Gregg) vs and combined with SCD, Lua"
      ~headers:
        [ "benchmark"; "super speedup"; "scd speedup"; "scd+super speedup";
          "bytecode ratio (super)" ]
  in
  let super_r = ref [] and scd_r = ref [] and both_r = ref [] in
  List.iter
    (fun ((w : Scd_workloads.Workload.t), b, su, s, bo) ->
      let baseline = Sweep.get b and super = Sweep.get su in
      let scd = Sweep.get s and both = Sweep.get bo in
      super_r := Sweep.speedup_ratio ~baseline super :: !super_r;
      scd_r := Sweep.speedup_ratio ~baseline scd :: !scd_r;
      both_r := Sweep.speedup_ratio ~baseline both :: !both_r;
      Table.add_row table
        [ w.name;
          Table.cell_percent (Sweep.speedup ~baseline super);
          Table.cell_percent (Sweep.speedup ~baseline scd);
          Table.cell_percent (Sweep.speedup ~baseline both);
          Printf.sprintf "%.3f"
            (float_of_int super.bytecodes /. float_of_int baseline.bytecodes) ])
    rows;
  Table.add_separator table;
  Table.add_row table
    [ "GEOMEAN";
      Table.cell_percent (Sweep.geomean_speedup_percent !super_r);
      Table.cell_percent (Sweep.geomean_speedup_percent !scd_r);
      Table.cell_percent (Sweep.geomean_speedup_percent !both_r);
      "" ];
  [ table ]

let superinstructions_experiment =
  {
    Experiment.id = "abl-super";
    paper = "Section VII (related work)";
    title = "Superinstructions vs and combined with SCD";
    run = run_superinstructions;
  }

(* ------------------------------------------------------------------ *)
(* Bytecode replication (Ertl & Gregg) under JT and SCD                *)
(* ------------------------------------------------------------------ *)

let run_replication ~quick =
  let scale = Sweep.scale_for ~quick Scd_workloads.Workload.Small in
  let variants =
    [ ("jt", Scd_core.Scheme.Jump_threading, false);
      ("jt+repl", Scd_core.Scheme.Jump_threading, true);
      ("scd", Scd_core.Scheme.Scd, false);
      ("scd+repl", Scd_core.Scheme.Scd, true) ]
  in
  let btbs =
    List.map
      (fun (label, btb) ->
        let machine = Config.with_btb_entries Config.simulator btb in
        ( label,
          List.map
            (fun (w : Scd_workloads.Workload.t) ->
              ( w,
                Sweep.cell ~machine ~scale "lua" Scd_core.Scheme.Baseline w,
                List.map
                  (fun (n, scheme, repl) ->
                    Sweep.cell_custom ~tag:(Printf.sprintf "repl-%s-%d" n btb)
                      { (lua_config scheme) with machine;
                        bytecode_replication = repl }
                      w scale)
                  variants ))
            Sweep.workloads ))
      [ ("256-entry BTB", 256); ("64-entry BTB", 64) ]
  in
  Sweep.prefetch
    (List.concat_map
       (fun (_, rows) -> List.concat_map (fun (_, b, vs) -> b :: vs) rows)
       btbs);
  List.map
    (fun (label, rows) ->
      let table =
        Table.make
          ~title:
            (Printf.sprintf
               "Ablation: bytecode replication under JT and SCD, Lua, %s" label)
          ~headers:("benchmark" :: List.map (fun (n, _, _) -> n) variants)
      in
      let accs = List.map (fun _ -> ref []) variants in
      List.iter
        (fun ((w : Scd_workloads.Workload.t), b, vs) ->
          let baseline = Sweep.get b in
          let cells =
            List.map2
              (fun acc c ->
                let r = Sweep.get c in
                acc := Sweep.speedup_ratio ~baseline r :: !acc;
                Table.cell_percent (Sweep.speedup ~baseline r))
              accs vs
          in
          Table.add_row table (w.name :: cells))
        rows;
      Table.add_separator table;
      Table.add_row table
        ("GEOMEAN"
        :: List.map
             (fun acc -> Table.cell_percent (Sweep.geomean_speedup_percent !acc))
             accs);
      table)
    btbs

let replication_experiment =
  {
    Experiment.id = "abl-repl";
    paper = "Section VII (related work)";
    title = "Bytecode replication under jump threading and SCD";
    run = run_replication;
  }

let all =
  [ multi_table_experiment; bop_policy_experiment; context_switch_experiment;
    indirect_experiment; cap_search_experiment; superinstructions_experiment;
    replication_experiment ]
